// Experiment 5 — §3.2's deduction step: indoor/outdoor inference and claim
// verification ("These deductions can be used to independently verify
// claims about a node installation").
//
// Runs the full calibration pipeline at all three sites twice: once with
// honest operator claims and once with inflated ones (claims outdoor +
// omnidirectional + 100 MHz - 6 GHz), and prints classification, trust
// scores and the findings that justify them. Exits 1 when the shape check
// at the end fails (a ctest entry runs it).
#include <iostream>

#include "scenario/testbed.hpp"
#include "util/table.hpp"

using namespace speccal;

namespace {
calib::CalibrationReport run(scenario::Site site, bool inflated_claims,
                             const calib::WorldModel& world) {
  const auto setup = scenario::make_site(site, 2023);
  auto device = scenario::make_node(setup, world, 2023);

  calib::NodeClaims claims;
  claims.node_id = std::string(scenario::site_name(site)) +
                   (inflated_claims ? "-inflated" : "-honest");
  claims.min_freq_hz = 100e6;
  claims.max_freq_hz = 6e9;
  claims.claims_outdoor = inflated_claims || site == scenario::Site::kRooftop;
  claims.claims_omnidirectional = inflated_claims;

  calib::PipelineConfig cfg;
  cfg.survey.fidelity = calib::Fidelity::kLinkBudget;  // sweep-friendly
  calib::CalibrationPipeline pipeline(world, cfg);
  return pipeline.calibrate(*device, claims);
}
}  // namespace

int main() {
  std::cout << "==========================================================\n";
  std::cout << " Exp 5: installation classification & claim verification\n";
  std::cout << "==========================================================\n";
  const auto world = scenario::make_world(2023);

  util::Table table({"node", "classified as", "conf", "trust", "violations"});
  std::vector<calib::CalibrationReport> reports;
  bool shape_ok = true;
  for (auto site : {scenario::Site::kRooftop, scenario::Site::kWindow,
                    scenario::Site::kIndoor}) {
    for (bool inflated : {false, true}) {
      auto report = run(site, inflated, world);
      const auto type = report.classification.type;
      switch (site) {
        case scenario::Site::kRooftop:
          shape_ok &= !report.classification.indoor();
          break;
        case scenario::Site::kWindow:
          shape_ok &= type == calib::InstallationType::kIndoorWindow;
          break;
        case scenario::Site::kIndoor:
          shape_ok &= type == calib::InstallationType::kIndoorDeep;
          break;
      }
      // Honest claims hold everywhere; inflated ones are caught off the roof.
      if (!inflated) shape_ok &= report.trust.violations() == 0;
      else if (site != scenario::Site::kRooftop)
        shape_ok &= report.trust.violations() > 0;
      table.add_row({report.claims.node_id,
                     calib::to_string(report.classification.type),
                     util::format_fixed(report.classification.confidence, 2),
                     util::format_fixed(report.trust.score, 0),
                     std::to_string(report.trust.violations())});
      reports.push_back(std::move(report));
    }
  }
  table.print(std::cout);

  std::cout << "\nFindings for the inflated-claim nodes:\n";
  for (const auto& report : reports) {
    if (report.claims.node_id.find("inflated") == std::string::npos) continue;
    std::cout << "  " << report.claims.node_id << ":\n";
    for (const auto& f : report.trust.findings) {
      const char* tag = f.severity == calib::Severity::kViolation
                            ? "VIOLATION"
                            : f.severity == calib::Severity::kWarning ? "warning"
                                                                      : "info";
      std::cout << "    [" << tag << "] " << f.description << "\n";
    }
  }

  std::cout << "\nClassification rationale (honest nodes):\n";
  for (const auto& report : reports) {
    if (report.claims.node_id.find("honest") == std::string::npos) continue;
    std::cout << "  " << report.claims.node_id << " -> "
              << calib::to_string(report.classification.type) << "\n";
    for (const auto& reason : report.classification.rationale)
      std::cout << "    - " << reason << "\n";
  }

  std::cout << "\nShape check: the rooftop node classifies outdoor, the window\n"
               "node indoor-window, the interior node indoor-deep; inflated\n"
               "claims are caught at the window and indoor sites.\n";
  return shape_ok ? 0 : 1;
}

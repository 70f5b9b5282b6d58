// Experiment 8 — §3.3: automatic verification of CBRS self-reports.
//
// "every CBRS modem is required to self-report its location, indoor/outdoor
//  status, installation situation ... The methodologies proposed in this
//  paper provide valuable insights that can aid in the development of an
//  automatic verification system."
//
// Sweeps a matrix of CBSD registrations (honest and dishonest combinations
// of siting, category and location) against calibration evidence at the
// three testbed sites and prints the SAS-side verdicts and EIRP grants.
// Exits 1 unless exactly the honest registrations and "rooftop claiming
// indoor" verify (a ctest entry runs it).
#include <iostream>

#include "cbrs/verify.hpp"
#include "scenario/testbed.hpp"
#include "util/table.hpp"

using namespace speccal;

namespace {
calib::CalibrationReport calibrate(scenario::Site site,
                                   const calib::WorldModel& world) {
  const auto setup = scenario::make_site(site, 2023);
  auto device = scenario::make_node(setup, world, 2023);
  calib::NodeClaims claims;
  claims.node_id = scenario::site_name(site);
  calib::PipelineConfig cfg;
  cfg.survey.fidelity = calib::Fidelity::kLinkBudget;
  return calib::CalibrationPipeline(world, cfg).calibrate(*device, claims);
}
}  // namespace

int main() {
  std::cout << "==========================================================\n";
  std::cout << " Exp 8: CBRS CBSD self-report verification (paper 3.3)\n";
  std::cout << "==========================================================\n";
  const auto world = scenario::make_world(2023);
  const cbrs::CbsdVerifier verifier;

  struct Case {
    const char* label;
    scenario::Site actual_site;
    bool claims_indoor;
    cbrs::Category category;
    double false_location_km;  // 0 = honest coordinates
    bool should_verify;        // the shape check's expected verdict
  };
  const Case cases[] = {
      {"honest indoor Cat A", scenario::Site::kIndoor, true, cbrs::Category::kA, 0, true},
      {"indoor claiming outdoor", scenario::Site::kIndoor, false, cbrs::Category::kA, 0,
       false},
      {"honest rooftop Cat A", scenario::Site::kRooftop, false, cbrs::Category::kA, 0,
       true},
      {"window claiming Cat B", scenario::Site::kWindow, false, cbrs::Category::kB, 0,
       false},
      {"rooftop, faked coordinates", scenario::Site::kRooftop, false,
       cbrs::Category::kA, 25.0, false},
      // An indoor claim from an outdoor siting overstates nothing, so it
      // verifies.
      {"rooftop claiming indoor", scenario::Site::kRooftop, true, cbrs::Category::kA, 0,
       true},
  };
  bool shape_ok = true;

  util::Table table({"case", "verdict", "EIRP grant dBm", "violations",
                     "loc err (median) km"});
  std::vector<std::pair<std::string, cbrs::VerificationResult>> details;
  for (const auto& c : cases) {
    const auto report = calibrate(c.actual_site, world);
    cbrs::CbsdRegistration reg;
    reg.cbsd_id = c.label;
    reg.category = c.category;
    reg.reported_position = scenario::make_site(c.actual_site, 2023).position;
    if (c.false_location_km > 0.0)
      reg.reported_position =
          geo::destination(reg.reported_position, 140.0, c.false_location_km * 1e3);
    reg.indoor_deployment = c.claims_indoor;
    reg.antenna_height_m = 4.0;
    reg.max_eirp_dbm = c.category == cbrs::Category::kB ? cbrs::kCatBMaxEirpDbm
                                                        : cbrs::kCatAMaxEirpDbm;
    const auto result = verifier.verify(reg, report);
    shape_ok &= (result.verdict == cbrs::Verdict::kVerified) == c.should_verify;

    int violations = 0;
    for (const auto& f : result.findings) violations += f.violation ? 1 : 0;
    table.add_row({c.label, cbrs::to_string(result.verdict),
                   result.recommended_eirp_dbm < -100.0
                       ? "DENIED"
                       : util::format_fixed(result.recommended_eirp_dbm, 0),
                   std::to_string(violations),
                   util::format_fixed(result.location_inconsistency_m / 1e3, 1)});
    details.emplace_back(c.label, result);
  }
  table.print(std::cout);

  std::cout << "\nFindings:\n";
  for (const auto& [label, result] : details) {
    if (result.verdict == cbrs::Verdict::kVerified) continue;
    std::cout << "  " << label << ":\n";
    for (const auto& f : result.findings)
      if (f.violation) std::cout << "    - " << f.description << "\n";
  }

  std::cout << "\nReading: honest registrations verify and receive their\n"
               "category cap (indoor sitings get the indoor haircut); gaming\n"
               "attempts — outdoor claims from indoor sites, Category B from a\n"
               "window, faked coordinates — are caught from the same ADS-B +\n"
               "cellular + TV evidence the paper's calibration collects.\n";
  return shape_ok ? 0 : 1;
}

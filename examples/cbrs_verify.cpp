// Example: SAS-side verification of a CBRS device registration (§3.3).
//
// A CBSD self-reports its siting; a co-located calibrated spectrum sensor
// provides the evidence; the verifier decides what EIRP the SAS should
// grant. Run with the device's claimed parameters:
//
//   ./cbrs_verify [site] [indoor|outdoor] [A|B]
//
// e.g. `./cbrs_verify indoor outdoor A` = a device physically indoors
// claiming an outdoor Category A installation.
#include <iostream>
#include <string>

#include "cbrs/verify.hpp"
#include "scenario/testbed.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

using namespace speccal;

int main(int argc, char** argv) {
  scenario::Site site = scenario::Site::kIndoor;
  bool claims_indoor = true;
  cbrs::Category category = cbrs::Category::kA;
  try {
    util::Args args(argc, argv);
    site = args.word("site", site,
                     {{"rooftop", scenario::Site::kRooftop},
                      {"window", scenario::Site::kWindow},
                      {"indoor", scenario::Site::kIndoor}});
    claims_indoor = args.word("deployment", claims_indoor,
                              {{"indoor", true}, {"outdoor", false}});
    category = args.word("category", category,
                         {{"A", cbrs::Category::kA}, {"B", cbrs::Category::kB}});
    args.finish();
  } catch (const std::invalid_argument& e) {
    return util::usage_error("cbrs_verify", e.what(),
                             "[rooftop|window|indoor] [indoor|outdoor] [A|B]");
  }

  constexpr std::uint64_t kSeed = 29;
  const auto world = scenario::make_world(kSeed);
  const auto setup = scenario::make_site(site, kSeed);
  auto device = scenario::make_node(setup, world, kSeed);

  std::cout << "Calibrating the co-located sensor at the "
            << scenario::site_name(site) << " site...\n";
  calib::NodeClaims claims;
  claims.node_id = "cbsd-sensor";
  calib::PipelineConfig cfg;
  cfg.survey.fidelity = calib::Fidelity::kLinkBudget;
  const auto report =
      calib::CalibrationPipeline(world, cfg).calibrate(*device, claims);

  cbrs::CbsdRegistration reg;
  reg.cbsd_id = "CBSD-0001";
  reg.category = category;
  reg.reported_position = setup.position;
  reg.indoor_deployment = claims_indoor;
  reg.antenna_height_m = 4.0;
  reg.max_eirp_dbm = category == cbrs::Category::kB ? cbrs::kCatBMaxEirpDbm
                                                    : cbrs::kCatAMaxEirpDbm;

  const auto result = cbrs::CbsdVerifier{}.verify(reg, report);

  std::cout << "\nregistration : " << cbrs::to_string(category) << ", "
            << (claims_indoor ? "indoor" : "outdoor") << " deployment, "
            << reg.max_eirp_dbm << " dBm requested\n";
  std::cout << "evidence     : " << calib::to_string(report.classification.type)
            << " (confidence "
            << util::format_fixed(report.classification.confidence, 2) << ")\n";
  std::cout << "verdict      : " << cbrs::to_string(result.verdict) << "\n";
  std::cout << "EIRP grant   : ";
  if (result.recommended_eirp_dbm < -100.0)
    std::cout << "DENIED\n";
  else
    std::cout << util::format_fixed(result.recommended_eirp_dbm, 0)
              << " dBm / 10 MHz\n";
  std::cout << "findings:\n";
  for (const auto& f : result.findings)
    std::cout << "  [" << (f.violation ? "VIOLATION" : "info") << "] "
              << f.description << "\n";
  return 0;
}

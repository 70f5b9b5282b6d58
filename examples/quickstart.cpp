// Quickstart: calibrate one sensor node end-to-end.
//
// Builds the paper's testbed world (simulated sky, cell towers, TV
// stations), places a node behind a window, runs the full calibration
// pipeline — ADS-B survey, cellular scan, TV sweep, classification, trust —
// and prints the report (plus its JSON form).
//
// Run: ./quickstart [site]   where site = rooftop | window | indoor
#include <iostream>
#include <string>

#include "scenario/testbed.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

using namespace speccal;

int main(int argc, char** argv) {
  scenario::Site site = scenario::Site::kWindow;
  try {
    util::Args args(argc, argv);
    site = args.word("site", site,
                     {{"rooftop", scenario::Site::kRooftop},
                      {"window", scenario::Site::kWindow},
                      {"indoor", scenario::Site::kIndoor}});
    args.finish();
  } catch (const std::invalid_argument& e) {
    return util::usage_error("quickstart", e.what(), "[rooftop|window|indoor]");
  }

  constexpr std::uint64_t kSeed = 2023;
  std::cout << "Building world (sky + towers + TV stations)...\n";
  const calib::WorldModel world = scenario::make_world(kSeed);
  const scenario::SiteSetup setup = scenario::make_site(site, kSeed);
  auto device = scenario::make_node(setup, world, kSeed);

  calib::NodeClaims claims;
  claims.node_id = scenario::site_name(site);
  claims.min_freq_hz = 100e6;
  claims.max_freq_hz = 6e9;
  claims.claims_outdoor = true;          // the operator *claims* a clear view...
  claims.claims_omnidirectional = true;  // ...let the calibration check it

  calib::PipelineConfig config;
  config.survey.duration_s = 30.0;  // the paper's measurement window
  calib::CalibrationPipeline pipeline(world, config);

  std::cout << "Calibrating node '" << claims.node_id << "' (30 s ADS-B survey, "
            << "5-tower cell scan, 6-channel TV sweep)...\n\n";
  const calib::CalibrationReport report = pipeline.calibrate(*device, claims);

  std::cout << "ADS-B: " << report.survey.received_count() << "/"
            << report.survey.observations.size()
            << " ground-truth aircraft received ("
            << report.survey.total_frames_decoded << " frames, "
            << report.survey.frames_crc_repaired << " CRC-repaired)\n";
  std::cout << "Field of view: " << report.fov.open_sectors.to_string() << " ("
            << static_cast<int>(report.fov.open_fraction_deg * 100.0)
            << "% of horizon open)\n\n";

  util::Table cells({"tower", "band", "freq MHz", "RSRP dBm", "decoded"});
  for (const auto& m : report.cell_scan)
    cells.add_row({m.cell.operator_name + " #" + std::to_string(m.cell.cell_id),
                   "B" + std::to_string(m.cell.band),
                   util::format_fixed(m.cell.dl_freq_hz / 1e6, 0),
                   m.decoded ? util::format_fixed(m.rsrp_dbm, 1) : "-",
                   m.decoded ? "yes" : "NO"});
  cells.set_title("Cellular scan");
  cells.print(std::cout);

  util::Table tv({"channel", "freq MHz", "power dBFS"});
  for (const auto& r : report.tv_readings)
    tv.add_row({std::to_string(r.rf_channel),
                util::format_fixed(r.center_hz / 1e6, 0),
                util::format_fixed(r.power_dbfs, 1)});
  tv.set_title("\nBroadcast TV sweep");
  tv.print(std::cout);

  std::cout << "\nClassification: " << calib::to_string(report.classification.type)
            << " (confidence " << util::format_fixed(report.classification.confidence, 2)
            << ")\n";
  for (const auto& reason : report.classification.rationale)
    std::cout << "  - " << reason << "\n";

  std::cout << "\nTrust score: " << util::format_fixed(report.trust.score, 0) << "/100\n";
  for (const auto& f : report.trust.findings)
    std::cout << "  ["
              << (f.severity == calib::Severity::kViolation
                      ? "VIOLATION"
                      : f.severity == calib::Severity::kWarning ? "warning" : "info")
              << "] " << f.description << "\n";

  std::cout << "\nJSON report:\n";
  report.write_json(std::cout);
  std::cout << "\n";
  return 0;
}

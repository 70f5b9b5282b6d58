// Example: full multi-band site survey — what a prospective sensor-node
// operator would run before listing a node on the marketplace.
//
// Sweeps all three signal sources (ADS-B, cellular, broadcast TV) at a
// chosen site, prints the per-band attenuation picture, and answers the
// §3.2 question directly: "which frequency bands can this node actually
// monitor, and from which directions?"
//
// Run: ./site_survey [rooftop|window|indoor]
#include <iostream>
#include <string>

#include "scenario/testbed.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

using namespace speccal;

int main(int argc, char** argv) {
  scenario::Site site = scenario::Site::kRooftop;
  try {
    util::Args args(argc, argv);
    site = args.word("site", site,
                     {{"rooftop", scenario::Site::kRooftop},
                      {"window", scenario::Site::kWindow},
                      {"indoor", scenario::Site::kIndoor}});
    args.finish();
  } catch (const std::invalid_argument& e) {
    return util::usage_error("site_survey", e.what(), "[rooftop|window|indoor]");
  }

  constexpr std::uint64_t kSeed = 11;
  const auto world = scenario::make_world(kSeed);
  const auto setup = scenario::make_site(site, kSeed);
  auto device = scenario::make_node(setup, world, kSeed);

  calib::NodeClaims claims;
  claims.node_id = scenario::site_name(site);
  claims.min_freq_hz = 100e6;
  claims.max_freq_hz = 6e9;

  calib::PipelineConfig cfg;
  cfg.survey.duration_s = 15.0;
  cfg.survey.ground_truth_query_at_s = 7.5;
  calib::CalibrationPipeline pipeline(world, cfg);

  std::cout << "Running full site survey at '" << claims.node_id
            << "' (TV power: Welch PSD integrated over each channel)...\n\n";
  const auto report = pipeline.calibrate(*device, claims);

  // Per-source view: expectation vs measurement, the §3.2 core table.
  util::Table sources({"source", "freq MHz", "azimuth", "expected dBm",
                       "measured dBm", "attenuation dB"});
  for (const auto& m : report.frequency_response.measurements) {
    sources.add_row({
        m.source_label,
        util::format_fixed(m.freq_hz / 1e6, 0),
        util::format_fixed(m.azimuth_deg, 0),
        util::format_fixed(m.expected_dbm, 1),
        m.measured_dbm ? util::format_fixed(*m.measured_dbm, 1) : "LOST",
        m.measured_dbm ? util::format_fixed(m.expected_dbm - *m.measured_dbm, 1)
                       : ">" + util::format_fixed(35.0, 0),
    });
  }
  sources.set_title("Known-signal measurements vs clear-sky expectation");
  sources.print(std::cout);

  util::Table bands({"band class", "sources", "received", "mean atten dB",
                     "usable for monitoring"});
  for (const auto& b : report.frequency_response.bands) {
    bands.add_row({cellular::to_string(b.band_class),
                   std::to_string(b.sources_total),
                   std::to_string(b.sources_received),
                   util::format_fixed(b.mean_attenuation_db, 1),
                   b.usable ? "yes" : "NO"});
  }
  bands.set_title("\nPer-band verdict");
  bands.print(std::cout);

  std::cout << "\nfield of view        : " << report.fov.open_sectors.to_string()
            << " (" << static_cast<int>(report.fov.open_fraction_deg * 100.0)
            << "% open)\n";
  std::cout << "attenuation slope    : "
            << util::format_fixed(
                   report.frequency_response.attenuation_slope_db_per_decade, 1)
            << " dB/decade (positive = indoor signature)\n";
  std::cout << "installation verdict : "
            << calib::to_string(report.classification.type) << " (confidence "
            << util::format_fixed(report.classification.confidence, 2) << ")\n";
  for (const auto& reason : report.classification.rationale)
    std::cout << "   - " << reason << "\n";

  std::cout << "\nhardware diagnosis   : "
            << (report.hardware.healthy() ? "healthy" : "FAULT SUSPECTED") << "\n";
  for (const auto& note : report.hardware.notes) std::cout << "   - " << note << "\n";
  std::cout << "reference oscillator : ";
  if (report.lo_calibration.usable())
    std::cout << util::format_fixed(report.lo_calibration.ppm, 2) << " ppm (from "
              << report.lo_calibration.valid_count << " TV pilots)\n";
  else
    std::cout << "no receivable pilot to calibrate against\n";
  return 0;
}

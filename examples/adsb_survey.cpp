// Example: run just the ADS-B directional survey (the paper's §3.1
// procedure) and inspect it aircraft by aircraft — the programmatic
// equivalent of watching dump1090 + FlightRadar24 side by side.
//
// Run: ./adsb_survey [seconds] [aircraft]     (defaults: 30 s, 70 aircraft)
// Both are JSON numbers (util::JsonReader); anything else, a non-positive
// duration or a fractional or negative aircraft count is a usage error.
#include <iostream>

#include "calib/fov.hpp"
#include "scenario/testbed.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

using namespace speccal;

int main(int argc, char** argv) {
  double duration_s = 30.0;
  std::size_t aircraft = 70;
  try {
    util::Args args(argc, argv);
    duration_s = args.number("seconds", duration_s);
    aircraft = args.integer("aircraft", aircraft);
    args.finish();
    if (duration_s <= 0.0)
      throw std::invalid_argument("seconds must be positive");
  } catch (const std::invalid_argument& e) {
    return util::usage_error("adsb_survey", e.what(), "[seconds] [aircraft]");
  }

  constexpr std::uint64_t kSeed = 7;
  const auto world = scenario::make_world(kSeed, aircraft);
  const auto setup = scenario::make_site(scenario::Site::kRooftop, kSeed);
  auto device = scenario::make_node(setup, world, kSeed);
  airtraffic::GroundTruthService ground_truth(*world.sky,
                                              world.ground_truth_latency_s);

  calib::SurveyConfig cfg;
  cfg.duration_s = duration_s;
  cfg.ground_truth_query_at_s = duration_s / 2.0;
  std::cout << "Surveying 1090 MHz for " << duration_s << " s over a sky of "
            << aircraft << " aircraft (rooftop site)...\n";
  const auto result = calib::AdsbSurvey(cfg).run(*device, *world.sky, ground_truth);

  util::Table table({"icao", "callsign", "azimuth", "range km", "status",
                     "msgs", "best RSSI dBFS", "decode err m"});
  for (const auto& obs : result.observations) {
    std::string decode_err = "-";
    if (obs.decoded_position)
      decode_err = util::format_fixed(
          geo::haversine_m(obs.position, *obs.decoded_position), 0);
    char icao_hex[16];
    std::snprintf(icao_hex, sizeof icao_hex, "%06X", obs.icao);
    table.add_row({icao_hex, obs.callsign,
                   util::format_fixed(obs.azimuth_deg, 0),
                   util::format_fixed(obs.range_km, 1),
                   obs.received ? "RECEIVED" : "missed",
                   std::to_string(obs.messages),
                   obs.received ? util::format_fixed(obs.best_rssi_dbfs, 1) : "-",
                   decode_err});
  }
  table.set_title("Ground truth vs reception (paper Figure 1, one site)");
  table.print(std::cout);

  std::cout << "\nreceived " << result.received_count() << "/"
            << result.observations.size() << " aircraft, "
            << result.total_frames_decoded << " frames ("
            << result.frames_crc_repaired << " CRC-repaired), "
            << result.unmatched_receptions << " unmatched receptions\n";

  const auto fov = calib::estimate_fov_knn(result);
  std::cout << "estimated field of view: " << fov.open_sectors.to_string()
            << "  (true: "
            << setup.obstructions->clear_sectors(1090e6).to_string() << ")\n";
  return 0;
}

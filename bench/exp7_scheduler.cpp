// Experiment 7 — §5 "End-to-end system": measurement scheduling.
//
// "An end-to-end system must decide when to perform ADS-B measurements to
//  gain as much information as possible, as flight schedules vary over
//  time."
//
// Feeds the greedy scheduler a realistic diurnal traffic profile and prints
// the chosen windows, the coverage each adds, and a comparison against a
// naive every-other-hour schedule with the same measurement budget. Then
// validates the analytic coverage model against the sky simulator.
#include <iostream>

#include "calib/window_planner.hpp"
#include "scenario/testbed.hpp"
#include "util/table.hpp"

using namespace speccal;

namespace {

std::vector<calib::TrafficForecast> diurnal_profile() {
  // Flights/hour near a metro airport: overnight trickle, two banks.
  std::vector<calib::TrafficForecast> out;
  const double rates[24] = {4,  3,  2,  2,  3,  8,  25, 55, 70, 60, 45, 40,
                            42, 48, 50, 55, 75, 85, 80, 60, 40, 25, 12, 6};
  for (int h = 0; h < 24; ++h) out.push_back({static_cast<double>(h), rates[h]});
  return out;
}

double naive_coverage(const std::vector<calib::TrafficForecast>& profile,
                      std::size_t budget) {
  // Every floor(24/budget) hours, regardless of traffic.
  double miss = 1.0;
  const std::size_t stride = profile.size() / budget;
  for (std::size_t i = 0; i < budget; ++i) {
    const auto& f = profile[(i * stride) % profile.size()];
    const double aircraft =
        f.flights_per_hour * (calib::kMeasurementWindowS / 3600.0) + f.flights_per_hour * 0.2;
    miss *= 1.0 - calib::expected_sector_coverage(aircraft, calib::kAzimuthSectors);
  }
  return 1.0 - miss;
}

}  // namespace

int main() {
  std::cout << "==========================================================\n";
  std::cout << " Exp 7: when to measure — greedy scheduling vs naive\n";
  std::cout << "==========================================================\n";
  const auto profile = diurnal_profile();

  calib::ScheduleConfig cfg;
  cfg.max_windows = 6;
  cfg.min_marginal_gain = 0.0;
  const auto schedule = calib::WindowPlanner(cfg).plan(profile);

  util::Table table({"hour", "exp. aircraft", "new coverage", "plot"});
  for (const auto& w : schedule.windows)
    table.add_row({util::format_fixed(w.hour_of_day, 0),
                   util::format_fixed(w.expected_aircraft, 1),
                   util::format_fixed(w.expected_new_coverage, 3),
                   util::ascii_bar(w.expected_new_coverage, 0.0, 1.0, 30)});
  table.set_title("Greedy schedule (6 windows of 30 s)");
  table.print(std::cout);
  std::cout << "expected horizon coverage (greedy): "
            << util::format_fixed(schedule.expected_total_coverage, 3) << "\n";

  for (std::size_t budget : {2u, 4u, 6u, 12u}) {
    calib::ScheduleConfig c = cfg;
    c.max_windows = budget;
    const auto s = calib::WindowPlanner(c).plan(profile);
    std::cout << "budget " << budget << " windows: greedy "
              << util::format_fixed(s.expected_total_coverage, 3) << " vs naive "
              << util::format_fixed(naive_coverage(profile, budget), 3) << "\n";
  }

  // Validate the coverage model against the sky simulator: how many of the
  // 36 azimuth sectors does a real simulated sky of N aircraft touch?
  std::cout << "\ncoverage-model validation (analytic vs simulated sky):\n";
  for (std::size_t aircraft : {5u, 15u, 40u, 90u}) {
    double simulated = 0.0;
    constexpr int kRepeats = 10;
    for (int rep = 0; rep < kRepeats; ++rep) {
      const auto sky = scenario::make_sky(900 + static_cast<std::uint64_t>(rep),
                                          aircraft);
      std::array<bool, 36> touched{};
      for (const auto& at : sky->snapshot(0.0)) {
        const double az = geo::bearing_deg(scenario::testbed_origin(), at.position);
        touched[static_cast<std::size_t>(az / 10.0) % 36] = true;
      }
      int count = 0;
      for (bool t : touched) count += t ? 1 : 0;
      simulated += count / 36.0;
    }
    simulated /= kRepeats;
    std::cout << "  " << aircraft << " aircraft: analytic "
              << util::format_fixed(
                     calib::expected_sector_coverage(
                         static_cast<double>(aircraft), 36), 3)
              << " vs simulated " << util::format_fixed(simulated, 3) << "\n";
  }

  std::cout << "\nReading: concentrating measurements in the traffic banks beats\n"
               "a uniform schedule at small budgets; past ~6 windows the sky is\n"
               "effectively covered and extra measurements add little.\n";
  return 0;
}

#include "calib/window_planner.hpp"

#include <algorithm>
#include <cmath>

namespace speccal::calib {

double expected_sector_coverage(double aircraft, int sectors) noexcept {
  if (sectors <= 0) return 0.0;
  if (aircraft <= 0.0) return 0.0;
  // P(sector untouched) = (1 - 1/S)^n for n aircraft uniform over S sectors.
  const double p_missed =
      std::pow(1.0 - 1.0 / static_cast<double>(sectors), aircraft);
  return 1.0 - p_missed;
}

Schedule WindowPlanner::plan(const std::vector<TrafficForecast>& forecast) const {
  Schedule out;
  if (forecast.empty()) return out;

  // Aircraft visible during one window: arrival-rate * window plus the
  // standing population already airborne (flights within the radius stay
  // visible for several minutes; approximate the standing count as
  // flights_per_hour * 0.2 — a 12-minute mean transit through the disk).
  auto aircraft_in_window = [&](const TrafficForecast& f) {
    return f.flights_per_hour * (kMeasurementWindowS / 3600.0) + f.flights_per_hour * 0.2;
  };

  // Coverage composes as independent misses: after windows with coverages
  // c_i, the union covers 1 - prod(1 - c_i).
  std::vector<bool> used(forecast.size(), false);
  double miss_prob = 1.0;  // probability a sector is still uncovered

  for (std::size_t round = 0; round < config_.max_windows; ++round) {
    double best_gain = 0.0;
    std::size_t best_idx = forecast.size();
    for (std::size_t i = 0; i < forecast.size(); ++i) {
      if (used[i]) continue;
      const double c = expected_sector_coverage(aircraft_in_window(forecast[i]),
                                                kAzimuthSectors);
      const double gain = miss_prob * c;
      if (gain > best_gain) {
        best_gain = gain;
        best_idx = i;
      }
    }
    if (best_idx >= forecast.size() || best_gain < config_.min_marginal_gain) break;

    const double c = expected_sector_coverage(aircraft_in_window(forecast[best_idx]),
                                              kAzimuthSectors);
    ScheduledWindow w;
    w.hour_of_day = forecast[best_idx].hour_of_day;
    w.expected_aircraft = aircraft_in_window(forecast[best_idx]);
    w.expected_new_coverage = best_gain;
    out.windows.push_back(w);
    used[best_idx] = true;
    miss_prob *= 1.0 - c;
  }
  out.expected_total_coverage = 1.0 - miss_prob;
  std::sort(out.windows.begin(), out.windows.end(),
            [](const ScheduledWindow& a, const ScheduledWindow& b) {
              return a.hour_of_day < b.hour_of_day;
            });
  return out;
}

}  // namespace speccal::calib

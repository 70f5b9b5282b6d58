// Measurement-window planning — the paper's §5 "end-to-end system" item:
// "decide when to perform ADS-B measurements to gain as much information
//  as possible, as flight schedules vary over time."
//
// Given an hourly traffic forecast, WindowPlanner estimates the angular
// information each candidate window would contribute and greedily picks
// windows until the marginal gain flattens. (Formerly "the scheduler";
// renamed so the name stops colliding with the stage-graph executor's task
// scheduling.)
#pragma once

#include <cstdint>
#include <vector>

namespace speccal::calib {

/// Expected traffic for one candidate measurement window.
struct TrafficForecast {
  double hour_of_day = 0.0;     // window start
  double flights_per_hour = 0.0;
};

inline constexpr double kMeasurementWindowS = 30.0;  // paper's measurement length
inline constexpr int kAzimuthSectors = 36;            // information resolution

struct ScheduleConfig {
  std::size_t max_windows = 12;
  /// Stop adding windows when the expected newly-covered fraction of the
  /// horizon drops below this.
  double min_marginal_gain = 0.01;
};

struct ScheduledWindow {
  double hour_of_day = 0.0;
  double expected_aircraft = 0.0;
  double expected_new_coverage = 0.0;  // horizon fraction gained
};

struct Schedule {
  std::vector<ScheduledWindow> windows;
  double expected_total_coverage = 0.0;  // of the horizon, [0, 1]
};

/// Expected fraction of `sectors` azimuth sectors touched by `aircraft`
/// randomly-placed aircraft (coupon-collector coverage).
[[nodiscard]] double expected_sector_coverage(double aircraft, int sectors) noexcept;

/// Greedy measurement-window planner: repeatedly picks the hour with the
/// best marginal coverage gain, accounting for what is already covered.
class WindowPlanner {
 public:
  explicit WindowPlanner(ScheduleConfig config = {}) : config_(config) {}

  [[nodiscard]] Schedule plan(const std::vector<TrafficForecast>& forecast) const;

  [[nodiscard]] const ScheduleConfig& config() const noexcept { return config_; }

 private:
  ScheduleConfig config_;
};

}  // namespace speccal::calib

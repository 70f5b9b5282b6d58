// Ground-truth flight data service — the FlightRadar24 stand-in.
//
// The paper queries FlightRadar24 for all flights within 100 km of the
// sensor; FR24 reports with ~10 s latency, so reported positions lag truth
// by up to ~2.5 km. This service reproduces both the query semantics and
// the latency so the calibration logic is exercised against realistic
// (slightly stale) ground truth.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "airtraffic/sky.hpp"
#include "geo/wgs84.hpp"

namespace speccal::airtraffic {

/// One flight record as the external API would return it.
struct FlightRecord {
  std::uint32_t icao = 0;
  std::string callsign;
  geo::Geodetic position;       // position at (query time - latency)
  double ground_speed_kt = 0.0;
  double track_deg = 0.0;
  double report_age_s = 0.0;    // how stale this record is
};

class GroundTruthService {
 public:
  /// `latency_s` models the feed aggregation delay (paper: 10 s).
  GroundTruthService(const SkySimulator& sky, double latency_s = 10.0) noexcept
      : sky_(sky), latency_s_(latency_s) {}

  /// All flights whose *reported* position lies within `radius_m` of
  /// `center` at query time `t_s`.
  [[nodiscard]] std::vector<FlightRecord> query(const geo::Geodetic& center,
                                                double radius_m, double t_s) const;

 private:
  const SkySimulator& sky_;
  double latency_s_;
};

}  // namespace speccal::airtraffic

// Sky simulator: a population of aircraft around a point of interest and
// the exact sequence of ADS-B transmissions they emit.
#pragma once

#include <cstdint>
#include <vector>

#include "adsb/frame.hpp"
#include "airtraffic/aircraft.hpp"
#include "geo/wgs84.hpp"
#include "util/rng.hpp"

namespace speccal::airtraffic {

/// One squitter on the air. Short (56-bit, DF11) frames occupy the first
/// 7 bytes of `frame` with `bit_count` = 56.
struct TransmissionEvent {
  double time_s = 0.0;
  std::uint32_t icao = 0;
  adsb::RawFrame frame{};
  std::size_t bit_count = 112;
  geo::Geodetic tx_position;   // aircraft position when transmitting
  double tx_power_dbm = 54.0;
  double cfo_hz = 0.0;
};

/// Ground-speed range of the generated fleet [kt].
inline constexpr double kMinSpeedKt = 220.0;
inline constexpr double kMaxSpeedKt = 490.0;

struct SkyConfig {
  geo::Geodetic center;          // the sensor site
  double radius_m = 120e3;       // aircraft generated within this disk
  std::size_t aircraft_count = 60;
};

/// Deterministic sky: builds the fleet from (config, seed) and can list
/// every transmission in any time window.
class SkySimulator {
 public:
  SkySimulator(SkyConfig config, std::uint64_t seed);

  /// Direct construction from a fixed fleet (tests, handcrafted scenes).
  SkySimulator(geo::Geodetic center, std::vector<AircraftSpec> fleet);

  [[nodiscard]] const std::vector<AircraftSpec>& fleet() const noexcept { return fleet_; }
  [[nodiscard]] const geo::Geodetic& center() const noexcept { return center_; }

  /// All transmissions with time in [t0, t1), sorted by time.
  [[nodiscard]] std::vector<TransmissionEvent> events_between(double t0, double t1) const;

  /// Positions of the whole fleet at time t.
  [[nodiscard]] std::vector<AircraftAt> snapshot(double t_s) const;

 private:
  geo::Geodetic center_;
  std::vector<AircraftSpec> fleet_;
};

}  // namespace speccal::airtraffic

#include "airtraffic/sky.hpp"

#include <algorithm>
#include <cmath>

#include "adsb/altitude.hpp"
#include "util/units.hpp"

namespace speccal::airtraffic {

namespace {

constexpr double kMinAltitudeFt = 3000.0;
constexpr double kMaxAltitudeFt = 40000.0;
/// Fraction of aircraft flying roughly toward/away from the center
/// (an airport corridor effect); the rest fly uniform random tracks.
constexpr double kCorridorFraction = 0.3;

/// Synthesize an airline-style callsign from the fleet index.
[[nodiscard]] std::string make_callsign(util::Rng& rng, std::size_t index) {
  static constexpr const char* kAirlines[] = {"UAL", "DAL", "AAL", "SWA", "JBU",
                                              "ASA", "FDX", "UPS", "SKW", "NKS"};
  const auto airline = kAirlines[rng.uniform_int(0, 9)];
  return std::string(airline) + std::to_string(100 + (index * 7 + rng.uniform_int(0, 99)) % 900);
}

}  // namespace

SkySimulator::SkySimulator(SkyConfig config, std::uint64_t seed) : center_(config.center) {
  util::Rng rng(seed);
  fleet_.reserve(config.aircraft_count);
  for (std::size_t i = 0; i < config.aircraft_count; ++i) {
    AircraftSpec spec;
    spec.icao = static_cast<std::uint32_t>(0xA00000u + rng.uniform_int(0, 0xFFFFF));
    spec.callsign = make_callsign(rng, i);

    // Uniform over the disk: r ~ sqrt(u) * R.
    const double bearing = rng.uniform(0.0, 360.0);
    const double range = std::sqrt(rng.uniform()) * config.radius_m;
    spec.start = geo::destination(config.center, bearing, range);
    spec.start.alt_m = adsb::feet_to_m(rng.uniform(kMinAltitudeFt, kMaxAltitudeFt));

    if (rng.chance(kCorridorFraction)) {
      // Fly along the radial (inbound or outbound corridor).
      const double radial = geo::bearing_deg(config.center, spec.start);
      spec.track_deg = util::wrap_degrees(rng.chance(0.5) ? radial : radial + 180.0);
    } else {
      spec.track_deg = rng.uniform(0.0, 360.0);
    }
    spec.track_deg = util::wrap_degrees(spec.track_deg + rng.normal(0.0, 10.0));

    spec.ground_speed_kt = rng.uniform(kMinSpeedKt, kMaxSpeedKt);
    spec.vertical_rate_fpm =
        rng.chance(0.25) ? rng.uniform(-2000.0, 2000.0) : 0.0;
    // 75..500 W transponders, uniform in dB.
    spec.tx_power_dbm = rng.uniform(48.8, 57.0);
    spec.cfo_hz = rng.normal(0.0, 20e3);  // within +-1 MHz spec, typically tens of kHz

    spec.position_phase_s = rng.uniform(0.0, kPositionIntervalS);
    spec.velocity_phase_s = rng.uniform(0.0, kVelocityIntervalS);
    spec.ident_phase_s = rng.uniform(0.0, kIdentIntervalS);
    spec.all_call_phase_s = rng.uniform(0.0, kAllCallIntervalS);
    fleet_.push_back(std::move(spec));
  }
}

SkySimulator::SkySimulator(geo::Geodetic center, std::vector<AircraftSpec> fleet)
    : center_(center), fleet_(std::move(fleet)) {}

std::vector<TransmissionEvent> SkySimulator::events_between(double t0, double t1) const {
  std::vector<TransmissionEvent> events;
  for (const auto& spec : fleet_) {
    auto schedule = [&](double phase, double interval, auto&& emit) {
      // First index k with phase + k*interval >= t0.
      const double first = std::ceil((t0 - phase) / interval);
      for (double k = std::max(0.0, first);; k += 1.0) {
        const double t = phase + k * interval;
        if (t >= t1) break;
        emit(t, static_cast<std::uint64_t>(k));
      }
    };

    schedule(spec.position_phase_s, kPositionIntervalS,
             [&](double t, std::uint64_t k) {
               const AircraftAt at = aircraft_at(spec, t);
               TransmissionEvent ev;
               ev.time_s = t;
               ev.icao = spec.icao;
               ev.tx_position = at.position;
               ev.tx_power_dbm = spec.tx_power_dbm;
               ev.cfo_hz = spec.cfo_hz;
               // Alternate even/odd CPR format per transmission.
               ev.frame = adsb::build_position_frame(
                   spec.icao, at.position.lat_deg, at.position.lon_deg,
                   adsb::m_to_feet(at.position.alt_m), (k % 2) == 1);
               events.push_back(std::move(ev));
             });

    schedule(spec.velocity_phase_s, kVelocityIntervalS,
             [&](double t, std::uint64_t) {
               const AircraftAt at = aircraft_at(spec, t);
               TransmissionEvent ev;
               ev.time_s = t;
               ev.icao = spec.icao;
               ev.tx_position = at.position;
               ev.tx_power_dbm = spec.tx_power_dbm;
               ev.cfo_hz = spec.cfo_hz;
               ev.frame = adsb::build_velocity_frame(spec.icao, at.ground_speed_kt,
                                                     at.track_deg, at.vertical_rate_fpm);
               events.push_back(std::move(ev));
             });

    schedule(spec.ident_phase_s, kIdentIntervalS,
             [&](double t, std::uint64_t) {
               const AircraftAt at = aircraft_at(spec, t);
               TransmissionEvent ev;
               ev.time_s = t;
               ev.icao = spec.icao;
               ev.tx_position = at.position;
               ev.tx_power_dbm = spec.tx_power_dbm;
               ev.cfo_hz = spec.cfo_hz;
               ev.frame = adsb::build_ident_frame(spec.icao, spec.callsign);
               events.push_back(std::move(ev));
             });

    schedule(spec.all_call_phase_s, kAllCallIntervalS,
             [&](double t, std::uint64_t) {
               const AircraftAt at = aircraft_at(spec, t);
               TransmissionEvent ev;
               ev.time_s = t;
               ev.icao = spec.icao;
               ev.tx_position = at.position;
               ev.tx_power_dbm = spec.tx_power_dbm;
               ev.cfo_hz = spec.cfo_hz;
               ev.bit_count = 56;
               const adsb::ShortFrame short_frame = adsb::build_all_call(spec.icao);
               for (std::size_t i = 0; i < short_frame.size(); ++i)
                 ev.frame[i] = short_frame[i];
               events.push_back(std::move(ev));
             });
  }
  std::sort(events.begin(), events.end(),
            [](const TransmissionEvent& a, const TransmissionEvent& b) {
              return a.time_s < b.time_s;
            });
  return events;
}

std::vector<AircraftAt> SkySimulator::snapshot(double t_s) const {
  std::vector<AircraftAt> out;
  out.reserve(fleet_.size());
  for (const auto& spec : fleet_) out.push_back(aircraft_at(spec, t_s));
  return out;
}

}  // namespace speccal::airtraffic

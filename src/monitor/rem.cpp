#include "monitor/rem.hpp"

#include <cmath>

#include "util/units.hpp"

namespace speccal::monitor {

namespace {

/// Inverse-distance-weighting exponent.
constexpr double kIdwExponent = 2.0;
/// Observations beyond this range do not influence a query point.
constexpr double kMaxRangeM = 30e3;

}  // namespace

bool RadioEnvironmentMap::ingest(NodeObservation observation) {
  if (!observation.band_usable || observation.trust_weight < config_.min_trust) {
    ++rejected_;
    return false;
  }
  observations_.push_back(std::move(observation));
  return true;
}

std::optional<RemEstimate> RadioEnvironmentMap::estimate(
    const geo::Geodetic& where) const {
  double weight_sum = 0.0;
  double power_sum_db = 0.0;
  std::size_t contributors = 0;
  for (const auto& obs : observations_) {
    const double d = geo::haversine_m(where, obs.position);
    if (d > kMaxRangeM) continue;
    // IDW with a 1 m floor so a co-located node does not blow up.
    const double w =
        obs.trust_weight / std::pow(std::max(d, 1.0), kIdwExponent);
    weight_sum += w;
    // Interpolate in the dB domain: received-power fields are log-normal
    // (shadowing), and a linear-milliwatt mean would let a single strong
    // reading mask every poisoned weak one.
    power_sum_db += w * obs.power_dbm;
    ++contributors;
  }
  if (contributors == 0 || weight_sum <= 0.0) return std::nullopt;
  RemEstimate out;
  out.power_dbm = power_sum_db / weight_sum;
  out.total_weight = weight_sum;
  out.contributors = contributors;
  return out;
}

}  // namespace speccal::monitor

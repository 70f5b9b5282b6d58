// Radio Environment Map — the cloud-side aggregation the crowd feeds.
//
// Nodes upload per-channel power observations; the map interpolates a power
// surface over space. This is where calibration pays off operationally:
// each observation is weighted by the node's trust score and discarded
// entirely when the node's calibration says the band or direction is not
// usable — untrusted or siting-blinded sensors would otherwise poison the
// map (the failure mode the paper's introduction warns about).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "geo/wgs84.hpp"

namespace speccal::monitor {

/// One node's report of one channel.
struct NodeObservation {
  std::string node_id;
  geo::Geodetic position;
  double channel_low_hz = 0.0;
  double channel_high_hz = 0.0;
  double power_dbm = -200.0;
  /// Calibration outputs attached to the observation:
  double trust_weight = 1.0;   // 0..1 (trust score / 100)
  bool band_usable = true;     // node can actually monitor this band
};

struct RemConfig {
  /// Minimum trust for an observation to be admitted at all.
  double min_trust = 0.3;
};

struct RemEstimate {
  double power_dbm = -200.0;
  double total_weight = 0.0;       // confidence proxy
  std::size_t contributors = 0;
};

/// Trust-weighted inverse-distance power map for one channel.
class RadioEnvironmentMap {
 public:
  explicit RadioEnvironmentMap(RemConfig config = {}) noexcept : config_(config) {}

  /// Add an observation; silently drops unusable-band or low-trust reports
  /// (returns whether it was admitted).
  bool ingest(NodeObservation observation);

  /// Interpolated power at a location; nullopt when nothing in range.
  [[nodiscard]] std::optional<RemEstimate> estimate(const geo::Geodetic& where) const;

  [[nodiscard]] std::size_t size() const noexcept { return observations_.size(); }
  [[nodiscard]] std::size_t rejected() const noexcept { return rejected_; }

 private:
  RemConfig config_;
  std::vector<NodeObservation> observations_;
  std::size_t rejected_ = 0;
};

}  // namespace speccal::monitor

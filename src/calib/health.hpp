// Per-node fleet health scoring — fault history plus consensus divergence.
//
// A crowd-sourced monitoring network is operated on derived signals: which
// nodes are drifting away from the fleet, not just which ones crashed.
// HealthMonitor folds both views into one 0..100 score per node:
//
//   score = max(0, 100 - fault_penalty - crc_penalty - divergence_penalty)
//
//   fault_penalty       kRetryPenalty (20) once if the node has ANY fault
//                       records, + kQuarantinePenalty (45) per quarantined
//                       or deadline-expired stage, + kAbortPenalty (100) if
//                       the run aborted. Zero for a fault-free node.
//   crc_penalty         kCrcPenaltyMax (8) scaled by the node's ADS-B CRC
//                       repair rate (frames_crc_repaired / frames_decoded).
//   divergence_penalty  kDivergencePenaltyMax (7) scaled by the node's
//                       mean per-band TV-power residual against the fleet
//                       median (the consensus-divergence primitive from
//                       "Crowdsourced wireless spectrum anomaly detection"),
//                       saturating at kDivergenceFullScaleDb (12 dB).
//
// Separation guarantee (a static_assert in health.cpp, locked by
// tests/test_health.cpp): the two clean-node penalties sum to at most 15,
// strictly less than the smallest fault-class penalty (20) — so every node
// with a fault record scores <= 80 while every fault-free node scores
// >= 85, no matter how noisy its spectra. The unhealthy threshold (85)
// sits exactly on that gap.
//
// Outputs: a worst-first HealthReport with JSON export (schema v1),
// `speccal_node_health{node="..."}` gauges, and optional report annotation
// (a kWarning finding appended to flagged nodes only — clean reports stay
// byte-identical, preserving the bitwise parallel==serial invariant).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "calib/pipeline.hpp"

namespace speccal::obs {
class Registry;
}

namespace speccal::calib {

/// One node's health evaluation.
struct NodeHealth {
  std::string node_id;
  double score = 100.0;
  bool unhealthy = false;
  bool aborted = false;
  int recovered_stages = 0;
  int quarantined_stages = 0;  // incl. deadline-expired
  double crc_repair_rate = 0.0;
  double divergence_db = 0.0;  // mean |residual| vs fleet band medians
  double fault_penalty = 0.0;
  double crc_penalty = 0.0;
  double divergence_penalty = 0.0;
};

/// Fleet health snapshot, nodes ordered worst-first (score ascending,
/// node id as the tiebreak so exports are deterministic).
struct HealthReport {
  std::vector<NodeHealth> nodes;
  std::size_t unhealthy_count = 0;
  double unhealthy_threshold = 0.0;

  [[nodiscard]] const NodeHealth* find(const std::string& node_id) const noexcept;

  /// Machine-readable export (golden schema locked by tests):
  ///   {"schema_version":1,"unhealthy_threshold":85,"unhealthy_count":N,
  ///    "nodes":[{"node":...,"score":...,"unhealthy":...,"aborted":...,
  ///              "recovered_stages":...,"quarantined_stages":...,
  ///              "crc_repair_rate":...,"divergence_db":...,
  ///              "penalties":{"fault":...,"crc":...,"divergence":...}}]}
  void write_json(std::ostream& os) const;
};

class HealthMonitor {
 public:
  /// Score every node currently in the registry. Pure read: the registry
  /// and its reports are unchanged.
  [[nodiscard]] HealthReport evaluate(const NodeRegistry& registry) const;

  /// Publish `speccal_node_health{node="..."}` gauges (one per node) plus
  /// the `speccal_health_unhealthy_nodes` fleet gauge.
  void publish(const HealthReport& health, obs::Registry& registry) const;

  /// Append a kWarning health finding to every *flagged* node's trust
  /// findings. Clean nodes are never touched, so fault-free reports stay
  /// byte-identical to a run without health monitoring.
  void annotate(NodeRegistry& registry, const HealthReport& health) const;
};

}  // namespace speccal::calib

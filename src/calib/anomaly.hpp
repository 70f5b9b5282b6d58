// Fleet-consensus RF anomaly detection (DESIGN.md §16).
//
// A crowd-sourced network's best interference detector is the crowd: a
// jammer, spoofer or rogue transmitter is *local*, so the victim's band
// powers diverge from what geographically close, healthy peers measure.
// AnomalyDetector turns that into a typed report:
//
//   1. Consensus — for every measured band (the six TV channels plus the
//      anomaly-scan watchlist), each node's reference level is the
//      *neighbor-weighted median* of the other nodes' powers, weighted by
//      a Gaussian distance kernel exp(-d^2 / 2 sigma^2) over the scan
//      stage's recorded positions. Weighting by proximity keeps a dense
//      fleet's site-to-site propagation differences (rooftop vs indoor)
//      from masquerading as interference; when positions are unavailable
//      the detector degrades to the plain fleet median.
//   2. Residual — one-sided: only a node *hotter* than its consensus by
//      6 dB flags (a cold band is a sensitivity/health problem,
//      HealthMonitor's beat).
//   3. Typing — flagged bands are classified with the lag-1
//      autocorrelation occupancy cross-check (monitor::, dsp::):
//        * any "adsb-*" watch band hot            -> kGhostAdsb
//        * any "cell-*" watch band hot            -> kRoguePss
//        * >= 3 TV channels hot                   -> kWidebandJammer
//        * exactly 2 TV channels hot, coherent    -> kIntermodPair
//        * 1 TV channel hot                       -> kSpuriousEmitter
//      (rho ~1 = coherent carrier; ATSC sits near 0.4; wideband noise
//      near 0 — see tv::ChannelPowerReading::autocorr_rho.)
//
// Clean-fleet guarantee (the HealthMonitor convention, locked by
// tests/test_anomaly.cpp): evaluate() is a pure read, annotate() touches
// flagged nodes only, and a fault-free fleet produces zero findings — so
// an armed clean run's reports stay byte-identical to an unarmed one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "calib/pipeline.hpp"

namespace speccal::obs {
class Registry;
}

namespace speccal::calib {

enum class AnomalyKind : std::uint8_t {
  kWidebandJammer,
  kSpuriousEmitter,
  kIntermodPair,
  kGhostAdsb,
  kRoguePss,
};

[[nodiscard]] const char* to_string(AnomalyKind kind) noexcept;

/// One typed detection on one node. `bands` lists the flagged band keys
/// ("tv:22", "watch:adsb-1090", ...), worst_residual_db the largest
/// excursion over consensus among them, max_rho the strongest coherence.
struct AnomalyFinding {
  AnomalyKind kind = AnomalyKind::kSpuriousEmitter;
  std::string node_id;
  std::vector<std::string> bands;
  double worst_residual_db = 0.0;
  double max_rho = 0.0;
};

/// Fleet anomaly snapshot, findings ordered worst-first (residual
/// descending; node id, then kind as tiebreaks so exports are
/// deterministic).
struct AnomalyReport {
  std::vector<AnomalyFinding> findings;
  std::size_t nodes_evaluated = 0;
  std::size_t flagged_nodes = 0;
  /// Distinct band keys that reached consensus population.
  std::size_t bands_evaluated = 0;
  /// True when every node carried a scan position and the Gaussian
  /// neighbor weighting was applied (false = plain fleet median).
  bool geo_weighted = false;
  double residual_threshold_db = 0.0;

  [[nodiscard]] const AnomalyFinding* find(const std::string& node_id) const noexcept;
  [[nodiscard]] bool flagged(const std::string& node_id) const noexcept;

  /// Machine-readable export (golden schema locked by tests):
  ///   {"schema_version":1,"residual_threshold_db":6,"geo_weighted":true,
  ///    "nodes_evaluated":N,"bands_evaluated":B,"flagged_nodes":M,
  ///    "findings":[{"node":...,"kind":"wideband-jammer",
  ///                 "worst_residual_db":...,"max_rho":...,
  ///                 "bands":["tv:14",...]}]}
  void write_json(std::ostream& os) const;
};

class AnomalyDetector {
 public:
  /// Evaluate every node currently in the registry against the fleet
  /// consensus. Pure read: the registry and its reports are unchanged.
  [[nodiscard]] AnomalyReport evaluate(const NodeRegistry& registry) const;

  /// Publish speccal_anomaly_* metrics: the findings counter, the flagged
  /// node gauge and one per-kind findings gauge.
  void publish(const AnomalyReport& report, obs::Registry& registry) const;

  /// Append a kWarning anomaly finding to every *flagged* node's trust
  /// findings and journal an "anomaly_flagged" event per finding. Clean
  /// nodes are never touched, so a clean fleet's reports stay
  /// byte-identical to a run without anomaly detection.
  void annotate(NodeRegistry& registry, const AnomalyReport& report) const;
};

}  // namespace speccal::calib

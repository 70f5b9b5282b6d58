#include "calib/crosscheck.hpp"

#include <map>
#include <set>

namespace speccal::calib {

namespace {

/// Only aircraft inside this range band carry cross-check evidence
/// (nearer: received regardless; farther: marginal for everyone).
constexpr double kMinRangeKm = 25.0;
constexpr double kMaxRangeKm = 85.0;
/// An aircraft is "corroborated" when at least this many peers saw it.
constexpr std::size_t kMinCorroborators = 1;
/// Suspicion above this marks the node an outlier.
constexpr double kOutlierThreshold = 0.5;

}  // namespace

CrossCheckReport cross_check(const std::vector<NodeSurvey>& nodes) {
  CrossCheckReport report;

  // Which nodes received each aircraft (by ICAO).
  std::map<std::uint32_t, std::set<std::size_t>> receivers;
  for (std::size_t n = 0; n < nodes.size(); ++n)
    for (const auto& obs : nodes[n].survey.observations)
      if (obs.received) receivers[obs.icao].insert(n);

  for (std::size_t n = 0; n < nodes.size(); ++n) {
    NodeConsistency consistency;
    consistency.node_id = nodes[n].node_id;

    for (const auto& obs : nodes[n].survey.observations) {
      if (obs.range_km < kMinRangeKm || obs.range_km > kMaxRangeKm)
        continue;
      // Only directions this node itself claims to see are checked.
      if (!nodes[n].fov.open_sectors.contains(obs.azimuth_deg)) continue;
      // Peer corroboration: someone else saw this aircraft.
      std::size_t peers = 0;
      if (const auto it = receivers.find(obs.icao); it != receivers.end())
        for (std::size_t other : it->second)
          if (other != n) ++peers;
      if (peers < kMinCorroborators) continue;

      ++consistency.expected;
      if (!obs.received) ++consistency.missed;
    }

    if (consistency.expected > 0)
      consistency.suspicion = static_cast<double>(consistency.missed) /
                              static_cast<double>(consistency.expected);
    consistency.outlier = consistency.expected >= 3 &&
                          consistency.suspicion > kOutlierThreshold;
    report.nodes.push_back(std::move(consistency));
  }

  // Receptions only one node ever produced, and which do not appear in any
  // peer's ground-truth join (i.e. not merely out of the others' radius).
  for (const auto& [icao, who] : receivers) {
    if (who.size() != 1) continue;
    bool known_to_peer = false;
    for (std::size_t n = 0; n < nodes.size(); ++n) {
      if (who.contains(n)) continue;
      for (const auto& obs : nodes[n].survey.observations)
        if (obs.icao == icao) known_to_peer = true;
    }
    if (!known_to_peer && nodes.size() >= 2) report.unconfirmed_icaos.push_back(icao);
  }
  return report;
}

}  // namespace speccal::calib

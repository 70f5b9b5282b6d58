// Cross-node mutual verification.
//
// A single node's survey is checked against external ground truth; a fleet
// allows a second, independent line of defence (§5 "Establishing trust"):
// nodes observing the same sky corroborate each other. A node that claims
// an open direction yet systematically misses aircraft its peers decode
// there is either mis-calibrated or misreporting; a node "decoding"
// aircraft no peer can see corroborates the fabrication detector.
#pragma once

#include <string>
#include <vector>

#include "calib/fov.hpp"
#include "calib/survey.hpp"

namespace speccal::calib {

/// One node's contribution to the cross-check: its survey over a shared
/// measurement window plus its estimated field of view.
struct NodeSurvey {
  std::string node_id;
  SurveyResult survey;
  FovEstimate fov;
};

struct NodeConsistency {
  std::string node_id;
  /// Aircraft in the node's open sectors + range band that >= 1 peer saw.
  std::size_t expected = 0;
  /// Of those, how many this node missed.
  std::size_t missed = 0;
  /// missed / expected (0 when nothing was expected).
  double suspicion = 0.0;
  bool outlier = false;
};

struct CrossCheckReport {
  std::vector<NodeConsistency> nodes;
  /// ICAOs decoded by exactly one node and absent from its peers' ground
  /// truth views — corroboration for fabrication.
  std::vector<std::uint32_t> unconfirmed_icaos;
};

/// Run the mutual check over surveys taken against the same sky/window.
[[nodiscard]] CrossCheckReport cross_check(const std::vector<NodeSurvey>& nodes);

}  // namespace speccal::calib

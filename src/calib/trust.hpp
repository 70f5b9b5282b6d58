// Trust scoring and claim verification.
//
// The paper's motivation: operators are paid per measurement, so a node's
// self-description (frequency range, siting, antenna) cannot be taken at
// face value, and fabricated data must be detectable. This module compares
// operator claims against calibration evidence and runs consistency checks
// on the reported receptions themselves.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "calib/classify.hpp"
#include "calib/fov.hpp"
#include "calib/freqresp.hpp"
#include "calib/survey.hpp"

namespace speccal::calib {

/// What the operator advertises about the node.
struct NodeClaims {
  std::string node_id;
  double min_freq_hz = 100e6;
  double max_freq_hz = 6e9;
  bool claims_outdoor = false;
  bool claims_omnidirectional = true;  // unobstructed 360 degree view
};

enum class Severity { kInfo, kWarning, kViolation };

struct ClaimFinding {
  Severity severity = Severity::kInfo;
  std::string description;
};

struct TrustReport {
  double score = 0.0;  // 0 (untrustworthy) .. 100 (verified)
  std::vector<ClaimFinding> findings;

  [[nodiscard]] std::size_t violations() const noexcept;
};

/// Verify the claims against calibration evidence and produce a score.
[[nodiscard]] TrustReport evaluate_trust(const NodeClaims& claims,
                                         const SurveyResult& survey,
                                         const FovEstimate& fov,
                                         const FrequencyResponseReport& freq,
                                         const Classification& classification);

/// Standalone fabrication test on a survey: receptions that ground truth
/// cannot account for, and physically impossible RSSI/range combinations.
/// Returns findings only (no score).
[[nodiscard]] std::vector<ClaimFinding> detect_fabrication(const SurveyResult& survey);

}  // namespace speccal::calib

// Automatic verification of CBSD self-reports from calibration evidence —
// the §3.3 application of the paper's techniques.
//
// Given a device's registration record and a CalibrationReport produced at
// (or co-located with) the device, the engine checks:
//   * indoor/outdoor claim  vs the installation classification,
//   * category feasibility  (Category B requires professional outdoor),
//   * reported location     vs RSRP-ranged distances to decoded towers,
//   * siting quality        vs the requested EIRP (an indoor device must
//                           not be granted outdoor-class power),
// and recommends a grant decision with an EIRP cap.
#pragma once

#include <string>
#include <vector>

#include "calib/pipeline.hpp"
#include "cbrs/cbsd.hpp"

namespace speccal::cbrs {

enum class Verdict {
  kVerified,   // claims consistent with evidence
  kFlagged,    // inconsistencies; manual review / reduced grant
  kRejected,   // claims contradicted; deny grant
};

[[nodiscard]] std::string to_string(Verdict verdict);

struct VerificationFinding {
  bool violation = false;  // true = contradiction, false = informational
  std::string description;
};

struct VerificationResult {
  Verdict verdict = Verdict::kVerified;
  std::vector<VerificationFinding> findings;
  /// EIRP the SAS should authorize given the verified siting [dBm/10MHz].
  double recommended_eirp_dbm = kCatAMaxEirpDbm;
  /// Median absolute inconsistency between RSRP-ranged and geometric tower
  /// distances [m] (large = reported coordinates are implausible).
  double location_inconsistency_m = 0.0;
};

class CbsdVerifier {
 public:
  [[nodiscard]] VerificationResult verify(const CbsdRegistration& registration,
                                          const calib::CalibrationReport& report) const;
};

}  // namespace speccal::cbrs

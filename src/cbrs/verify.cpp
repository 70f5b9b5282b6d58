#include "cbrs/verify.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "prop/pathloss.hpp"

namespace speccal::cbrs {

std::string to_string(Verdict verdict) {
  switch (verdict) {
    case Verdict::kVerified: return "verified";
    case Verdict::kFlagged: return "flagged";
    case Verdict::kRejected: return "rejected";
  }
  return "?";
}

namespace {

/// Reported coordinates are implausible when the median ranging
/// disagreement exceeds this factor of the geometric distance.
constexpr double kLocationToleranceFactor = 3.0;
/// Path-loss exponent used to invert RSRP into distance.
constexpr double kRangingExponent = 2.9;
/// Indoor devices get this EIRP haircut relative to the category cap.
constexpr double kIndoorPenaltyDb = 10.0;

/// Invert the urban log-distance model: distance at which a cell with this
/// EIRP would produce the measured wideband power.
[[nodiscard]] double range_from_rssi(double rssi_dbm, double eirp_dbm, double freq_hz,
                                     double exponent) noexcept {
  constexpr double kReferenceM = 100.0;
  const double loss = eirp_dbm - rssi_dbm;
  const double ref_loss = prop::free_space_path_loss_db(kReferenceM, freq_hz);
  const double decades = (loss - ref_loss) / (10.0 * exponent);
  return kReferenceM * std::pow(10.0, std::max(0.0, decades));
}

}  // namespace

VerificationResult CbsdVerifier::verify(const CbsdRegistration& registration,
                                        const calib::CalibrationReport& report) const {
  VerificationResult out;
  int violations = 0;
  int warnings = 0;

  const bool evidence_indoor = report.classification.indoor();
  const bool evidence_confident = report.classification.confidence >= 0.4;

  // --- 1. indoor/outdoor claim ------------------------------------------
  if (evidence_confident && registration.indoor_deployment != evidence_indoor) {
    std::ostringstream os;
    os << "reports " << (registration.indoor_deployment ? "indoor" : "outdoor")
       << " deployment but calibration indicates "
       << calib::to_string(report.classification.type);
    // Claiming indoor while actually outdoor is conservative (lower power);
    // claiming outdoor while actually indoor games the EIRP rules.
    if (!registration.indoor_deployment && evidence_indoor) {
      out.findings.push_back({true, os.str()});
      ++violations;
    } else {
      out.findings.push_back({false, os.str() + " (conservative misreport)"});
      ++warnings;
    }
  } else {
    out.findings.push_back({false, "indoor/outdoor status consistent with evidence"});
  }

  // --- 2. category feasibility --------------------------------------------
  if (registration.category == Category::kB && evidence_indoor &&
      evidence_confident) {
    out.findings.push_back(
        {true, "Category B requires a professional outdoor installation; "
               "evidence indicates an indoor siting"});
    ++violations;
  }
  if (registration.category == Category::kA && !registration.indoor_deployment &&
      registration.antenna_height_m > kCatAMaxOutdoorHeightM) {
    std::ostringstream os;
    os << "Category A outdoor antenna height " << registration.antenna_height_m
       << " m exceeds the " << kCatAMaxOutdoorHeightM << " m limit";
    out.findings.push_back({true, os.str()});
    ++violations;
  }

  // --- 3. reported location vs RSRP ranging -----------------------------
  std::vector<double> inconsistencies;
  for (const auto& meas : report.cell_scan) {
    if (!meas.decoded) continue;
    const double geometric_m =
        geo::haversine_m(registration.reported_position, meas.cell.position);
    const double ranged_m = range_from_rssi(meas.rssi_dbm, meas.cell.eirp_dbm,
                                            meas.cell.dl_freq_hz,
                                            kRangingExponent);
    inconsistencies.push_back(std::fabs(ranged_m - geometric_m));
    // Obstruction inflates the ranged distance, never deflates it, so only
    // a ranged distance far *below* geometry indicts the claimed location.
    if (geometric_m > kLocationToleranceFactor * ranged_m &&
        geometric_m - ranged_m > 2000.0) {
      std::ostringstream os;
      os << "tower " << meas.cell.cell_id << " (" << meas.cell.dl_freq_hz / 1e6
         << " MHz) is received " << static_cast<int>(geometric_m / 1000.0)
         << " km strong for the reported coordinates (ranging suggests ~"
         << static_cast<int>(ranged_m / 1000.0) << " km)";
      out.findings.push_back({true, os.str()});
      ++violations;
    }
  }
  if (!inconsistencies.empty()) {
    std::sort(inconsistencies.begin(), inconsistencies.end());
    out.location_inconsistency_m = inconsistencies[inconsistencies.size() / 2];
  }

  // --- 4. trust carryover -------------------------------------------------
  if (report.trust.score < 40.0) {
    out.findings.push_back(
        {true, "underlying sensor calibration flags the node as untrustworthy"});
    ++violations;
  }

  // --- verdict + EIRP recommendation ---------------------------------------
  out.verdict = violations > 0
                    ? (violations >= 2 ? Verdict::kRejected : Verdict::kFlagged)
                    : Verdict::kVerified;

  const double category_cap = registration.category == Category::kB
                                  ? kCatBMaxEirpDbm
                                  : kCatAMaxEirpDbm;
  double cap = category_cap;
  // Power policy follows the *evidence*, not the claim.
  if (evidence_indoor) cap = kCatAMaxEirpDbm - kIndoorPenaltyDb;
  if (out.verdict == Verdict::kRejected) cap = -1e9;  // deny
  out.recommended_eirp_dbm = std::min(cap, registration.max_eirp_dbm);
  if (out.verdict == Verdict::kRejected) out.recommended_eirp_dbm = -1e9;
  return out;
}

}  // namespace speccal::cbrs

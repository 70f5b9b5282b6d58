#include "calib/trust.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <sstream>

namespace speccal::calib {

std::size_t TrustReport::violations() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(), [](const ClaimFinding& f) {
        return f.severity == Severity::kViolation;
      }));
}

namespace {

/// Omnidirectional claim fails below this open fraction.
constexpr double kOmniMinOpenFraction = 0.85;
/// Outdoor claim fails when classified indoor with at least this confidence.
constexpr double kIndoorConfidenceCutoff = 0.4;
/// A claimed band is unsupported if its sources show worse attenuation.
constexpr double kBandFailureDb = 35.0;
/// Fabrication: fraction of receptions not present in ground truth above
/// which the node's data stream is considered manufactured.
constexpr double kMaxUnmatchedFraction = 0.05;

}  // namespace

std::vector<ClaimFinding> detect_fabrication(const SurveyResult& survey) {
  std::vector<ClaimFinding> findings;

  // 1. Receptions with no ground-truth counterpart.
  const std::size_t received = survey.received_count();
  const std::size_t reported = received + survey.unmatched_receptions;
  if (reported > 0) {
    const double unmatched_frac =
        static_cast<double>(survey.unmatched_receptions) / static_cast<double>(reported);
    if (unmatched_frac > kMaxUnmatchedFraction) {
      std::ostringstream os;
      os << survey.unmatched_receptions << " of " << reported
         << " reported aircraft do not exist in the ground-truth feed";
      findings.push_back({Severity::kViolation, os.str()});
    }
  }

  // 2. RSSI should fall with range (free-space ADS-B). The check must be
  //    computed per azimuth sector: at an obstructed site, near aircraft
  //    arrive through walls (weak) while far ones arrive through the clear
  //    direction (strong), so the *global* range-RSSI correlation can be
  //    legitimately positive. Within one sector the environment is
  //    consistent and RSSI must decay.
  constexpr int kSectors = 8;
  struct Accum {
    double sx = 0, sy = 0, sxx = 0, syy = 0, sxy = 0;
    std::size_t n = 0;
  };
  std::array<Accum, kSectors> sectors{};
  for (const auto& obs : survey.observations) {
    if (!obs.received || obs.range_km <= 0.0) continue;
    auto& acc = sectors[static_cast<std::size_t>(
        std::fmod(obs.azimuth_deg + 360.0, 360.0) / (360.0 / kSectors))];
    const double x = std::log10(obs.range_km);
    const double y = obs.best_rssi_dbfs;
    acc.sx += x; acc.sy += y; acc.sxx += x * x; acc.syy += y * y;
    acc.sxy += x * y;
    ++acc.n;
  }
  double corr_sum = 0.0;
  std::size_t corr_weight = 0;
  for (const auto& acc : sectors) {
    if (acc.n < 6) continue;  // too few samples for a stable estimate
    const double nf = static_cast<double>(acc.n);
    const double cov = acc.sxy / nf - (acc.sx / nf) * (acc.sy / nf);
    const double vx = acc.sxx / nf - (acc.sx / nf) * (acc.sx / nf);
    const double vy = acc.syy / nf - (acc.sy / nf) * (acc.sy / nf);
    if (vx <= 1e-12 || vy <= 1e-12) continue;
    corr_sum += (cov / std::sqrt(vx * vy)) * nf;
    corr_weight += acc.n;
  }
  if (corr_weight >= 8) {
    const double corr = corr_sum / static_cast<double>(corr_weight);
    if (corr > 0.3) {
      std::ostringstream os;
      os << "RSSI increases with range within azimuth sectors (corr=" << corr
         << "): power readings inconsistent with radio physics";
      findings.push_back({Severity::kViolation, os.str()});
    } else if (corr > -0.05) {
      findings.push_back({Severity::kWarning,
                          "RSSI shows no decay with range; power readings suspicious"});
    }
  }

  // 3. Decoded positions should match ground truth within feed staleness
  //    (paper: <= 2.5 km for a 10 s feed latency, plus aircraft motion).
  std::size_t position_checked = 0, position_bad = 0;
  for (const auto& obs : survey.observations) {
    if (!obs.received || !obs.decoded_position) continue;
    ++position_checked;
    const double err_m = geo::haversine_m(obs.position, *obs.decoded_position);
    if (err_m > 6000.0) ++position_bad;
  }
  if (position_checked >= 4 && position_bad * 2 > position_checked) {
    findings.push_back({Severity::kViolation,
                        "majority of decoded aircraft positions disagree with ground truth"});
  }
  return findings;
}

TrustReport evaluate_trust(const NodeClaims& claims, const SurveyResult& survey,
                           const FovEstimate& fov, const FrequencyResponseReport& freq,
                           const Classification& classification) {
  TrustReport report;
  double score = 100.0;

  // Claim: omnidirectional / unobstructed view.
  if (claims.claims_omnidirectional) {
    if (fov.open_fraction_deg < kOmniMinOpenFraction) {
      std::ostringstream os;
      os << "claims unobstructed view but only "
         << static_cast<int>(fov.open_fraction_deg * 100.0)
         << "% of the horizon receives distant ADS-B";
      report.findings.push_back({Severity::kViolation, os.str()});
      score -= 25.0;
    } else {
      report.findings.push_back({Severity::kInfo, "omnidirectional claim verified by ADS-B"});
    }
  }

  // Claim: outdoor installation.
  if (claims.claims_outdoor && classification.indoor() &&
      classification.confidence >= kIndoorConfidenceCutoff) {
    report.findings.push_back(
        {Severity::kViolation,
         "claims outdoor installation but evidence indicates " +
             to_string(classification.type)});
    score -= 25.0;
  }

  // Claim: frequency range. Each measured source inside the claimed range
  // with catastrophic attenuation counts against the claim.
  std::size_t in_range = 0, failed = 0;
  for (const auto& m : freq.measurements) {
    if (m.freq_hz < claims.min_freq_hz || m.freq_hz > claims.max_freq_hz) continue;
    ++in_range;
    const double atten = m.measured_dbm ? m.expected_dbm - *m.measured_dbm : 1e9;
    if (atten > kBandFailureDb) ++failed;
  }
  if (in_range > 0 && failed > 0) {
    std::ostringstream os;
    os << failed << " of " << in_range
       << " known sources inside the claimed frequency range are effectively unreceivable";
    report.findings.push_back(
        {failed * 2 >= in_range ? Severity::kViolation : Severity::kWarning, os.str()});
    score -= 30.0 * static_cast<double>(failed) / static_cast<double>(in_range);
  }

  // Fabrication checks.
  for (auto& finding : detect_fabrication(survey)) {
    score -= finding.severity == Severity::kViolation ? 40.0 : 10.0;
    report.findings.push_back(std::move(finding));
  }

  report.score = std::clamp(score, 0.0, 100.0);
  return report;
}

}  // namespace speccal::calib

#include "calib/classify.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <sstream>
#include <utility>

namespace speccal::calib {

std::string to_string(InstallationType type) {
  switch (type) {
    case InstallationType::kOutdoorOpen: return "outdoor (open sky)";
    case InstallationType::kOutdoorPartial: return "outdoor (partially screened)";
    case InstallationType::kIndoorWindow: return "indoor (behind window)";
    case InstallationType::kIndoorDeep: return "indoor (interior)";
  }
  return "?";
}

namespace {

constexpr double kOpenFovFraction = 0.6;     // >= this open fraction looks outdoor-open
constexpr double kNarrowFovFraction = 0.25;  // <= this looks window/indoor
constexpr double kLowBandOkDb = 15.0;        // low band attenuation of an outdoor node
constexpr double kMidBandDeadDb = 30.0;      // mid band attenuation typical of indoor
constexpr double kIndoorSlopeDbPerDecade = 8.0;  // rising attenuation vs frequency

[[nodiscard]] const BandQuality* find_class(const FrequencyResponseReport& freq,
                                            cellular::SpectrumClass cls) noexcept {
  for (const auto& bq : freq.bands)
    if (bq.band_class == cls) return &bq;
  return nullptr;
}

[[nodiscard]] std::string format_db(double db) {
  std::ostringstream os;
  os.precision(1);
  os << std::fixed << db << " dB";
  return os.str();
}
}  // namespace

Classification classify_installation(const FovEstimate& fov,
                                     const FrequencyResponseReport& freq) {
  Classification out;

  const double open_frac = fov.open_fraction_deg;
  const BandQuality* low = find_class(freq, cellular::SpectrumClass::kLowBand);
  const BandQuality* mid = find_class(freq, cellular::SpectrumClass::kMidBand);

  const double low_atten = low && low->sources_received > 0
                               ? low->mean_attenuation_db
                               : (low ? 60.0 : 0.0);
  const double mid_atten = mid && mid->sources_received > 0
                               ? mid->mean_attenuation_db
                               : (mid ? 60.0 : 0.0);
  const bool mid_dead = mid != nullptr &&
                        (mid->sources_received == 0 ||
                         mid->mean_attenuation_db >= kMidBandDeadDb);
  const bool rising_slope =
      freq.attenuation_slope_db_per_decade >= kIndoorSlopeDbPerDecade;

  // Evidence scores per hypothesis; the max wins, the margin is confidence.
  double outdoor_open = 0.0, outdoor_partial = 0.0, window = 0.0, deep = 0.0;

  if (open_frac >= kOpenFovFraction) {
    outdoor_open += 2.0;
    out.rationale.push_back("wide ADS-B field of view (" +
                            std::to_string(static_cast<int>(open_frac * 100.0)) +
                            "% of horizon open)");
  } else if (open_frac <= kNarrowFovFraction) {
    window += 1.0;
    deep += 1.5;
    out.rationale.push_back("narrow ADS-B field of view");
  } else {
    outdoor_partial += 1.5;
    out.rationale.push_back("partially open ADS-B field of view");
  }

  if (low_atten <= kLowBandOkDb) {
    outdoor_open += 1.0;
    outdoor_partial += 1.0;
    window += 0.5;  // low band often survives glass/walls
    out.rationale.push_back("low-band reception near clear-sky level (" +
                            format_db(low_atten) + " attenuation)");
  } else {
    deep += 1.0;
    out.rationale.push_back("low-band attenuated by " + format_db(low_atten));
  }

  if (mid_dead) {
    deep += 2.0;
    window += 1.0;
    out.rationale.push_back("mid-band sources undecodable or heavily attenuated");
  } else if (mid_atten > kLowBandOkDb) {
    window += 1.5;
    out.rationale.push_back("mid-band attenuated by " + format_db(mid_atten) +
                            " (glass/penetration signature)");
  } else {
    outdoor_open += 1.0;
    outdoor_partial += 0.5;
    out.rationale.push_back("mid-band reception near clear-sky level");
  }

  if (rising_slope) {
    window += 1.0;
    deep += 1.0;
    out.rationale.push_back(
        "attenuation rises with frequency (" +
        format_db(freq.attenuation_slope_db_per_decade) + "/decade)");
  }

  // Distinguish window from deep indoor: a window keeps a usable slice of
  // the horizon together with the glass's mid-band attenuation signature;
  // deep indoor loses the horizon entirely.
  if (open_frac > 0.03 && open_frac <= kNarrowFovFraction &&
      mid_atten > kLowBandOkDb)
    window += 1.0;
  if (open_frac <= 0.03) deep += 1.0;

  // A screened-but-clean node (narrow ADS-B view yet clear-sky reception in
  // both bands) is an outdoor installation behind structures, not an indoor
  // one — indoor siting always leaves a spectral fingerprint.
  if (!mid_dead && mid_atten <= kLowBandOkDb &&
      low_atten <= kLowBandOkDb)
    outdoor_partial += 1.0;

  const std::array<std::pair<InstallationType, double>, 4> scores = {{
      {InstallationType::kOutdoorOpen, outdoor_open},
      {InstallationType::kOutdoorPartial, outdoor_partial},
      {InstallationType::kIndoorWindow, window},
      {InstallationType::kIndoorDeep, deep},
  }};
  auto best = std::max_element(scores.begin(), scores.end(),
                               [](const auto& a, const auto& b) {
                                 return a.second < b.second;
                               });
  double second = 0.0;
  double total = 0.0;
  for (const auto& [type, score] : scores) {
    total += score;
    if (type != best->first) second = std::max(second, score);
  }
  out.type = best->first;
  out.confidence = total > 0.0 ? std::clamp((best->second - second) / total + 0.5, 0.0, 1.0)
                               : 0.0;
  return out;
}

}  // namespace speccal::calib

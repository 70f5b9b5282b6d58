#include "calib/hardware.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace speccal::calib {

namespace {

/// A flat attenuation above this, with low slope and a wide FoV, points
/// at the RF plumbing rather than the siting.
constexpr double kCableFaultFloorDb = 6.0;
/// |attenuation slope| below this counts as frequency-flat.
constexpr double kFlatSlopeDbPerDecade = 6.0;
/// FoV open fraction above this rules out heavy siting obstruction
/// (window/indoor sites sit well below 0.15; even a partially screened
/// outdoor install keeps a quarter of the horizon).
constexpr double kOpenFovFraction = 0.2;
/// Per-band-edge attenuation above the in-band median by this margin
/// indicates the antenna does not cover the claimed range.
constexpr double kBandEdgeExcessDb = 12.0;

[[nodiscard]] double median(std::vector<double> values) noexcept {
  if (values.empty()) return 0.0;
  const auto mid = values.begin() + static_cast<std::ptrdiff_t>(values.size() / 2);
  std::nth_element(values.begin(), mid, values.end());
  return *mid;
}
}  // namespace

HardwareDiagnosis diagnose_hardware(const FrequencyResponseReport& freq,
                                    const FovEstimate& fov) {
  HardwareDiagnosis out;

  std::vector<double> attenuations;
  for (const auto& m : freq.measurements)
    if (m.measured_dbm) attenuations.push_back(m.expected_dbm - *m.measured_dbm);
  if (attenuations.empty()) {
    out.notes.push_back("no received sources: cannot separate hardware from siting");
    return out;
  }
  const double flat_offset = median(attenuations);

  // --- cable / connector fault ---------------------------------------------
  const bool flat = std::fabs(freq.attenuation_slope_db_per_decade) <
                    kFlatSlopeDbPerDecade;
  const bool open_sky = fov.open_fraction_deg >= kOpenFovFraction;
  if (flat && open_sky && flat_offset >= kCableFaultFloorDb) {
    out.cable_fault_suspected = true;
    out.estimated_cable_loss_db = flat_offset;
    std::ostringstream os;
    os.precision(1);
    os << std::fixed << "uniform " << flat_offset
       << " dB loss across bands and directions: check feedline/connectors";
    out.notes.push_back(os.str());
  }

  // --- antenna narrower than claimed ----------------------------------------
  // Sources whose attenuation exceeds the fleet-median by a wide margin,
  // clustered at the spectrum edges, indicate antenna roll-off.
  for (const auto& m : freq.measurements) {
    const double atten =
        m.measured_dbm ? m.expected_dbm - *m.measured_dbm : 1e9;
    if (atten - flat_offset >= kBandEdgeExcessDb)
      out.deaf_frequencies_hz.push_back(m.freq_hz);
  }
  if (!out.deaf_frequencies_hz.empty() && open_sky) {
    // Edge clustering: all deaf sources sit below the lowest healthy source
    // or above the highest healthy one.
    double healthy_min = 1e12, healthy_max = 0.0;
    for (const auto& m : freq.measurements) {
      if (!m.measured_dbm) continue;
      const double atten = m.expected_dbm - *m.measured_dbm;
      if (atten - flat_offset < kBandEdgeExcessDb) {
        healthy_min = std::min(healthy_min, m.freq_hz);
        healthy_max = std::max(healthy_max, m.freq_hz);
      }
    }
    const bool clustered = std::all_of(
        out.deaf_frequencies_hz.begin(), out.deaf_frequencies_hz.end(),
        [&](double f) { return f < healthy_min || f > healthy_max; });
    if (clustered && healthy_max > healthy_min) {
      out.antenna_band_mismatch = true;
      std::ostringstream os;
      os << "antenna appears deaf outside ~" << healthy_min / 1e6 << "-"
         << healthy_max / 1e6 << " MHz despite an open sky: rated range "
         << "narrower than claimed";
      out.notes.push_back(os.str());
    } else {
      out.deaf_frequencies_hz.clear();  // scattered: siting, not hardware
    }
  } else {
    out.deaf_frequencies_hz.clear();
  }

  if (out.healthy()) out.notes.push_back("no hardware fault signature");
  return out;
}

}  // namespace speccal::calib

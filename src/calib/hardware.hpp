// Hardware fault diagnosis — §5 "Other types of calibration".
//
// Siting problems (the paper's focus) leave frequency- and direction-
// dependent fingerprints. Hardware problems look different:
//   * a damaged cable / corroded connector attenuates every band and every
//     direction by roughly the same amount (flat offset, low slope, wide
//     field of view),
//   * an antenna narrower than the operator claims shows attenuation
//     concentrated outside its rated band while the in-band sources are
//     healthy.
// This module separates those signatures so the operator gets an
// actionable diagnosis ("replace the cable") instead of a trust penalty.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "calib/fov.hpp"
#include "calib/freqresp.hpp"

namespace speccal::calib {

struct HardwareDiagnosis {
  bool cable_fault_suspected = false;
  /// Estimated flat loss attributable to the RF path [dB].
  double estimated_cable_loss_db = 0.0;
  bool antenna_band_mismatch = false;
  /// Frequencies (of measured sources) the antenna appears deaf to.
  std::vector<double> deaf_frequencies_hz;
  std::vector<std::string> notes;

  [[nodiscard]] bool healthy() const noexcept {
    return !cable_fault_suspected && !antenna_band_mismatch;
  }
};

/// Diagnose hardware from the frequency response and field-of-view evidence.
[[nodiscard]] HardwareDiagnosis diagnose_hardware(
    const FrequencyResponseReport& freq, const FovEstimate& fov);

}  // namespace speccal::calib

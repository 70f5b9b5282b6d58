// Receiver frequency-reference calibration from broadcast pilots.
//
// The paper's §5 "Other types of calibration" and its related work
// (kalibrate-rtl [21], CalibrateSDR [1]) calibrate a cheap SDR's oscillator
// against signals whose carrier frequency is known to broadcast tolerance.
// We use the ATSC pilot: every 8VSB station carries a CW pilot 309.441 kHz
// above its lower channel edge, held to tight tolerance by the station's
// reference. The apparent offset of that pilot in a capture measures the
// receiver's own LO error in parts per million — and a node whose ppm
// error drifts wildly is another calibration failure worth flagging.
#pragma once

#include <optional>
#include <vector>

#include "sdr/device.hpp"

namespace speccal::calib {

/// Sample rate and length of each pilot capture (the pipeline counts the
/// stage's samples from them).
inline constexpr double kLoSampleRateHz = 2e6;
inline constexpr double kLoCaptureDurationS = 0.02;

struct PilotMeasurement {
  double station_pilot_hz = 0.0;   // true pilot frequency (channel table)
  double measured_offset_hz = 0.0; // apparent offset from expected position
  double ppm = 0.0;                // implied receiver reference error
  double pilot_snr_db = 0.0;
  bool valid = false;
};

struct LoCalibrationResult {
  std::vector<PilotMeasurement> pilots;
  /// Median ppm across valid pilots (robust to one bad station).
  double ppm = 0.0;
  std::size_t valid_count = 0;

  [[nodiscard]] bool usable() const noexcept { return valid_count >= 1; }
};

/// Measure the device's LO error against a list of ATSC channels known to
/// be receivable at the site (from the TV sweep).
[[nodiscard]] LoCalibrationResult calibrate_lo(sdr::Device& device,
                                               const std::vector<int>& rf_channels);

}  // namespace speccal::calib

// Spectrum sweep service — the product a sensor node sells (§2).
//
// "Each sensor node comprises a software-defined radio capable of capturing
//  wireless signals across a wide frequency range ... The host may perform
//  various processing tasks on the I/Q data, such as signal detection or
//  computing the Fast Fourier Transform, before transmitting the data to
//  the cloud."
//
// SpectrumScanner hops a Device across a frequency span, estimates a Welch
// PSD per hop, and assembles a stitched spectrum snapshot with an estimated
// noise floor — the payload a node uploads.
#pragma once

#include <vector>

#include "dsp/welch.hpp"
#include "sdr/device.hpp"

namespace speccal::monitor {

/// Welch settings of every hop's PSD.
inline constexpr dsp::WelchConfig kScanWelch{};

struct ScanConfig {
  double gain_db = 30.0;
};

/// PSD of one tuner hop.
struct HopResult {
  double center_hz = 0.0;
  bool tune_ok = false;
  dsp::WelchResult psd;
  double noise_floor_dbfs = -200.0;  // low-quantile bin estimate
  /// True when the presence pre-check found no contrast and the PSD was
  /// synthesized flat from the capture's mean power instead of Welch.
  bool gated = false;
};

/// A stitched wideband snapshot.
struct SweepResult {
  double start_hz = 0.0;
  double stop_hz = 0.0;
  std::vector<HopResult> hops;

  /// Integrated power [dBFS] in [low_hz, high_hz] (absolute frequencies).
  /// Returns -200 when the band was not covered by any successful hop.
  [[nodiscard]] double band_power_dbfs(double low_hz, double high_hz) const noexcept;

  /// Median of the per-hop floors [dBFS per bin].
  [[nodiscard]] double overall_floor_dbfs() const noexcept;
};

class SpectrumScanner {
 public:
  explicit SpectrumScanner(ScanConfig config = {}) noexcept : config_(config) {}

  /// Sweep [start_hz, stop_hz]; hops are placed every usable fraction of
  /// the sample rate (0.8 * 8 MHz). Hops the device cannot tune are
  /// recorded with tune_ok = false (a calibration-relevant failure).
  [[nodiscard]] SweepResult sweep(sdr::Device& device, double start_hz,
                                  double stop_hz) const;

  [[nodiscard]] const ScanConfig& config() const noexcept { return config_; }

 private:
  ScanConfig config_;
};

}  // namespace speccal::monitor

// Broadcast-TV channel power meter — the paper's channel-power measurement.
//
// Pipeline (quoting §3.2): fixed SDR gain (no AGC), then "apply Parseval's
// identity" over the desired ATSC channel. The meter applies it in the
// frequency domain: a plan-cached Welch PSD of the capture, integrated over
// the measurement bandwidth, is the in-band power the paper's GNU Radio
// band-pass + moving-average flowgraph computes in the time domain
// (DESIGN.md §2). The result is reported in dBFS, as in Figure 4.
//
// The meter is plan-based: the FFT plan comes from the shared PlanCache and
// the PSD buffer is reused across measurements, so a sweep's steady state
// performs no per-channel design work.
#pragma once

#include <vector>

#include "dsp/goertzel.hpp"
#include "dsp/welch.hpp"
#include "sdr/device.hpp"
#include "tv/channels.hpp"

namespace speccal::tv {

/// Capture sample rate; must cover one 6 MHz channel.
inline constexpr double kMeterSampleRateHz = 8e6;
/// Capture length [s]; the Welch average spans the whole capture.
inline constexpr double kMeterCaptureDurationS = 0.02;
/// Width of the band integrated around the channel center (8VSB occupies
/// ~5.38 MHz).
inline constexpr double kMeasureBandwidthHz = 5.38e6;
static_assert(kMeasureBandwidthHz > 0.0 && kMeasureBandwidthHz < kMeterSampleRateHz,
              "the measured band must fit inside Nyquist");

struct PowerMeterConfig {
  double fixed_gain_db = 20.0;     // paper: fixed to keep readings comparable.
                                   // Low enough that strong locals don't clip,
                                   // high enough that weak channels stay above
                                   // the ADC quantization floor.
};

struct ChannelPowerReading {
  int rf_channel = 0;
  double center_hz = 0.0;
  double power_dbfs = -200.0;   // what Figure 4 plots
  double power_dbm = -200.0;    // referred to the antenna port via gain
  bool tune_ok = false;
  /// Capture samples the averaged Welch segments cover (each counted once).
  std::size_t samples_used = 0;
  /// True when the pilot gate found no pilot and the reading was integrated
  /// over the abbreviated capture prefix.
  bool gated = false;
  /// Normalized lag-1 autocorrelation of the raw capture — the anomaly
  /// detector's occupancy cross-check (~0.4 for ATSC, ~1 for a CW
  /// interferer parked in the channel, ~0 for noise or a jammer wider than
  /// the capture). In-memory only: report JSON serializes the same
  /// channel/freq/power triple as always, so clean runs stay byte-stable.
  double autocorr_rho = 0.0;
};

/// Measures one or more ATSC channels through a Device (simulated or real).
/// PSD scratch is reused across measurements, so a single instance must not
/// measure concurrently from multiple threads; the fleet engine gives each
/// worker its own meter.
class PowerMeter {
 public:
  explicit PowerMeter(PowerMeterConfig config = {});

  /// Tune, capture, integrate. The device is left in manual gain.
  [[nodiscard]] ChannelPowerReading measure_channel(sdr::Device& device, int rf_channel) const;

  /// Sweep a list of channels.
  [[nodiscard]] std::vector<ChannelPowerReading> sweep(sdr::Device& device,
                                                       const std::vector<int>& channels) const;

 private:
  [[nodiscard]] double integrate_spectral(std::span<const dsp::Sample> capture,
                                          std::size_t& samples_used) const;
  [[nodiscard]] bool pilot_present(std::span<const dsp::Sample> capture) const;

  PowerMeterConfig config_;
  // Per-measurement scratch (reset/reused each call); mutable so the
  // measurement API stays const like every other read-only evaluator.
  mutable dsp::Buffer capture_;  // reused across channels
  mutable dsp::WelchEstimator welch_;
  mutable dsp::WelchResult psd_;
  mutable dsp::Goertzel pilot_probe_;
};

}  // namespace speccal::tv

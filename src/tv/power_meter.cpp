#include "tv/power_meter.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "dsp/iq.hpp"
#include "obs/metrics.hpp"
#include "util/units.hpp"

namespace speccal::tv {

namespace {

/// The meter's Welch settings: 1024-point Hann segments at 50% overlap
/// (7.8 kHz bins at 8 Msps, against a 5.38 MHz band).
constexpr dsp::WelchConfig kWelch{};

/// Floor on gate/skip prefix lengths so abbreviated readings still average
/// several Welch segments (4096 samples hold seven).
constexpr std::size_t kMinPrefixSamples = 4096;

[[nodiscard]] std::size_t prefix_length(std::size_t total, double fraction) noexcept {
  const auto want = static_cast<std::size_t>(fraction * static_cast<double>(total));
  return std::min(total, std::max(kMinPrefixSamples, want));
}

PowerMeterConfig validated(PowerMeterConfig config) {
  if (!(config.sample_rate_hz > 0.0))
    throw std::invalid_argument(
        "PowerMeterConfig.sample_rate_hz must be positive (got " +
        std::to_string(config.sample_rate_hz) + ")");
  if (!(config.capture_duration_s * config.sample_rate_hz >=
        static_cast<double>(kWelch.segment_size)))
    throw std::invalid_argument(
        "PowerMeterConfig.capture_duration_s must hold one " +
        std::to_string(kWelch.segment_size) + "-sample Welch segment at sample_rate_hz (got " +
        std::to_string(config.capture_duration_s) + ")");
  if (!(config.measure_bandwidth_hz > 0.0) ||
      config.measure_bandwidth_hz >= config.sample_rate_hz)
    throw std::invalid_argument(
        "PowerMeterConfig.measure_bandwidth_hz must be in (0, sample_rate_hz) "
        "(got " + std::to_string(config.measure_bandwidth_hz) + ")");
  const auto& gate = config.pilot_gate;
  if (!(gate.gate_fraction > 0.0 && gate.gate_fraction <= 1.0))
    throw std::invalid_argument(
        "PilotGateConfig.gate_fraction must be in (0, 1] (got " +
        std::to_string(gate.gate_fraction) + ")");
  if (!(gate.skip_fraction > 0.0 && gate.skip_fraction <= 1.0))
    throw std::invalid_argument(
        "PilotGateConfig.skip_fraction must be in (0, 1] (got " +
        std::to_string(gate.skip_fraction) + ")");
  if (!(gate.ref_spacing_hz > 0.0) ||
      std::abs(gate.pilot_offset_hz) + gate.ref_spacing_hz >=
          config.sample_rate_hz / 2.0)
    throw std::invalid_argument(
        "PilotGateConfig.ref_spacing_hz must be positive with pilot and "
        "reference bins inside Nyquist (got " +
        std::to_string(gate.ref_spacing_hz) + ")");
  return config;
}

}  // namespace

PowerMeter::PowerMeter(PowerMeterConfig config)
    : config_(validated(config)),
      welch_(kWelch),
      // Pilot bin plus one reference bin either side; offsets are relative
      // to the tuned center, so one probe serves every channel.
      pilot_probe_({config_.pilot_gate.pilot_offset_hz,
                    config_.pilot_gate.pilot_offset_hz +
                        config_.pilot_gate.ref_spacing_hz,
                    config_.pilot_gate.pilot_offset_hz -
                        config_.pilot_gate.ref_spacing_hz},
                   config_.sample_rate_hz) {}

// Three-bin Goertzel over the capture prefix, averaged over a few
// sub-segments: pass when the pilot bin clears the mean of the two
// reference bins by min_snr_db. For an occupied ATSC channel the pilot
// concentrates ~7% of the channel power into one bin, >20 dB above the
// per-bin in-band floor even at these shortened segment lengths, so the
// margin is comfortable at the detection threshold (test_dsp_simd bounds
// the false-negative rate there). The sub-segment averaging is for the
// other direction: single-shot noise bins are exponential-distributed and
// would false-pass ~10% of vacant channels; averaging 4 segments drops
// that to ~0.1% without touching the pilot's coherent power.
bool PowerMeter::pilot_present(std::span<const dsp::Sample> capture) const {
  const std::size_t n =
      prefix_length(capture.size(), config_.pilot_gate.gate_fraction);
  if (n == 0) return false;
  constexpr std::size_t kAverages = 4;
  const std::size_t seg = std::max<std::size_t>(1, n / kAverages);
  double pilot = 0.0;
  double floor = 0.0;
  for (std::size_t s = 0; s + 1 <= kAverages && s * seg < n; ++s) {
    const std::size_t len = std::min(seg, n - s * seg);
    pilot_probe_.reset();
    pilot_probe_.feed(capture.subspan(s * seg, len));
    pilot += pilot_probe_.power(0);
    floor += 0.5 * (pilot_probe_.power(1) + pilot_probe_.power(2));
  }
  if (pilot <= 1e-20) return false;
  return pilot >= util::db_to_ratio(config_.pilot_gate.min_snr_db) *
                      std::max(floor, 1e-30);
}

double PowerMeter::integrate_spectral(std::span<const dsp::Sample> capture,
                                      std::size_t& samples_used) const {
  // Parseval in the frequency domain: the PSD bins sum to the mean power,
  // so the bins inside the band sum to the in-band power.
  welch_.estimate_into(capture, config_.sample_rate_hz, psd_);
  if (psd_.segments_averaged == 0) return 0.0;
  samples_used = (psd_.segments_averaged - 1) * welch_.hop() + kWelch.segment_size;
  return dsp::band_power(psd_, config_.sample_rate_hz,
                         -config_.measure_bandwidth_hz / 2.0,
                         config_.measure_bandwidth_hz / 2.0);
}

ChannelPowerReading PowerMeter::measure_channel(sdr::Device& device,
                                                int rf_channel) const {
  ChannelPowerReading out;
  out.rf_channel = rf_channel;
  const auto center = channel_center_hz(rf_channel);
  if (!center) return out;
  out.center_hz = *center;

  device.set_gain_mode(sdr::GainMode::kManual);
  device.set_gain_db(config_.fixed_gain_db);
  if (!device.tune(*center, config_.sample_rate_hz)) return out;
  out.tune_ok = true;

  capture_.resize(
      static_cast<std::size_t>(config_.capture_duration_s * config_.sample_rate_hz));
  device.capture_into(capture_);
  const std::span<const dsp::Sample> capture(capture_);
  // Occupancy cross-check over the raw capture (one O(N) pass, no device
  // interaction — the reading itself is untouched).
  out.autocorr_rho = dsp::lag_autocorrelation(capture);

  // Pilot fast-path gate: channels without an ATSC pilot integrate an
  // abbreviated prefix instead of the whole capture (DESIGN.md §14).
  std::span<const dsp::Sample> block(capture);
  if (config_.pilot_gate.enabled) {
    static obs::Counter& gate_pass =
        obs::Registry::global().counter("speccal_gate_tv_pilot_pass_total");
    static obs::Counter& gate_skip =
        obs::Registry::global().counter("speccal_gate_tv_pilot_skip_total");
    if (pilot_present(block)) {
      gate_pass.add();
    } else {
      gate_skip.add();
      out.gated = true;
      block = block.first(
          prefix_length(block.size(), config_.pilot_gate.skip_fraction));
    }
  }

  const double mean = integrate_spectral(block, out.samples_used);
  if (out.samples_used == 0) return out;

  out.power_dbfs = mean > 1e-20 ? 10.0 * std::log10(mean) : -200.0;
  // Refer back to the antenna port: dBm = dBFS - gain + full-scale input.
  out.power_dbm = out.power_dbfs - device.gain_db() + device.info().full_scale_input_dbm;
  return out;
}

std::vector<ChannelPowerReading> PowerMeter::sweep(sdr::Device& device,
                                                   const std::vector<int>& channels) const {
  std::vector<ChannelPowerReading> out;
  out.reserve(channels.size());
  for (int ch : channels) out.push_back(measure_channel(device, ch));
  return out;
}

}  // namespace speccal::tv

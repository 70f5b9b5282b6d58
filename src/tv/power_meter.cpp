#include "tv/power_meter.hpp"

#include <algorithm>
#include <cmath>

#include "dsp/iq.hpp"
#include "obs/metrics.hpp"
#include "util/units.hpp"

namespace speccal::tv {

namespace {

/// The meter's Welch settings: 1024-point Hann segments at 50% overlap
/// (7.8 kHz bins at 8 Msps, against a 5.38 MHz band).
constexpr dsp::WelchConfig kWelch{};

// ATSC pilot fast-path gate (DESIGN.md §14): before paying for the full
// integration, a three-bin Goertzel over a short capture prefix tests the
// pilot bin against two nearby reference bins. Channels with no pilot
// (vacant, or not ATSC) short-circuit to an abbreviated integration over
// kSkipFraction of the capture — the reading keeps its absolute
// calibration (same estimator, fewer samples), at a fraction of the cost.
// Skip rates are published as speccal_gate_tv_pilot_{pass,skip}_total.

/// Expected pilot placement relative to the tuned channel center.
constexpr double kGatePilotOffsetHz = kPilotOffsetFromCenterHz;
/// Reference (noise-floor) bins sit this far either side of the pilot.
constexpr double kRefSpacingHz = 250e3;
/// Pass when the pilot bin clears the mean reference bin by this margin.
constexpr double kGateMinSnrDb = 6.0;
/// Fraction of the capture the gate inspects.
constexpr double kGateFraction = 0.1;
/// Fraction of the capture integrated when the gate skips.
constexpr double kSkipFraction = 0.1;

static_assert(kMeterCaptureDurationS * kMeterSampleRateHz >=
                  static_cast<double>(kWelch.segment_size),
              "the capture must hold one Welch segment");
static_assert((kGatePilotOffsetHz < 0.0 ? -kGatePilotOffsetHz : kGatePilotOffsetHz) +
                      kRefSpacingHz <
                  kMeterSampleRateHz / 2.0,
              "the pilot probe's bins must sit inside Nyquist");
static_assert(kGateFraction > 0.0 && kGateFraction <= 1.0 && kSkipFraction > 0.0 &&
              kSkipFraction <= 1.0);

/// Floor on gate/skip prefix lengths so abbreviated readings still average
/// several Welch segments (4096 samples hold seven).
constexpr std::size_t kMinPrefixSamples = 4096;

[[nodiscard]] std::size_t prefix_length(std::size_t total, double fraction) noexcept {
  const auto want = static_cast<std::size_t>(fraction * static_cast<double>(total));
  return std::min(total, std::max(kMinPrefixSamples, want));
}

}  // namespace

PowerMeter::PowerMeter(PowerMeterConfig config)
    : config_(config),
      welch_(kWelch),
      // Pilot bin plus one reference bin either side; offsets are relative
      // to the tuned center, so one probe serves every channel.
      pilot_probe_({kGatePilotOffsetHz, kGatePilotOffsetHz + kRefSpacingHz,
                    kGatePilotOffsetHz - kRefSpacingHz},
                   kMeterSampleRateHz) {}

// Three-bin Goertzel over the capture prefix, averaged over a few
// sub-segments: pass when the pilot bin clears the mean of the two
// reference bins by kGateMinSnrDb. For an occupied ATSC channel the pilot
// concentrates ~7% of the channel power into one bin, >20 dB above the
// per-bin in-band floor even at these shortened segment lengths, so the
// margin is comfortable at the detection threshold (test_dsp_simd bounds
// the false-negative rate there). The sub-segment averaging is for the
// other direction: single-shot noise bins are exponential-distributed and
// would false-pass ~10% of vacant channels; averaging 4 segments drops
// that to ~0.1% without touching the pilot's coherent power.
bool PowerMeter::pilot_present(std::span<const dsp::Sample> capture) const {
  const std::size_t n = prefix_length(capture.size(), kGateFraction);
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
  return pilot >= util::db_to_ratio(kGateMinSnrDb) * std::max(floor, 1e-30);
}

double PowerMeter::integrate_spectral(std::span<const dsp::Sample> capture,
                                      std::size_t& samples_used) const {
  // Parseval in the frequency domain: the PSD bins sum to the mean power,
  // so the bins inside the band sum to the in-band power.
  welch_.estimate_into(capture, kMeterSampleRateHz, psd_);
  if (psd_.segments_averaged == 0) return 0.0;
  samples_used = (psd_.segments_averaged - 1) * welch_.hop() + kWelch.segment_size;
  return dsp::band_power(psd_, kMeterSampleRateHz, -kMeasureBandwidthHz / 2.0,
                         kMeasureBandwidthHz / 2.0);
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
  if (!device.tune(*center, kMeterSampleRateHz)) return out;
  out.tune_ok = true;

  capture_.resize(
      static_cast<std::size_t>(kMeterCaptureDurationS * kMeterSampleRateHz));
  device.capture_into(capture_);
  const std::span<const dsp::Sample> capture(capture_);
  // Occupancy cross-check over the raw capture (one O(N) pass, no device
  // interaction — the reading itself is untouched).
  out.autocorr_rho = dsp::lag_autocorrelation(capture);

  // Pilot fast-path gate: channels without an ATSC pilot integrate an
  // abbreviated prefix instead of the whole capture (DESIGN.md §14).
  std::span<const dsp::Sample> block(capture);
  static obs::Counter& gate_pass =
      obs::Registry::global().counter("speccal_gate_tv_pilot_pass_total");
  static obs::Counter& gate_skip =
      obs::Registry::global().counter("speccal_gate_tv_pilot_skip_total");
  if (pilot_present(block)) {
    gate_pass.add();
  } else {
    gate_skip.add();
    out.gated = true;
    block = block.first(prefix_length(block.size(), kSkipFraction));
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

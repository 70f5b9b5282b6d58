#include "monitor/scanner.hpp"

#include <algorithm>
#include <cmath>

#include "dsp/goertzel.hpp"
#include "dsp/simd.hpp"
#include "obs/metrics.hpp"
#include "util/units.hpp"

namespace speccal::monitor {

namespace {
[[nodiscard]] double to_dbfs(double linear) noexcept {
  return linear > 1e-20 ? 10.0 * std::log10(linear) : -200.0;
}

constexpr double kSampleRateHz = 8e6;
/// Usable bandwidth per hop (skip the filter roll-off at the edges).
constexpr double kUsableFraction = 0.8;
constexpr double kDwellS = 0.01;
/// Quantile used for the per-hop noise-floor estimate. Low enough that a
/// hop mostly filled by one wideband signal still reads its true floor.
constexpr double kFloorQuantile = 0.15;

// Per-hop presence pre-check (DESIGN.md §14): a Goertzel comb of
// kCombBins teeth spread across the hop bandwidth, averaged over a few
// sub-segments of the dwell prefix, decides whether anything in the hop
// rises above its own low-quantile tooth. Hops with no contrast
// short-circuit the Welch estimate and synthesize a flat PSD from the
// capture's mean power (Parseval-consistent, so stitched band power and
// floor statistics are unchanged for white-noise hops). Limitations are
// inherent to a contrast detector: a narrowband tone parked exactly
// between two teeth, or a signal flat across the *entire* hop, reads as a
// raised floor. Skip rates are published as
// speccal_gate_scan_{pass,skip}_total.

/// Comb teeth spread evenly across the hop bandwidth (>= 4).
constexpr std::size_t kCombBins = 16;
/// Pass when the loudest tooth clears the low-quantile tooth by this.
constexpr double kGateMinSnrDb = 6.0;
/// Fraction of the dwell the comb inspects.
constexpr double kGateFraction = 0.25;
/// Quantile of the tooth powers used as the contrast reference; low, so
/// a signal covering most teeth still compares against true noise teeth.
constexpr double kGateFloorQuantile = 0.15;
static_assert(kCombBins >= 4);
static_assert(kGateFraction >= 0.0 && kGateFraction <= 1.0);
static_assert(kGateFloorQuantile >= 0.0 && kGateFloorQuantile <= 1.0);

/// Sub-segments averaged by the comb: enough chi-squared degrees of freedom
/// that noise teeth sit within ~1 dB of each other, keeping the contrast
/// test far from its threshold on vacant hops.
constexpr std::size_t kGateSubSegments = 8;

/// Goertzel comb contrast test over the dwell prefix. True when the loudest
/// tooth clears the low-quantile tooth by kGateMinSnrDb.
[[nodiscard]] bool comb_detects_signal(std::span<const dsp::Sample> capture, double fs) {
  constexpr std::size_t bins = kCombBins;
  const std::size_t seg = capture.size() / kGateSubSegments;
  if (seg == 0) return true;  // too short to judge; run the full path

  std::vector<double> freqs(bins);
  for (std::size_t k = 0; k < bins; ++k)
    freqs[k] = fs * ((static_cast<double>(k) + 0.5) / static_cast<double>(bins) - 0.5);
  dsp::Goertzel comb(freqs, fs);

  std::vector<double> teeth(bins, 0.0);
  for (std::size_t s = 0; s < kGateSubSegments; ++s) {
    comb.reset();
    comb.feed(capture.subspan(s * seg, seg));
    for (std::size_t k = 0; k < bins; ++k) teeth[k] += comb.power(k);
  }

  std::vector<double> sorted = teeth;
  std::sort(sorted.begin(), sorted.end());
  const auto idx = std::min(
      bins - 1, static_cast<std::size_t>(kGateFloorQuantile * static_cast<double>(bins)));
  const double reference = std::max(sorted[idx], 1e-30);
  return sorted.back() >= util::db_to_ratio(kGateMinSnrDb) * reference;
}

/// Flat white-noise PSD from the capture's mean power. Parseval-consistent
/// with the Welch estimate for a noise-only hop: the bins sum to the mean
/// power, so stitched band_power and percentile_floor read the same values
/// the full estimate would have produced.
void synthesize_flat_psd(std::span<const dsp::Sample> capture, double fs,
                         dsp::WelchResult& out) {
  const std::size_t seg = kScanWelch.segment_size;
  const std::size_t n = capture.size();
  const double mean_power =
      n > 0 ? dsp::simd::sum_power(capture.data(), n) / static_cast<double>(n) : 0.0;
  out.psd.assign(seg, mean_power / static_cast<double>(seg));
  out.bin_width_hz = fs / static_cast<double>(seg);
  const auto hop_len = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(seg) * (1.0 - kScanWelch.overlap)));
  out.segments_averaged = n >= seg ? (n - seg) / hop_len + 1 : 0;
}
}  // namespace

double SweepResult::band_power_dbfs(double low_hz, double high_hz) const noexcept {
  double total = 0.0;
  bool covered = false;
  for (const auto& hop : hops) {
    if (!hop.tune_ok || hop.psd.psd.empty()) continue;
    const double fs = hop.psd.bin_width_hz * static_cast<double>(hop.psd.psd.size());
    const double lo = std::max(low_hz, hop.center_hz - fs / 2.0) - hop.center_hz;
    const double hi = std::min(high_hz, hop.center_hz + fs / 2.0) - hop.center_hz;
    if (hi <= lo) continue;
    total += dsp::band_power(hop.psd, fs, lo, hi);
    covered = true;
  }
  return covered ? to_dbfs(total) : -200.0;
}

double SweepResult::overall_floor_dbfs() const noexcept {
  std::vector<double> floors;
  for (const auto& hop : hops)
    if (hop.tune_ok) floors.push_back(hop.noise_floor_dbfs);
  if (floors.empty()) return -200.0;
  const auto mid = floors.begin() + static_cast<std::ptrdiff_t>(floors.size() / 2);
  std::nth_element(floors.begin(), mid, floors.end());
  return *mid;
}

SweepResult SpectrumScanner::sweep(sdr::Device& device, double start_hz,
                                   double stop_hz) const {
  SweepResult out;
  out.start_hz = start_hz;
  out.stop_hz = stop_hz;
  if (stop_hz <= start_hz) return out;

  device.set_gain_mode(sdr::GainMode::kManual);
  device.set_gain_db(config_.gain_db);

  const double usable = kUsableFraction * kSampleRateHz;
  // One capture buffer and one estimator for the whole sweep: the FFT plan
  // comes from the shared cache and the segment scratch is reused hop to
  // hop, so the per-hop PSD allocates only its output bins.
  dsp::Buffer capture(static_cast<std::size_t>(kDwellS * kSampleRateHz));
  dsp::WelchEstimator welch(kScanWelch);

  for (double center = start_hz + usable / 2.0; center - usable / 2.0 < stop_hz;
       center += usable) {
    HopResult hop;
    hop.center_hz = center;
    hop.tune_ok = device.tune(center, kSampleRateHz);
    if (hop.tune_ok) {
      device.capture_into(capture);
      // Presence pre-check: vacant hops short-circuit the Welch estimate
      // and report a Parseval-consistent flat PSD (DESIGN.md §14).
      static obs::Counter& gate_pass =
          obs::Registry::global().counter("speccal_gate_scan_pass_total");
      static obs::Counter& gate_skip =
          obs::Registry::global().counter("speccal_gate_scan_skip_total");
      const auto prefix =
          static_cast<std::size_t>(kGateFraction * static_cast<double>(capture.size()));
      if (comb_detects_signal(std::span<const dsp::Sample>(capture).first(prefix),
                              kSampleRateHz)) {
        gate_pass.add();
        welch.estimate_into(capture, kSampleRateHz, hop.psd);
      } else {
        gate_skip.add();
        hop.gated = true;
        synthesize_flat_psd(capture, kSampleRateHz, hop.psd);
      }
      hop.noise_floor_dbfs = to_dbfs(dsp::percentile_floor(hop.psd, kFloorQuantile));
    }
    out.hops.push_back(std::move(hop));
  }
  return out;
}

}  // namespace speccal::monitor

// Welch power-spectral-density estimation.
//
// The spectrum-monitoring service (the actual product a calibrated node
// sells, §2 of the paper) reports PSDs to the cloud. Welch's method —
// averaged modified periodograms over overlapping windowed segments —
// trades resolution for variance, which is what occupancy detection needs.
//
// The hot path is WelchEstimator: it holds a cached FFT plan, a
// float-native window and a scratch arena, so estimate_into() on a reused
// result performs zero allocations per block. (The deprecated welch_psd
// one-shot shim finished its grace period and was removed — construct a
// WelchEstimator instead; see DESIGN.md §8.)
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

#include "dsp/plan.hpp"
#include "dsp/window.hpp"

namespace speccal::dsp {

/// Validation contract (enforced by WelchEstimator's constructor;
/// violations throw std::invalid_argument naming the offending parameter):
///   - segment_size must be a power of two (radix-2 plan);
///   - overlap must lie in [0, 1) — 0.99 is legal (hop clamps to >= 1
///     sample), 1.0 would never advance.
struct WelchConfig {
  std::size_t segment_size = 1024;   // must be a power of two
  double overlap = 0.5;              // fraction of segment_size, in [0, 1)
};

struct WelchResult {
  /// Power per bin, linear, full scale = 1.0; FFT bin order
  /// (bin 0 = DC, upper half = negative frequencies).
  std::vector<double> psd;
  std::size_t segments_averaged = 0;
  double bin_width_hz = 0.0;
};

/// Plan-based Welch estimator over Hann-windowed segments. Construct once
/// per configuration, call estimate()/estimate_into() per capture block;
/// the FFT plan comes from the shared PlanCache and segment scratch is
/// reused across calls. Not thread-safe for concurrent estimates on one
/// instance (the plan itself is shared and immutable) — keep one estimator
/// per worker.
class WelchEstimator {
 public:
  /// Validates `config` per the WelchConfig contract.
  explicit WelchEstimator(WelchConfig config = {});

  /// Start-to-start distance of consecutive segments, in samples.
  [[nodiscard]] std::size_t hop() const noexcept { return hop_; }

  /// Estimate the PSD of an I/Q block. Returns an empty result (psd empty,
  /// bin_width set) when the block is shorter than one segment.
  [[nodiscard]] WelchResult estimate(std::span<const std::complex<float>> block,
                                     double sample_rate_hz);

  /// Zero-steady-state-allocation variant: reuses `out.psd`'s storage.
  void estimate_into(std::span<const std::complex<float>> block,
                     double sample_rate_hz, WelchResult& out);

 private:
  WelchConfig config_;
  std::shared_ptr<const FftPlan> plan_;
  std::vector<float> window_;
  double window_power_ = 0.0;
  std::size_t hop_ = 1;
  ScratchArena scratch_;
};

/// Total power (linear) in [low_hz, high_hz] of a Welch result (frequencies
/// relative to the capture centre; negative = below centre).
[[nodiscard]] double band_power(const WelchResult& psd, double sample_rate_hz,
                                double low_hz, double high_hz) noexcept;

/// Robust noise-floor estimate: the median PSD bin (occupied channels are a
/// minority of bins in a wide capture), scaled to per-bin linear power.
[[nodiscard]] double median_floor(const WelchResult& psd);

/// Quantile-based floor for captures where a wideband signal fills most of
/// the bandwidth (a 6 MHz TV channel inside an 8 MHz hop leaves only ~25%
/// of the bins for noise — the median would land inside the signal).
[[nodiscard]] double percentile_floor(const WelchResult& psd, double quantile);

}  // namespace speccal::dsp

// FIR filter design (windowed sinc) and streaming application.
//
// The simulated emitters shape their synthesized spectrum with a band-pass
// designed at runtime from the channel edges (sdr/emitter.cpp), so the
// design code is part of the library proper.
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

#include "dsp/window.hpp"

namespace speccal::dsp {

/// Windowed-sinc low-pass prototype. `cutoff_hz` < `sample_rate_hz`/2,
/// `taps` odd (enforced by rounding up). Unity DC gain.
[[nodiscard]] std::vector<double> design_lowpass(double sample_rate_hz, double cutoff_hz,
                                                 std::size_t taps,
                                                 WindowType window = WindowType::kHamming);

/// Complex band-pass for [low_hz, high_hz] (may span negative frequencies
/// in the complex baseband sense). Built by modulating a low-pass prototype
/// to the band centre; coefficients are complex.
[[nodiscard]] std::vector<std::complex<double>> design_bandpass(
    double sample_rate_hz, double low_hz, double high_hz, std::size_t taps,
    WindowType window = WindowType::kHamming);

/// Streaming FIR for complex float samples with complex double taps.
/// process() can be called repeatedly; state carries across calls.
///
/// The delay line is stored doubled (each sample written twice, n apart) so
/// every output is one contiguous complex-double dot product of the
/// reversed taps against the history window — the dispatched SIMD cdot
/// kernel (dsp/simd.hpp). The lane-split accumulator reorders the additions
/// relative to the historical newest-first scalar loop; held to
/// simd::kSimdEquivalenceTolerance (observed ~1e-15 relative).
class FirFilter {
 public:
  explicit FirFilter(std::vector<std::complex<double>> taps);

  /// Filter a block, appending outputs (one per input) to `out`.
  void process(std::span<const std::complex<float>> in,
               std::vector<std::complex<float>>& out);

  /// Allocation-free variant: filter a block into a caller-owned span of
  /// the same length (one output per input; `in` and `out` may not
  /// overlap). Same streaming state as process(); the direct reference
  /// dsp::FftConvolver is tested against.
  void filter_into(std::span<const std::complex<float>> in,
                   std::span<std::complex<float>> out);

  /// Convenience: filter a whole block and return the result.
  [[nodiscard]] std::vector<std::complex<float>> filter(
      std::span<const std::complex<float>> in);

  void reset() noexcept;

  /// Magnitude response (linear) at `freq_hz` for `sample_rate_hz`.
  [[nodiscard]] double magnitude_at(double freq_hz, double sample_rate_hz) const noexcept;

 private:
  [[nodiscard]] std::complex<double> step(std::complex<float> s) noexcept;

  std::vector<std::complex<double>> taps_;      // design order (magnitude_at)
  std::vector<std::complex<double>> rev_taps_;  // reversed, for the dot kernel
  std::vector<std::complex<double>> delay_;     // doubled circular history (2n)
  std::size_t pos_ = 0;                         // write slot in [0, n)
};

}  // namespace speccal::dsp

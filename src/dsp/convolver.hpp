// Overlap-save FFT convolution for long FIR filters on capture blocks.
//
// The emitter render path pushes every simulated capture through a 127-tap
// channel shaper; direct time-domain convolution costs taps x samples MACs
// per block and dominated per-node calibration wall time. FftConvolver
// applies the same filter as a frequency-domain product over overlap-save
// blocks built on the shared PlanCache, turning the per-sample cost into
// O(log N). State (the taps-1 sample history) carries across filter_into
// calls exactly like FirFilter::process, so the two are drop-in
// equivalents within the documented float tolerance.
#pragma once

#include <complex>
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "dsp/iq.hpp"
#include "dsp/plan.hpp"

namespace speccal::dsp {

/// Equivalence contract against FirFilter (double-accumulation direct
/// convolution): for inputs with RMS amplitude <= 1 and unity-gain-scale
/// taps, every output sample of FftConvolver is within this absolute
/// distance of the direct result. Enforced by tests/test_convolver.cpp in
/// every ctest leg (default, forced-scalar, sanitizers); see DESIGN.md
/// "Capture-path performance" for the derivation.
inline constexpr float kConvolverEquivalenceTolerance = 1e-4f;

/// Streaming overlap-save convolver for complex float samples with complex
/// double taps. Not thread-safe: one instance per stream (the fleet engine
/// gives every worker its own device and sources). Steady-state
/// filter_into() performs zero heap allocations once the internal scratch
/// has grown to the working block size.
class FftConvolver {
 public:
  /// `fft_size` 0 picks the smallest power of two >= max(4 * taps, 256) —
  /// a good throughput/latency balance for 100-odd-tap channel shapers.
  /// Throws std::invalid_argument for empty taps, a non-power-of-two
  /// fft_size, or fft_size < taps (overlap-save needs at least one fresh
  /// sample per block).
  explicit FftConvolver(std::span<const std::complex<double>> taps,
                        std::size_t fft_size = 0);

  /// Filter a block; `out.size()` must equal `in.size()` (one output per
  /// input, same alignment as FirFilter::process). History carries across
  /// calls. `in` and `out` may not overlap.
  void filter_into(std::span<const Sample> in, std::span<Sample> out);

  /// Allocating convenience overload.
  [[nodiscard]] Buffer filter(std::span<const Sample> in);

  /// Clear the streaming history (start a new stream).
  void reset() noexcept;

  /// Bytes reserved by the internal scratch (monotone; for zero-allocation
  /// assertions in tests).
  [[nodiscard]] std::size_t scratch_capacity_bytes() const noexcept {
    return scratch_.capacity_bytes();
  }

 private:
  std::size_t taps_ = 0;
  std::shared_ptr<const FftPlan> plan_;
  std::vector<std::complex<float>> freq_taps_;  // FFT of zero-padded taps
  std::vector<Sample> history_;                 // last taps-1 inputs
  ScratchArena scratch_;
};

}  // namespace speccal::dsp

// Plan-based FFT engine: precomputed twiddle/bit-reversal tables, a
// process-wide thread-safe plan cache, and caller-owned scratch arenas so
// the steady-state hot path performs zero allocations.
//
// Every power measurement in the system (Welch PSD, Parseval band power,
// PSS synthesis, pilot search) runs through here. The design follows the
// convention FFTW and liquid-dsp converged on for streaming measurement
// loops: build a plan once per transform size, execute it many times.
// Transforms are float-native on the capture path — I/Q blocks are
// windowed and transformed as complex<float>, and only per-bin powers
// accumulate in double — which halves the memory traffic of a
// transform that widens every sample to complex<double>.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace speccal::dsp {

/// True if n is a nonzero power of two.
[[nodiscard]] constexpr bool is_power_of_two(std::size_t n) noexcept {
  return n != 0 && (n & (n - 1)) == 0;
}

/// Smallest power of two >= n (n must be nonzero and representable).
[[nodiscard]] constexpr std::size_t next_power_of_two(std::size_t n) noexcept {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// An immutable radix-2 FFT plan for one transform size: the bit-reversal
/// permutation and the per-stage twiddle factors are computed once at
/// construction and shared by every execution. A plan is stateless after
/// construction, so one instance may execute concurrently from many
/// threads (each on its own data).
template <typename Real>
class BasicFftPlan {
 public:
  /// Throws std::invalid_argument unless `n` is a power of two.
  explicit BasicFftPlan(std::size_t n);

  [[nodiscard]] std::size_t size() const noexcept { return n_; }

  /// In-place forward DFT. `data.size()` must equal size(); throws
  /// std::invalid_argument otherwise.
  void forward(std::span<std::complex<Real>> data) const;

  /// In-place inverse DFT (includes the 1/N normalization).
  void inverse(std::span<std::complex<Real>> data) const;

 private:
  void execute(std::span<std::complex<Real>> data, bool inverse) const;

  std::size_t n_ = 0;
  std::vector<std::uint32_t> bitrev_;
  /// Forward twiddles exp(-2*pi*i*k/len), concatenated per stage: the
  /// stage with butterfly span `len` contributes len/2 entries, so the
  /// total is n-1. The inverse transform conjugates on load.
  std::vector<std::complex<Real>> twiddle_;
};

extern template class BasicFftPlan<float>;
extern template class BasicFftPlan<double>;

/// The float-native plan used on capture hot paths.
using FftPlan = BasicFftPlan<float>;
/// Double-precision plan for setup/verification paths (PSS synthesis,
/// filter tap spectra, reference checks).
using FftPlanD = BasicFftPlan<double>;

/// Thread-safe cache of immutable plans keyed by transform size. Fleet
/// workers calibrating nodes in parallel hit the same handful of sizes
/// (TV sweep, Welch segments, pilot search), so the twiddle tables are
/// built once per process instead of once per node. Returned plans are
/// shared_ptr<const>: safe to hold across clear() and to execute
/// concurrently. Lookups publish speccal_dsp_plan_cache_{hits,misses}_total
/// and the speccal_dsp_plan_cache_entries gauge into
/// obs::Registry::global().
class PlanCache {
 public:
  /// The process-wide instance.
  [[nodiscard]] static PlanCache& shared();

  /// Get-or-build a plan. Throws std::invalid_argument for non-power-of-two n.
  [[nodiscard]] std::shared_ptr<const FftPlan> plan_f32(std::size_t n);
  [[nodiscard]] std::shared_ptr<const FftPlanD> plan_f64(std::size_t n);

  /// Drop cached plans (outstanding shared_ptrs stay valid). The entries
  /// gauge drops to 0; the hit and miss counters are monotonic and keep
  /// their totals.
  void clear();

 private:
  struct Impl;
  PlanCache();
  std::unique_ptr<Impl> impl_;
};

/// Caller-owned reusable scratch memory for plan execution. The pool grows
/// monotonically and never shrinks, so a steady-state measurement loop
/// allocates only on its first iteration. A returned span is invalidated
/// by the next request. Not thread-safe: keep one arena per worker.
class ScratchArena {
 public:
  [[nodiscard]] std::span<std::complex<float>> complex_f32(std::size_t n);

  /// Bytes currently reserved (monotone; for tests and capacity
  /// accounting).
  [[nodiscard]] std::size_t capacity_bytes() const noexcept;

 private:
  std::vector<std::complex<float>> c32_;
};

/// Plan-based windowed power spectrum |X[k]|^2, full scale = 1.0. Holds a
/// cached plan, a float-native copy of the window and a scratch arena, so
/// estimate() into a reused output vector allocates nothing in the steady
/// state.
class SpectrumEstimator {
 public:
  /// `fft_size` must be a power of two; `window` (empty = rectangular)
  /// must not be longer than fft_size. Throws std::invalid_argument with
  /// the offending parameter named.
  explicit SpectrumEstimator(std::size_t fft_size,
                             std::span<const double> window = {});

  /// Windowed power spectrum of `block` (block.size() <= fft_size; the
  /// tail is zero-padded; window entries beyond the window length count
  /// as 1.0). `out` is resized to fft_size. Throws std::invalid_argument if
  /// the block is too long.
  void estimate(std::span<const std::complex<float>> block,
                std::vector<double>& out);

  /// Allocating convenience overload.
  [[nodiscard]] std::vector<double> estimate(
      std::span<const std::complex<float>> block);

 private:
  std::shared_ptr<const FftPlan> plan_;
  std::vector<float> window_;
  ScratchArena scratch_;
};

}  // namespace speccal::dsp

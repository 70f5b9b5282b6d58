// Portable-SIMD kernels for the DSP hot loops (DESIGN.md §14).
//
// One compile-time dispatch point (`kBackend`) selects one of two tiers,
// the two that CI builds: the SSE2 bodies on x86-64 (the default,
// sanitizer and TSan legs; -mavx2 builds run them too), or the scalar
// fallback under `-DSPECCAL_DISABLE_SIMD` (the forced-scalar leg) and on
// every other ISA, ARM included. Every kernel keeps a scalar reference
// sibling in `simd::scalar`, so tests and benches compare the dispatched
// path against the reference on any build, and CI's tier-identity job
// `cmp`s the pinned reports test_golden computes in both tiers: they must
// agree byte for byte, not only within the pins' tolerances.
//
// Numerical contract, per kernel:
//   * Elementwise kernels (magnitude_squared, apply_window, accumulate_power,
//     power_scaled, cmul_inplace, fft_radix2_stage, preamble_candidates,
//     scale_quantize) do the same IEEE float ops per element as the scalar
//     sibling — results are bit-identical on both tiers (no FMA
//     contraction is used).
//   * Reduction kernels (sum_power, cdot, dot_conj) split the accumulator
//     across lanes, which reorders the additions. They are held to the
//     documented equivalence tolerance kSimdEquivalenceTolerance (1e-4,
//     relative); observed error is ~1e-6 or better (test_dsp_simd).
#pragma once

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdint>

#if !defined(SPECCAL_DISABLE_SIMD) && defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace speccal::dsp::simd {

/// Relative tolerance for SIMD-vs-scalar reduction kernels (and for library
/// paths whose accumulation order changed when they moved onto these
/// kernels). Expected error is ~1e-6; the gate is deliberately loose.
inline constexpr double kSimdEquivalenceTolerance = 1e-4;

enum class Backend { kScalar, kSse2 };

// The single dispatch point: compile-time detection, no runtime probing.
// Every x86-64 build lands on SSE2, which is part of the base ISA.
#if !defined(SPECCAL_DISABLE_SIMD) && defined(__SSE2__)
inline constexpr Backend kBackend = Backend::kSse2;
#else
inline constexpr Backend kBackend = Backend::kScalar;
#endif

[[nodiscard]] inline constexpr const char* backend_name() noexcept {
  return kBackend == Backend::kSse2 ? "sse2" : "scalar";
}

// ------------------------------------------------------ scalar references ----

namespace scalar {

/// out[i] = |in[i]|^2 in float (re*re + im*im).
inline void magnitude_squared(const std::complex<float>* in, float* out,
                              std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    const float re = in[i].real(), im = in[i].imag();
    out[i] = re * re + im * im;
  }
}

/// out[i] = in[i] * win[i] (complex float x real float).
inline void apply_window(const std::complex<float>* in, const float* win,
                         std::complex<float>* out, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) out[i] = in[i] * win[i];
}

/// acc[i] += double(|in[i]|^2) * scale, the Welch PSD accumulation step.
/// The magnitude is squared in float (matching the historical
/// static_cast<double>(std::norm(work[k])) form) before the double scale.
inline void accumulate_power(const std::complex<float>* in, double scale,
                             double* acc, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    const float re = in[i].real(), im = in[i].imag();
    acc[i] += static_cast<double>(re * re + im * im) * scale;
  }
}

/// out[i] = double(|in[i]|^2) * scale (assignment variant, SpectrumEstimator).
inline void power_scaled(const std::complex<float>* in, double scale,
                         double* out, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    const float re = in[i].real(), im = in[i].imag();
    out[i] = static_cast<double>(re * re + im * im) * scale;
  }
}

/// sum over i of double(|in[i]|^2); sequential double accumulation.
[[nodiscard]] inline double sum_power(const std::complex<float>* in,
                                      std::size_t n) noexcept {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const float re = in[i].real(), im = in[i].imag();
    acc += static_cast<double>(re * re + im * im);
  }
  return acc;
}

/// a[i] *= b[i], explicit formula (no Annex-G NaN recovery, matching the
/// FFT butterfly convention).
inline void cmul_inplace(std::complex<float>* a, const std::complex<float>* b,
                         std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    const float ar = a[i].real(), ai = a[i].imag();
    const float br = b[i].real(), bi = b[i].imag();
    a[i] = {ar * br - ai * bi, ar * bi + ai * br};
  }
}

/// Plain (non-conjugated) complex-double dot product: sum a[i]*b[i].
[[nodiscard]] inline std::complex<double> cdot(const std::complex<double>* a,
                                               const std::complex<double>* b,
                                               std::size_t n) noexcept {
  double accr = 0.0, acci = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double ar = a[i].real(), ai = a[i].imag();
    const double br = b[i].real(), bi = b[i].imag();
    accr += ar * br - ai * bi;
    acci += ar * bi + ai * br;
  }
  return {accr, acci};
}

/// Conjugated correlation dot: sum x[i]*conj(ref[i]), accumulated in double.
[[nodiscard]] inline std::complex<double> dot_conj(
    const std::complex<float>* x, const std::complex<float>* ref,
    std::size_t n) noexcept {
  double accr = 0.0, acci = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double xr = x[i].real(), xi = x[i].imag();
    const double rr = ref[i].real(), ri = ref[i].imag();
    accr += xr * rr + xi * ri;
    acci += xi * rr - xr * ri;
  }
  return {accr, acci};
}

/// One radix-2 DIT stage over interleaved complex float data (2n floats):
/// for each `len`-wide block, butterfly the lo/hi halves with the stage's
/// `half` twiddles (interleaved at tw, wi multiplied by `sign`). Mirrors the
/// historical BasicFftPlan inner loop exactly.
inline void fft_radix2_stage(float* data, std::size_t n, std::size_t len,
                             const float* tw, float sign) noexcept {
  const std::size_t half = len >> 1;
  for (std::size_t i = 0; i < n; i += len) {
    float* lo = data + 2 * i;
    float* hi = data + 2 * (i + half);
    for (std::size_t k = 0; k < half; ++k) {
      const float wr = tw[2 * k];
      const float wi = sign * tw[2 * k + 1];
      const float xr = hi[2 * k], xi = hi[2 * k + 1];
      const float vr = xr * wr - xi * wi;
      const float vi = xr * wi + xi * wr;
      const float ur = lo[2 * k], ui = lo[2 * k + 1];
      lo[2 * k] = ur + vr;
      lo[2 * k + 1] = ui + vi;
      hi[2 * k] = ur - vr;
      hi[2 * k + 1] = ui - vi;
    }
  }
}

/// ADS-B preamble candidate bitmap: out[i] = 1 iff
///   min(mag[i], mag[i+2], mag[i+7], mag[i+9]) >
///   max(mag[i+1], mag[i+3], mag[i+5], mag[i+11], mag[i+13], mag[i+15])
/// for i in [0, n_positions). Caller guarantees mag has n_positions + 15
/// readable entries. Pure min/max/compare, so every backend is bit-identical.
inline void preamble_candidates(const float* mag, std::size_t n_positions,
                                std::uint8_t* out) noexcept {
  for (std::size_t i = 0; i < n_positions; ++i) {
    const float pulse_min =
        std::min(std::min(mag[i], mag[i + 2]), std::min(mag[i + 7], mag[i + 9]));
    const float quiet_max = std::max(
        std::max(std::max(mag[i + 1], mag[i + 3]), mag[i + 5]),
        std::max(std::max(mag[i + 11], mag[i + 13]), mag[i + 15]));
    out[i] = pulse_min > quiet_max ? 1 : 0;
  }
}

/// The simulated ADC in one pass: x[i] = clamp(x[i] * scale, -1, 1)
/// rounded to a multiple of 2^-(bits-1), ties away from zero, in float.
/// Bitwise equal to the two-pass double form
///   v = x * scale;  round(clamp(double(v), -1.0, 1.0) * L) / L,  L = 2^(bits-1)
/// on every input: signed zeros (and the sign of values that round to zero)
/// are kept, ±inf clip to ±1, NaN stays NaN and is never converted to an
/// integer. Rounding is trunc-then-compare, which is exact: floor(a + 0.5f)
/// would round the largest float below a half level up. Requires
/// 1 <= bits <= 31, so the clipped |v| * L fits an int32.
inline void scale_quantize(float* x, std::size_t n, float scale, int bits) noexcept {
  const float levels = std::ldexp(1.0f, bits - 1);
  const float step = 1.0f / levels;
  for (std::size_t i = 0; i < n; ++i) {
    const float v = x[i] * scale;
    if (std::isnan(v)) {
      x[i] = v;
      continue;
    }
    const float a = std::min(std::fabs(v), 1.0f) * levels;
    float t = static_cast<float>(static_cast<std::int32_t>(a));
    if (a - t >= 0.5f) t += 1.0f;
    x[i] = std::copysign(t * step, v);
  }
}

}  // namespace scalar

// ------------------------------------------------------- dispatched bodies ----

#if !defined(SPECCAL_DISABLE_SIMD) && defined(__SSE2__)

namespace detail {

// [p0, p0, p1, p1] lane powers for two packed complex floats.
[[nodiscard]] inline __m128 pair_powers(__m128 v) noexcept {
  const __m128 sq = _mm_mul_ps(v, v);
  const __m128 sw = _mm_shuffle_ps(sq, sq, _MM_SHUFFLE(2, 3, 0, 1));
  return _mm_add_ps(sq, sw);
}

// Sign mask that negates lanes 0 and 2 (the real lanes of two packed
// complex floats) on xor.
[[nodiscard]] inline __m128 negate_even_mask() noexcept {
  return _mm_castsi128_ps(
      _mm_setr_epi32(INT32_C(0x80000000), 0, INT32_C(0x80000000), 0));
}

// Two packed complex-float multiplies: lanes [ar,ai,br,bi] * [cr,ci,dr,di].
[[nodiscard]] inline __m128 cmul2(__m128 x, __m128 w) noexcept {
  const __m128 wr = _mm_shuffle_ps(w, w, _MM_SHUFFLE(2, 2, 0, 0));
  const __m128 wi = _mm_shuffle_ps(w, w, _MM_SHUFFLE(3, 3, 1, 1));
  const __m128 xsw = _mm_shuffle_ps(x, x, _MM_SHUFFLE(2, 3, 0, 1));
  const __m128 t1 = _mm_mul_ps(x, wr);
  const __m128 t2 = _mm_xor_ps(_mm_mul_ps(xsw, wi), negate_even_mask());
  return _mm_add_ps(t1, t2);
}

}  // namespace detail

inline void magnitude_squared(const std::complex<float>* in, float* out,
                              std::size_t n) noexcept {
  const float* f = reinterpret_cast<const float*>(in);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 p01 = detail::pair_powers(_mm_loadu_ps(f + 2 * i));
    const __m128 p23 = detail::pair_powers(_mm_loadu_ps(f + 2 * i + 4));
    _mm_storeu_ps(out + i, _mm_shuffle_ps(p01, p23, _MM_SHUFFLE(2, 0, 2, 0)));
  }
  if (i < n) scalar::magnitude_squared(in + i, out + i, n - i);
}

inline void apply_window(const std::complex<float>* in, const float* win,
                         std::complex<float>* out, std::size_t n) noexcept {
  const float* f = reinterpret_cast<const float*>(in);
  float* o = reinterpret_cast<float*>(out);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128 v = _mm_loadu_ps(f + 2 * i);
    const __m128 w2 = _mm_castsi128_ps(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(win + i)));
    _mm_storeu_ps(o + 2 * i, _mm_mul_ps(v, _mm_unpacklo_ps(w2, w2)));
  }
  if (i < n) scalar::apply_window(in + i, win + i, out + i, n - i);
}

inline void accumulate_power(const std::complex<float>* in, double scale,
                             double* acc, std::size_t n) noexcept {
  const float* f = reinterpret_cast<const float*>(in);
  const __m128d s = _mm_set1_pd(scale);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128 p = detail::pair_powers(_mm_loadu_ps(f + 2 * i));
    // Lanes [p0, p0, p1, p1] -> [p0, p1] as doubles.
    const __m128d pd =
        _mm_cvtps_pd(_mm_shuffle_ps(p, p, _MM_SHUFFLE(2, 2, 2, 0)));
    const __m128d prev = _mm_loadu_pd(acc + i);
    _mm_storeu_pd(acc + i, _mm_add_pd(prev, _mm_mul_pd(pd, s)));
  }
  if (i < n) scalar::accumulate_power(in + i, scale, acc + i, n - i);
}

inline void power_scaled(const std::complex<float>* in, double scale,
                         double* out, std::size_t n) noexcept {
  const float* f = reinterpret_cast<const float*>(in);
  const __m128d s = _mm_set1_pd(scale);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128 p = detail::pair_powers(_mm_loadu_ps(f + 2 * i));
    const __m128d pd =
        _mm_cvtps_pd(_mm_shuffle_ps(p, p, _MM_SHUFFLE(2, 2, 2, 0)));
    _mm_storeu_pd(out + i, _mm_mul_pd(pd, s));
  }
  if (i < n) scalar::power_scaled(in + i, scale, out + i, n - i);
}

[[nodiscard]] inline double sum_power(const std::complex<float>* in,
                                      std::size_t n) noexcept {
  const float* f = reinterpret_cast<const float*>(in);
  __m128d acc0 = _mm_setzero_pd();
  __m128d acc1 = _mm_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 pa = detail::pair_powers(_mm_loadu_ps(f + 2 * i));
    const __m128 pb = detail::pair_powers(_mm_loadu_ps(f + 2 * i + 4));
    acc0 = _mm_add_pd(
        acc0, _mm_cvtps_pd(_mm_shuffle_ps(pa, pa, _MM_SHUFFLE(2, 2, 2, 0))));
    acc1 = _mm_add_pd(
        acc1, _mm_cvtps_pd(_mm_shuffle_ps(pb, pb, _MM_SHUFFLE(2, 2, 2, 0))));
  }
  const __m128d acc = _mm_add_pd(acc0, acc1);
  double lanes[2];
  _mm_storeu_pd(lanes, acc);
  double total = lanes[0] + lanes[1];
  if (i < n) total += scalar::sum_power(in + i, n - i);
  return total;
}

inline void cmul_inplace(std::complex<float>* a, const std::complex<float>* b,
                         std::size_t n) noexcept {
  float* fa = reinterpret_cast<float*>(a);
  const float* fb = reinterpret_cast<const float*>(b);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128 va = _mm_loadu_ps(fa + 2 * i);
    const __m128 vb = _mm_loadu_ps(fb + 2 * i);
    _mm_storeu_ps(fa + 2 * i, detail::cmul2(va, vb));
  }
  if (i < n) scalar::cmul_inplace(a + i, b + i, n - i);
}

[[nodiscard]] inline std::complex<double> cdot(const std::complex<double>* a,
                                               const std::complex<double>* b,
                                               std::size_t n) noexcept {
  const double* da = reinterpret_cast<const double*>(a);
  const double* db = reinterpret_cast<const double*>(b);
  // Two independent [re, im] accumulators to break the add dependency chain.
  __m128d acc0 = _mm_setzero_pd();
  __m128d acc1 = _mm_setzero_pd();
  const __m128d neg_even =
      _mm_castsi128_pd(_mm_setr_epi32(0, INT32_C(0x80000000), 0, 0));
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d va0 = _mm_loadu_pd(da + 2 * i);      // [ar, ai]
    const __m128d vb0 = _mm_loadu_pd(db + 2 * i);      // [br, bi]
    const __m128d va1 = _mm_loadu_pd(da + 2 * i + 2);
    const __m128d vb1 = _mm_loadu_pd(db + 2 * i + 2);
    // [ar*br - ai*bi, ar*bi + ai*br]
    const __m128d t0r = _mm_mul_pd(_mm_unpacklo_pd(va0, va0), vb0);
    const __m128d t0i = _mm_xor_pd(
        _mm_mul_pd(_mm_unpackhi_pd(va0, va0),
                   _mm_shuffle_pd(vb0, vb0, 0x1)),
        neg_even);
    acc0 = _mm_add_pd(acc0, _mm_add_pd(t0r, t0i));
    const __m128d t1r = _mm_mul_pd(_mm_unpacklo_pd(va1, va1), vb1);
    const __m128d t1i = _mm_xor_pd(
        _mm_mul_pd(_mm_unpackhi_pd(va1, va1),
                   _mm_shuffle_pd(vb1, vb1, 0x1)),
        neg_even);
    acc1 = _mm_add_pd(acc1, _mm_add_pd(t1r, t1i));
  }
  const __m128d acc = _mm_add_pd(acc0, acc1);
  double lanes[2];
  _mm_storeu_pd(lanes, acc);
  std::complex<double> total(lanes[0], lanes[1]);
  if (i < n) total += scalar::cdot(a + i, b + i, n - i);
  return total;
}

[[nodiscard]] inline std::complex<double> dot_conj(
    const std::complex<float>* x, const std::complex<float>* ref,
    std::size_t n) noexcept {
  const float* fx = reinterpret_cast<const float*>(x);
  const float* fr = reinterpret_cast<const float*>(ref);
  // Accumulate x*conj(ref) in two packed-complex float lanes, widening to
  // double at the end — fine for the short correlation windows this serves
  // (documented tolerance; observed ~1e-6 relative for n <= 4096).
  __m128 acc = _mm_setzero_ps();
  const __m128 neg_odd = _mm_castsi128_ps(
      _mm_setr_epi32(0, INT32_C(0x80000000), 0, INT32_C(0x80000000)));
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128 vx = _mm_loadu_ps(fx + 2 * i);
    // conj(ref): negate imaginary lanes (1 and 3).
    const __m128 vr = _mm_xor_ps(_mm_loadu_ps(fr + 2 * i), neg_odd);
    acc = _mm_add_ps(acc, detail::cmul2(vx, vr));
  }
  float lanes[4];
  _mm_storeu_ps(lanes, acc);
  std::complex<double> total(static_cast<double>(lanes[0]) + lanes[2],
                             static_cast<double>(lanes[1]) + lanes[3]);
  if (i < n) total += scalar::dot_conj(x + i, ref + i, n - i);
  return total;
}

inline void fft_radix2_stage(float* data, std::size_t n, std::size_t len,
                             const float* tw, float sign) noexcept {
  const std::size_t half = len >> 1;
  if (half < 2) {
    scalar::fft_radix2_stage(data, n, len, tw, sign);
    return;
  }
  const __m128 vsign = _mm_set1_ps(sign);
  for (std::size_t i = 0; i < n; i += len) {
    float* lo = data + 2 * i;
    float* hi = data + 2 * (i + half);
    for (std::size_t k = 0; k + 2 <= half; k += 2) {
      const __m128 w = _mm_loadu_ps(tw + 2 * k);
      const __m128 x = _mm_loadu_ps(hi + 2 * k);
      const __m128 wr = _mm_shuffle_ps(w, w, _MM_SHUFFLE(2, 2, 0, 0));
      const __m128 wi =
          _mm_mul_ps(_mm_shuffle_ps(w, w, _MM_SHUFFLE(3, 3, 1, 1)), vsign);
      const __m128 xsw = _mm_shuffle_ps(x, x, _MM_SHUFFLE(2, 3, 0, 1));
      // v = [xr*wr - xi*wi, xi*wr + xr*wi]; the imaginary lane exploits
      // float-add commutativity to stay bit-identical to the scalar form.
      const __m128 v =
          _mm_add_ps(_mm_mul_ps(x, wr),
                     _mm_xor_ps(_mm_mul_ps(xsw, wi), detail::negate_even_mask()));
      const __m128 u = _mm_loadu_ps(lo + 2 * k);
      _mm_storeu_ps(lo + 2 * k, _mm_add_ps(u, v));
      _mm_storeu_ps(hi + 2 * k, _mm_sub_ps(u, v));
    }
  }
}

inline void preamble_candidates(const float* mag, std::size_t n_positions,
                                std::uint8_t* out) noexcept {
  std::size_t i = 0;
  for (; i + 4 <= n_positions; i += 4) {
    const __m128 pulse_min = _mm_min_ps(
        _mm_min_ps(_mm_loadu_ps(mag + i), _mm_loadu_ps(mag + i + 2)),
        _mm_min_ps(_mm_loadu_ps(mag + i + 7), _mm_loadu_ps(mag + i + 9)));
    const __m128 quiet_max = _mm_max_ps(
        _mm_max_ps(_mm_max_ps(_mm_loadu_ps(mag + i + 1),
                              _mm_loadu_ps(mag + i + 3)),
                   _mm_loadu_ps(mag + i + 5)),
        _mm_max_ps(_mm_max_ps(_mm_loadu_ps(mag + i + 11),
                              _mm_loadu_ps(mag + i + 13)),
                   _mm_loadu_ps(mag + i + 15)));
    const int mask = _mm_movemask_ps(_mm_cmpgt_ps(pulse_min, quiet_max));
    out[i] = static_cast<std::uint8_t>(mask & 1);
    out[i + 1] = static_cast<std::uint8_t>((mask >> 1) & 1);
    out[i + 2] = static_cast<std::uint8_t>((mask >> 2) & 1);
    out[i + 3] = static_cast<std::uint8_t>((mask >> 3) & 1);
  }
  if (i < n_positions) scalar::preamble_candidates(mag + i, n_positions - i, out + i);
}

inline void scale_quantize(float* x, std::size_t n, float scale, int bits) noexcept {
  // Lane recipe: a = min(|v|, 1) * L, where minps returns its second
  // operand, 1, in a NaN lane; t = trunc(a) through the int32 conversion;
  // t += (a - t >= 0.5); result = t / L with v's sign bit; NaN lanes are
  // then restored from v.
  const float levels = std::ldexp(1.0f, bits - 1);
  const __m128 vscale = _mm_set1_ps(scale);
  const __m128 vlevels = _mm_set1_ps(levels);
  const __m128 vstep = _mm_set1_ps(1.0f / levels);
  const __m128 one = _mm_set1_ps(1.0f);
  const __m128 half = _mm_set1_ps(0.5f);
  const __m128 sign = _mm_set1_ps(-0.0f);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 v = _mm_mul_ps(_mm_loadu_ps(x + i), vscale);
    const __m128 a = _mm_mul_ps(_mm_min_ps(_mm_andnot_ps(sign, v), one), vlevels);
    __m128 t = _mm_cvtepi32_ps(_mm_cvttps_epi32(a));
    t = _mm_add_ps(t, _mm_and_ps(_mm_cmpge_ps(_mm_sub_ps(a, t), half), one));
    const __m128 q = _mm_or_ps(_mm_mul_ps(t, vstep), _mm_and_ps(v, sign));
    const __m128 nan = _mm_cmpunord_ps(v, v);
    _mm_storeu_ps(x + i, _mm_or_ps(_mm_andnot_ps(nan, q), _mm_and_ps(nan, v)));
  }
  if (i < n) scalar::scale_quantize(x + i, n - i, scale, bits);
}

#else  // forced scalar or a non-x86 ISA: the references are the kernels

using scalar::accumulate_power;
using scalar::apply_window;
using scalar::cdot;
using scalar::cmul_inplace;
using scalar::dot_conj;
using scalar::fft_radix2_stage;
using scalar::magnitude_squared;
using scalar::power_scaled;
using scalar::preamble_candidates;
using scalar::scale_quantize;
using scalar::sum_power;

#endif

}  // namespace speccal::dsp::simd

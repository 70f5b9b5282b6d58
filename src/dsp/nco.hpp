// Numerically controlled oscillator / complex mixer.
//
// Emitter synthesizers place each signal at its frequency offset inside the
// SDR's capture bandwidth by mixing baseband waveforms with an NCO.
#pragma once

#include <cmath>
#include <complex>
#include <numbers>
#include <span>
#include <vector>

namespace speccal::dsp {

/// Phase-accumulating complex oscillator. Phase continuity is preserved
/// across blocks, so multi-block captures have no spectral seams.
///
/// Samples are produced by a phasor recurrence (one complex multiply per
/// sample) rather than a sin/cos pair; the double-precision phasor is
/// renormalized to the unit circle every kRenormInterval samples, which
/// bounds the amplitude drift well below float resolution for any
/// realistic capture length.
class Nco {
 public:
  Nco(double freq_hz, double sample_rate_hz) noexcept {
    const double step = 2.0 * std::numbers::pi * freq_hz / sample_rate_hz;
    step_ = {std::cos(step), std::sin(step)};
  }

  /// Next oscillator sample e^{j phase}.
  [[nodiscard]] std::complex<float> next() noexcept {
    const std::complex<float> out(static_cast<float>(phasor_.real()),
                                  static_cast<float>(phasor_.imag()));
    phasor_ *= step_;
    if (++since_renorm_ >= kRenormInterval) renormalize();
    return out;
  }

  /// Tone synthesis: accum[i] += e^{j phase_i} * amplitude for the whole
  /// block, advancing the oscillator by accum.size() samples (phase
  /// continuity preserved, same as repeated next()).
  ///
  /// Four phasor lanes advance by step^4 per iteration, breaking the
  /// sequential complex-multiply dependency chain of the per-sample path.
  /// The lane recurrence rounds differently from repeated next() and is
  /// renormalized once per block instead of every kRenormInterval samples:
  /// equivalent within simd::kSimdEquivalenceTolerance (observed ~1e-9
  /// relative per block; test_dsp_simd holds the line).
  void add_tone(std::span<std::complex<float>> accum, float amplitude) noexcept {
    const std::size_t n = accum.size();
    if (n < 16) {
      for (auto& s : accum) s += next() * amplitude;
      return;
    }
    const std::complex<double> s1 = step_;
    const std::complex<double> s2 = s1 * s1;
    const std::complex<double> s4 = s2 * s2;
    std::complex<double> p0 = phasor_;
    std::complex<double> p1 = phasor_ * s1;
    std::complex<double> p2 = phasor_ * s2;
    std::complex<double> p3 = p1 * s2;
    const float amp = amplitude;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      accum[i] += std::complex<float>(static_cast<float>(p0.real()),
                                      static_cast<float>(p0.imag())) * amp;
      accum[i + 1] += std::complex<float>(static_cast<float>(p1.real()),
                                          static_cast<float>(p1.imag())) * amp;
      accum[i + 2] += std::complex<float>(static_cast<float>(p2.real()),
                                          static_cast<float>(p2.imag())) * amp;
      accum[i + 3] += std::complex<float>(static_cast<float>(p3.real()),
                                          static_cast<float>(p3.imag())) * amp;
      p0 *= s4;
      p1 *= s4;
      p2 *= s4;
      p3 *= s4;
    }
    phasor_ = p0;  // lane 0 carries the phase of the first unemitted sample
    renormalize();
    for (; i < n; ++i) accum[i] += next() * amplitude;
  }

  void set_phase(double radians) noexcept {
    phasor_ = {std::cos(radians), std::sin(radians)};
    since_renorm_ = 0;
  }
  /// Current phase as a principal value in (-pi, pi].
  [[nodiscard]] double phase() const noexcept {
    return std::atan2(phasor_.imag(), phasor_.real());
  }

 private:
  static constexpr int kRenormInterval = 1024;

  void renormalize() noexcept {
    phasor_ /= std::abs(phasor_);
    since_renorm_ = 0;
  }

  std::complex<double> step_{1.0, 0.0};
  std::complex<double> phasor_{1.0, 0.0};
  int since_renorm_ = 0;
};

}  // namespace speccal::dsp

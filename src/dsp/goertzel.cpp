#include "dsp/goertzel.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>
#include <string>

namespace speccal::dsp {

namespace {
// Chunk the shared pass so all bins revisit the same samples while they are
// hot in cache (K passes over a 32 KiB chunk, not K passes over the capture).
constexpr std::size_t kChunkSamples = 4096;
}  // namespace

Goertzel::Goertzel(std::span<const double> freqs_hz, double sample_rate_hz) {
  if (freqs_hz.empty())
    throw std::invalid_argument("Goertzel: need at least one frequency");
  if (!(sample_rate_hz > 0.0))
    throw std::invalid_argument("Goertzel: sample rate must be positive (got " +
                                std::to_string(sample_rate_hz) + ")");
  bins_.reserve(freqs_hz.size());
  for (const double f : freqs_hz) {
    BinState b;
    b.freq_hz = f;
    b.w = 2.0 * std::numbers::pi * f / sample_rate_hz;
    b.coeff = 2.0 * std::cos(b.w);
    b.cos_w = std::cos(b.w);
    b.sin_w = std::sin(b.w);
    bins_.push_back(b);
  }
}

Goertzel::Goertzel(std::initializer_list<double> freqs_hz, double sample_rate_hz)
    : Goertzel(std::span<const double>(freqs_hz.begin(), freqs_hz.size()),
               sample_rate_hz) {}

void Goertzel::reset() noexcept {
  for (auto& b : bins_) b.s1r = b.s2r = b.s1i = b.s2i = 0.0;
  n_ = 0;
}

void Goertzel::feed(std::span<const std::complex<float>> block) noexcept {
  const std::complex<float>* p = block.data();
  std::size_t remaining = block.size();
  while (remaining > 0) {
    const std::size_t chunk = remaining < kChunkSamples ? remaining : kChunkSamples;
    for (auto& b : bins_) {
      const double c = b.coeff;
      double s1r = b.s1r, s2r = b.s2r;
      double s1i = b.s1i, s2i = b.s2i;
      for (std::size_t i = 0; i < chunk; ++i) {
        const double xr = static_cast<double>(p[i].real());
        const double xi = static_cast<double>(p[i].imag());
        const double tr = xr + c * s1r - s2r;
        const double ti = xi + c * s1i - s2i;
        s2r = s1r;
        s1r = tr;
        s2i = s1i;
        s1i = ti;
      }
      b.s1r = s1r;
      b.s2r = s2r;
      b.s1i = s1i;
      b.s2i = s2i;
    }
    p += chunk;
    remaining -= chunk;
    n_ += chunk;
  }
}

std::complex<double> Goertzel::unrotated(const BinState& b) const noexcept {
  // y = s1 - e^{-jw} s2; |y| equals |sum x[m] e^{-jwm}| (the residual phase
  // factor e^{-jw(N-1)} is unit-magnitude and applied only in output()).
  const double yr = b.s1r - (b.cos_w * b.s2r + b.sin_w * b.s2i);
  const double yi = b.s1i - (b.cos_w * b.s2i - b.sin_w * b.s2r);
  return {yr, yi};
}

double Goertzel::power(std::size_t bin) const noexcept {
  if (n_ == 0) return 0.0;
  const double n = static_cast<double>(n_);
  return std::norm(unrotated(bins_[bin])) / (n * n);
}

std::complex<double> Goertzel::output(std::size_t bin) const noexcept {
  if (n_ == 0) return {0.0, 0.0};
  const BinState& b = bins_[bin];
  const double n = static_cast<double>(n_);
  const std::complex<double> rot =
      std::polar(1.0, -b.w * (n - 1.0));
  return rot * unrotated(b) / n;
}

}  // namespace speccal::dsp

// Common I/Q sample types.
//
// SDR capture buffers are complex float32 (the native wire format of most
// SDR drivers, "cf32"); analysis code promotes to double where numerical
// accuracy matters (FFT verification, Parseval sums).
#pragma once

#include <algorithm>
#include <complex>
#include <span>
#include <vector>

namespace speccal::dsp {

using Sample = std::complex<float>;
using Buffer = std::vector<Sample>;

/// A block's I/Q components as 2n interleaved floats (re0, im0, re1, ...);
/// std::complex<float> is array-compatible with float[2].
[[nodiscard]] inline std::span<float> as_floats(std::span<Sample> block) noexcept {
  return {reinterpret_cast<float*>(block.data()), 2 * block.size()};
}

/// Mean power (|x|^2 average) of a sample block; 0 for an empty block.
[[nodiscard]] inline double mean_power(std::span<const Sample> block) noexcept {
  if (block.empty()) return 0.0;
  double acc = 0.0;
  for (const Sample& s : block) acc += static_cast<double>(std::norm(s));
  return acc / static_cast<double>(block.size());
}

/// Mean power in dB relative to full scale (|x| = 1.0 is full scale).
/// Empty or silent blocks report -200 dBFS (an effective floor).
[[nodiscard]] inline double mean_power_dbfs(std::span<const Sample> block) noexcept {
  const double p = mean_power(block);
  if (p <= 1e-20) return -200.0;
  return 10.0 * std::log10(p);
}

/// Normalized lag autocorrelation |R(lag)| / R(0) in [0, 1].
///
/// The cheap occupancy discriminant from USRP scanning receivers: white
/// noise decorrelates at one sample (rho ~ 1/sqrt(N)), a band-limited
/// signal occupying fraction B/fs of the capture keeps rho ~ sinc(B/fs)
/// (~0.4 for an ATSC channel in an 8 Msps capture), and a CW tone holds
/// rho ~ 1. Blocks shorter than lag+2 samples report 0.
[[nodiscard]] inline double lag_autocorrelation(std::span<const Sample> block,
                                                std::size_t lag = 1) noexcept {
  if (lag == 0 || block.size() < lag + 2) return 0.0;
  const std::size_t n = block.size() - lag;
  std::complex<double> r_lag{0.0, 0.0};
  double r0 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::complex<double> a(block[i]);
    const std::complex<double> b(block[i + lag]);
    r_lag += std::conj(a) * b;
    r0 += std::norm(a);
  }
  if (r0 <= 1e-20) return 0.0;
  return std::min(1.0, std::abs(r_lag) / r0);
}

}  // namespace speccal::dsp

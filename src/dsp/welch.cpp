#include "dsp/welch.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "dsp/simd.hpp"

namespace speccal::dsp {

WelchEstimator::WelchEstimator(WelchConfig config) : config_(config) {
  if (!is_power_of_two(config.segment_size))
    throw std::invalid_argument(
        "WelchConfig.segment_size must be a power of two (got " +
        std::to_string(config.segment_size) + ")");
  if (!(config.overlap >= 0.0 && config.overlap < 1.0))
    throw std::invalid_argument("WelchConfig.overlap must be in [0, 1) (got " +
                                std::to_string(config.overlap) + ")");
  plan_ = PlanCache::shared().plan_f32(config.segment_size);
  const auto window = make_window(WindowType::kHann, config.segment_size);
  window_power_ = dsp::window_power(window);
  window_.assign(window.begin(), window.end());
  hop_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(config.segment_size) *
                                  (1.0 - config.overlap)));
}

void WelchEstimator::estimate_into(std::span<const std::complex<float>> block,
                                   double sample_rate_hz, WelchResult& out) {
  const std::size_t seg = config_.segment_size;
  out.psd.clear();
  out.segments_averaged = 0;
  out.bin_width_hz = sample_rate_hz / static_cast<double>(seg);
  if (block.size() < seg) return;

  out.psd.assign(seg, 0.0);
  auto work = scratch_.complex_f32(seg);
  // Modified periodogram normalized by the window power so that the sum
  // over bins equals the segment's mean power (Parseval-consistent). Window
  // multiply and power accumulation run through the elementwise SIMD
  // kernels (bit-identical to the scalar siblings, dsp/simd.hpp).
  const double scale = 1.0 / (window_power_ * static_cast<double>(seg));
  for (std::size_t start = 0; start + seg <= block.size(); start += hop_) {
    simd::apply_window(block.data() + start, window_.data(), work.data(), seg);
    plan_->forward(work);
    simd::accumulate_power(work.data(), scale, out.psd.data(), seg);
    ++out.segments_averaged;
  }
  if (out.segments_averaged > 0) {
    const double inv = 1.0 / static_cast<double>(out.segments_averaged);
    for (auto& v : out.psd) v *= inv;
  }
}

WelchResult WelchEstimator::estimate(std::span<const std::complex<float>> block,
                                     double sample_rate_hz) {
  WelchResult out;
  estimate_into(block, sample_rate_hz, out);
  return out;
}

double band_power(const WelchResult& psd, double sample_rate_hz, double low_hz,
                  double high_hz) noexcept {
  if (psd.psd.empty() || high_hz <= low_hz) return 0.0;
  const auto n = psd.psd.size();
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    // Bin frequency in [-fs/2, fs/2).
    double f = static_cast<double>(k) * sample_rate_hz / static_cast<double>(n);
    if (f >= sample_rate_hz / 2.0) f -= sample_rate_hz;
    if (f >= low_hz && f < high_hz) total += psd.psd[k];
  }
  return total;
}

double median_floor(const WelchResult& psd) { return percentile_floor(psd, 0.5); }

double percentile_floor(const WelchResult& psd, double quantile) {
  if (psd.psd.empty()) return 0.0;
  std::vector<double> sorted = psd.psd;
  const auto idx = std::min(sorted.size() - 1,
                            static_cast<std::size_t>(quantile *
                                                     static_cast<double>(sorted.size())));
  const auto nth = sorted.begin() + static_cast<std::ptrdiff_t>(idx);
  std::nth_element(sorted.begin(), nth, sorted.end());
  return *nth;
}

}  // namespace speccal::dsp

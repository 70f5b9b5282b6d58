#include "dsp/convolver.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "dsp/simd.hpp"

namespace speccal::dsp {

FftConvolver::FftConvolver(std::span<const std::complex<double>> taps,
                           std::size_t fft_size)
    : taps_(taps.size()) {
  if (taps.empty()) throw std::invalid_argument("FftConvolver: empty taps");
  std::size_t n = fft_size;
  if (n == 0) n = next_power_of_two(std::max<std::size_t>(4 * taps_, 256));
  if (!is_power_of_two(n))
    throw std::invalid_argument("FftConvolver: fft_size must be a power of two (got " +
                                std::to_string(n) + ")");
  if (n < taps_)
    throw std::invalid_argument("FftConvolver: fft_size " + std::to_string(n) +
                                " must be >= tap count " + std::to_string(taps_));
  plan_ = PlanCache::shared().plan_f32(n);

  // Tap spectrum in double precision, narrowed once — keeps the filter's
  // own rounding out of the per-block float budget.
  const auto plan_d = PlanCache::shared().plan_f64(n);
  std::vector<std::complex<double>> h(n, {0.0, 0.0});
  std::copy(taps.begin(), taps.end(), h.begin());
  plan_d->forward(h);
  freq_taps_.resize(n);
  for (std::size_t k = 0; k < n; ++k)
    freq_taps_[k] = {static_cast<float>(h[k].real()), static_cast<float>(h[k].imag())};

  history_.assign(taps_ - 1, Sample{0.0f, 0.0f});
}

void FftConvolver::filter_into(std::span<const Sample> in, std::span<Sample> out) {
  if (out.size() != in.size())
    throw std::invalid_argument("FftConvolver: out size " + std::to_string(out.size()) +
                                " does not match in size " + std::to_string(in.size()));
  const std::size_t n = plan_->size();
  const std::size_t overlap = taps_ - 1;
  const std::size_t fresh_max = n - overlap;  // L fresh samples per block
  auto work = scratch_.complex_f32(n);

  std::size_t pos = 0;
  while (pos < in.size()) {
    const std::size_t m = std::min(fresh_max, in.size() - pos);
    // Block layout: [history | m fresh inputs | zero pad].
    std::copy(history_.begin(), history_.end(), work.begin());
    std::copy(in.begin() + static_cast<std::ptrdiff_t>(pos),
              in.begin() + static_cast<std::ptrdiff_t>(pos + m),
              work.begin() + static_cast<std::ptrdiff_t>(overlap));
    std::fill(work.begin() + static_cast<std::ptrdiff_t>(overlap + m), work.end(),
              Sample{0.0f, 0.0f});

    plan_->forward(work);
    // Spectral product via the SIMD complex-multiply kernel. The explicit
    // formula drops operator*'s Annex-G NaN recovery, identically to the
    // butterfly convention — finite values are unchanged.
    simd::cmul_inplace(work.data(), freq_taps_.data(), n);
    plan_->inverse(work);

    // Overlap-save: the first `overlap` outputs are circular garbage.
    std::copy(work.begin() + static_cast<std::ptrdiff_t>(overlap),
              work.begin() + static_cast<std::ptrdiff_t>(overlap + m),
              out.begin() + static_cast<std::ptrdiff_t>(pos));

    if (overlap > 0) {
      if (m >= overlap) {
        std::copy(in.begin() + static_cast<std::ptrdiff_t>(pos + m - overlap),
                  in.begin() + static_cast<std::ptrdiff_t>(pos + m), history_.begin());
      } else {
        // Fewer fresh samples than the history length: shift, then append.
        std::move(history_.begin() + static_cast<std::ptrdiff_t>(m), history_.end(),
                  history_.begin());
        std::copy(in.begin() + static_cast<std::ptrdiff_t>(pos),
                  in.begin() + static_cast<std::ptrdiff_t>(pos + m),
                  history_.end() - static_cast<std::ptrdiff_t>(m));
      }
    }
    pos += m;
  }
}

Buffer FftConvolver::filter(std::span<const Sample> in) {
  Buffer out(in.size());
  filter_into(in, out);
  return out;
}

void FftConvolver::reset() noexcept {
  std::fill(history_.begin(), history_.end(), Sample{0.0f, 0.0f});
}

}  // namespace speccal::dsp

#include "dsp/plan.hpp"

#include <cmath>
#include <mutex>
#include <numbers>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <unordered_map>

#include "dsp/simd.hpp"
#include "obs/metrics.hpp"

namespace speccal::dsp {

// ------------------------------------------------------------------ plan ----

template <typename Real>
BasicFftPlan<Real>::BasicFftPlan(std::size_t n) : n_(n) {
  if (!is_power_of_two(n))
    throw std::invalid_argument("FftPlan: size must be a power of two (got " +
                                std::to_string(n) + ")");
  bitrev_.resize(n);
  bitrev_[0] = 0;
  for (std::size_t i = 1; i < n; ++i)
    bitrev_[i] = static_cast<std::uint32_t>((bitrev_[i >> 1] >> 1) |
                                            ((i & 1) ? (n >> 1) : 0));
  if (n > 1) twiddle_.reserve(n - 1);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    for (std::size_t k = 0; k < len / 2; ++k) {
      const double angle =
          -2.0 * std::numbers::pi * static_cast<double>(k) / static_cast<double>(len);
      twiddle_.emplace_back(static_cast<Real>(std::cos(angle)),
                            static_cast<Real>(std::sin(angle)));
    }
  }
}

template <typename Real>
void BasicFftPlan<Real>::execute(std::span<std::complex<Real>> data,
                                 bool inverse) const {
  if (data.size() != n_)
    throw std::invalid_argument("FftPlan: data size " +
                                std::to_string(data.size()) +
                                " does not match plan size " + std::to_string(n_));
  if (n_ == 1) return;

  for (std::size_t i = 1; i < n_; ++i) {
    const std::size_t j = bitrev_[i];
    if (i < j) std::swap(data[i], data[j]);
  }

  // Butterflies on raw real/imag pairs. std::complex guarantees the
  // array-compatible {re, im} layout, and the explicit butterfly formula is
  // bit-identical to operator* for finite values — but unlike operator* it
  // carries no Annex-G NaN-recovery branch. The float specialization (the
  // per-capture hot path) runs each stage through the dispatched SIMD stage
  // kernel (dsp/simd.hpp, bit-identical to the scalar sibling); the double
  // specialization (used once per filter design) stays on the scalar form.
  Real* __restrict d = reinterpret_cast<Real*>(data.data());
  const Real* __restrict tw = reinterpret_cast<const Real*>(twiddle_.data());
  const Real sign = inverse ? Real(-1) : Real(1);  // conjugates the twiddles
  for (std::size_t len = 2; len <= n_; len <<= 1) {
    if constexpr (std::is_same_v<Real, float>) {
      simd::fft_radix2_stage(d, n_, len, tw, sign);
    } else {
      const std::size_t half = len >> 1;
      for (std::size_t i = 0; i < n_; i += len) {
        Real* __restrict lo = d + 2 * i;
        Real* __restrict hi = d + 2 * (i + half);
        for (std::size_t k = 0; k < half; ++k) {
          const Real wr = tw[2 * k];
          const Real wi = sign * tw[2 * k + 1];
          const Real xr = hi[2 * k], xi = hi[2 * k + 1];
          const Real vr = xr * wr - xi * wi;
          const Real vi = xr * wi + xi * wr;
          const Real ur = lo[2 * k], ui = lo[2 * k + 1];
          lo[2 * k] = ur + vr;
          lo[2 * k + 1] = ui + vi;
          hi[2 * k] = ur - vr;
          hi[2 * k + 1] = ui - vi;
        }
      }
    }
    tw += len;  // each stage holds `half` complex twiddles = `len` Reals
  }

  if (inverse) {
    const Real inv_n = Real(1) / static_cast<Real>(n_);
    for (auto& x : data) x *= inv_n;
  }
}

template <typename Real>
void BasicFftPlan<Real>::forward(std::span<std::complex<Real>> data) const {
  execute(data, false);
}

template <typename Real>
void BasicFftPlan<Real>::inverse(std::span<std::complex<Real>> data) const {
  execute(data, true);
}

template class BasicFftPlan<float>;
template class BasicFftPlan<double>;

// ----------------------------------------------------------------- cache ----

struct PlanCache::Impl {
  mutable std::mutex mutex;
  std::unordered_map<std::size_t, std::shared_ptr<const FftPlan>> f32;
  std::unordered_map<std::size_t, std::shared_ptr<const FftPlanD>> f64;
  // Lookup counters in the process-wide registry (DESIGN.md §10).
  obs::Counter& hits_metric =
      obs::Registry::global().counter("speccal_dsp_plan_cache_hits_total");
  obs::Counter& misses_metric =
      obs::Registry::global().counter("speccal_dsp_plan_cache_misses_total");
  obs::Gauge& entries_metric =
      obs::Registry::global().gauge("speccal_dsp_plan_cache_entries");

  void publish_locked() noexcept {
    entries_metric.set(static_cast<double>(f32.size() + f64.size()));
  }
};

PlanCache::PlanCache() : impl_(std::make_unique<Impl>()) {}

PlanCache& PlanCache::shared() {
  static PlanCache cache;
  return cache;
}

namespace {
template <typename Plan, typename Map>
std::shared_ptr<const Plan> get_or_build(Map& map, std::size_t n,
                                         obs::Counter& hits_metric,
                                         obs::Counter& misses_metric) {
  auto it = map.find(n);
  if (it != map.end()) {
    hits_metric.add();
    return it->second;
  }
  // Built under the lock: plans are shared by construction, and the build
  // cost is paid once per (size, process), so contention is a non-issue.
  auto plan = std::make_shared<const Plan>(n);
  map.emplace(n, plan);
  misses_metric.add();
  return plan;
}
}  // namespace

std::shared_ptr<const FftPlan> PlanCache::plan_f32(std::size_t n) {
  std::lock_guard lock(impl_->mutex);
  auto plan = get_or_build<FftPlan>(impl_->f32, n, impl_->hits_metric,
                                    impl_->misses_metric);
  impl_->publish_locked();
  return plan;
}

std::shared_ptr<const FftPlanD> PlanCache::plan_f64(std::size_t n) {
  std::lock_guard lock(impl_->mutex);
  auto plan = get_or_build<FftPlanD>(impl_->f64, n, impl_->hits_metric,
                                     impl_->misses_metric);
  impl_->publish_locked();
  return plan;
}

void PlanCache::clear() {
  std::lock_guard lock(impl_->mutex);
  impl_->f32.clear();
  impl_->f64.clear();
  // Registry counters are monotonic by contract and deliberately survive a
  // clear(); only the entries gauge tracks the emptied cache.
  impl_->publish_locked();
}

// ----------------------------------------------------------------- arena ----

std::span<std::complex<float>> ScratchArena::complex_f32(std::size_t n) {
  if (c32_.capacity() < n) {
    // Grow events are the signal that a "zero steady-state allocation" loop
    // is not actually steady; fleet dashboards watch this stay flat.
    static obs::Counter& grows =
        obs::Registry::global().counter("speccal_dsp_scratch_grow_events_total");
    grows.add();
  }
  if (c32_.size() < n) c32_.resize(n);
  return std::span(c32_.data(), n);
}

std::size_t ScratchArena::capacity_bytes() const noexcept {
  return c32_.capacity() * sizeof(std::complex<float>);
}

// ------------------------------------------------------------- estimator ----

SpectrumEstimator::SpectrumEstimator(std::size_t fft_size,
                                     std::span<const double> window) {
  if (!is_power_of_two(fft_size))
    throw std::invalid_argument(
        "SpectrumEstimator: fft_size must be a power of two (got " +
        std::to_string(fft_size) + ")");
  if (window.size() > fft_size)
    throw std::invalid_argument(
        "SpectrumEstimator: window length " + std::to_string(window.size()) +
        " exceeds fft_size " + std::to_string(fft_size));
  plan_ = PlanCache::shared().plan_f32(fft_size);
  window_.assign(window.begin(), window.end());
}

void SpectrumEstimator::estimate(std::span<const std::complex<float>> block,
                                 std::vector<double>& out) {
  const std::size_t n = plan_->size();
  if (block.size() > n)
    throw std::invalid_argument("SpectrumEstimator: block length " +
                                std::to_string(block.size()) +
                                " exceeds fft_size " + std::to_string(n));
  out.resize(n);
  if (block.empty()) {
    std::fill(out.begin(), out.end(), 0.0);
    return;
  }

  auto work = scratch_.complex_f32(n);
  const std::size_t windowed = std::min(block.size(), window_.size());
  double window_power = 0.0;
  for (std::size_t i = 0; i < windowed; ++i)
    window_power += static_cast<double>(window_[i]) * static_cast<double>(window_[i]);
  window_power += static_cast<double>(block.size() - windowed);  // implicit w = 1
  simd::apply_window(block.data(), window_.data(), work.data(), windowed);
  for (std::size_t i = windowed; i < block.size(); ++i) work[i] = block[i];
  for (std::size_t i = block.size(); i < n; ++i) work[i] = {0.0f, 0.0f};

  plan_->forward(work);

  // Coherent-gain-corrected power per bin: a full-scale tone reads ~1.0
  // regardless of window.
  const double scale = 1.0 / (window_power * static_cast<double>(block.size()));
  simd::power_scaled(work.data(), scale, out.data(), n);
}

std::vector<double> SpectrumEstimator::estimate(
    std::span<const std::complex<float>> block) {
  std::vector<double> out;
  estimate(block, out);
  return out;
}

}  // namespace speccal::dsp

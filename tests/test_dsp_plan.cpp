// Unit tests: plan-based FFT engine (FftPlan, PlanCache, ScratchArena,
// SpectrumEstimator, WelchEstimator) and the bin_for_frequency contract.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <numbers>
#include <thread>
#include <vector>

#include "dsp/fft.hpp"
#include "dsp/plan.hpp"
#include "dsp/welch.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace d = speccal::dsp;
using speccal::util::Rng;

namespace {

/// The cache's registry series (DESIGN.md §10). Counters are process-wide
/// and monotonic, so tests assert deltas.
speccal::obs::Counter& cache_hits() {
  return speccal::obs::Registry::global().counter("speccal_dsp_plan_cache_hits_total");
}
speccal::obs::Counter& cache_misses() {
  return speccal::obs::Registry::global().counter("speccal_dsp_plan_cache_misses_total");
}
double cache_entries() {
  return speccal::obs::Registry::global().gauge("speccal_dsp_plan_cache_entries").value();
}

/// Brute-force DFT reference.
template <typename Real>
std::vector<std::complex<Real>> dft(const std::vector<std::complex<Real>>& x) {
  const std::size_t n = x.size();
  std::vector<std::complex<Real>> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    std::complex<double> acc{};
    for (std::size_t t = 0; t < n; ++t) {
      const double angle = -2.0 * std::numbers::pi * static_cast<double>(k * t) /
                           static_cast<double>(n);
      acc += std::complex<double>(x[t]) *
             std::complex<double>(std::cos(angle), std::sin(angle));
    }
    out[k] = {static_cast<Real>(acc.real()), static_cast<Real>(acc.imag())};
  }
  return out;
}

std::vector<std::complex<float>> noise_block(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::complex<float>> x(n);
  for (auto& v : x)
    v = {static_cast<float>(rng.normal()), static_cast<float>(rng.normal())};
  return x;
}

}  // namespace

// ----------------------------------------------------------------- plans ----

TEST(FftPlan, DoublePlanMatchesDirectDft) {
  Rng rng(11);
  std::vector<std::complex<double>> x(128);
  for (auto& v : x) v = {rng.normal(), rng.normal()};
  const auto want = dft(x);
  auto got = x;
  d::FftPlanD plan(x.size());
  plan.forward(got);
  for (std::size_t k = 0; k < x.size(); ++k) {
    EXPECT_NEAR(got[k].real(), want[k].real(), 1e-9);
    EXPECT_NEAR(got[k].imag(), want[k].imag(), 1e-9);
  }
}

TEST(FftPlan, FloatPlanMatchesDirectDft) {
  const auto x = noise_block(256, 12);
  const auto want = dft(x);
  auto got = x;
  d::FftPlan plan(x.size());
  plan.forward(got);
  // Float-native transform: errors scale with sqrt(n) * eps_f ~ 1e-5.
  for (std::size_t k = 0; k < x.size(); ++k) {
    EXPECT_NEAR(got[k].real(), want[k].real(), 2e-4);
    EXPECT_NEAR(got[k].imag(), want[k].imag(), 2e-4);
  }
}

TEST(FftPlan, InverseRoundTripFloat) {
  const auto x = noise_block(1024, 13);
  auto work = x;
  d::FftPlan plan(x.size());
  plan.forward(work);
  plan.inverse(work);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(work[i].real(), x[i].real(), 1e-3);
    EXPECT_NEAR(work[i].imag(), x[i].imag(), 1e-3);
  }
}

TEST(FftPlan, CachedPlanMatchesFreshPlan) {
  Rng rng(14);
  std::vector<std::complex<double>> x(512);
  for (auto& v : x) v = {rng.normal(), rng.normal()};
  auto via_cache = x;
  d::PlanCache::shared().plan_f64(x.size())->forward(via_cache);
  auto via_plan = x;
  d::FftPlanD(x.size()).forward(via_plan);
  for (std::size_t k = 0; k < x.size(); ++k) {
    EXPECT_DOUBLE_EQ(via_plan[k].real(), via_cache[k].real());
    EXPECT_DOUBLE_EQ(via_plan[k].imag(), via_cache[k].imag());
  }
}

TEST(FftPlan, SizeOneAndValidation) {
  d::FftPlan one(1);
  std::vector<std::complex<float>> x(1, {3.0f, -2.0f});
  one.forward(x);
  EXPECT_FLOAT_EQ(x[0].real(), 3.0f);
  EXPECT_FLOAT_EQ(x[0].imag(), -2.0f);

  EXPECT_THROW(d::FftPlan(0), std::invalid_argument);
  EXPECT_THROW(d::FftPlan(100), std::invalid_argument);
  d::FftPlan plan(64);
  std::vector<std::complex<float>> wrong(32);
  EXPECT_THROW(plan.forward(wrong), std::invalid_argument);
}

// ----------------------------------------------------------------- cache ----

TEST(PlanCache, SharesPlansAndCountsHits) {
  auto& cache = d::PlanCache::shared();
  cache.clear();
  EXPECT_EQ(cache_entries(), 0.0);
  const std::uint64_t hits0 = cache_hits().value();
  const std::uint64_t misses0 = cache_misses().value();
  const auto a = cache.plan_f32(2048);
  const auto b = cache.plan_f32(2048);
  EXPECT_EQ(a.get(), b.get());  // same immutable plan, shared
  const auto c = cache.plan_f64(2048);  // distinct precision, distinct plan
  EXPECT_EQ(c->size(), 2048u);
  EXPECT_EQ(cache_misses().value() - misses0, 2u);
  EXPECT_EQ(cache_hits().value() - hits0, 1u);
  EXPECT_EQ(cache_entries(), 2.0);

  cache.clear();
  EXPECT_EQ(cache_entries(), 0.0);
  EXPECT_EQ(cache_misses().value() - misses0, 2u);  // monotonic across clear()
  EXPECT_EQ(a->size(), 2048u);  // outstanding handles survive clear()
}

TEST(PlanCache, ConcurrentLookupsYieldOnePlan) {
  auto& cache = d::PlanCache::shared();
  cache.clear();
  const std::uint64_t hits0 = cache_hits().value();
  const std::uint64_t misses0 = cache_misses().value();
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const d::FftPlan>> got(kThreads);
  {
    std::vector<std::jthread> workers;
    for (int t = 0; t < kThreads; ++t)
      workers.emplace_back([&, t] {
        for (int i = 0; i < 50; ++i) got[static_cast<std::size_t>(t)] = cache.plan_f32(4096);
      });
  }
  for (int t = 1; t < kThreads; ++t)
    EXPECT_EQ(got[0].get(), got[static_cast<std::size_t>(t)].get());
  // Every lookup is counted exactly once under the cache lock.
  EXPECT_EQ(cache_misses().value() - misses0, 1u);
  EXPECT_EQ(cache_hits().value() - hits0, kThreads * 50 - 1u);
  EXPECT_EQ(cache_entries(), 1.0);
}

// ----------------------------------------------------------------- arena ----

TEST(ScratchArena, ReusesWithoutRegrowth) {
  d::ScratchArena arena;
  auto s1 = arena.complex_f32(4096);
  EXPECT_EQ(s1.size(), 4096u);
  const auto cap = arena.capacity_bytes();
  for (int i = 0; i < 100; ++i) {
    auto s = arena.complex_f32(4096);
    EXPECT_EQ(s.size(), 4096u);
  }
  EXPECT_EQ(arena.capacity_bytes(), cap);  // steady state: no growth
  auto smaller = arena.complex_f32(16);
  EXPECT_EQ(smaller.size(), 16u);
}

// ------------------------------------------------------------- estimator ----

TEST(SpectrumEstimator, ZeroPadsAndWindowTailIsUnity) {
  // 1000 samples into a 1024-point plan with a 600-entry window: entries
  // beyond the window count as 1.0 and the input tail is zero-padded.
  // Reference computed by hand from the plan: window, pad, transform, then
  // coherent-gain-corrected power |X[k]|^2 / (sum w_i^2 * block_len).
  const auto x = noise_block(1000, 16);
  const std::vector<double> window(600, 0.5);
  d::SpectrumEstimator est(1024, window);
  const auto got = est.estimate(x);

  std::vector<std::complex<float>> padded(1024);
  double window_power = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const float w = i < window.size() ? static_cast<float>(window[i]) : 1.0f;
    window_power += static_cast<double>(w) * static_cast<double>(w);
    padded[i] = x[i] * w;
  }
  d::PlanCache::shared().plan_f32(1024)->forward(padded);
  const double scale = 1.0 / (window_power * static_cast<double>(x.size()));
  ASSERT_EQ(got.size(), padded.size());
  for (std::size_t k = 0; k < got.size(); ++k)
    EXPECT_DOUBLE_EQ(got[k], static_cast<double>(std::norm(padded[k])) * scale);
}

TEST(SpectrumEstimator, ValidationNamesParameter) {
  EXPECT_THROW(d::SpectrumEstimator(1000), std::invalid_argument);
  try {
    d::SpectrumEstimator est(1000);
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("fft_size"), std::string::npos);
  }
  const std::vector<double> window(2048, 1.0);
  EXPECT_THROW(d::SpectrumEstimator(1024, window), std::invalid_argument);

  d::SpectrumEstimator est(1024);
  const auto too_long = noise_block(2048, 17);
  std::vector<double> out;
  EXPECT_THROW(est.estimate(too_long, out), std::invalid_argument);
}

// ----------------------------------------------------------------- welch ----

TEST(WelchEstimator, PlanReuseBitwiseIdenticalToFreshEstimator) {
  const auto x = noise_block(65536, 18);
  d::WelchConfig config;
  config.segment_size = 1024;
  config.overlap = 0.5;

  const auto fresh = d::WelchEstimator(config).estimate(x, 8e6);

  d::WelchEstimator est(config);
  d::WelchResult reused;
  for (int pass = 0; pass < 3; ++pass) est.estimate_into(x, 8e6, reused);

  ASSERT_EQ(reused.psd.size(), fresh.psd.size());
  EXPECT_EQ(reused.segments_averaged, fresh.segments_averaged);
  EXPECT_EQ(0, std::memcmp(reused.psd.data(), fresh.psd.data(),
                           reused.psd.size() * sizeof(double)));
}

TEST(WelchEstimator, BlockShorterThanSegmentIsEmpty) {
  d::WelchConfig config;
  config.segment_size = 1024;
  d::WelchEstimator est(config);
  const auto tiny = noise_block(1023, 19);
  const auto result = est.estimate(tiny, 1e6);
  EXPECT_TRUE(result.psd.empty());
  EXPECT_EQ(result.segments_averaged, 0u);
  EXPECT_DOUBLE_EQ(result.bin_width_hz, 1e6 / 1024.0);
}

TEST(WelchEstimator, OverlapZeroUsesDisjointSegments) {
  d::WelchConfig config;
  config.segment_size = 256;
  config.overlap = 0.0;
  const auto x = noise_block(256 * 10 + 100, 20);
  const auto result = d::WelchEstimator(config).estimate(x, 1e6);
  EXPECT_EQ(result.segments_averaged, 10u);  // trailing partial discarded
}

TEST(WelchEstimator, OverlapNearOneStillAdvances) {
  d::WelchConfig config;
  config.segment_size = 256;
  config.overlap = 0.99;  // hop clamps to floor(256 * 0.01) = 2 samples
  const auto x = noise_block(1024, 21);
  const auto result = d::WelchEstimator(config).estimate(x, 1e6);
  EXPECT_EQ(result.segments_averaged, (1024u - 256u) / 2u + 1u);

  // Even a hop that would round to zero advances by >= 1 sample.
  d::WelchConfig extreme;
  extreme.segment_size = 4;
  extreme.overlap = 0.99;
  const auto small = noise_block(16, 22);
  const auto r2 = d::WelchEstimator(extreme).estimate(small, 1e6);
  EXPECT_EQ(r2.segments_averaged, 13u);
}

TEST(WelchEstimator, ValidationNamesParameter) {
  d::WelchConfig bad;
  bad.segment_size = 1000;
  try {
    d::WelchEstimator est(bad);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("segment_size"), std::string::npos);
  }

  bad.segment_size = 1024;
  for (double overlap : {-0.1, 1.0, 1.5, std::nan("")}) {
    bad.overlap = overlap;
    EXPECT_THROW(d::WelchEstimator{bad}, std::invalid_argument) << overlap;
  }
  bad.overlap = 0.99;
  EXPECT_NO_THROW(d::WelchEstimator{bad});
  bad.overlap = 0.0;
  EXPECT_NO_THROW(d::WelchEstimator{bad});
}

// ---------------------------------------------------- bin_for_frequency ----

TEST(BinForFrequency, BinCentresMapExactly) {
  constexpr double fs = 1.024e6;
  constexpr std::size_t n = 1024;
  constexpr double res = fs / static_cast<double>(n);
  EXPECT_EQ(d::bin_for_frequency(0.0, fs, n), 0u);
  for (std::size_t k = 1; k < n / 2; ++k) {
    EXPECT_EQ(d::bin_for_frequency(static_cast<double>(k) * res, fs, n), k);
    EXPECT_EQ(d::bin_for_frequency(-static_cast<double>(k) * res, fs, n), n - k);
  }
}

TEST(BinForFrequency, NyquistBothSignsMapToMiddleBin) {
  constexpr double fs = 1e6;
  constexpr std::size_t n = 512;
  EXPECT_EQ(d::bin_for_frequency(fs / 2.0, fs, n), n / 2);
  EXPECT_EQ(d::bin_for_frequency(-fs / 2.0, fs, n), n / 2);
}

TEST(BinForFrequency, EdgesBelongToHigherFrequencyBin) {
  constexpr double fs = 1.024e6;
  constexpr std::size_t n = 1024;
  constexpr double res = fs / static_cast<double>(n);
  // Positive edge between bins 9 and 10.
  EXPECT_EQ(d::bin_for_frequency(9.5 * res, fs, n), 10u);
  // Negative edge between bins -10 and -9: the higher (less negative)
  // frequency wins. The pre-fix lround tie-away-from-zero sent this to
  // bin n-10 — inconsistent with the positive side.
  EXPECT_EQ(d::bin_for_frequency(-9.5 * res, fs, n), n - 9);
  // The edge just below DC belongs to the DC bin.
  EXPECT_EQ(d::bin_for_frequency(-0.5 * res, fs, n), 0u);
  // The edge just below +Nyquist belongs to the Nyquist bin.
  EXPECT_EQ(d::bin_for_frequency((static_cast<double>(n) / 2.0 - 0.5) * res, fs, n),
            n / 2);
}

TEST(BinForFrequency, AliasesBeyondNyquistAndDegenerateInputs) {
  constexpr double fs = 1e6;
  constexpr std::size_t n = 256;
  constexpr double res = fs / static_cast<double>(n);
  // One full sample rate aliases back to DC; fs + k*res to bin k.
  EXPECT_EQ(d::bin_for_frequency(fs, fs, n), 0u);
  EXPECT_EQ(d::bin_for_frequency(fs + 3.0 * res, fs, n), 3u);
  EXPECT_EQ(d::bin_for_frequency(-fs - 3.0 * res, fs, n), n - 3);
  // Degenerate parameters are defined, not UB.
  EXPECT_EQ(d::bin_for_frequency(1e3, fs, 0), 0u);
  EXPECT_EQ(d::bin_for_frequency(1e3, 0.0, n), 0u);
  EXPECT_EQ(d::bin_for_frequency(1e3, -1.0, n), 0u);
}

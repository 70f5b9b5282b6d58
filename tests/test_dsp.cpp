// Unit tests: DSP primitives (FFT, windows, FIR, NCO, PRBS).
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <numbers>
#include <set>

#include "dsp/fft.hpp"
#include "dsp/fir.hpp"
#include "dsp/plan.hpp"
#include "dsp/iq.hpp"
#include "dsp/nco.hpp"
#include "dsp/prbs.hpp"
#include "dsp/window.hpp"
#include "util/rng.hpp"

namespace d = speccal::dsp;

namespace {
/// Brute-force DFT reference.
std::vector<std::complex<double>> dft(const std::vector<std::complex<double>>& x) {
  const std::size_t n = x.size();
  std::vector<std::complex<double>> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    std::complex<double> acc{};
    for (std::size_t t = 0; t < n; ++t) {
      const double angle = -2.0 * std::numbers::pi * static_cast<double>(k * t) /
                           static_cast<double>(n);
      acc += x[t] * std::complex<double>(std::cos(angle), std::sin(angle));
    }
    out[k] = acc;
  }
  return out;
}
}  // namespace

// ------------------------------------------------------------------ fft ----

TEST(Fft, MatchesDirectDft) {
  speccal::util::Rng rng(5);
  std::vector<std::complex<double>> x(64);
  for (auto& v : x) v = {rng.normal(), rng.normal()};
  const auto want = dft(x);
  auto got = x;
  d::PlanCache::shared().plan_f64(got.size())->forward(got);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < x.size(); ++k) {
    EXPECT_NEAR(got[k].real(), want[k].real(), 1e-9);
    EXPECT_NEAR(got[k].imag(), want[k].imag(), 1e-9);
  }
}

TEST(Fft, InverseRoundTrip) {
  speccal::util::Rng rng(6);
  std::vector<std::complex<double>> x(256);
  for (auto& v : x) v = {rng.normal(), rng.normal()};
  auto back = x;
  const auto plan = d::PlanCache::shared().plan_f64(back.size());
  plan->forward(back);
  plan->inverse(back);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(back[i].real(), x[i].real(), 1e-9);
    EXPECT_NEAR(back[i].imag(), x[i].imag(), 1e-9);
  }
}

TEST(Fft, ParsevalIdentity) {
  // The paper's power-measurement principle: time power == spectral power.
  speccal::util::Rng rng(7);
  std::vector<std::complex<double>> x(512);
  double time_power = 0.0;
  for (auto& v : x) {
    v = {rng.normal(), rng.normal()};
    time_power += std::norm(v);
  }
  auto spectrum = x;
  d::PlanCache::shared().plan_f64(spectrum.size())->forward(spectrum);
  double freq_power = 0.0;
  for (const auto& v : spectrum) freq_power += std::norm(v);
  EXPECT_NEAR(freq_power / static_cast<double>(x.size()), time_power,
              time_power * 1e-10);
}

TEST(Fft, RejectsNonPowerOfTwo) {
  EXPECT_THROW((void)d::PlanCache::shared().plan_f64(100), std::invalid_argument);
  EXPECT_FALSE(d::is_power_of_two(0));
  EXPECT_TRUE(d::is_power_of_two(1));
  EXPECT_TRUE(d::is_power_of_two(4096));
  EXPECT_FALSE(d::is_power_of_two(4097));
}

TEST(Fft, PowerSpectrumToneLandsInBin) {
  constexpr double fs = 1e6;
  constexpr std::size_t n = 1024;
  constexpr double tone = 250e3;  // exactly bin 256
  std::vector<std::complex<float>> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double ph = 2.0 * std::numbers::pi * tone * static_cast<double>(i) / fs;
    x[i] = {static_cast<float>(std::cos(ph)), static_cast<float>(std::sin(ph))};
  }
  const auto ps = d::SpectrumEstimator(n).estimate(x);
  const std::size_t bin = d::bin_for_frequency(tone, fs, ps.size());
  EXPECT_EQ(bin, 256u);
  EXPECT_NEAR(ps[bin], 1.0, 1e-3);  // full-scale tone -> 1.0
  EXPECT_LT(ps[bin + 5], 1e-6);
}

TEST(Fft, BinForNegativeFrequency) {
  EXPECT_EQ(d::bin_for_frequency(-1000.0, 1024000.0, 1024), 1023u);
  EXPECT_EQ(d::bin_for_frequency(0.0, 1e6, 512), 0u);
}

// -------------------------------------------------------------- windows ----

TEST(Window, KnownShapes) {
  const auto hann = d::make_window(d::WindowType::kHann, 5);
  EXPECT_NEAR(hann[0], 0.0, 1e-12);
  EXPECT_NEAR(hann[2], 1.0, 1e-12);
  EXPECT_NEAR(hann[4], 0.0, 1e-12);
  const auto rect = d::make_window(d::WindowType::kRectangular, 8);
  for (double v : rect) EXPECT_DOUBLE_EQ(v, 1.0);
}

TEST(Window, SymmetryAll) {
  for (auto type : {d::WindowType::kHann, d::WindowType::kHamming,
                    d::WindowType::kBlackman, d::WindowType::kBlackmanHarris}) {
    const auto w = d::make_window(type, 33);
    for (std::size_t i = 0; i < w.size(); ++i)
      EXPECT_NEAR(w[i], w[w.size() - 1 - i], 1e-12);
  }
}

TEST(Window, PowerAndSum) {
  const auto w = d::make_window(d::WindowType::kHamming, 64);
  EXPECT_GT(d::window_sum(w), 0.0);
  EXPECT_GT(d::window_power(w), 0.0);
  EXPECT_LE(d::window_power(w), d::window_sum(w));  // all coefficients <= 1
}

// ------------------------------------------------------------------ fir ----

TEST(Fir, LowpassUnityDcSteepStop) {
  const auto taps = d::design_lowpass(1e6, 100e3, 101);
  double dc = 0.0;
  for (double t : taps) dc += t;
  EXPECT_NEAR(dc, 1.0, 1e-12);

  std::vector<std::complex<double>> ctaps(taps.begin(), taps.end());
  d::FirFilter f(ctaps);
  EXPECT_NEAR(f.magnitude_at(0.0, 1e6), 1.0, 1e-6);
  EXPECT_NEAR(f.magnitude_at(50e3, 1e6), 1.0, 0.05);       // pass band
  EXPECT_LT(f.magnitude_at(250e3, 1e6), 0.01);             // stop band
}

TEST(Fir, DesignValidation) {
  EXPECT_THROW(d::design_lowpass(1e6, 600e3, 31), std::invalid_argument);
  EXPECT_THROW(d::design_lowpass(1e6, -1.0, 31), std::invalid_argument);
  EXPECT_THROW(d::design_lowpass(1e6, 100e3, 2), std::invalid_argument);
  EXPECT_THROW(d::design_bandpass(1e6, 200e3, 100e3, 31), std::invalid_argument);
}

TEST(Fir, BandpassSelectsBand) {
  const auto taps = d::design_bandpass(8e6, 1e6, 2e6, 129);
  d::FirFilter f(taps);
  EXPECT_NEAR(f.magnitude_at(1.5e6, 8e6), 1.0, 0.05);   // centre
  EXPECT_LT(f.magnitude_at(-1.5e6, 8e6), 0.02);          // image side rejected
  EXPECT_LT(f.magnitude_at(3.5e6, 8e6), 0.02);
  EXPECT_LT(f.magnitude_at(0.0, 8e6), 0.05);
}

TEST(Fir, StreamingMatchesBlock) {
  const auto taps = d::design_bandpass(1e6, -100e3, 100e3, 31);
  speccal::util::Rng rng(8);
  std::vector<std::complex<float>> x(500);
  for (auto& v : x)
    v = {static_cast<float>(rng.normal()), static_cast<float>(rng.normal())};

  d::FirFilter whole(taps);
  const auto want = whole.filter(x);

  d::FirFilter chunked(taps);
  std::vector<std::complex<float>> got;
  chunked.process(std::span(x).subspan(0, 123), got);
  chunked.process(std::span(x).subspan(123, 200), got);
  chunked.process(std::span(x).subspan(323), got);

  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i].real(), want[i].real(), 1e-5);
    EXPECT_NEAR(got[i].imag(), want[i].imag(), 1e-5);
  }
}

TEST(Fir, ResetClearsState) {
  const auto taps = d::design_lowpass(1e6, 100e3, 15);
  std::vector<std::complex<double>> ctaps(taps.begin(), taps.end());
  d::FirFilter f(ctaps);
  std::vector<std::complex<float>> ones(20, {1.0f, 0.0f});
  const auto first = f.filter(ones);
  f.reset();
  const auto second = f.filter(ones);
  for (std::size_t i = 0; i < first.size(); ++i)
    EXPECT_NEAR(first[i].real(), second[i].real(), 1e-9);
}

// ------------------------------------------------------------------ nco ----

TEST(Nco, GeneratesRequestedFrequency) {
  constexpr double fs = 1e6;
  constexpr double f0 = 125e3;
  d::Nco nco(f0, fs);
  std::vector<std::complex<float>> x(1024);
  for (auto& v : x) v = nco.next();
  const auto ps = d::SpectrumEstimator(x.size()).estimate(x);
  const std::size_t want_bin = d::bin_for_frequency(f0, fs, ps.size());
  std::size_t best = 0;
  for (std::size_t k = 1; k < ps.size(); ++k)
    if (ps[k] > ps[best]) best = k;
  EXPECT_EQ(best, want_bin);
}

// ----------------------------------------------------------------- prbs ----

TEST(Prbs, Prbs9FullPeriod) {
  auto lfsr = d::make_prbs9();
  std::set<std::uint32_t> states;
  for (int i = 0; i < 511; ++i) {
    states.insert(lfsr.state());
    (void)lfsr.next_bit();
  }
  EXPECT_EQ(states.size(), 511u);          // maximal length
  EXPECT_EQ(lfsr.state(), d::make_prbs9().state());  // back to start
}

TEST(Prbs, BalancedBits) {
  auto lfsr = d::make_prbs15();
  int ones = 0;
  constexpr int kN = 32767;
  for (int i = 0; i < kN; ++i) ones += static_cast<int>(lfsr.next_bit());
  EXPECT_EQ(ones, 16384);  // maximal LFSR: 2^(n-1) ones per period
}

TEST(Prbs, ZeroSeedCoerced) {
  d::Lfsr lfsr((1u << 0) | (1u << 4), 9, 0);
  EXPECT_NE(lfsr.state(), 0u);
  (void)lfsr.next_bit();
  EXPECT_NE(lfsr.state(), 0u);
}

TEST(Prbs, NextBitsPacksMsbFirst) {
  auto a = d::make_prbs9(5);
  auto b = d::make_prbs9(5);
  std::uint32_t packed = a.next_bits(8);
  std::uint32_t manual = 0;
  for (int i = 0; i < 8; ++i) manual = (manual << 1) | b.next_bit();
  EXPECT_EQ(packed, manual);
}

// ------------------------------------------------------------------- iq ----

TEST(Iq, MeanPowerAndDbfs) {
  d::Buffer buf(100, {1.0f, 0.0f});
  EXPECT_DOUBLE_EQ(d::mean_power(buf), 1.0);
  EXPECT_NEAR(d::mean_power_dbfs(buf), 0.0, 1e-9);
  d::Buffer quiet(10, {0.0f, 0.0f});
  EXPECT_DOUBLE_EQ(d::mean_power_dbfs(quiet), -200.0);
  EXPECT_DOUBLE_EQ(d::mean_power({}), 0.0);
}

// SIMD kernel equivalence, streaming Goertzel semantics, and detector-gate
// false-negative bounds (DESIGN.md §14).
//
// Every dispatched kernel in dsp/simd.hpp is compared against its scalar
// reference sibling (dsp::simd::scalar::*) on the same inputs, including
// odd lengths that exercise the vector tails. On a build with
// SPECCAL_DISABLE_SIMD the dispatched kernels *are* the scalar references,
// so the comparisons degenerate to exact self-agreement — the CI scalar leg
// runs this same binary to prove the fallback path compiles and passes.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <limits>
#include <numbers>
#include <random>
#include <vector>

#include "adsb/crc.hpp"
#include "adsb/ppm.hpp"
#include "dsp/fir.hpp"
#include "dsp/goertzel.hpp"
#include "dsp/nco.hpp"
#include "dsp/simd.hpp"
#include "sdr/emitter.hpp"
#include "sdr/sim.hpp"
#include "tv/power_meter.hpp"
#include "geo/wgs84.hpp"
#include "util/rng.hpp"

namespace d = speccal::dsp;
namespace s = speccal::sdr;

namespace {

using CFloat = std::complex<float>;
using CDouble = std::complex<double>;

/// Deterministic complex noise block.
std::vector<CFloat> noise_block(std::size_t n, unsigned seed, float scale = 1.0f) {
  std::mt19937 gen(seed);
  std::normal_distribution<float> dist(0.0f, scale);
  std::vector<CFloat> out(n);
  for (auto& v : out) v = {dist(gen), dist(gen)};
  return out;
}

std::vector<float> real_block(std::size_t n, unsigned seed) {
  std::mt19937 gen(seed);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  std::vector<float> out(n);
  for (auto& v : out) v = dist(gen);
  return out;
}

/// Complex tone + white noise at sample rate fs.
std::vector<CFloat> tone_plus_noise(double freq_hz, double fs, std::size_t n,
                                    float amp, float noise, unsigned seed) {
  auto out = noise_block(n, seed, noise);
  const double w = 2.0 * std::numbers::pi * freq_hz / fs;
  for (std::size_t i = 0; i < n; ++i) {
    const double ph = w * static_cast<double>(i);
    out[i] += CFloat(amp * static_cast<float>(std::cos(ph)),
                     amp * static_cast<float>(std::sin(ph)));
  }
  return out;
}

/// Lengths that exercise full vectors, tails, and the scalar-only floor.
const std::size_t kLengths[] = {1, 2, 3, 7, 8, 15, 16, 17, 64, 255, 1024, 1027};

}  // namespace

// ------------------------------------------------- kernel equivalence ----

TEST(SimdKernels, BackendReportsAName) {
#if !defined(SPECCAL_DISABLE_SIMD) && defined(__SSE2__)
  EXPECT_EQ(d::simd::kBackend, d::simd::Backend::kSse2);
  EXPECT_STREQ(d::simd::backend_name(), "sse2");
#else
  EXPECT_EQ(d::simd::kBackend, d::simd::Backend::kScalar);
  EXPECT_STREQ(d::simd::backend_name(), "scalar");
#endif
}

TEST(SimdKernels, MagnitudeSquaredMatchesScalarBitwise) {
  for (std::size_t n : kLengths) {
    const auto x = noise_block(n, 100 + static_cast<unsigned>(n));
    std::vector<float> got(n, -1.0f), want(n, -1.0f);
    d::simd::magnitude_squared(x.data(), got.data(), n);
    d::simd::scalar::magnitude_squared(x.data(), want.data(), n);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(got[i], want[i]) << "n=" << n << " i=" << i;
  }
}

TEST(SimdKernels, ApplyWindowMatchesScalarBitwise) {
  for (std::size_t n : kLengths) {
    const auto x = noise_block(n, 200 + static_cast<unsigned>(n));
    const auto w = real_block(n, 201 + static_cast<unsigned>(n));
    std::vector<CFloat> got(n), want(n);
    d::simd::apply_window(x.data(), w.data(), got.data(), n);
    d::simd::scalar::apply_window(x.data(), w.data(), want.data(), n);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(got[i], want[i]) << "n=" << n << " i=" << i;
  }
}

TEST(SimdKernels, PowerKernelsMatchScalarBitwise) {
  for (std::size_t n : kLengths) {
    const auto x = noise_block(n, 300 + static_cast<unsigned>(n));
    const double scale = 0.37;
    std::vector<double> got(n, 1.0), want(n, 1.0);
    d::simd::accumulate_power(x.data(), scale, got.data(), n);
    d::simd::scalar::accumulate_power(x.data(), scale, want.data(), n);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(got[i], want[i]) << "accumulate n=" << n << " i=" << i;
    d::simd::power_scaled(x.data(), scale, got.data(), n);
    d::simd::scalar::power_scaled(x.data(), scale, want.data(), n);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(got[i], want[i]) << "scaled n=" << n << " i=" << i;
  }
}

TEST(SimdKernels, ReductionsWithinDocumentedTolerance) {
  for (std::size_t n : kLengths) {
    const auto x = noise_block(n, 400 + static_cast<unsigned>(n));
    const auto y = noise_block(n, 401 + static_cast<unsigned>(n));
    const double sp = d::simd::sum_power(x.data(), n);
    const double sp_ref = d::simd::scalar::sum_power(x.data(), n);
    EXPECT_NEAR(sp, sp_ref, d::simd::kSimdEquivalenceTolerance * std::max(1.0, sp_ref))
        << "sum_power n=" << n;

    const CDouble dc = d::simd::dot_conj(x.data(), y.data(), n);
    const CDouble dc_ref = d::simd::scalar::dot_conj(x.data(), y.data(), n);
    EXPECT_LE(std::abs(dc - dc_ref),
              d::simd::kSimdEquivalenceTolerance * std::max(1.0, std::abs(dc_ref)))
        << "dot_conj n=" << n;

    std::vector<CDouble> xd(n), yd(n);
    for (std::size_t i = 0; i < n; ++i) {
      xd[i] = CDouble(x[i].real(), x[i].imag());
      yd[i] = CDouble(y[i].real(), y[i].imag());
    }
    const CDouble cd = d::simd::cdot(xd.data(), yd.data(), n);
    const CDouble cd_ref = d::simd::scalar::cdot(xd.data(), yd.data(), n);
    EXPECT_LE(std::abs(cd - cd_ref),
              d::simd::kSimdEquivalenceTolerance * std::max(1.0, std::abs(cd_ref)))
        << "cdot n=" << n;
  }
}

TEST(SimdKernels, ComplexMultiplyMatchesScalarBitwise) {
  for (std::size_t n : kLengths) {
    const auto w = noise_block(n, 501 + static_cast<unsigned>(n));
    auto got = noise_block(n, 500 + static_cast<unsigned>(n));
    auto want = got;
    d::simd::cmul_inplace(got.data(), w.data(), n);
    d::simd::scalar::cmul_inplace(want.data(), w.data(), n);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(got[i], want[i]) << "n=" << n << " i=" << i;
  }
}

TEST(SimdKernels, FftStageMatchesScalarBitwise) {
  // One full butterfly stage at several sub-transform lengths, interleaved
  // float layout as BasicFftPlan stores it.
  for (std::size_t n : {8u, 64u, 256u}) {
    for (std::size_t len = 2; len <= n; len *= 2) {
      const std::size_t half = len / 2;
      std::vector<float> tw(2 * half);
      for (std::size_t j = 0; j < half; ++j) {
        const double ang = -2.0 * std::numbers::pi * static_cast<double>(j) /
                           static_cast<double>(len);
        tw[2 * j] = static_cast<float>(std::cos(ang));
        tw[2 * j + 1] = static_cast<float>(std::sin(ang));
      }
      auto got = real_block(2 * n, 600 + static_cast<unsigned>(n + len));
      auto want = got;
      d::simd::fft_radix2_stage(got.data(), n, len, tw.data(), 1.0f);
      d::simd::scalar::fft_radix2_stage(want.data(), n, len, tw.data(), 1.0f);
      for (std::size_t i = 0; i < 2 * n; ++i)
        ASSERT_EQ(got[i], want[i]) << "n=" << n << " len=" << len << " i=" << i;
    }
  }
}

TEST(SimdKernels, PreambleCandidatesMatchScalarBitwise) {
  // Bit-identity of the vectorized first-stage preamble test is the
  // zero-false-negative proof for the ADS-B gate: any start position the
  // scalar check accepts, the bitmap accepts.
  for (std::size_t n_pos : {1u, 5u, 33u, 1000u}) {
    auto mag = real_block(n_pos + 15, 700 + static_cast<unsigned>(n_pos));
    for (auto& m : mag) m = std::fabs(m);
    // Plant a few strong preamble-shaped patterns.
    for (std::size_t base = 0; base + 16 <= mag.size(); base += 37)
      for (std::size_t p : {0u, 2u, 7u, 9u}) mag[base + p] += 10.0f;
    std::vector<std::uint8_t> got(n_pos, 0xFF), want(n_pos, 0xFF);
    d::simd::preamble_candidates(mag.data(), n_pos, got.data());
    d::simd::scalar::preamble_candidates(mag.data(), n_pos, want.data());
    for (std::size_t i = 0; i < n_pos; ++i)
      ASSERT_EQ(got[i], want[i]) << "n_pos=" << n_pos << " i=" << i;
  }
}

// ------------------------------------------------- simulated ADC kernel ----

namespace {

/// The simulated ADC as the two passes scale_quantize replaced: a float
/// gain, then a double clamp, round and divide.
float two_pass_adc(float x, float scale, int bits) {
  const float v = x * scale;
  const double levels = std::ldexp(1.0, bits - 1);
  const double clipped = std::clamp(static_cast<double>(v), -1.0, 1.0);
  return static_cast<float>(std::round(clipped * levels) / levels);
}

std::uint32_t bits_of(float v) { return std::bit_cast<std::uint32_t>(v); }

/// The dispatched kernel and its scalar twin agree bitwise on `in` (NaN
/// included), and both agree bitwise with the two-pass form (where that
/// form yields NaN, they yield NaN).
void expect_adc_agreement(const std::vector<float>& in, float scale, int bits) {
  std::vector<float> simd = in, twin = in;
  d::simd::scale_quantize(simd.data(), simd.size(), scale, bits);
  d::simd::scalar::scale_quantize(twin.data(), twin.size(), scale, bits);
  for (std::size_t i = 0; i < in.size(); ++i) {
    const float want = two_pass_adc(in[i], scale, bits);
    ASSERT_EQ(bits_of(simd[i]), bits_of(twin[i]))
        << "x=" << in[i] << " scale=" << scale << " bits=" << bits << " i=" << i;
    if (std::isnan(want)) {
      ASSERT_TRUE(std::isnan(twin[i])) << "x=" << in[i];
    } else {
      ASSERT_EQ(bits_of(twin[i]), bits_of(want))
          << "x=" << in[i] << " scale=" << scale << " bits=" << bits << ": got "
          << twin[i] << ", two-pass " << want;
    }
  }
}

/// Signed zeros, infinities, NaN, denormals, the clip edges, and for a
/// spread of levels k the exact tie (k + 1/2) / L with its two neighbours.
/// The float just below a tie is where floor(a + 0.5f) rounds the wrong way.
std::vector<float> adc_edge_inputs(int bits) {
  using lim = std::numeric_limits<float>;
  std::vector<float> v = {0.0f, -0.0f, lim::infinity(), -lim::infinity(),
                          lim::quiet_NaN(), -lim::quiet_NaN(), lim::denorm_min(),
                          -lim::denorm_min(), lim::min(), -lim::min(), lim::max(),
                          -lim::max(), 1.0f, -1.0f};
  for (const float edge : {1.0f, -1.0f}) {
    v.push_back(std::nextafter(edge, 0.0f));
    v.push_back(std::nextafter(edge, 2.0f * edge));
  }
  const float levels = std::ldexp(1.0f, bits - 1);
  for (const float k : {0.0f, 1.0f, 2.0f, 3.0f, 7.0f, 100.0f, 1023.0f, 2046.0f, 2047.0f,
                        65535.0f}) {
    if (k >= levels) continue;
    for (const float tie : {(k + 0.5f) / levels, -(k + 0.5f) / levels}) {
      v.push_back(tie);
      v.push_back(std::nextafter(tie, 0.0f));
      v.push_back(std::nextafter(tie, 2.0f * tie));
    }
  }
  return v;
}

}  // namespace

TEST(SimdKernels, ScaleQuantizeMatchesTwoPassAdcOnEdgeInputs) {
  for (const int bits : {1, 2, 8, 12, 16, 24, 25, 31}) {
    const auto edges = adc_edge_inputs(bits);
    // Every start offset puts each edge input in every vector lane and
    // exercises the scalar tail.
    for (std::size_t offset = 0; offset < 8; ++offset) {
      const std::vector<float> in(edges.begin() + static_cast<std::ptrdiff_t>(offset),
                                  edges.end());
      expect_adc_agreement(in, 1.0f, bits);
    }
    // The gain itself can overflow to inf or land on a tie.
    expect_adc_agreement(edges, 3.0e38f, bits);
    expect_adc_agreement(edges, 0.5f, bits);
  }
}

TEST(SimdKernels, ScaleQuantizeMatchesTwoPassAdcOnRandomInputs) {
  // Gaussian inputs over the gains the simulator uses (mostly small, some
  // clipping), then raw random bit patterns: every exponent, NaN payloads
  // and infinities.
  constexpr std::size_t kN = 1u << 20;
  std::mt19937 gen(20);
  std::normal_distribution<float> normal(0.0f, 1.0f);
  std::vector<float> gaussian(kN);
  for (auto& v : gaussian) v = normal(gen);
  for (const float scale : {1e-3f, 0.05f, 0.7f, 3.0f})
    expect_adc_agreement(gaussian, scale, 12);
  std::vector<float> patterns(kN);
  for (auto& v : patterns) v = std::bit_cast<float>(static_cast<std::uint32_t>(gen()));
  for (const int bits : {12, 31}) expect_adc_agreement(patterns, 1.0f, bits);
  for (const int bits : {1, 8, 16, 24})
    expect_adc_agreement(std::vector<float>(gaussian.begin(), gaussian.begin() + 65536),
                         0.25f, bits);
}

// ------------------------------------------------- streaming goertzel ----

TEST(GoertzelStreaming, MatchesDirectDftOnAndOffGrid) {
  constexpr double fs = 1.92e6;
  constexpr std::size_t n = 2048;
  const auto x = noise_block(n, 800);
  // On-grid (exact FFT bin k*fs/N) and off-grid (fractional) frequencies.
  const double freqs[] = {fs * 32.0 / static_cast<double>(n),
                          fs * 32.37 / static_cast<double>(n),
                          -fs * 100.5 / static_cast<double>(n)};
  for (double f : freqs) {
    d::Goertzel g({f}, fs);
    g.feed(x);
    // Direct DFT at the same frequency, double precision.
    CDouble acc{};
    const double w = 2.0 * std::numbers::pi * f / fs;
    for (std::size_t i = 0; i < n; ++i) {
      const double ph = -w * static_cast<double>(i);
      acc += CDouble(x[i].real(), x[i].imag()) * CDouble(std::cos(ph), std::sin(ph));
    }
    acc /= static_cast<double>(n);
    EXPECT_LE(std::abs(g.output(0) - acc), 1e-6 * std::max(1.0, std::abs(acc)))
        << "f=" << f;
    EXPECT_NEAR(g.power(0), std::norm(acc), 1e-6 * std::max(1.0, std::norm(acc)))
        << "f=" << f;
  }
}

TEST(GoertzelStreaming, MultiFrequencyMatchesSingleBitwise) {
  constexpr double fs = 2e6;
  const auto x = tone_plus_noise(251e3, fs, 12345, 0.5f, 0.01f, 801);
  const std::vector<double> freqs = {251e3, -480e3, 13e3, 999e3};
  d::Goertzel multi(freqs, fs);
  // Feed in uneven chunks; chunking must not change the result.
  std::span<const CFloat> span(x);
  multi.feed(span.first(1000));
  multi.feed(span.subspan(1000, 4097));
  multi.feed(span.subspan(5097));
  for (std::size_t k = 0; k < freqs.size(); ++k) {
    d::Goertzel single({freqs[k]}, fs);
    single.feed(x);
    EXPECT_EQ(multi.power(k), single.power(0)) << "bin " << k;
    EXPECT_EQ(multi.output(k), single.output(0)) << "bin " << k;
  }
}

TEST(GoertzelStreaming, PowerConventionAndValidation) {
  constexpr double fs = 2e6;
  const auto x = tone_plus_noise(309441.0, fs, 20000, 0.3f, 0.001f, 802);
  // The one-shot power convention: |X|^2 / N^2 (tone of amplitude a reads
  // a^2).
  d::Goertzel g({309441.0}, fs);
  g.feed(x);
  EXPECT_NEAR(g.power(0), 0.09, 0.01);
  EXPECT_THROW(d::Goertzel(std::vector<double>{}, fs), std::invalid_argument);
  EXPECT_THROW(d::Goertzel({1.0}, 0.0), std::invalid_argument);
  d::Goertzel empty({1.0}, fs);
  EXPECT_DOUBLE_EQ(empty.power(0), 0.0);  // nothing fed yet
}

// ------------------------------------------------------ other kernels ----

TEST(NcoBlock, AddToneMatchesPerSamplePath) {
  constexpr double fs = 8e6;
  for (std::size_t n : {5u, 16u, 1000u, 4097u}) {
    d::Nco block_nco(-2.69e6, fs);
    d::Nco ref_nco(-2.69e6, fs);
    block_nco.set_phase(1.25);
    ref_nco.set_phase(1.25);
    std::vector<CFloat> got(n, CFloat(0.5f, -0.5f));
    std::vector<CFloat> want(n, CFloat(0.5f, -0.5f));
    // Two consecutive blocks: phase must stay continuous across the seam.
    const std::size_t first = n / 2;
    block_nco.add_tone(std::span<CFloat>(got).first(first), 0.7f);
    block_nco.add_tone(std::span<CFloat>(got).subspan(first), 0.7f);
    for (auto& v : want) v += ref_nco.next() * 0.7f;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(got[i].real(), want[i].real(), 1e-5) << "n=" << n << " i=" << i;
      EXPECT_NEAR(got[i].imag(), want[i].imag(), 1e-5) << "n=" << n << " i=" << i;
    }
  }
}

TEST(FirSimd, MatchesDirectConvolution) {
  const auto taps_f = real_block(31, 900);
  const auto x = noise_block(333, 901);
  std::vector<CDouble> taps(taps_f.size());
  for (std::size_t i = 0; i < taps_f.size(); ++i) taps[i] = taps_f[i];
  d::FirFilter fir(taps);
  std::vector<CFloat> got;
  fir.process(x, got);
  ASSERT_EQ(got.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    CDouble acc{};
    for (std::size_t j = 0; j < taps_f.size() && j <= i; ++j)
      acc += CDouble(x[i - j].real(), x[i - j].imag()) *
             static_cast<double>(taps_f[j]);
    EXPECT_NEAR(got[i].real(), acc.real(), 1e-4) << "i=" << i;
    EXPECT_NEAR(got[i].imag(), acc.imag(), 1e-4) << "i=" << i;
  }
}

// -------------------------------------------- gate false-negative bounds ----

namespace {
/// Simulated receiver with one ATSC-like emitter whose pilot sits at the
/// standard offset, ERP chosen so the channel lands near the given SNR at
/// the meter's fixed gain.
struct TvFixture {
  s::RxEnvironment rx;
  std::unique_ptr<s::SimulatedSdr> device;

  explicit TvFixture(double eirp_dbm, unsigned seed) {
    rx.position = {37.87, -122.27, 10.0};
    device = std::make_unique<s::SimulatedSdr>(s::SimulatedSdr::bladerf_like_info(),
                                               rx, speccal::util::Rng(seed));
    s::EmitterConfig cfg;
    cfg.emitter_id = 11;
    cfg.position = speccal::geo::destination(rx.position, 45.0, 30e3);
    cfg.position.alt_m = 300.0;
    cfg.carrier_hz = *speccal::tv::channel_center_hz(27);
    cfg.bandwidth_hz = 5.38e6;
    cfg.eirp_dbm = eirp_dbm;
    cfg.link.model = speccal::prop::PathModel::kFreeSpace;
    cfg.pilot_offset_hz = speccal::tv::kPilotOffsetFromCenterHz;
    device->add_source(std::make_shared<s::FixedEmitterSource>(cfg, speccal::util::Rng(seed + 1)));
  }
};
}  // namespace

TEST(PilotGate, NoFalseNegativesAtThresholdSnr) {
  // A weak station: the pilot concentrates ~7% of channel power into one
  // Goertzel bin, so even near the meter's detection floor the pilot bin
  // clears the reference bins by tens of dB — the gate must never skip an
  // occupied channel here.
  speccal::tv::PowerMeter meter;
  for (unsigned trial = 0; trial < 10; ++trial) {
    TvFixture fix(20.0, 40 + trial);  // weak but present
    const auto reading = meter.measure_channel(*fix.device, 27);
    ASSERT_TRUE(reading.tune_ok);
    EXPECT_FALSE(reading.gated) << "trial " << trial;
  }
}

TEST(PilotGate, VacantChannelSkips) {
  speccal::tv::PowerMeter meter;
  TvFixture fix(20.0, 77);
  // Channel 33 carries nothing; the gate should short-circuit and the
  // abbreviated reading still reports a sane noise power.
  const auto reading = meter.measure_channel(*fix.device, 33);
  ASSERT_TRUE(reading.tune_ok);
  EXPECT_TRUE(reading.gated);
  EXPECT_GT(reading.samples_used, 0u);
  EXPECT_LT(reading.power_dbfs, -40.0);
}

TEST(AdsbGate, GatedDemodStillDecodes) {
  // End-to-end: the candidate bitmap in front of the PPM demod must not
  // drop a decodable frame (bit-identity to the scalar first stage makes
  // this structural; this exercises it through the public API).
  namespace a = speccal::adsb;
  a::RawFrame frame{};
  // DF17 header + arbitrary payload, CRC patched to be valid.
  frame[0] = 17u << 3;
  for (std::size_t i = 1; i < 11; ++i) frame[i] = static_cast<std::uint8_t>(3 * i);
  a::attach_crc(frame);

  std::vector<d::Sample> samples(4 * a::kFrameSamples);
  auto noise = noise_block(samples.size(), 1234, 0.02f);
  for (std::size_t i = 0; i < samples.size(); ++i) samples[i] = noise[i];
  a::modulate_into(frame, 1.0, 0.3, 0.0, a::kFrameSamples / 2, samples);

  const a::PpmDemodulator demod;
  const auto detections = demod.process(samples);
  ASSERT_FALSE(detections.empty());
  EXPECT_EQ(detections[0].sample_index, a::kFrameSamples / 2);
  EXPECT_EQ(detections[0].frame, frame);
}

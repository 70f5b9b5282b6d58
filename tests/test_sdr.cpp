// Unit tests: antenna model, simulated SDR front end, fixed emitters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "dsp/fft.hpp"
#include "dsp/plan.hpp"
#include "prop/pathloss.hpp"
#include "sdr/antenna.hpp"
#include "dsp/nco.hpp"
#include "sdr/emitter.hpp"
#include "sdr/sim.hpp"
#include "util/units.hpp"

namespace s = speccal::sdr;
namespace d = speccal::dsp;
namespace g = speccal::geo;
using speccal::util::Rng;

// -------------------------------------------------------------- antenna ----

TEST(Antenna, IsotropicIsFlat) {
  const auto iso = s::AntennaModel::isotropic();
  for (double f : {100e6, 1e9, 6e9})
    for (double az : {0.0, 90.0, 275.0}) EXPECT_DOUBLE_EQ(iso.gain_dbi(f, az), 0.0);
}

TEST(Antenna, WidebandInterpolatesAndRollsOff) {
  const auto ant = s::AntennaModel::wideband_700_2700();
  // Inside the rated band: near the tabulated values.
  EXPECT_NEAR(ant.gain_dbi(1090e6), 2.5, 0.5);
  EXPECT_NEAR(ant.gain_dbi(700e6), 2.0, 0.1);
  // Below and above: steep roll-off, monotone with distance from band.
  EXPECT_LT(ant.gain_dbi(100e6), -20.0);
  EXPECT_LT(ant.gain_dbi(100e6), ant.gain_dbi(200e6));
  EXPECT_LT(ant.gain_dbi(6e9), ant.gain_dbi(3.5e9));
}

TEST(Antenna, ValidationRejectsBadTables) {
  EXPECT_THROW(s::AntennaModel("bad", {}), std::invalid_argument);
  EXPECT_THROW(s::AntennaModel("bad", {{2e9, 0.0}, {1e9, 0.0}}), std::invalid_argument);
}

TEST(Antenna, DirectionalPattern) {
  auto ant = s::AntennaModel::isotropic();
  ant.set_directional(90.0, 20.0);
  EXPECT_NEAR(ant.gain_dbi(1e9, 90.0), 0.0, 1e-9);    // boresight
  EXPECT_NEAR(ant.gain_dbi(1e9, 270.0), -20.0, 1e-9); // back
  const double side = ant.gain_dbi(1e9, 180.0);
  EXPECT_LT(side, 0.0);
  EXPECT_GT(side, -20.0);
}

TEST(Antenna, AttenuatedVariant) {
  const auto base = s::AntennaModel::wideband_700_2700();
  const auto broken = s::AntennaModel::attenuated(base, 12.0);
  EXPECT_NEAR(base.gain_dbi(1e9) - broken.gain_dbi(1e9), 12.0, 1e-9);
}

// ----------------------------------------------------------------- sdr -----

namespace {
s::RxEnvironment open_site() {
  static const auto antenna = s::AntennaModel::isotropic();
  s::RxEnvironment rx;
  rx.position = {37.87, -122.27, 10.0};
  rx.antenna = &antenna;
  return rx;
}
}  // namespace

TEST(SimulatedSdr, TuneRespectsLimits) {
  s::SimulatedSdr dev(s::SimulatedSdr::bladerf_like_info(), open_site(), Rng(1));
  EXPECT_TRUE(dev.tune(1090e6, 2e6));
  EXPECT_FALSE(dev.tune(10e6, 2e6));    // below 70 MHz
  EXPECT_FALSE(dev.tune(7e9, 2e6));     // above 6 GHz
  EXPECT_FALSE(dev.tune(1e9, 100e6));   // above max sample rate
}

TEST(SimulatedSdr, RefusedZeroRateTuneKeepsTheClockFinite) {
  // A refused tune must not adopt a rate that is not positive and finite:
  // count / 0 would push the stream clock to +inf, and the pilot NCO's
  // start phase (fmod of it) would make every later capture NaN.
  auto all_finite = [](const d::Buffer& buf) {
    return std::all_of(buf.begin(), buf.end(), [](const d::Sample& v) {
      return std::isfinite(v.real()) && std::isfinite(v.imag());
    });
  };
  s::EmitterConfig cfg;
  cfg.carrier_hz = 521e6;
  cfg.position = {37.9, -122.27, 300.0};
  cfg.pilot_offset_hz = -2.690559e6;
  s::SimulatedSdr dev(s::SimulatedSdr::bladerf_like_info(), open_site(), Rng(8));
  dev.add_source(std::make_shared<s::FixedEmitterSource>(cfg, Rng(9)));
  ASSERT_TRUE(dev.tune(521e6, 8e6));
  for (const double bad_rate : {0.0, -8e6, std::numeric_limits<double>::quiet_NaN(),
                                std::numeric_limits<double>::infinity()}) {
    EXPECT_FALSE(dev.tune(521e6, bad_rate)) << bad_rate;
    EXPECT_EQ(dev.sample_rate_hz(), 8e6) << bad_rate;
    EXPECT_TRUE(all_finite(dev.capture(20000))) << bad_rate;
    EXPECT_TRUE(std::isfinite(dev.stream_time_s())) << bad_rate;
    ASSERT_TRUE(dev.tune(521e6, 8e6));
    EXPECT_TRUE(all_finite(dev.capture(20000))) << "after retune from " << bad_rate;
  }
  EXPECT_NEAR(dev.stream_time_s(), 8 * 20000 / 8e6, 1e-12);
}

TEST(SimulatedSdr, RejectsAdcBitsOutsideOneToThirtyOne) {
  for (const int bits : {0, -1, 32, 64}) {
    auto info = s::SimulatedSdr::bladerf_like_info();
    info.adc_bits = bits;
    try {
      s::SimulatedSdr dev(info, open_site(), Rng(1));
      FAIL() << "adc_bits " << bits << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("adc_bits"), std::string::npos) << e.what();
    }
  }
  for (const int bits : {1, 31}) {
    auto info = s::SimulatedSdr::bladerf_like_info();
    info.adc_bits = bits;
    EXPECT_NO_THROW(s::SimulatedSdr(info, open_site(), Rng(1))) << bits;
  }
}

TEST(SimulatedSdr, NoiseFloorMatchesKtbPlusNf) {
  auto info = s::SimulatedSdr::bladerf_like_info();
  info.noise_figure_db = 7.0;
  s::SimulatedSdr dev(info, open_site(), Rng(2));
  dev.set_gain_mode(s::GainMode::kManual);
  dev.set_gain_db(40.0);
  ASSERT_TRUE(dev.tune(1e9, 2e6));
  const auto buf = dev.capture(200000);
  const double measured_dbfs = d::mean_power_dbfs(buf);
  // Expected: kTB(2 MHz) + NF + gain - full_scale = -104 + 40 + 10 = -54 dBFS.
  const double expected =
      speccal::prop::noise_floor_dbm(2e6, 7.0) + 40.0 - info.full_scale_input_dbm;
  // ±0.1 dB: a sigma slip (per-component vs total power is 3 dB; a 2.5%
  // variance error is 0.1 dB) fails here. 12-bit quantization noise reads
  // about +0.03 dB.
  EXPECT_NEAR(measured_dbfs, expected, 0.1);
}

TEST(SimulatedSdr, GainMapsDbmToDbfs) {
  // A tone source with a known received power must appear at
  // P_dBm + gain - full_scale dBFS.
  struct ToneSource final : s::SignalSource {
    double power_dbm;
    explicit ToneSource(double p) : power_dbm(p) {}
    void render(const s::CaptureContext&, std::span<d::Sample> accum) override {
      const float amp = static_cast<float>(speccal::util::db_to_amplitude(power_dbm));
      for (auto& v : accum) v += d::Sample(amp, 0.0f);
    }
  };
  auto info = s::SimulatedSdr::bladerf_like_info();
  s::SimulatedSdr dev(info, open_site(), Rng(3));
  dev.add_source(std::make_shared<ToneSource>(-60.0));
  dev.set_gain_mode(s::GainMode::kManual);
  dev.set_gain_db(30.0);
  ASSERT_TRUE(dev.tune(1e9, 2e6));
  const auto buf = dev.capture(100000);
  EXPECT_NEAR(d::mean_power_dbfs(buf), -60.0 + 30.0 + 10.0, 0.5);
}

TEST(SimulatedSdr, AgcHitsTarget) {
  struct ToneSource final : s::SignalSource {
    void render(const s::CaptureContext&, std::span<d::Sample> accum) override {
      const float amp = static_cast<float>(speccal::util::db_to_amplitude(-50.0));
      for (auto& v : accum) v += d::Sample(amp, 0.0f);
    }
  };
  s::SimulatedSdr dev(s::SimulatedSdr::bladerf_like_info(), open_site(), Rng(4));
  dev.add_source(std::make_shared<ToneSource>());
  dev.set_gain_mode(s::GainMode::kAgc);
  dev.set_agc_target_dbfs(-12.0);
  ASSERT_TRUE(dev.tune(1e9, 2e6));
  const auto buf = dev.capture(50000);
  EXPECT_NEAR(d::mean_power_dbfs(buf), -12.0, 1.0);
}

TEST(SimulatedSdr, AdcClipsAtFullScale) {
  struct LoudSource final : s::SignalSource {
    void render(const s::CaptureContext&, std::span<d::Sample> accum) override {
      for (auto& v : accum) v += d::Sample(100.0f, -100.0f);
    }
  };
  s::SimulatedSdr dev(s::SimulatedSdr::bladerf_like_info(), open_site(), Rng(5));
  dev.add_source(std::make_shared<LoudSource>());
  dev.set_gain_mode(s::GainMode::kManual);
  dev.set_gain_db(0.0);
  ASSERT_TRUE(dev.tune(1e9, 2e6));
  for (const auto& v : dev.capture(100)) {
    EXPECT_LE(std::fabs(v.real()), 1.0f);
    EXPECT_LE(std::fabs(v.imag()), 1.0f);
  }
}

TEST(SimulatedSdr, StreamClockAdvances) {
  s::SimulatedSdr dev(s::SimulatedSdr::bladerf_like_info(), open_site(), Rng(6));
  ASSERT_TRUE(dev.tune(1e9, 1e6));
  EXPECT_DOUBLE_EQ(dev.stream_time_s(), 0.0);
  (void)dev.capture(500000);
  EXPECT_NEAR(dev.stream_time_s(), 0.5, 1e-9);
  dev.advance_time(2.0);
  EXPECT_NEAR(dev.stream_time_s(), 2.5, 1e-9);
}

TEST(SimulatedSdr, OutOfRangeTuneYieldsNoiseOnly) {
  struct ToneSource final : s::SignalSource {
    void render(const s::CaptureContext&, std::span<d::Sample> accum) override {
      for (auto& v : accum) v += d::Sample(0.1f, 0.0f);
    }
  };
  s::SimulatedSdr dev(s::SimulatedSdr::bladerf_like_info(), open_site(), Rng(7));
  dev.add_source(std::make_shared<ToneSource>());
  dev.set_gain_db(0.0);
  EXPECT_FALSE(dev.tune(10e9, 2e6));
  const auto buf = dev.capture(10000);
  EXPECT_LT(d::mean_power_dbfs(buf), -60.0);  // just the noise floor
}

// -------------------------------------------------------------- emitter ----

TEST(Emitter, ReceivedPowerAppearsInCapture) {
  s::EmitterConfig cfg;
  cfg.emitter_id = 9;
  cfg.position = g::destination({37.87, -122.27, 10.0}, 90.0, 20e3);
  cfg.position.alt_m = 200.0;
  cfg.carrier_hz = 521e6;
  cfg.bandwidth_hz = 5.38e6;
  cfg.eirp_dbm = 80.0;
  cfg.link.model = speccal::prop::PathModel::kFreeSpace;

  auto source = std::make_shared<s::FixedEmitterSource>(cfg, Rng(11));
  const auto rx = open_site();
  const double want_dbm = source->received_power_dbm(rx);

  auto info = s::SimulatedSdr::bladerf_like_info();
  s::SimulatedSdr dev(info, rx, Rng(12));
  dev.add_source(source);
  dev.set_gain_mode(s::GainMode::kManual);
  dev.set_gain_db(20.0);
  ASSERT_TRUE(dev.tune(521e6, 8e6));
  const auto buf = dev.capture(100000);
  // Signal dominates the floor here, so total power ~= signal power.
  EXPECT_NEAR(d::mean_power_dbfs(buf), want_dbm + 20.0 + 10.0, 1.0);
}

TEST(Emitter, SilentWhenOutOfBand) {
  s::EmitterConfig cfg;
  cfg.position = g::destination({37.87, -122.27, 10.0}, 0.0, 5e3);
  cfg.carrier_hz = 521e6;
  cfg.eirp_dbm = 90.0;
  auto source = std::make_shared<s::FixedEmitterSource>(cfg, Rng(13));

  s::CaptureContext ctx;
  ctx.center_freq_hz = 700e6;  // channel nowhere near the capture
  ctx.sample_rate_hz = 8e6;
  ctx.sample_count = 1000;
  const auto rx = open_site();
  ctx.rx = &rx;
  d::Buffer buf(1000, {0.0f, 0.0f});
  source->render(ctx, buf);
  for (const auto& v : buf) EXPECT_EQ(std::norm(v), 0.0f);
}

TEST(Emitter, PilotToneVisibleInSpectrum) {
  s::EmitterConfig cfg;
  cfg.emitter_id = 14;
  cfg.position = g::destination({37.87, -122.27, 10.0}, 90.0, 10e3);
  cfg.position.alt_m = 150.0;
  cfg.carrier_hz = 521e6;
  cfg.bandwidth_hz = 5.38e6;
  cfg.eirp_dbm = 85.0;
  cfg.link.model = speccal::prop::PathModel::kFreeSpace;
  cfg.pilot_offset_hz = -2690559.0;  // ATSC pilot relative to centre

  auto source = std::make_shared<s::FixedEmitterSource>(cfg, Rng(15));
  s::CaptureContext ctx;
  ctx.center_freq_hz = 521e6;
  ctx.sample_rate_hz = 8e6;
  ctx.sample_count = 1 << 14;
  const auto rx = open_site();
  ctx.rx = &rx;
  d::Buffer buf(ctx.sample_count, {0.0f, 0.0f});
  source->render(ctx, buf);

  const auto ps = d::SpectrumEstimator(buf.size()).estimate(buf);
  const std::size_t pilot_bin =
      d::bin_for_frequency(*cfg.pilot_offset_hz, 8e6, ps.size());
  // The pilot bin should clearly exceed the median in-band bin.
  const std::size_t mid_bin = d::bin_for_frequency(1e6, 8e6, ps.size());
  EXPECT_GT(ps[pilot_bin], ps[mid_bin] * 5.0);
}

TEST(SimulatedSdr, FrontendLossAttenuatesSignalNotNoise) {
  struct ToneSource final : s::SignalSource {
    void render(const s::CaptureContext&, std::span<d::Sample> accum) override {
      const float amp = static_cast<float>(speccal::util::db_to_amplitude(-50.0));
      for (auto& v : accum) v += d::Sample(amp, 0.0f);
    }
  };
  auto info = s::SimulatedSdr::bladerf_like_info();
  info.frontend_loss_db = 10.0;
  s::SimulatedSdr dev(info, open_site(), Rng(41));
  dev.add_source(std::make_shared<ToneSource>());
  dev.set_gain_mode(s::GainMode::kManual);
  dev.set_gain_db(30.0);
  ASSERT_TRUE(dev.tune(1e9, 2e6));
  // Signal arrives 10 dB down: -60 dBm effective -> -20 dBFS.
  EXPECT_NEAR(d::mean_power_dbfs(dev.capture(100000)), -60.0 + 30.0 + 10.0, 0.5);

  // The receiver's own thermal floor is NOT attenuated (it originates
  // after the lossy cable).
  s::SimulatedSdr quiet(info, open_site(), Rng(42));
  quiet.set_gain_mode(s::GainMode::kManual);
  quiet.set_gain_db(40.0);
  ASSERT_TRUE(quiet.tune(1e9, 2e6));
  const double floor = d::mean_power_dbfs(quiet.capture(100000));
  EXPECT_NEAR(floor, speccal::prop::noise_floor_dbm(2e6, 7.0) + 40.0 + 10.0, 0.5);
}

namespace {
s::EmitterConfig tv_emitter_config(bool pilot) {
  s::EmitterConfig cfg;
  cfg.emitter_id = 77;
  cfg.position = g::destination({37.87, -122.27, 10.0}, 90.0, 15e3);
  cfg.position.alt_m = 180.0;
  cfg.carrier_hz = 521e6;
  cfg.bandwidth_hz = 5.38e6;
  cfg.eirp_dbm = 82.0;
  cfg.link.model = speccal::prop::PathModel::kFreeSpace;
  if (pilot) cfg.pilot_offset_hz = -2690559.0;
  return cfg;
}

s::CaptureContext tv_capture_ctx(const s::RxEnvironment& rx, std::size_t n,
                                 double start_time_s = 0.0) {
  s::CaptureContext ctx;
  ctx.center_freq_hz = 521e6;
  ctx.sample_rate_hz = 8e6;
  ctx.sample_count = n;
  ctx.start_time_s = start_time_s;
  ctx.rx = &rx;
  return ctx;
}
}  // namespace

TEST(Emitter, RenderedPowerMatchesLinkBudgetWithinTenthDb) {
  // Regression for the warm-up-transient bias: the 127-tap shaper's
  // leading transient used to be included in the normalization, skewing
  // short-buffer power. The filter is now primed, so every rendered
  // buffer — short ones included — carries the link-budget power.
  const auto rx = open_site();
  for (const std::size_t n : {512u, 2048u, 65536u}) {
    s::FixedEmitterSource source(tv_emitter_config(false), Rng(31));
    const double want_dbm = source.received_power_dbm(rx);
    const double target_mw = speccal::util::dbm_to_watts(want_dbm) * 1e3;

    const auto ctx = tv_capture_ctx(rx, n);
    d::Buffer buf(n, {0.0f, 0.0f});
    source.render(ctx, buf);
    const double got_mw = d::mean_power(buf);
    EXPECT_NEAR(10.0 * std::log10(got_mw / target_mw), 0.0, 0.1) << "n=" << n;
  }
}

TEST(Emitter, OutOfBandEarlyExitLeavesAccumulatorUntouched) {
  s::FixedEmitterSource source(tv_emitter_config(false), Rng(33));
  const auto rx = open_site();
  auto ctx = tv_capture_ctx(rx, 1000);
  ctx.center_freq_hz = 700e6;  // channel nowhere near the capture

  // Pre-load the accumulator: the early exit must not even rescale it.
  const d::Sample sentinel{0.25f, -0.75f};
  d::Buffer buf(1000, sentinel);
  source.render(ctx, buf);
  for (const auto& v : buf) EXPECT_EQ(v, sentinel);
  EXPECT_EQ(source.shaper_rebuilds(), 0u);  // never got as far as a design
}

TEST(Emitter, PilotPhaseContinuousAcrossAdjacentBuffers) {
  auto cfg = tv_emitter_config(true);
  cfg.pilot_rel_db = -3.0;  // strong pilot so the noise averages out
  s::FixedEmitterSource source(cfg, Rng(35));
  const auto rx = open_site();

  constexpr std::size_t n = 1 << 14;
  constexpr double fs = 8e6;
  const double pilot_freq = *cfg.pilot_offset_hz;  // centred capture

  // Render two adjacent buffers (start times n/fs apart) and measure the
  // pilot's phase in each by correlating against the absolute-time
  // reference e^{j 2 pi f t}. Continuity => both phases agree.
  double phases[2] = {0.0, 0.0};
  for (int b = 0; b < 2; ++b) {
    const double t0 = static_cast<double>(b) * static_cast<double>(n) / fs;
    d::Buffer buf(n, {0.0f, 0.0f});
    source.render(tv_capture_ctx(rx, n, t0), buf);
    std::complex<double> corr{0.0, 0.0};
    for (std::size_t i = 0; i < n; ++i) {
      const double t = t0 + static_cast<double>(i) / fs;
      const double ph = 2.0 * speccal::util::kPi * pilot_freq * t;
      corr += std::complex<double>(buf[i].real(), buf[i].imag()) *
              std::complex<double>(std::cos(ph), -std::sin(ph));
    }
    phases[b] = std::atan2(corr.imag(), corr.real());
  }
  double diff = phases[1] - phases[0];
  while (diff > speccal::util::kPi) diff -= 2.0 * speccal::util::kPi;
  while (diff < -speccal::util::kPi) diff += 2.0 * speccal::util::kPi;
  EXPECT_NEAR(diff, 0.0, 0.15);
}

TEST(Emitter, ShaperRebuildsOnlyOnRetune) {
  s::FixedEmitterSource source(tv_emitter_config(false), Rng(37));
  const auto rx = open_site();
  d::Buffer buf(4096, {0.0f, 0.0f});

  source.render(tv_capture_ctx(rx, buf.size()), buf);
  source.render(tv_capture_ctx(rx, buf.size(), 0.01), buf);
  EXPECT_EQ(source.shaper_rebuilds(), 1u);  // same tuning: cached taps

  auto retuned = tv_capture_ctx(rx, buf.size());
  retuned.sample_rate_hz = 10e6;
  source.render(retuned, buf);
  EXPECT_EQ(source.shaper_rebuilds(), 2u);

  auto shifted = tv_capture_ctx(rx, buf.size());
  shifted.center_freq_hz = 523e6;  // moves the band edges in baseband
  source.render(shifted, buf);
  EXPECT_EQ(source.shaper_rebuilds(), 3u);

  source.render(tv_capture_ctx(rx, buf.size()), buf);
  EXPECT_EQ(source.shaper_rebuilds(), 4u);  // back to the original key
}

TEST(SimulatedSdr, SteadyStateCaptureIsAllocationFree) {
  // Acceptance check: after the first capture per tuning, repeated
  // captures grow no pool — neither the source's RenderScratch nor the
  // convolver's arena.
  auto source =
      std::make_shared<s::FixedEmitterSource>(tv_emitter_config(true), Rng(39));
  s::SimulatedSdr dev(s::SimulatedSdr::bladerf_like_info(), open_site(), Rng(40));
  dev.add_source(source);
  dev.set_gain_mode(s::GainMode::kManual);
  dev.set_gain_db(20.0);
  ASSERT_TRUE(dev.tune(521e6, 8e6));

  d::Buffer buf(65536);
  dev.capture_into(buf);  // first capture: pools grow, filter is designed
  const auto warm = source->render_scratch_stats();
  const std::size_t warm_conv_bytes = source->convolver_scratch_bytes();
  EXPECT_GT(warm.grow_events, 0u);
  EXPECT_GT(warm.bytes_reserved, 0u);

  for (int i = 0; i < 8; ++i) dev.capture_into(buf);
  const auto steady = source->render_scratch_stats();
  EXPECT_EQ(steady.grow_events, warm.grow_events);
  EXPECT_EQ(steady.bytes_reserved, warm.bytes_reserved);
  EXPECT_EQ(source->convolver_scratch_bytes(), warm_conv_bytes);
  EXPECT_GT(steady.requests, warm.requests);  // pools were actually reused
  EXPECT_EQ(source->shaper_rebuilds(), 1u);
}

TEST(SimulatedSdr, CaptureIntoMatchesCapturePipeline) {
  // Same device state + same RNG seed => identical samples either way.
  auto make_dev = [](std::uint64_t seed) {
    auto dev = std::make_unique<s::SimulatedSdr>(
        s::SimulatedSdr::bladerf_like_info(), open_site(), Rng(seed));
    dev->add_source(
        std::make_shared<s::FixedEmitterSource>(tv_emitter_config(true), Rng(45)));
    dev->set_gain_mode(s::GainMode::kManual);
    dev->set_gain_db(20.0);
    return dev;
  };
  auto a = make_dev(44);
  ASSERT_TRUE(a->tune(521e6, 8e6));
  const auto via_capture = a->capture(10000);

  auto b = make_dev(44);
  ASSERT_TRUE(b->tune(521e6, 8e6));
  d::Buffer via_into(10000);
  b->capture_into(via_into);

  ASSERT_EQ(via_capture.size(), via_into.size());
  for (std::size_t i = 0; i < via_into.size(); ++i)
    EXPECT_EQ(via_capture[i], via_into[i]) << "sample " << i;
}

TEST(SimulatedSdr, LoErrorShiftsReceivedTone) {
  // A tone source pinned at an absolute RF frequency appears offset in the
  // capture when the reference is off.
  struct RfTone final : s::SignalSource {
    void render(const s::CaptureContext& ctx, std::span<d::Sample> accum) override {
      speccal::dsp::Nco nco(1e9 - ctx.center_freq_hz, ctx.sample_rate_hz);
      for (auto& v : accum) v += nco.next() * 0.05f;
    }
  };
  auto info = s::SimulatedSdr::bladerf_like_info();
  info.lo_error_ppm = 10.0;  // at 1 GHz: 10 kHz shift
  s::SimulatedSdr dev(info, open_site(), Rng(43));
  dev.add_source(std::make_shared<RfTone>());
  dev.set_gain_db(30.0);
  ASSERT_TRUE(dev.tune(1e9, 2e6));
  const auto buf = dev.capture(1 << 16);
  const auto ps = d::SpectrumEstimator(buf.size()).estimate(buf);
  std::size_t best = 0;
  for (std::size_t k = 1; k < ps.size(); ++k)
    if (ps[k] > ps[best]) best = k;
  double freq = static_cast<double>(best) * 2e6 / static_cast<double>(ps.size());
  if (freq >= 1e6) freq -= 2e6;
  EXPECT_NEAR(freq, -10e3, 100.0);  // shifted down by ppm * f
}

// Tests: Welch PSD, decimator, Goertzel, spectrum scanner, occupancy, REM.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "dsp/fft.hpp"
#include "dsp/goertzel.hpp"
#include "dsp/welch.hpp"
#include "monitor/occupancy.hpp"
#include "monitor/rem.hpp"
#include "calib/lo_calibration.hpp"
#include "monitor/scanner.hpp"
#include "prop/pathloss.hpp"
#include "tv/channels.hpp"
#include "sdr/emitter.hpp"
#include "sdr/sim.hpp"
#include "util/rng.hpp"

namespace d = speccal::dsp;
namespace m = speccal::monitor;
namespace s = speccal::sdr;
namespace g = speccal::geo;
using speccal::util::Rng;

namespace {
std::vector<std::complex<float>> tone_plus_noise(double tone_hz, double fs,
                                                 std::size_t n, double tone_amp,
                                                 double noise_sigma,
                                                 std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::complex<float>> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double ph = 2.0 * std::numbers::pi * tone_hz * static_cast<double>(i) / fs;
    out[i] = {static_cast<float>(tone_amp * std::cos(ph) + rng.normal(0.0, noise_sigma)),
              static_cast<float>(tone_amp * std::sin(ph) + rng.normal(0.0, noise_sigma))};
  }
  return out;
}
}  // namespace

// ---------------------------------------------------------------- welch ----

TEST(Welch, TotalPowerMatchesTimeDomain) {
  Rng rng(3);
  std::vector<std::complex<float>> x(16384);
  double time_power = 0.0;
  for (auto& v : x) {
    v = {static_cast<float>(rng.normal(0.0, 0.1)),
         static_cast<float>(rng.normal(0.0, 0.1))};
    time_power += std::norm(v);
  }
  time_power /= static_cast<double>(x.size());
  const auto result = d::WelchEstimator{}.estimate(x, 1e6);
  double psd_power = 0.0;
  for (double v : result.psd) psd_power += v;
  EXPECT_NEAR(psd_power, time_power, time_power * 0.05);
  EXPECT_GT(result.segments_averaged, 20u);
}

TEST(Welch, ToneLandsInCorrectBin) {
  constexpr double fs = 1e6;
  const auto x = tone_plus_noise(200e3, fs, 8192, 0.5, 0.001, 4);
  const auto result = d::WelchEstimator{}.estimate(x, fs);
  std::size_t best = 0;
  for (std::size_t k = 1; k < result.psd.size(); ++k)
    if (result.psd[k] > result.psd[best]) best = k;
  EXPECT_EQ(best, d::bin_for_frequency(200e3, fs, result.psd.size()));
}

TEST(Welch, AveragingReducesVariance) {
  Rng rng(5);
  std::vector<std::complex<float>> x(65536);
  for (auto& v : x)
    v = {static_cast<float>(rng.normal()), static_cast<float>(rng.normal())};
  d::WelchConfig one_seg;
  one_seg.segment_size = 1024;
  one_seg.overlap = 0.0;
  const auto many = d::WelchEstimator(one_seg).estimate(x, 1e6);
  // Per-bin relative std-dev after averaging ~64 segments: ~1/8.
  double mean = 0.0, var = 0.0;
  for (double v : many.psd) mean += v;
  mean /= static_cast<double>(many.psd.size());
  for (double v : many.psd) var += (v - mean) * (v - mean);
  var /= static_cast<double>(many.psd.size());
  EXPECT_LT(std::sqrt(var) / mean, 0.35);
}

TEST(Welch, ValidationAndEdgeCases) {
  std::vector<std::complex<float>> x(4096);
  d::WelchConfig bad;
  bad.segment_size = 1000;
  EXPECT_THROW(d::WelchEstimator{bad}, std::invalid_argument);
  bad.segment_size = 1024;
  bad.overlap = 1.5;
  EXPECT_THROW(d::WelchEstimator{bad}, std::invalid_argument);
  // Short block: empty result, no crash.
  std::vector<std::complex<float>> tiny(10);
  EXPECT_TRUE(d::WelchEstimator{}.estimate(tiny, 1e6).psd.empty());
}

TEST(Welch, BandPowerAndFloor) {
  constexpr double fs = 1e6;
  const auto x = tone_plus_noise(100e3, fs, 32768, 0.5, 0.002, 6);
  const auto result = d::WelchEstimator{}.estimate(x, fs);
  const double in_band = d::band_power(result, fs, 90e3, 110e3);
  const double out_band = d::band_power(result, fs, -300e3, -200e3);
  EXPECT_GT(in_band, 1000.0 * out_band);
  EXPECT_NEAR(in_band, 0.25, 0.05);  // tone power = amp^2
  // Median floor ignores the tone.
  EXPECT_LT(d::median_floor(result), 1e-5);
}

// -------------------------------------------------------------- goertzel ----

TEST(Goertzel, MatchesToneAmplitude) {
  constexpr double fs = 2e6;
  const auto x = tone_plus_noise(309441.0, fs, 20000, 0.3, 0.001, 9);
  // Streaming multi-bin API: one pass over the block serves both bins.
  d::Goertzel probe({309441.0, -500e3}, fs);
  probe.feed(x);
  EXPECT_NEAR(probe.power(0), 0.09, 0.01);  // amp^2
  EXPECT_LT(probe.power(1), 1e-5);
  EXPECT_EQ(probe.samples_fed(), x.size());
  // reset() rewinds to a fresh accumulator; block-at-a-time feeding matches
  // one-shot feeding of the same samples.
  probe.reset();
  EXPECT_DOUBLE_EQ(probe.power(0), 0.0);
  probe.feed(std::span<const std::complex<float>>(x).first(7777));
  probe.feed(std::span<const std::complex<float>>(x).subspan(7777));
  EXPECT_NEAR(probe.power(0), 0.09, 0.01);
  EXPECT_LT(probe.power(1), 1e-5);
}

// --------------------------------------------------------------- scanner ----

namespace {
struct ScannerFixture {
  s::RxEnvironment rx;
  std::unique_ptr<s::SimulatedSdr> device;

  ScannerFixture() {
    rx.position = {37.87, -122.27, 10.0};
    device = std::make_unique<s::SimulatedSdr>(s::SimulatedSdr::bladerf_like_info(),
                                               rx, Rng(21));
    // One strong emitter at 521 MHz.
    s::EmitterConfig cfg;
    cfg.emitter_id = 3;
    cfg.position = g::destination(rx.position, 90.0, 20e3);
    cfg.position.alt_m = 200.0;
    cfg.carrier_hz = 521e6;
    cfg.bandwidth_hz = 5.38e6;
    // Modest ERP so the capture stays well inside the ADC range at the
    // scanner's default gain (a full-power station this close would clip).
    cfg.eirp_dbm = 60.0;
    cfg.link.model = speccal::prop::PathModel::kFreeSpace;
    device->add_source(std::make_shared<s::FixedEmitterSource>(cfg, Rng(22)));
  }
};
}  // namespace

TEST(Scanner, SweepFindsTheEmitter) {
  ScannerFixture fix;
  const m::SpectrumScanner scanner;
  const auto sweep = scanner.sweep(*fix.device, 470e6, 600e6);
  ASSERT_GE(sweep.hops.size(), 15u);
  for (const auto& hop : sweep.hops) EXPECT_TRUE(hop.tune_ok);

  const double occupied = sweep.band_power_dbfs(518e6, 524e6);
  const double vacant = sweep.band_power_dbfs(560e6, 566e6);
  EXPECT_GT(occupied, vacant + 20.0);
  EXPECT_LT(sweep.overall_floor_dbfs(), -60.0);
  // Uncovered band reports the sentinel.
  EXPECT_DOUBLE_EQ(sweep.band_power_dbfs(900e6, 910e6), -200.0);
}

TEST(Scanner, UntunableHopsRecorded) {
  ScannerFixture fix;
  const m::SpectrumScanner scanner;
  // 50-80 MHz: below the device's 70 MHz floor for the first hops.
  const auto sweep = scanner.sweep(*fix.device, 50e6, 80e6);
  bool any_failed = false;
  for (const auto& hop : sweep.hops) any_failed |= !hop.tune_ok;
  EXPECT_TRUE(any_failed);
}

// ------------------------------------------------------------- occupancy ----

TEST(Occupancy, DetectsOccupiedChannel) {
  ScannerFixture fix;
  const m::SpectrumScanner scanner;
  const auto sweep = scanner.sweep(*fix.device, 470e6, 600e6);
  const std::vector<m::Channel> channels = {
      {"ch22", 518e6, 524e6},
      {"ch30", 566e6, 572e6},
  };
  const auto obs = m::detect_occupancy(sweep, channels);
  ASSERT_EQ(obs.size(), 2u);
  EXPECT_TRUE(obs[0].occupied);
  EXPECT_FALSE(obs[1].occupied);
  EXPECT_GT(obs[0].excess_db, 20.0);
  EXPECT_LT(std::fabs(obs[1].excess_db), 3.0);
}

TEST(Occupancy, TrackerAccumulatesDutyCycle) {
  ScannerFixture fix;
  const m::SpectrumScanner scanner;
  m::OccupancyTracker tracker({{"ch22", 518e6, 524e6}, {"ch30", 566e6, 572e6}});
  for (int i = 0; i < 3; ++i)
    tracker.ingest(scanner.sweep(*fix.device, 470e6, 600e6));
  EXPECT_EQ(tracker.sweeps(), 3u);
  EXPECT_DOUBLE_EQ(tracker.duty_cycle(0), 1.0);
  EXPECT_DOUBLE_EQ(tracker.duty_cycle(1), 0.0);
  EXPECT_DOUBLE_EQ(tracker.duty_cycle(99), 0.0);  // out of range
}

// The autocorrelation estimator is the anomaly detector's second opinion
// (DESIGN.md §16): it must agree with the Welch energy-detect path on real
// captures, and it must not miss a signal the Welch path would flag.

TEST(Occupancy, AutocorrAgreesWithWelchAcrossTenSeeds) {
  const std::vector<m::Channel> channels = {
      {"ch22", 518e6, 524e6},  // carries the fixture's emitter
      {"ch30", 566e6, 572e6},  // vacant
  };
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    s::RxEnvironment rx;
    rx.position = {37.87, -122.27, 10.0};
    auto device = std::make_unique<s::SimulatedSdr>(
        s::SimulatedSdr::bladerf_like_info(), rx, Rng(100 + seed));
    s::EmitterConfig cfg;
    cfg.emitter_id = 3;
    cfg.position = g::destination(rx.position, 90.0, 20e3);
    cfg.position.alt_m = 200.0;
    cfg.carrier_hz = 521e6;
    cfg.bandwidth_hz = 5.38e6;
    cfg.eirp_dbm = 60.0;
    cfg.link.model = speccal::prop::PathModel::kFreeSpace;
    device->add_source(std::make_shared<s::FixedEmitterSource>(cfg, Rng(200 + seed)));

    const auto sweep = m::SpectrumScanner{}.sweep(*device, 470e6, 600e6);
    const auto welch = m::detect_occupancy(sweep, channels);
    ASSERT_EQ(welch.size(), 2u);

    device->set_gain_mode(s::GainMode::kManual);
    device->set_gain_db(40.0);
    for (std::size_t c = 0; c < channels.size(); ++c) {
      const double center = 0.5 * (channels[c].low_hz + channels[c].high_hz);
      ASSERT_TRUE(device->tune(center, 8e6)) << channels[c].label;
      const auto est = m::estimate_occupancy_autocorr(device->capture(16384));
      EXPECT_EQ(est.occupied, welch[c].occupied)
          << channels[c].label << " seed " << seed << " rho " << est.rho;
    }
  }
}

TEST(Occupancy, AutocorrRhoMatchesSignalClassOnCaptures) {
  // The rho magnitudes the anomaly detector's typing rules rely on: an ATSC
  // channel in an 8 Msps capture holds rho near sinc(pi*B/fs) ~ 0.4, a
  // vacant channel decorrelates to ~1/sqrt(N).
  s::RxEnvironment rx;
  rx.position = {37.87, -122.27, 10.0};
  auto device = std::make_unique<s::SimulatedSdr>(
      s::SimulatedSdr::bladerf_like_info(), rx, Rng(55));
  s::EmitterConfig cfg;
  cfg.emitter_id = 3;
  cfg.position = g::destination(rx.position, 90.0, 20e3);
  cfg.position.alt_m = 200.0;
  cfg.carrier_hz = 521e6;
  cfg.bandwidth_hz = 5.38e6;
  cfg.eirp_dbm = 60.0;
  cfg.link.model = speccal::prop::PathModel::kFreeSpace;
  device->add_source(std::make_shared<s::FixedEmitterSource>(cfg, Rng(56)));
  device->set_gain_mode(s::GainMode::kManual);
  device->set_gain_db(40.0);

  ASSERT_TRUE(device->tune(521e6, 8e6));
  const auto atsc = m::estimate_occupancy_autocorr(device->capture(16384));
  EXPECT_TRUE(atsc.occupied);
  EXPECT_GT(atsc.rho, 0.25);
  EXPECT_LT(atsc.rho, 0.7);

  ASSERT_TRUE(device->tune(569e6, 8e6));
  const auto vacant = m::estimate_occupancy_autocorr(device->capture(16384));
  EXPECT_FALSE(vacant.occupied);
  EXPECT_LT(vacant.rho, 0.05);
}

TEST(Occupancy, AutocorrNoFalseNegativesAtWelchThresholdSnr) {
  // At the SNR where the Welch path is right at its detection margin, the
  // autocorrelation path must still call the channel occupied — otherwise
  // the anomaly detector's cross-check would veto findings the PSD residual
  // legitimately raised. Ten seeded trials, zero misses allowed, plus zero
  // false alarms on the matching noise-only captures.
  const double snr_db = m::kDetectionMarginDb;
  const double snr = std::pow(10.0, snr_db / 10.0);
  constexpr std::size_t kN = 16384;
  for (int trial = 0; trial < 10; ++trial) {
    Rng rng(40 + static_cast<std::uint64_t>(trial));
    // Band-limited signal: 3-tap moving average of white noise (lag-1
    // rho = 2/3, bandwidth ~ fs/3) scaled to the threshold SNR over unit
    // white noise.
    std::vector<std::complex<double>> w(kN + 2);
    for (auto& v : w) v = {rng.normal(), rng.normal()};
    std::vector<std::complex<float>> occupied(kN), vacant(kN);
    const double a = std::sqrt(snr / 3.0);
    for (std::size_t i = 0; i < kN; ++i) {
      const auto sig = a * (w[i] + w[i + 1] + w[i + 2]);
      const std::complex<double> noise{rng.normal(), rng.normal()};
      occupied[i] = std::complex<float>(sig + noise);
      vacant[i] = std::complex<float>(std::complex<double>{rng.normal(), rng.normal()});
    }
    const auto hit = m::estimate_occupancy_autocorr(occupied);
    EXPECT_TRUE(hit.occupied) << "trial " << trial << " rho " << hit.rho;
    // Expected rho = (2/3) * snr/(snr+1); keep a wide deterministic margin.
    EXPECT_GT(hit.rho, 0.35) << "trial " << trial;
    const auto miss = m::estimate_occupancy_autocorr(vacant);
    EXPECT_FALSE(miss.occupied) << "trial " << trial << " rho " << miss.rho;
    EXPECT_LT(miss.rho, 0.05) << "trial " << trial;
  }
}

TEST(Occupancy, AutocorrEdgeCases) {
  // Short blocks and zero blocks report rho 0 / vacant rather than NaN.
  EXPECT_FALSE(m::estimate_occupancy_autocorr({}).occupied);
  std::vector<std::complex<float>> two(2, {1.0f, 0.0f});
  EXPECT_DOUBLE_EQ(m::estimate_occupancy_autocorr(two).rho, 0.0);
  std::vector<std::complex<float>> zeros(1024, {0.0f, 0.0f});
  const auto est = m::estimate_occupancy_autocorr(zeros);
  EXPECT_DOUBLE_EQ(est.rho, 0.0);
  EXPECT_FALSE(est.occupied);
  // A pure CW capture pins rho to 1 (the spurious-emitter signature).
  std::vector<std::complex<float>> cw(4096);
  for (std::size_t i = 0; i < cw.size(); ++i) {
    const double ph = 2.0 * std::numbers::pi * 0.073 * static_cast<double>(i);
    cw[i] = {static_cast<float>(std::cos(ph)), static_cast<float>(std::sin(ph))};
  }
  EXPECT_GT(m::estimate_occupancy_autocorr(cw).rho, 0.99);
}

// ------------------------------------------------------------------ rem ----

TEST(Rem, TrustWeightedInterpolation) {
  m::RadioEnvironmentMap rem;
  const g::Geodetic origin{37.87, -122.27, 10.0};
  m::NodeObservation near_obs;
  near_obs.node_id = "near";
  near_obs.position = g::destination(origin, 90.0, 1000.0);
  near_obs.power_dbm = -60.0;
  near_obs.trust_weight = 1.0;
  m::NodeObservation far_obs = near_obs;
  far_obs.node_id = "far";
  far_obs.position = g::destination(origin, 90.0, 10e3);
  far_obs.power_dbm = -80.0;
  EXPECT_TRUE(rem.ingest(near_obs));
  EXPECT_TRUE(rem.ingest(far_obs));

  const auto est = rem.estimate(origin);
  ASSERT_TRUE(est.has_value());
  EXPECT_EQ(est->contributors, 2u);
  // The near node dominates (IDW), so the estimate hugs -60.
  EXPECT_NEAR(est->power_dbm, -60.0, 2.0);
}

TEST(Rem, RejectsUntrustedAndUnusable) {
  m::RadioEnvironmentMap rem;
  m::NodeObservation bad;
  bad.node_id = "liar";
  bad.position = {37.87, -122.27, 10.0};
  bad.power_dbm = -30.0;
  bad.trust_weight = 0.1;  // below min_trust
  EXPECT_FALSE(rem.ingest(bad));
  bad.trust_weight = 0.9;
  bad.band_usable = false;  // calibration says this band is blind
  EXPECT_FALSE(rem.ingest(bad));
  EXPECT_EQ(rem.rejected(), 2u);
  EXPECT_EQ(rem.size(), 0u);
  EXPECT_FALSE(rem.estimate({37.87, -122.27, 10.0}).has_value());
}

TEST(Rem, RangeLimit) {
  m::RadioEnvironmentMap rem;
  m::NodeObservation obs;
  obs.node_id = "n";
  obs.position = {37.87, -122.27, 10.0};
  obs.power_dbm = -50.0;
  ASSERT_TRUE(rem.ingest(obs));
  const auto far_query =
      rem.estimate(speccal::geo::destination(obs.position, 0.0, 50e3));
  EXPECT_FALSE(far_query.has_value());  // beyond the 30 km range
}

// --------------------------------------------------------- LO calibration ----

namespace {
std::unique_ptr<s::SimulatedSdr> lo_test_device(double ppm) {
  auto info = s::SimulatedSdr::bladerf_like_info();
  info.lo_error_ppm = ppm;
  s::RxEnvironment rx;
  rx.position = {37.87, -122.27, 10.0};
  auto device = std::make_unique<s::SimulatedSdr>(info, rx, Rng(31));
  // Two receivable ATSC stations.
  for (auto [id, ch] : {std::pair{1, 22}, std::pair{2, 14}}) {
    s::EmitterConfig cfg;
    cfg.emitter_id = static_cast<std::uint64_t>(id);
    cfg.position = g::destination(rx.position, 270.0, 25e3);
    cfg.position.alt_m = 250.0;
    cfg.carrier_hz = speccal::tv::channel_center_hz(ch).value();
    cfg.bandwidth_hz = 5.38e6;
    cfg.eirp_dbm = 80.0;
    cfg.link.model = speccal::prop::PathModel::kTwoSlope;
    cfg.link.breakpoint_m = 10e3;
    cfg.pilot_offset_hz = speccal::tv::kPilotOffsetFromCenterHz;
    device->add_source(std::make_shared<s::FixedEmitterSource>(cfg, Rng(32 + id)));
  }
  return device;
}
}  // namespace

TEST(LoCalibration, RecoversReferenceError) {
  for (double true_ppm : {-8.0, -2.0, 0.0, 3.5, 12.0}) {
    auto device = lo_test_device(true_ppm);
    const auto result = speccal::calib::calibrate_lo(*device, {22, 14});
    ASSERT_TRUE(result.usable()) << true_ppm;
    EXPECT_EQ(result.valid_count, 2u) << true_ppm;
    EXPECT_NEAR(result.ppm, true_ppm, 0.5) << true_ppm;
  }
}

TEST(LoCalibration, VacantChannelsRejected) {
  auto device = lo_test_device(5.0);
  // Channel 30 carries no station: pilot SNR gate must reject it while the
  // real stations still measure.
  const auto result = speccal::calib::calibrate_lo(*device, {30, 22});
  ASSERT_EQ(result.pilots.size(), 2u);
  EXPECT_FALSE(result.pilots[0].valid);
  EXPECT_TRUE(result.pilots[1].valid);
  EXPECT_NEAR(result.ppm, 5.0, 0.5);
}

TEST(LoCalibration, NoStationsNoAnswer) {
  auto device = lo_test_device(5.0);
  const auto result = speccal::calib::calibrate_lo(*device, {30, 33});
  EXPECT_FALSE(result.usable());
  EXPECT_DOUBLE_EQ(result.ppm, 0.0);
}

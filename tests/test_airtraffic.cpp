// Unit tests: aircraft kinematics, sky simulator, ground truth, ADS-B source.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <span>

#include "adsb/crc.hpp"
#include "adsb/frame.hpp"
#include "adsb/ppm.hpp"
#include "airtraffic/adsb_source.hpp"
#include "airtraffic/groundtruth.hpp"
#include "airtraffic/sky.hpp"
#include "sdr/antenna.hpp"

namespace at = speccal::airtraffic;
namespace g = speccal::geo;
namespace a = speccal::adsb;
namespace d = speccal::dsp;

namespace {
at::SkyConfig small_sky_config() {
  at::SkyConfig cfg;
  cfg.center = {37.87, -122.27, 0.0};
  cfg.radius_m = 100e3;
  cfg.aircraft_count = 12;
  return cfg;
}
}  // namespace

TEST(Aircraft, StraightLineMotion) {
  at::AircraftSpec spec;
  spec.start = {37.87, -122.27, 10000.0};
  spec.track_deg = 90.0;
  spec.ground_speed_kt = 450.0;
  const auto at60 = at::aircraft_at(spec, 60.0);
  // 450 kt = 231.5 m/s -> ~13.9 km east in a minute.
  EXPECT_NEAR(g::haversine_m(spec.start, at60.position), 450.0 * 0.514444 * 60.0, 50.0);
  EXPECT_NEAR(g::bearing_deg(spec.start, at60.position), 90.0, 1.0);
  EXPECT_DOUBLE_EQ(at60.position.alt_m, 10000.0);
}

TEST(Aircraft, VerticalRateChangesAltitude) {
  at::AircraftSpec spec;
  spec.start = {37.87, -122.27, 5000.0};
  spec.ground_speed_kt = 300.0;
  spec.vertical_rate_fpm = 1200.0;  // 1200 ft/min = 6.096 m/s
  const auto at100 = at::aircraft_at(spec, 100.0);
  EXPECT_NEAR(at100.position.alt_m, 5000.0 + 1200.0 * 0.3048 / 60.0 * 100.0, 0.5);
  // Altitude never goes below ground.
  spec.vertical_rate_fpm = -10000.0;
  EXPECT_GE(at::aircraft_at(spec, 600.0).position.alt_m, 0.0);
}

TEST(Sky, DeterministicFromSeed) {
  const at::SkySimulator sky1(small_sky_config(), 99);
  const at::SkySimulator sky2(small_sky_config(), 99);
  const at::SkySimulator sky3(small_sky_config(), 100);
  ASSERT_EQ(sky1.fleet().size(), sky2.fleet().size());
  for (std::size_t i = 0; i < sky1.fleet().size(); ++i) {
    EXPECT_EQ(sky1.fleet()[i].icao, sky2.fleet()[i].icao);
    EXPECT_DOUBLE_EQ(sky1.fleet()[i].start.lat_deg, sky2.fleet()[i].start.lat_deg);
  }
  bool any_diff = false;
  for (std::size_t i = 0; i < sky1.fleet().size(); ++i)
    any_diff |= sky1.fleet()[i].icao != sky3.fleet()[i].icao;
  EXPECT_TRUE(any_diff);
}

TEST(Sky, FleetRespectsConfigBounds) {
  const auto cfg = small_sky_config();
  const at::SkySimulator sky(cfg, 7);
  EXPECT_EQ(sky.fleet().size(), cfg.aircraft_count);
  std::set<std::uint32_t> icaos;
  for (const auto& spec : sky.fleet()) {
    EXPECT_LE(g::haversine_m(cfg.center, spec.start), cfg.radius_m + 1.0);
    EXPECT_GE(spec.ground_speed_kt, at::kMinSpeedKt);
    EXPECT_LE(spec.ground_speed_kt, at::kMaxSpeedKt);
    EXPECT_GE(spec.tx_power_dbm, 48.0);  // 75 W floor
    EXPECT_LE(spec.tx_power_dbm, 57.5);  // 500 W ceiling
    icaos.insert(spec.icao);
  }
  EXPECT_EQ(icaos.size(), cfg.aircraft_count);  // unique addresses
}

TEST(Sky, SquitterRatesMatchDo260) {
  const at::SkySimulator sky(small_sky_config(), 11);
  const auto events = sky.events_between(0.0, 10.0);
  // Per aircraft: 2 Hz position + 2 Hz velocity + 0.2 Hz ident + 1 Hz
  // DF11 acquisition squitter = 5.2 msg/s.
  const double expected = 12 * 10.0 * 5.2;
  EXPECT_NEAR(static_cast<double>(events.size()), expected, expected * 0.1);
  // Sorted by time.
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_LE(events[i - 1].time_s, events[i].time_s);
  // All frames carry valid CRC (short frames over their 7 bytes).
  for (const auto& ev : events)
    EXPECT_TRUE(a::check_crc(
        std::span<const std::uint8_t>(ev.frame.data(), ev.bit_count / 8)));
}

TEST(Sky, EventWindowsPartitionCleanly) {
  const at::SkySimulator sky(small_sky_config(), 13);
  const auto whole = sky.events_between(0.0, 4.0);
  const auto first = sky.events_between(0.0, 2.0);
  const auto second = sky.events_between(2.0, 4.0);
  EXPECT_EQ(whole.size(), first.size() + second.size());
  for (const auto& ev : first) EXPECT_LT(ev.time_s, 2.0);
  for (const auto& ev : second) EXPECT_GE(ev.time_s, 2.0);
}

TEST(Sky, PositionFramesAlternateParity) {
  at::AircraftSpec spec;
  spec.icao = 0x123456;
  spec.callsign = "TEST";
  spec.start = {37.9, -122.3, 9000.0};
  spec.ground_speed_kt = 400.0;
  const at::SkySimulator sky({37.87, -122.27, 0.0}, {spec});
  int even = 0, odd = 0;
  for (const auto& ev : sky.events_between(0.0, 10.0)) {
    if (ev.bit_count != 112) continue;  // skip DF11 acquisition squitters
    const auto frame = a::parse_frame(ev.frame);
    ASSERT_TRUE(frame.has_value());
    if (!frame->has_position()) continue;
    const auto& pos = std::get<a::PositionPayload>(frame->payload);
    (pos.cpr.odd ? odd : even)++;
  }
  EXPECT_NEAR(even, odd, 2);
  EXPECT_GT(even, 5);
}

TEST(GroundTruth, LatencyShiftsReportedPositions) {
  at::AircraftSpec spec;
  spec.icao = 0xAAAAAA;
  spec.start = {37.87, -122.27, 10000.0};
  spec.track_deg = 0.0;
  spec.ground_speed_kt = 400.0;
  const at::SkySimulator sky({37.87, -122.27, 0.0}, {spec});

  const at::GroundTruthService instant(sky, 0.0);
  const at::GroundTruthService delayed(sky, 10.0);
  const auto now = instant.query({37.87, -122.27, 0.0}, 100e3, 60.0);
  const auto late = delayed.query({37.87, -122.27, 0.0}, 100e3, 60.0);
  ASSERT_EQ(now.size(), 1u);
  ASSERT_EQ(late.size(), 1u);
  // 10 s at 400 kt is ~2.06 km of staleness — the paper's 2.5 km bound.
  const double gap = g::haversine_m(now[0].position, late[0].position);
  EXPECT_NEAR(gap, 400.0 * 0.514444 * 10.0, 30.0);
  EXPECT_DOUBLE_EQ(late[0].report_age_s, 10.0);
}

TEST(GroundTruth, RadiusFilters) {
  at::AircraftSpec near_ac;
  near_ac.icao = 1;
  near_ac.start = g::destination({37.87, -122.27, 0.0}, 90.0, 50e3);
  near_ac.start.alt_m = 9000.0;
  at::AircraftSpec far_ac;
  far_ac.icao = 2;
  far_ac.start = g::destination({37.87, -122.27, 0.0}, 90.0, 150e3);
  far_ac.start.alt_m = 9000.0;
  const at::SkySimulator sky({37.87, -122.27, 0.0}, {near_ac, far_ac});
  const at::GroundTruthService gt(sky, 0.0);
  const auto rec = gt.query({37.87, -122.27, 0.0}, 100e3, 0.0);
  ASSERT_EQ(rec.size(), 1u);
  EXPECT_EQ(rec[0].icao, 1u);
}

TEST(AdsbSource, RendersFramesThatDecode) {
  at::AircraftSpec spec;
  spec.icao = 0xBBCCDD;
  spec.callsign = "SRC1";
  spec.start = g::destination({37.87, -122.27, 0.0}, 45.0, 30e3);
  spec.start.alt_m = 10000.0;
  spec.ground_speed_kt = 400.0;
  spec.tx_power_dbm = 54.0;
  // Stagger the three squitter streams as real transponders do; with all
  // phases zero the position/velocity/ident frames would collide on-air.
  spec.position_phase_s = 0.05;
  spec.velocity_phase_s = 0.21;
  spec.ident_phase_s = 0.41;
  auto sky = std::make_shared<at::SkySimulator>(g::Geodetic{37.87, -122.27, 0.0},
                                                std::vector<at::AircraftSpec>{spec});
  at::AdsbSignalSource source(sky);

  const auto antenna = speccal::sdr::AntennaModel::isotropic();
  speccal::sdr::RxEnvironment rx;
  rx.position = {37.87, -122.27, 10.0};
  rx.antenna = &antenna;

  speccal::sdr::CaptureContext ctx;
  ctx.center_freq_hz = a::kAdsbFreqHz;
  ctx.sample_rate_hz = a::kPpmSampleRateHz;
  ctx.start_time_s = 0.0;
  ctx.sample_count = 2'000'000;  // one second
  ctx.rx = &rx;

  d::Buffer buf(ctx.sample_count, {0.0f, 0.0f});
  source.render(ctx, buf);
  const auto dets = a::PpmDemodulator{}.process(buf);
  // ~5.2 messages expected in one second; all from our aircraft.
  EXPECT_GE(dets.size(), 4u);
  bool saw_short = false;
  for (const auto& det : dets) {
    if (det.long_frame()) {
      const auto frame = a::parse_frame(det.frame);
      ASSERT_TRUE(frame.has_value());
      EXPECT_EQ(frame->icao, 0xBBCCDDu);
    } else {
      const auto all_call = a::parse_all_call(det.short_frame());
      ASSERT_TRUE(all_call.has_value());
      EXPECT_EQ(all_call->icao, 0xBBCCDDu);
      saw_short = true;
    }
  }
  EXPECT_TRUE(saw_short);  // the 1 Hz DF11 stream is on the air too
}

TEST(AdsbSource, SilentWhenTunedElsewhere) {
  auto sky = std::make_shared<at::SkySimulator>(small_sky_config(), 17);
  at::AdsbSignalSource source(sky);
  speccal::sdr::RxEnvironment rx;
  rx.position = {37.87, -122.27, 10.0};
  speccal::sdr::CaptureContext ctx;
  ctx.center_freq_hz = 600e6;  // not 1090
  ctx.sample_rate_hz = a::kPpmSampleRateHz;
  ctx.sample_count = 10000;
  ctx.rx = &rx;
  d::Buffer buf(ctx.sample_count, {0.0f, 0.0f});
  source.render(ctx, buf);
  for (const auto& v : buf) EXPECT_EQ(std::norm(v), 0.0f);
}

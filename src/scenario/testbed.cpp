#include "scenario/testbed.hpp"

#include <stdexcept>

#include "airtraffic/adsb_source.hpp"
#include "cellular/bands.hpp"
#include "tv/channels.hpp"
#include "util/units.hpp"

namespace speccal::scenario {

using namespace util::literals;  // _MHz, _km

std::string site_name(Site site) {
  switch (site) {
    case Site::kRooftop: return "rooftop";
    case Site::kWindow: return "behind-window";
    case Site::kIndoor: return "indoor";
  }
  return "?";
}

geo::Geodetic testbed_origin() noexcept {
  // Urban block, Berkeley-like latitude.
  return geo::Geodetic{37.8716, -122.2727, 16.0};
}

namespace {
/// Open sector shared by the rooftop view and the window orientation.
constexpr double kOpenStartDeg = 235.0;
constexpr double kOpenEndDeg = 335.0;     // rooftop: 100 degrees open to the west
constexpr double kWindowStartDeg = 250.0;
constexpr double kWindowEndDeg = 290.0;   // window: 40 degree slice of the same
}  // namespace

SiteSetup make_site(Site site, std::uint64_t seed) {
  SiteSetup setup;
  setup.site = site;
  setup.antenna = std::make_shared<sdr::AntennaModel>(sdr::AntennaModel::wideband_700_2700());
  setup.fading = std::make_shared<prop::FadingModel>(seed, 3.0, 1.5);
  setup.obstructions = std::make_shared<prop::ObstructionMap>();

  const geo::Geodetic origin = testbed_origin();
  switch (site) {
    case Site::kRooftop: {
      // 6th-floor rooftop: ~20 m up, open to the west, structures elsewhere.
      setup.position = geo::destination(origin, 0.0, 10.0);
      setup.position.alt_m = 20.0;
      prop::Screen structures;
      structures.sector = {kOpenEndDeg, kOpenStartDeg};  // wraps through north
      structures.loss_at_1ghz_db = 38.0;
      structures.loss_slope_db_per_decade = 8.0;
      structures.max_elevation_deg = 35.0;  // overhead aircraft clear the screens
      structures.label = "rooftop structures";
      setup.obstructions->add_screen(structures);
      break;
    }
    case Site::kWindow: {
      // 5th floor behind a coated window facing the open sector.
      setup.position = geo::destination(origin, 90.0, 20.0);
      setup.position.alt_m = 16.0;
      prop::Screen glass;
      glass.sector = {kWindowStartDeg, kWindowEndDeg};
      glass.loss_at_1ghz_db = 10.0;
      glass.loss_slope_db_per_decade = 40.0;  // low-E coating: brutal above 2 GHz
      glass.label = "coated window";
      setup.obstructions->add_screen(glass);
      prop::Screen walls;
      walls.sector = {kWindowEndDeg, kWindowStartDeg};  // everything else
      walls.loss_at_1ghz_db = 38.0;
      // VHF diffracts around and penetrates masonry far better than L/S
      // band; the steep slope keeps sub-600 MHz usable (paper conclusion)
      // while ADS-B and mid-band stay blocked.
      walls.loss_slope_db_per_decade = 35.0;
      walls.label = "building walls";
      setup.obstructions->add_screen(walls);
      break;
    }
    case Site::kIndoor: {
      // 5th-floor interior, >= 8 m from any window.
      setup.position = geo::destination(origin, 180.0, 15.0);
      setup.position.alt_m = 16.0;
      setup.obstructions->set_omni_loss(34.0, 30.0);
      break;
    }
  }
  return setup;
}

cellular::CellDatabase make_cell_database() {
  const geo::Geodetic origin = testbed_origin();
  cellular::CellDatabase db;

  // Paper Figure 2/3: five towers, 500-1000 m out, downlink centres
  // 731 / 1970 / 2145 / 2660 / 2680 MHz. All sit in the rooftop's open
  // sector; towers 4 and 5 fall outside the window's narrow view.
  struct TowerPlan {
    int band;
    double freq_hz;
    double azimuth_deg;
    double range_m;
    double eirp_dbm;
    const char* op;
  };
  const TowerPlan plans[] = {
      {12, 731_MHz, 250.0, 900.0, 62.0, "CarrierA"},   // tower 1, low band
      {2, 1970_MHz, 268.0, 800.0, 61.0, "CarrierB"},   // tower 2
      {4, 2145_MHz, 285.0, 600.0, 61.0, "CarrierA"},   // tower 3
      {7, 2660_MHz, 310.0, 700.0, 60.0, "CarrierC"},   // tower 4
      {7, 2680_MHz, 322.0, 1000.0, 60.0, "CarrierC"},  // tower 5
  };
  std::uint64_t id = 1;
  for (const auto& plan : plans) {
    const auto earfcn = cellular::dl_freq_to_earfcn(plan.band, plan.freq_hz);
    if (!earfcn) throw std::logic_error("testbed tower frequency outside band");
    geo::Geodetic pos = geo::destination(origin, plan.azimuth_deg, plan.range_m);
    pos.alt_m = 32.0;  // macro tower radiation centre
    db.add(cellular::make_cell(id, plan.op, plan.band, *earfcn, pos, plan.eirp_dbm,
                               10e6, static_cast<int>(100 + id)));
    ++id;
  }
  return db;
}

std::vector<sdr::EmitterConfig> make_tv_stations() {
  const geo::Geodetic origin = testbed_origin();

  // Paper Figure 4 frequencies: 213 (ch 13), 473 (ch 14), 521 (ch 22),
  // 545 (ch 26), 587 (ch 33), 605 (ch 36) MHz. The 521 MHz tower sits in
  // the window's field of view — the Figure-4 anomaly.
  struct StationPlan {
    int channel;
    double azimuth_deg;
    double range_m;
    double erp_dbm;
  };
  // All stations sit in the rooftop's open west sector (the paper's
  // rooftop is the best TV site); only channel 22 also falls inside the
  // window's narrow view.
  const StationPlan plans[] = {
      {13, 240.0, 35_km, 83.0},  // 213 MHz VHF
      {14, 300.0, 40_km, 80.0},  // 473 MHz
      {22, 270.0, 30_km, 80.0},  // 521 MHz — inside the window sector
      {26, 325.0, 45_km, 80.0},  // 545 MHz
      {33, 242.0, 50_km, 81.0},  // 587 MHz
      {36, 308.0, 38_km, 80.0},  // 605 MHz
  };
  std::vector<sdr::EmitterConfig> out;
  std::uint64_t id = 100;
  for (const auto& plan : plans) {
    sdr::EmitterConfig cfg;
    cfg.emitter_id = id++;
    cfg.position = geo::destination(origin, plan.azimuth_deg, plan.range_m);
    cfg.position.alt_m = 250.0;  // broadcast mast on high terrain
    cfg.carrier_hz = tv::channel_center_hz(plan.channel).value();
    cfg.bandwidth_hz = 5.38e6;  // 8VSB occupied bandwidth
    cfg.eirp_dbm = plan.erp_dbm;
    cfg.link.model = prop::PathModel::kTwoSlope;
    cfg.link.n1 = 2.0;
    cfg.link.n2 = 3.5;
    cfg.link.breakpoint_m = 10e3;
    cfg.pilot_offset_hz = tv::kPilotOffsetFromCenterHz;
    cfg.pilot_rel_db = tv::kPilotRelDb;
    out.push_back(cfg);
  }
  return out;
}

std::shared_ptr<airtraffic::SkySimulator> make_sky(std::uint64_t seed,
                                                   std::size_t aircraft_count) {
  airtraffic::SkyConfig config;
  geo::Geodetic center = testbed_origin();
  center.alt_m = 0.0;
  config.center = center;
  config.radius_m = 120_km;
  config.aircraft_count = aircraft_count;
  return std::make_shared<airtraffic::SkySimulator>(config, seed);
}

calib::WorldModel make_world(std::uint64_t seed, std::size_t aircraft_count) {
  calib::WorldModel world;
  world.sky = make_sky(seed, aircraft_count);
  world.ground_truth_latency_s = 10.0;
  world.cells = make_cell_database();
  world.tv_channels = make_tv_stations();
  world.seed = seed;
  return world;
}

std::unique_ptr<sdr::SimulatedSdr> make_node(const SiteSetup& site,
                                             const calib::WorldModel& world,
                                             std::uint64_t seed) {
  auto device = std::make_unique<sdr::SimulatedSdr>(
      sdr::SimulatedSdr::bladerf_like_info(), site.rx_environment(),
      util::Rng(seed));
  if (world.sky)
    device->add_source(std::make_shared<airtraffic::AdsbSignalSource>(world.sky));
  // Emitter waveforms are transmitter state: they must derive from the
  // *world* seed (one shared sky/tower reality), never the per-node seed —
  // otherwise two nodes of one fleet would hear different "broadcasts" from
  // the same physical tower and fleet-consensus residuals would compare
  // noise against noise. Only the device RNG (thermal noise, quantization
  // dither) above is per-node.
  std::uint64_t stream = 1;
  for (const auto& emitter : world.tv_channels)
    device->add_source(std::make_shared<sdr::FixedEmitterSource>(
        emitter, util::Rng(world.seed).fork(stream++)));
  return device;
}

namespace {

/// make_owned_node's device. SiteHolder is the first base, so the SiteSetup
/// is built before and destroyed after the inner SimulatedSdr, which
/// borrows the setup's obstruction/antenna/fading models through raw
/// pointers.
struct SiteHolder {
  SiteSetup setup;
};

class OwnedNode final : private SiteHolder, public sdr::DeviceDecorator {
 public:
  OwnedNode(SiteSetup setup, std::unique_ptr<sdr::SimulatedSdr> sdr)
      : SiteHolder{std::move(setup)}, DeviceDecorator(std::move(sdr)) {}
};

}  // namespace

std::unique_ptr<sdr::Device> make_owned_node(
    Site site, const calib::WorldModel& world, std::uint64_t seed,
    const std::vector<std::shared_ptr<sdr::SignalSource>>& extra_sources) {
  SiteSetup setup = make_site(site, seed);
  auto sdr = make_node(setup, world, seed);
  for (const auto& source : extra_sources)
    if (source) sdr->add_source(source);
  return std::make_unique<OwnedNode>(std::move(setup), std::move(sdr));
}

std::vector<int> figure4_channels() { return {13, 14, 22, 26, 33, 36}; }

}  // namespace speccal::scenario

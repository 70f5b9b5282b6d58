// The paper's experiment testbed, reconstructed.
//
// Three sensor sites in one urban block (paper §3.1, Figure 1):
//   (1) kRooftop — 6th-floor rooftop, open field of view to the west,
//       rooftop structures screening the other directions.
//   (2) kWindow  — 5th floor behind a (coated) window facing the open
//       sector; buildings left/right/behind.
//   (3) kIndoor  — 5th-floor interior, >= 8 m from windows.
// Five cellular towers 500-1000 m away (downlinks 731 / 1970 / 2145 /
// 2660 / 2680 MHz — Figure 2/3) and six ATSC stations on the paper's
// Figure-4 channels (213 / 473 / 521 / 545 / 587 / 605 MHz) within 50 km,
// with the 521 MHz tower deliberately inside the window's field of view to
// reproduce the Figure-4 anomaly.
//
// Everything returned here is deterministic; experiments differ only via
// the seed passed to make_sky / attach-node RNGs.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "calib/pipeline.hpp"
#include "prop/obstruction.hpp"
#include "sdr/antenna.hpp"
#include "sdr/emitter.hpp"
#include "sdr/sim.hpp"

namespace speccal::scenario {

enum class Site { kRooftop, kWindow, kIndoor };

[[nodiscard]] std::string site_name(Site site);

/// All locations sit in this block; the sky and towers are placed
/// relative to it.
[[nodiscard]] geo::Geodetic testbed_origin() noexcept;

/// Per-site receiver description. The obstruction map and antenna are
/// owned by the returned object; keep it alive while the node runs.
struct SiteSetup {
  Site site{};
  geo::Geodetic position;
  std::shared_ptr<prop::ObstructionMap> obstructions;
  std::shared_ptr<sdr::AntennaModel> antenna;
  std::shared_ptr<prop::FadingModel> fading;

  [[nodiscard]] sdr::RxEnvironment rx_environment() const noexcept {
    return sdr::RxEnvironment{position, obstructions.get(), fading.get(),
                              antenna.get()};
  }
};

[[nodiscard]] SiteSetup make_site(Site site, std::uint64_t seed = 42);

/// The five towers of Figure 2 (all inside the rooftop's open sector, as
/// the paper's uniformly-excellent rooftop RSRP implies).
[[nodiscard]] cellular::CellDatabase make_cell_database();

/// The six ATSC stations of Figure 4.
[[nodiscard]] std::vector<sdr::EmitterConfig> make_tv_stations();

/// Simulated sky around the testbed (paper: aircraft within ~100 km).
[[nodiscard]] std::shared_ptr<airtraffic::SkySimulator> make_sky(
    std::uint64_t seed, std::size_t aircraft_count = 70);

/// Fully-wired world model for the calibration pipeline.
[[nodiscard]] calib::WorldModel make_world(std::uint64_t seed,
                                           std::size_t aircraft_count = 70);

/// A ready-to-calibrate node at a site: simulated SDR with ADS-B and TV
/// sources attached. The SiteSetup must outlive the device.
[[nodiscard]] std::unique_ptr<sdr::SimulatedSdr> make_node(
    const SiteSetup& site, const calib::WorldModel& world, std::uint64_t seed);

/// Self-contained variant for fleet jobs: the returned device co-owns the
/// site models it measures through (obstructions, antenna, fading), so a
/// `calib::FleetJob::make_device` factory can hand it off with no external
/// lifetime to manage. Built entirely from (site, world, seed), it makes
/// parallel and serial fleet runs bitwise-identical. `extra_sources` are
/// additional RF sources on the air at this node — how the adversary
/// scenario pack (scenario/adversary.hpp) injects jammers, spoofers and
/// rogue towers into a fleet factory.
[[nodiscard]] std::unique_ptr<sdr::Device> make_owned_node(
    Site site, const calib::WorldModel& world, std::uint64_t seed,
    const std::vector<std::shared_ptr<sdr::SignalSource>>& extra_sources = {});

/// Paper Figure-4 channel list (RF channels for 213..605 MHz).
[[nodiscard]] std::vector<int> figure4_channels();

}  // namespace speccal::scenario

// Site obstruction model.
//
// The paper's three experiment sites differ only in what blocks the antenna:
//   (1) rooftop — open to the west, rooftop structures elsewhere
//   (2) behind a window — narrow clear sector through glass, buildings
//       left and right
//   (3) indoors — walls in every direction
// We model a site as a set of azimuth "screens", each with its own
// frequency-dependent attenuation, an optional omnidirectional base loss
// (e.g. being inside a building), and a multipath leakage bound: reflected
// / penetrating energy limits the effective blockage, which is why the
// paper sees nearby (<20 km) ADS-B from every direction.
#pragma once

#include <string>
#include <vector>

#include "geo/sector.hpp"
#include "prop/pathloss.hpp"

namespace speccal::prop {

/// One angular obstruction: everything inside `sector` and below
/// `max_elevation_deg` suffers `loss_db(freq)` extra attenuation.
struct Screen {
  geo::Sector sector;
  /// Loss at the 1 GHz reference frequency [dB].
  double loss_at_1ghz_db = 20.0;
  /// Additional loss per decade of frequency [dB]; positive = worse at
  /// higher frequency (typical for walls/structures).
  double loss_slope_db_per_decade = 10.0;
  /// Signals arriving above this elevation pass over the screen.
  double max_elevation_deg = 90.0;
  std::string label;

  [[nodiscard]] double loss_db(double freq_hz) const noexcept;
};

/// Complete obstruction environment for a sensor site.
class ObstructionMap {
 public:
  ObstructionMap() = default;

  void add_screen(Screen screen) { screens_.push_back(std::move(screen)); }

  /// Omnidirectional loss applied to every path (e.g. building walls for an
  /// indoor site), modelled with the ITU entry-loss frequency shape scaled
  /// so that `loss_at_1ghz_db` is the 1 GHz value.
  void set_omni_loss(double loss_at_1ghz_db, double slope_db_per_decade) noexcept {
    omni_loss_at_1ghz_db_ = loss_at_1ghz_db;
    omni_slope_db_per_decade_ = slope_db_per_decade;
  }

  /// Bound on how much total obstruction loss can exceed the leakage path:
  /// multipath reflections and wall penetration put a ceiling on blockage.
  /// Default 45 dB. Set lower for leaky environments.
  void set_leakage_ceiling_db(double db) noexcept { leakage_ceiling_db_ = db; }

  /// Total extra loss [dB] for a ray arriving from `azimuth_deg` at
  /// `elevation_deg` on `freq_hz`. Never exceeds the leakage ceiling.
  [[nodiscard]] double loss_db(double azimuth_deg, double elevation_deg,
                               double freq_hz) const noexcept;

  /// Sectors whose screen loss exceeds `threshold_db` at `freq_hz` —
  /// the ground-truth "obstructed" set used to validate FoV estimation.
  /// The 15 dB default marks a direction blocked only when the loss
  /// materially shrinks ADS-B range inside the survey radius (window glass
  /// at ~11 dB does not; building walls at ~38 dB do).
  [[nodiscard]] geo::SectorSet obstructed_sectors(double freq_hz,
                                                  double threshold_db = 15.0) const;

  /// Complement view: azimuths NOT behind any screen stronger than the
  /// threshold (the true field of view). Sampled at 1-degree resolution and
  /// merged into maximal sectors.
  [[nodiscard]] geo::SectorSet clear_sectors(double freq_hz,
                                             double threshold_db = 15.0) const;

  [[nodiscard]] const std::vector<Screen>& screens() const noexcept { return screens_; }

 private:
  std::vector<Screen> screens_;
  double omni_loss_at_1ghz_db_ = 0.0;
  double omni_slope_db_per_decade_ = 0.0;
  double leakage_ceiling_db_ = 45.0;
};

}  // namespace speccal::prop

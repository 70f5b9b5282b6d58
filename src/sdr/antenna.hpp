// Receive antenna model: gain versus frequency and azimuth.
//
// The paper's node uses a wide-band antenna rated 700-2700 MHz; outside the
// rated band the gain rolls off steeply, which is exactly the kind of
// sensor limitation the calibration system must expose (a node claiming
// "100 MHz - 6 GHz" with this antenna would fail the frequency sweep).
#pragma once

#include <string>
#include <vector>

namespace speccal::sdr {

/// Piecewise-linear (in log-frequency) gain response plus an optional
/// azimuthal pattern.
class AntennaModel {
 public:
  struct ResponsePoint {
    double freq_hz;
    double gain_dbi;
  };

  /// `response` must be sorted by frequency and non-empty; gain beyond the
  /// first/last point rolls off by `rolloff_db_per_octave`.
  AntennaModel(std::string name, std::vector<ResponsePoint> response,
               double rolloff_db_per_octave = 12.0);

  /// Ideal isotropic antenna (0 dBi everywhere) for unit tests.
  [[nodiscard]] static AntennaModel isotropic();

  /// The paper's wide-band whip: ~2 dBi across 700-2700 MHz, usable but
  /// degraded down to ~200 MHz and up to ~3.5 GHz, steep roll-off beyond.
  [[nodiscard]] static AntennaModel wideband_700_2700();

  /// A deliberately broken antenna (e.g. damaged cable): flat extra loss.
  [[nodiscard]] static AntennaModel attenuated(const AntennaModel& base, double extra_loss_db);

  /// Gain [dBi] at `freq_hz` toward `azimuth_deg`.
  [[nodiscard]] double gain_dbi(double freq_hz, double azimuth_deg = 0.0) const noexcept;

  /// Add a cardioid-style directional pattern: `peak_azimuth_deg` keeps the
  /// full gain; the back direction loses `front_to_back_db`.
  void set_directional(double peak_azimuth_deg, double front_to_back_db) noexcept;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  std::string name_;
  std::vector<ResponsePoint> response_;
  double rolloff_db_per_octave_;
  bool directional_ = false;
  double peak_azimuth_deg_ = 0.0;
  double front_to_back_db_ = 0.0;
};

}  // namespace speccal::sdr

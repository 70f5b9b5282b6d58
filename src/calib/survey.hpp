// ADS-B directional survey — the paper's §3.1 procedure.
//
// Runs the receiver for a measurement window (paper: 30 s), queries the
// ground-truth flight feed mid-window (paper: at 15 s, 100 km radius,
// 10 s feed latency), then joins the two by ICAO address:
//   * ground-truth aircraft with >= 1 decoded message  -> "observed" (blue)
//   * ground-truth aircraft never decoded              -> "missed" (gray)
// The resulting observation set is the input to field-of-view estimation.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "adsb/ppm.hpp"
#include "airtraffic/groundtruth.hpp"
#include "airtraffic/sky.hpp"
#include "sdr/device.hpp"

namespace speccal::calib {

/// How faithfully to simulate reception.
enum class Fidelity {
  /// Full physical pipeline: waveforms through the simulated SDR into the
  /// Mode S demodulator/decoder (what the paper's hardware did).
  kWaveform,
  /// Link-budget Monte Carlo: per-message decode decided by SNR through a
  /// calibrated error model. ~100x faster; used for sweeps and ablations.
  kLinkBudget,
};

struct SurveyConfig {
  double duration_s = 30.0;
  /// When during the window to snapshot ground truth (paper: 15 s in).
  double ground_truth_query_at_s = 15.0;
  Fidelity fidelity = Fidelity::kWaveform;
  /// Demodulator settings for waveform mode (CRC repair budget, preamble
  /// gate) — the knobs the decoder ablation sweeps.
  adsb::DemodConfig demod_override{};
};

/// One ground-truth aircraft joined with reception results.
struct AirplaneObservation {
  std::uint32_t icao = 0;
  std::string callsign;
  geo::Geodetic position;     // ground-truth position at the query time
  double range_km = 0.0;      // from the sensor
  double azimuth_deg = 0.0;   // from the sensor toward the aircraft
  bool received = false;
  std::uint32_t messages = 0;
  double best_rssi_dbfs = -200.0;
  /// Position decoded on-air (only when received); allows checking decode
  /// accuracy against ground truth.
  std::optional<geo::Geodetic> decoded_position;
};

struct SurveyResult {
  std::vector<AirplaneObservation> observations;
  std::uint64_t total_frames_decoded = 0;
  std::uint64_t frames_crc_repaired = 0;
  /// Aircraft decoded on-air but absent from ground truth (fabrication or
  /// feed gaps; should be ~0 in honest setups).
  std::uint32_t unmatched_receptions = 0;
  double duration_s = 0.0;

  [[nodiscard]] std::size_t received_count() const noexcept;
  [[nodiscard]] std::size_t missed_count() const noexcept;
};

/// Runs the survey. The device must already carry an AdsbSignalSource for
/// the same sky that `ground_truth` reports on (simulation), or receive
/// 1090 MHz off the air (hardware). Waveform fidelity works on any
/// `sdr::Device`; link-budget fidelity is a simulation shortcut and
/// requires `Device::sim_control()` (throws std::runtime_error otherwise).
class AdsbSurvey {
 public:
  explicit AdsbSurvey(SurveyConfig config = {}) noexcept : config_(config) {}

  [[nodiscard]] SurveyResult run(sdr::Device& device,
                                 const airtraffic::SkySimulator& sky,
                                 const airtraffic::GroundTruthService& ground_truth) const;

 private:
  [[nodiscard]] SurveyResult run_waveform(sdr::Device& device,
                                          const airtraffic::SkySimulator& sky,
                                          const airtraffic::GroundTruthService& gt) const;
  [[nodiscard]] SurveyResult run_linkbudget(sdr::Device& device,
                                            const airtraffic::SkySimulator& sky,
                                            const airtraffic::GroundTruthService& gt) const;

  SurveyConfig config_;
};

}  // namespace speccal::calib

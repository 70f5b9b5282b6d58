// Stateful ADS-B receiver: demodulation + frame parsing + aircraft tracking.
//
// Plays the role dump1090 plays in the paper: it consumes raw I/Q from the
// SDR, maintains a table of aircraft keyed by ICAO address, resolves CPR
// even/odd pairs into latitude/longitude, and reports per-aircraft message
// statistics (count, RSSI, decoded position/velocity/callsign).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "adsb/ppm.hpp"
#include "dsp/iq.hpp"
#include "geo/wgs84.hpp"

namespace speccal::adsb {

/// Tracked state for one aircraft.
struct AircraftState {
  std::uint32_t icao = 0;
  std::string callsign;
  std::uint32_t message_count = 0;
  std::uint32_t clean_message_count = 0;  // frames that passed CRC unrepaired
  std::uint32_t position_count = 0;
  double first_seen_s = 0.0;
  double last_seen_s = 0.0;
  double last_rssi_dbfs = -200.0;
  double max_rssi_dbfs = -200.0;

  std::optional<geo::Geodetic> position;   // resolved via CPR

  /// A track is credible once it produced a clean-CRC frame or multiple
  /// messages; single bit-repaired frames can be miscorrected noise, and
  /// dump1090 applies the same acceptance policy.
  [[nodiscard]] bool credible() const noexcept {
    return clean_message_count >= 1 || message_count >= 2;
  }
  std::optional<double> ground_speed_kt;
  std::optional<double> track_deg;
  std::optional<double> vertical_rate_fpm;

  // CPR pairing state.
  std::optional<CprEncoded> last_even;
  std::optional<CprEncoded> last_odd;
  double last_even_time_s = -1e9;
  double last_odd_time_s = -1e9;
  std::uint16_t last_ac12 = 0;
};

struct DecoderConfig {
  DemodConfig demod;
};

/// Streaming decoder. Feed I/Q blocks with their capture timestamps; the
/// decoder handles frames that straddle block boundaries via overlap.
class Decoder {
 public:
  explicit Decoder(DecoderConfig config = {});

  /// Process one block captured at `start_time_s` (seconds, stream clock)
  /// with the given sample rate (must be kPpmSampleRateHz).
  /// Returns the frames decoded from this block.
  std::vector<Frame> feed(std::span<const dsp::Sample> samples, double start_time_s);

  /// All aircraft currently tracked (insertion order by ICAO).
  [[nodiscard]] std::vector<AircraftState> aircraft() const;

  /// Look up one aircraft.
  [[nodiscard]] const AircraftState* find(std::uint32_t icao) const noexcept;

  /// Aggregate counters.
  [[nodiscard]] std::uint64_t total_frames() const noexcept { return total_frames_; }
  [[nodiscard]] std::uint64_t crc_repaired_frames() const noexcept { return repaired_frames_; }

  /// Drop aircraft unseen for longer than the configured timeout.
  void prune(double now_s);

  void reset();

 private:
  void ingest(const Frame& frame, const Detection& det, double time_s);

  PpmDemodulator demod_;
  std::map<std::uint32_t, AircraftState> table_;
  dsp::Buffer overlap_;        // tail of the previous block
  double overlap_time_s_ = 0.0;
  bool has_overlap_ = false;
  std::uint64_t total_frames_ = 0;
  std::uint64_t repaired_frames_ = 0;
};

}  // namespace speccal::adsb

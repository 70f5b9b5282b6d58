// Backend side of the Electrosense+ split: replay recorded captures.
//
// `ReplayDevice` is an sdr::Device that serves a pre-decoded sequence of
// CaptureRecords instead of rendering an RF world. It mirrors
// SimulatedSdr's observable contract exactly — tune() applies the same
// DeviceInfo range check, capture() advances stream time by count / rate,
// advance_time() jumps the clock — so a calibration pipeline run over a
// ReplayDevice makes the same decisions (tune successes, stage order,
// timestamps) as the producer run that recorded the stream. With float32
// segments the served samples are bitwise the producer's, which is what
// makes the decode farm's round-trip reports bitwise-identical.
//
// Every capture is verified against the next record (frequency, rate,
// count, timestamp); a mismatch means the replayed pipeline diverged from
// the recording and throws rather than silently calibrating on the wrong
// samples.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "sdr/device.hpp"
#include "sdr/rx_environment.hpp"

namespace speccal::sdr {

/// One reconstructed device capture: the tuner state recorded on the wire
/// plus the decoded samples.
struct CaptureRecord {
  double center_freq_hz = 0.0;
  double sample_rate_hz = 0.0;
  double gain_db = 0.0;
  double timestamp_s = 0.0;  // producer stream time at capture start
  dsp::Buffer samples;
};

/// Device serving recorded captures in order. Not thread-safe (one device
/// per fleet worker, like every other Device).
class ReplayDevice final : public Device, public SimControl {
 public:
  /// `records` is shared so a fleet job factory can hand the same decoded
  /// stream to a device without copying sample data. `rx` enables the
  /// SimControl surface (model-only stages need the receiver surroundings);
  /// the models it points into must outlive the device.
  ReplayDevice(DeviceInfo info, geo::Geodetic position,
               std::shared_ptr<const std::vector<CaptureRecord>> records,
               std::optional<RxEnvironment> rx = std::nullopt);

  // Device interface --------------------------------------------------------
  [[nodiscard]] DeviceInfo info() const override { return info_; }
  [[nodiscard]] geo::Geodetic position() const override { return position_; }
  [[nodiscard]] SimControl* sim_control() noexcept override {
    return rx_ ? this : nullptr;
  }
  bool tune(double center_freq_hz, double sample_rate_hz) override;
  void set_gain_mode(GainMode mode) override { gain_mode_ = mode; }
  void set_gain_db(double gain_db) override { gain_db_ = gain_db; }
  [[nodiscard]] double gain_db() const override { return gain_db_; }
  void capture_into(std::span<dsp::Sample> out) override;
  [[nodiscard]] double stream_time_s() const override { return stream_time_s_; }
  [[nodiscard]] double center_freq_hz() const override { return center_freq_hz_; }
  [[nodiscard]] double sample_rate_hz() const override { return sample_rate_hz_; }

  // SimControl interface ----------------------------------------------------
  [[nodiscard]] const RxEnvironment& rx_environment() const noexcept override {
    return *rx_;
  }
  void advance_time(double seconds) noexcept override { stream_time_s_ += seconds; }

  // Replay bookkeeping ------------------------------------------------------
  [[nodiscard]] std::size_t records_consumed() const noexcept { return next_; }
  [[nodiscard]] std::size_t records_remaining() const noexcept {
    return records_->size() - next_;
  }

 private:
  /// Next record, verified against the current tuner state and `count`.
  /// Throws std::runtime_error on divergence or exhaustion.
  [[nodiscard]] const CaptureRecord& expect(std::size_t count);

  DeviceInfo info_;
  geo::Geodetic position_;
  std::shared_ptr<const std::vector<CaptureRecord>> records_;
  std::optional<RxEnvironment> rx_;
  std::size_t next_ = 0;

  double center_freq_hz_ = 100e6;
  double sample_rate_hz_ = 2.4e6;
  double gain_db_ = 30.0;
  GainMode gain_mode_ = GainMode::kManual;
  double stream_time_s_ = 0.0;
};

}  // namespace speccal::sdr

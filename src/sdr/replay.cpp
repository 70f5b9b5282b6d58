#include "sdr/replay.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace speccal::sdr {

ReplayDevice::ReplayDevice(DeviceInfo info, geo::Geodetic position,
                           std::shared_ptr<const std::vector<CaptureRecord>> records,
                           std::optional<RxEnvironment> rx)
    : info_(std::move(info)),
      position_(position),
      records_(std::move(records)),
      rx_(rx) {
  if (!records_) {
    throw std::invalid_argument("ReplayDevice.records must not be null");
  }
}

bool ReplayDevice::tune(double center_freq_hz, double sample_rate_hz) {
  // Same rule as SimulatedSdr::tune, driven by the same DeviceInfo — a tune
  // the producer's device refused is refused here too, so the replayed
  // pipeline skips the same captures.
  const TuneOutcome outcome =
      tune_outcome(info_, center_freq_hz, sample_rate_hz, sample_rate_hz_);
  center_freq_hz_ = center_freq_hz;
  sample_rate_hz_ = outcome.sample_rate_hz;
  return outcome.accepted;
}

const CaptureRecord& ReplayDevice::expect(std::size_t count) {
  if (next_ >= records_->size()) {
    throw std::runtime_error(
        "ReplayDevice: capture requested after " + std::to_string(next_) +
        " records were exhausted (replayed pipeline diverged from recording)");
  }
  const CaptureRecord& rec = (*records_)[next_];
  if (rec.center_freq_hz != center_freq_hz_ || rec.sample_rate_hz != sample_rate_hz_ ||
      rec.samples.size() != count || rec.timestamp_s != stream_time_s_) {
    throw std::runtime_error(
        "ReplayDevice: record " + std::to_string(next_) + " mismatch: recorded (" +
        std::to_string(rec.center_freq_hz) + " Hz, " +
        std::to_string(rec.sample_rate_hz) + " sps, " +
        std::to_string(rec.samples.size()) + " samples, t=" +
        std::to_string(rec.timestamp_s) + ") vs requested (" +
        std::to_string(center_freq_hz_) + " Hz, " + std::to_string(sample_rate_hz_) +
        " sps, " + std::to_string(count) + " samples, t=" +
        std::to_string(stream_time_s_) + ")");
  }
  return rec;
}

void ReplayDevice::capture_into(std::span<dsp::Sample> out) {
  if (out.empty()) return;  // zero-sample captures record nothing
  const CaptureRecord& rec = expect(out.size());
  std::copy(rec.samples.begin(), rec.samples.end(), out.begin());
  // Adopt the recorded gain: identical to the set value in manual mode, and
  // the AGC-chosen gain when the producer ran AGC (SimulatedSdr exposes the
  // chosen gain after capture the same way).
  gain_db_ = rec.gain_db;
  ++next_;
  stream_time_s_ += static_cast<double>(out.size()) / sample_rate_hz_;
}

}  // namespace speccal::sdr

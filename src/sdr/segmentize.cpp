#include "sdr/segmentize.hpp"

#include <utility>

namespace speccal::sdr {

SegmentizingDevice::SegmentizingDevice(std::unique_ptr<Device> inner,
                                       net::SegmentWriterConfig config,
                                       std::uint32_t stream_id, Sink sink)
    : DeviceDecorator(std::move(inner)),
      writer_(config, stream_id),
      sink_(std::move(sink)) {}

SegmentizingDevice::~SegmentizingDevice() {
  try {
    finish();
  } catch (...) {
    // A destructor must not throw; a sink failing during teardown just
    // truncates the stream (the farm reports the missing end-of-stream).
  }
}

void SegmentizingDevice::finish() {
  if (finished_) return;
  finished_ = true;
  writer_.finish(meta(stream_time_s()), sink_);
}

net::CaptureMeta SegmentizingDevice::meta(double timestamp_s) const {
  // Gain is read *after* the capture so an AGC-chosen gain is recorded;
  // the replay device adopts it the same way.
  return {center_freq_hz(), sample_rate_hz(), gain_db(), timestamp_s};
}

void SegmentizingDevice::capture_into(std::span<dsp::Sample> out) {
  const double start_s = stream_time_s();
  DeviceDecorator::capture_into(out);
  writer_.write_capture(meta(start_s), out, sink_);
}

}  // namespace speccal::sdr

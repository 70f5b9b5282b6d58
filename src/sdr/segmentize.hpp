// Producer side of the Electrosense+ split: record any Device's captures
// as wire segments.
//
// `SegmentizingDevice` is a transparent decorator (like FaultInjectingDevice
// with an empty schedule): every call forwards to the wrapped device
// unchanged, and every capture's samples + tuner state are additionally
// encoded through a net::SegmentWriter and handed to a sink — typically
// `queue.push(...)` feeding a decode farm. Because the decorator never
// perturbs the wrapped device, the producer's own calibration run doubles
// as the in-process baseline for the bitwise round-trip gate.
//
// The end-of-stream marker is emitted by finish(), or by the destructor if
// finish() was never called — the fleet engine destroys each node's device
// at finalize, which is exactly when its stream is complete.
#pragma once

#include <functional>
#include <memory>

#include "net/segment.hpp"
#include "sdr/device.hpp"

namespace speccal::sdr {

/// Decorator recording every capture of `inner` as wire segments. Not
/// thread-safe (like Device itself: one device per fleet worker).
class SegmentizingDevice final : public DeviceDecorator {
 public:
  using Sink = std::function<void(net::Segment&&)>;

  /// Validates `config` (throws std::invalid_argument naming the field).
  /// `sink` receives every encoded segment, on whichever thread drives the
  /// device.
  SegmentizingDevice(std::unique_ptr<Device> inner, net::SegmentWriterConfig config,
                     std::uint32_t stream_id, Sink sink);

  /// Emits the end-of-stream marker if finish() was never called.
  ~SegmentizingDevice() override;

  /// Emit the end-of-stream marker. Idempotent; called implicitly by the
  /// destructor.
  void finish();

  /// Forwards the capture, then records it.
  void capture_into(std::span<dsp::Sample> out) override;

  [[nodiscard]] const net::SegmentWriter& writer() const noexcept { return writer_; }

 private:
  /// Tuner state now, stamped with `timestamp_s`.
  [[nodiscard]] net::CaptureMeta meta(double timestamp_s) const;

  net::SegmentWriter writer_;
  Sink sink_;
  bool finished_ = false;
};

}  // namespace speccal::sdr

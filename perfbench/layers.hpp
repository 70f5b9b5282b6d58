// Layer measurements taken from outside the program:
//   * TimedDevice, an sdr::Device decorator timing tune/capture/capture_into
//     and recording each call as a span on the calling thread;
//   * counter deltas of obs::Registry::global() around a pass;
//   * a breakdown of one pass's trace (stage, task and device spans) into
//     per-node stage wall, capture and self time.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "calib/metrics.hpp"
#include "obs/trace.hpp"
#include "sdr/device.hpp"

namespace perfbench {

/// What one node's device did, as seen by its TimedDevice.
struct DeviceTally {
  std::uint64_t samples = 0;        // samples returned by captures
  std::uint64_t tune_failures = 0;  // tune() calls that returned false
  double busy_ms = 0.0;             // time inside tune/capture/capture_into
};

/// Pass-through decorator. Every call forwards to `inner` unchanged; the
/// timed ones also land in `tally` and, as "sdr" spans tagged with the node
/// id, in `trace`. Not thread-safe, like Device itself.
class TimedDevice final : public speccal::sdr::Device {
 public:
  TimedDevice(std::unique_ptr<speccal::sdr::Device> inner,
              speccal::obs::TraceSession& trace, std::string node_id,
              DeviceTally& tally);

  [[nodiscard]] speccal::sdr::DeviceInfo info() const override { return inner_->info(); }
  [[nodiscard]] speccal::geo::Geodetic position() const override {
    return inner_->position();
  }
  [[nodiscard]] speccal::sdr::SimControl* sim_control() noexcept override {
    return inner_->sim_control();
  }
  bool tune(double center_freq_hz, double sample_rate_hz) override;
  void set_gain_mode(speccal::sdr::GainMode mode) override { inner_->set_gain_mode(mode); }
  void set_gain_db(double gain_db) override { inner_->set_gain_db(gain_db); }
  [[nodiscard]] double gain_db() const override { return inner_->gain_db(); }
  [[nodiscard]] speccal::dsp::Buffer capture(std::size_t count) override;
  void capture_into(std::span<speccal::dsp::Sample> out) override;
  [[nodiscard]] double stream_time_s() const override { return inner_->stream_time_s(); }
  [[nodiscard]] double center_freq_hz() const override {
    return inner_->center_freq_hz();
  }
  [[nodiscard]] double sample_rate_hz() const override {
    return inner_->sample_rate_hz();
  }

 private:
  using clock = speccal::obs::TraceSession::clock;
  void record(std::string_view name, clock::time_point start, std::uint64_t samples);

  std::unique_ptr<speccal::sdr::Device> inner_;
  speccal::obs::TraceSession& trace_;
  std::string node_id_;
  DeviceTally& tally_;
};

/// Values of the registry counters the benchmark reads, by name.
using CounterSnapshot = std::map<std::string, std::uint64_t>;

[[nodiscard]] CounterSnapshot snapshot_counters();

/// after - before, per counter.
[[nodiscard]] CounterSnapshot counter_delta(const CounterSnapshot& before,
                                            const CounterSnapshot& after);

/// One node's time, from the spans of one traced pass.
struct NodeSpans {
  std::array<double, speccal::calib::kStageCount> stage_wall_ms{};
  /// Device-call spans contained in each stage span (same node, same
  /// thread, inside its interval).
  std::array<double, speccal::calib::kStageCount> stage_capture_ms{};
  double acquire_ms = 0.0;   // "acquire" task span (device factory + plan)
  double finalize_ms = 0.0;  // "finalize" task span
  double first_task_start_ms = -1.0;  // since session start
  double last_task_end_ms = 0.0;
};

struct TraceBreakdown {
  std::map<std::string, NodeSpans> nodes;
  double task_busy_ms = 0.0;     // sum of every task span
  double fleet_run_ms = 0.0;     // the calibrator's root span(s)
};

/// Take apart the session's Chrome trace export. Throws std::runtime_error
/// when the export does not parse.
[[nodiscard]] TraceBreakdown analyse_trace(const speccal::obs::TraceSession& trace);

}  // namespace perfbench

// Fault injection for SDR devices — the chaos layer.
//
// Crowd-sourced deployments (Electrosense, RadioHound) report sensor
// flakiness as the dominant operational cost: cheap SDRs stall mid-stream,
// refuse tunes after thermal drift, return short or garbage buffers, and
// silently misreport gain. `FaultInjectingDevice` reproduces exactly those
// failure modes on top of any `sdr::Device`, driven by a *scriptable,
// seeded* schedule so every chaos run is deterministic: same wrapped
// device + same schedule + same seed => the same faults fire at the same
// operation indices, and the calibration output is bit-for-bit repeatable.
//
// With an empty schedule the decorator is transparent (wrapped == unwrapped,
// bitwise) — tests/test_faults.cpp locks that property — so it can sit
// permanently in a fleet factory and only the scripted nodes misbehave.
//
// `FaultProfile` packages a fleet's worth of schedules (plus the retry
// policy knobs the calibration engine should run with) and parses from a
// built-in name ("flaky20", "chaos") or an inline JSON document, which is
// what `fleet_audit --fault-profile=...` feeds through.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sdr/device.hpp"
#include "util/rng.hpp"

namespace speccal::sdr {

/// Which device operation a fault spec targets. Each operation kind has its
/// own monotonically increasing call index (the schedule's time axis):
/// capture() runs capture_into(), so each capture ticks kCapture once.
enum class FaultOp : std::uint8_t {
  kCapture,  // capture_into(), and capture() through it
  kTune,     // tune()
  kGain,     // set_gain_db()
};

/// Fault taxonomy (DESIGN.md §11). kThrow applies to kCapture and kTune ops,
/// kShortRead/kNanBurst/kSaturate/kStall to kCapture, kTuneRefuse to kTune,
/// kGainDriftDb to kGain; validation rejects every other pairing.
enum class FaultKind : std::uint8_t {
  kThrow,       // the call throws std::runtime_error (driver I/O error)
  kShortRead,   // only `param` fraction of the samples arrive; the tail of a
                // caller-owned buffer is left untouched (stale data)
  kNanBurst,    // buffer filled with NaN samples (DC-spike / DSP poison)
  kSaturate,    // buffer pinned at ADC full scale (strong interferer / clip)
  kStall,       // sleeps `param` seconds, then throws — a hung stream read
                // surfaced by the driver watchdog (how SoapySDR timeouts look)
  kTuneRefuse,  // tune() returns false (PLL refuses to lock)
  kGainDriftDb, // set_gain_db applies a silent `param` dB offset while
                // gain_db() keeps reporting the requested value (the lie the
                // calibration pipeline exists to catch)
};

[[nodiscard]] const char* to_string(FaultOp op) noexcept;
[[nodiscard]] const char* to_string(FaultKind kind) noexcept;

/// One scripted fault: fires on ops `[first, first + count)` of the
/// targeted kind (count < 0 = forever), optionally gated by a seeded
/// Bernoulli roll. The first matching spec in schedule order wins.
struct FaultSpec {
  FaultOp op = FaultOp::kCapture;
  FaultKind kind = FaultKind::kThrow;
  std::uint64_t first = 0;   // 0-based op index where the window opens
  std::int64_t count = 1;    // ops affected; negative = persistent
  double param = 0.0;        // fraction (kShortRead), seconds <= 3600 (kStall),
                             // dB (kGainDriftDb); unused otherwise
  double probability = 1.0;  // < 1.0: rolled per matching op on the
                             // device's seeded Rng (deterministic)
};

/// Decorator that forwards every Device call to `inner`, injecting the
/// scheduled faults. Not thread-safe (like Device itself: one device per
/// fleet worker).
class FaultInjectingDevice final : public DeviceDecorator {
 public:
  /// `node_label` tags this device's injection events in the obs::EventLog
  /// journal (empty = unattributed; the op counters still tick). Throws
  /// std::invalid_argument on a null `inner` or a spec outside the taxonomy
  /// (the checks of FaultProfile::validate, naming "schedule[i]").
  FaultInjectingDevice(std::unique_ptr<Device> inner,
                       std::vector<FaultSpec> schedule,
                       std::uint64_t seed = 0, std::string node_label = {});

  // Device interface --------------------------------------------------------
  bool tune(double center_freq_hz, double sample_rate_hz) override;
  void set_gain_db(double gain_db) override;
  [[nodiscard]] double gain_db() const override;
  void capture_into(std::span<dsp::Sample> out) override;

  // Chaos bookkeeping -------------------------------------------------------
  [[nodiscard]] std::uint64_t injected_count() const noexcept { return injected_; }
  [[nodiscard]] std::uint64_t capture_ops() const noexcept { return capture_ops_; }
  [[nodiscard]] std::uint64_t tune_ops() const noexcept { return tune_ops_; }
  /// Wall time spent inside injected kStall faults [s].
  [[nodiscard]] double stalled_s() const noexcept { return stalled_s_; }

 private:
  /// First spec whose window (and probability roll) covers op index `index`.
  [[nodiscard]] const FaultSpec* match(FaultOp op, std::uint64_t index);
  void note_injection(const FaultSpec& spec, std::uint64_t index);

  std::vector<FaultSpec> schedule_;
  std::string node_label_;
  util::Rng rng_;
  std::uint64_t capture_ops_ = 0;
  std::uint64_t tune_ops_ = 0;
  std::uint64_t gain_ops_ = 0;
  std::uint64_t injected_ = 0;
  double stalled_s_ = 0.0;
  double reported_gain_db_ = 0.0;
  bool gain_lie_active_ = false;
};

/// Per-fleet fault script plus the retry knobs a chaos run should use.
/// Node indices refer to positions in the fleet job list.
struct FaultProfile {
  std::string name = "none";
  std::uint64_t seed = 1;
  /// Retry policy the calibration engine should adopt for this profile.
  int retry_max_attempts = 4;
  double initial_backoff_s = 0.01;
  double stage_deadline_s = 0.0;  // 0 = no per-stage deadline
  /// Self-check target for chaos smoke runs: how many nodes the schedule is
  /// designed to quarantine (fleet_audit exits nonzero on a mismatch).
  std::size_t expected_quarantined_nodes = 0;

  struct NodeFaults {
    std::size_t index = 0;
    std::vector<FaultSpec> faults;
  };
  std::vector<NodeFaults> nodes;

  [[nodiscard]] bool empty() const noexcept { return nodes.empty(); }
  /// Throws std::invalid_argument naming the field (e.g.
  /// "FaultProfile.retry_max_attempts must be >= 1") on out-of-range values
  /// or a fault kind its op cannot fire (FaultProfile.nodes[n].faults[f].kind)
  /// — the shared config-validation convention (DESIGN.md §13).
  /// make_fault_profile() calls this on every profile it returns.
  void validate() const;
  [[nodiscard]] const std::vector<FaultSpec>* faults_for(
      std::size_t node_index) const noexcept;
  /// Wrap `device` in a FaultInjectingDevice when node `node_index` has
  /// scripted faults; returns it unchanged (no decorator) otherwise.
  /// `node_label` (typically the claims node id) attributes the injection
  /// events in the journal.
  [[nodiscard]] std::unique_ptr<Device> wrap(std::unique_ptr<Device> device,
                                             std::size_t node_index,
                                             std::string node_label = {}) const;
};

/// Resolve `--fault-profile` input: a built-in name ("none", "flaky20",
/// "chaos") or, when the string starts with '{', an inline JSON document:
///   {"name":"custom","seed":7,"retry_max_attempts":4,"stage_deadline_s":0,
///    "initial_backoff_s":0.01,"expected_quarantined_nodes":1,
///    "nodes":[{"index":5,"faults":[{"op":"capture","kind":"throw",
///              "first":0,"count":-1,"param":0,"probability":1}]}]}
/// Throws std::invalid_argument on an unknown name or a malformed document
/// (syntax errors carry the byte offset, schema errors the field path,
/// e.g. "nodes[0].faults[1].first").
[[nodiscard]] FaultProfile make_fault_profile(std::string_view name_or_json);

}  // namespace speccal::sdr

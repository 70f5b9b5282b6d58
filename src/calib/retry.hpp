// Retry, backoff and quarantine for calibration stages.
//
// The fleet engine's failure model before this layer was all-or-nothing: a
// device exception anywhere aborted the whole node. Real crowd-sourced
// sensors fail *transiently* far more often than terminally (USB hiccups,
// stream timeouts, momentary PLL unlock), so each pipeline stage now runs
// under a RetryPolicy: failed attempts are retried with exponential backoff
// (jitter drawn from a per-node util::Rng stream, so parallel and serial
// fleet runs stay bitwise identical), a per-stage deadline bounds how long
// a stalling device can hold a worker, and — when quarantine is enabled —
// a stage that never recovers is recorded as a FaultRecord in the report
// while the rest of the calibration carries on.
//
// The default policy is a strict passthrough (one attempt, exceptions
// propagate): existing behaviour, to the bit. Chaos runs and hardware
// deployments opt in via PipelineConfig::retry.
//
// Determinism contract (DESIGN.md §11, §12): the backoff jitter stream is
// a stable function of (kJitterSeed, node_id, stage) only — never of wall
// time, the worker thread, or the order stages happen to execute in — so
// same seed + same fault schedule => same attempt counts, same simulated
// backoff, same report, whether the stages ran serially or interleaved
// across the stage-graph executor's workers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "calib/metrics.hpp"
#include "util/rng.hpp"

namespace speccal::sdr {
class Device;
}
namespace speccal::obs {
class TraceSession;
}

namespace speccal::calib {

struct RetryPolicy {
  /// Total attempts per stage (1 = never retry — the seed behaviour).
  int max_attempts = 1;
  /// Backoff before retry k (1-based) is initial_backoff_s * 2^(k-1),
  /// jittered by ±10% (uniform, from the per-node stream). Backoff only
  /// advances the simulated stream clock (SimControl::advance_time),
  /// keeping tests and chaos runs fast and deterministic.
  double initial_backoff_s = 0.01;
  /// Wall-clock budget per stage, checked after every failed attempt;
  /// exceeding it gives up immediately (FaultOutcome::kDeadlineExpired).
  /// 0 disables the deadline.
  double stage_deadline_s = 0.0;
  /// When true, a stage that exhausts its attempts (or its deadline) is
  /// recorded as a FaultRecord and skipped — the node completes degraded
  /// instead of aborting. When false, the last exception propagates
  /// (pre-retry behaviour, which the fleet engine turns into an abort).
  bool quarantine = false;

  /// True when this policy changes nothing: run the stage once, let
  /// exceptions fly. The runner takes a zero-cost path.
  [[nodiscard]] bool passthrough() const noexcept {
    return max_attempts <= 1 && !quarantine;
  }
};

enum class FaultOutcome {
  kRecovered,        // failed at least once, then a retry succeeded
  kQuarantined,      // attempts exhausted; stage output dropped
  kDeadlineExpired,  // per-stage deadline hit; stage output dropped
};

[[nodiscard]] const char* to_string(FaultOutcome outcome) noexcept;

/// Fleet-level tally of how fault handling ended per node. The one shared
/// spelling for these counts: FleetSummary carries it, net::DecodeFarmStats
/// embeds the same struct, and anything downstream aggregates with +=.
/// `quarantined` = nodes that completed degraded (>= 1 stage quarantined or
/// deadline-expired); `recovered` = nodes that needed retries somewhere but
/// completed clean. A node counts in at most one bucket.
struct FaultTally {
  std::size_t quarantined = 0;
  std::size_t recovered = 0;

  /// Classify one node's fault records into the tally (no records = clean
  /// node, counted in neither bucket).
  void note(const std::vector<struct FaultRecord>& records) noexcept;

  FaultTally& operator+=(const FaultTally& other) noexcept {
    quarantined += other.quarantined;
    recovered += other.recovered;
    return *this;
  }
  friend bool operator==(const FaultTally&, const FaultTally&) = default;
};

/// One stage's fault history inside a CalibrationReport. Only recorded when
/// something actually went wrong — a clean stage leaves no record, so a
/// fault-free node's report is byte-identical with or without faults
/// elsewhere in the fleet.
struct FaultRecord {
  Stage stage{};
  int attempts = 1;                 // attempts consumed (including the last)
  FaultOutcome outcome = FaultOutcome::kRecovered;
  std::string last_error;           // what() of the final failure
  double backoff_total_s = 0.0;     // total backoff injected between attempts
  bool degraded = false;            // stage output missing from the report
};

/// Executes stage bodies under a RetryPolicy for one node. Cheap to
/// construct (the stage-graph executor builds one per stage task); not
/// thread-safe — one runner per concurrently-executing stage.
///
/// `device` may be null for stages that never touch hardware (fov, fuse):
/// their backoff then advances neither the simulated stream clock nor any
/// device state, so a retried pure stage cannot perturb the device-op
/// ordering that the bitwise determinism gate depends on.
///
/// Observability: every retry attempt bumps speccal_retry_attempts_total
/// and (with a trace session) emits a "retry" span nested inside the stage
/// span; recoveries bump speccal_retry_recovered_total, quarantines
/// speccal_fault_quarantined_stages_total, and each backoff lands in the
/// speccal_retry_backoff_ms histogram.
class RetryRunner {
 public:
  RetryRunner(const RetryPolicy& policy, std::string_view node_id,
              sdr::Device* device, obs::TraceSession* trace);

  /// Run `body` under the policy. `reset` restores the stage's outputs to a
  /// clean slate; it is invoked before every attempt and once more after a
  /// final failure (so a quarantined stage never leaks a partial attempt
  /// into the report). Returns true when the stage completed, false when it
  /// was quarantined. Appends to `records` only when a fault occurred.
  /// The jitter stream is reseeded per call from (kJitterSeed, node_id,
  /// stage), so the same stage of the same node always draws the same
  /// backoff sequence regardless of what else ran in between.
  bool run(Stage stage, std::vector<FaultRecord>& records,
           const std::function<void()>& reset,
           const std::function<void()>& body);

 private:
  [[nodiscard]] double next_backoff_s(int failed_attempt,
                                      util::Rng& jitter_rng) const noexcept;

  const RetryPolicy& policy_;
  std::string node_id_;
  sdr::Device* device_;
  obs::TraceSession* trace_;
  std::uint64_t node_seed_;
};

}  // namespace speccal::calib

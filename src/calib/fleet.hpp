// Parallel fleet calibration engine — the paper's §2 marketplace at scale.
//
// Electrosense-class deployments calibrate hundreds of nodes against the
// same world model; one node at a time does not cut it. FleetCalibrator
// builds one stage-task subgraph per node (acquire -> pipeline stages ->
// finalize, edges from CalibrationPipeline::stage_plan()) and runs the
// whole batch through a work-stealing StageExecutor, so short stages of
// one node interleave with another node's long tv_sweep:
//   * each job carries a device *factory*, invoked on the worker thread
//     that claims the node's acquire task, so no device state is ever
//     shared, and per-node RNG seeding keeps parallel output
//     bitwise-identical to a serial run;
//   * a failure in one node (device exception, factory error) marks that
//     node's state; its remaining stage tasks turn into no-ops and its
//     finalize task records a flagged report (abort_reason, trust 0) —
//     one broken node never takes down the batch;
//   * results land in the thread-safe NodeRegistry as they complete, so
//     readers can watch the fleet fill in;
//   * cancellation is checked at node admission (the acquire task), so
//     queued jobs drain as skips after in-flight nodes finish;
//   * an admission window (2× threads) bounds how many devices are live
//     at once regardless of fleet size.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "calib/executor.hpp"
#include "calib/metrics.hpp"
#include "calib/pipeline.hpp"
#include "calib/retry.hpp"
#include "calib/runconfig.hpp"

namespace speccal::obs {
class TraceSession;
}

namespace speccal::calib {

/// One unit of fleet work. `make_device` must be self-contained: it runs on
/// whichever worker thread claims the job.
struct FleetJob {
  NodeClaims claims;
  std::function<std::unique_ptr<sdr::Device>()> make_device;
};

/// Progress ping after each node completes. Invoked from worker threads but
/// serialized by the engine; keep the callback cheap and do not call back
/// into FleetCalibrator::run (request_cancel is fine).
struct FleetProgress {
  std::size_t completed = 0;  // nodes finished so far (this batch)
  std::size_t total = 0;      // jobs in the batch
  std::string node_id;
  bool ok = true;             // false when the node's calibration aborted
  bool quarantined = false;   // >= 1 stage quarantined (degraded report)
};

/// Fleet-side knobs that are not part of the calibration recipe. The
/// thread count and the trace sink are NOT here: scheduling belongs to
/// RunConfig::executor (one spelling per concept).
struct FleetConfig {
  std::function<void(const FleetProgress&)> on_progress;
};

/// What a batch did, plus fleet-wide stage timing percentiles.
struct FleetSummary {
  std::size_t total = 0;       // jobs submitted
  std::size_t calibrated = 0;  // reports recorded (aborted ones included)
  std::size_t failed = 0;      // aborted reports among `calibrated`
  std::size_t skipped = 0;     // jobs never started (cancellation)
  /// Quarantined/recovered node counts — the shared calib::FaultTally
  /// spelling (net::DecodeFarmStats embeds the same struct).
  FaultTally faults;
  double wall_s = 0.0;
  double nodes_per_s = 0.0;
  FleetStageStats stage_stats;
  /// What the stage-graph executor did for this batch (threads used, tasks
  /// run/stolen/failed). tasks_run always covers the whole graph — skipped
  /// nodes still execute their (no-op) tasks, so no task is ever orphaned.
  ExecutorStats executor;
};

class FleetCalibrator {
 public:
  /// Build the pipeline from `world` and a validated RunConfig (throws
  /// std::invalid_argument, naming the field, on bad values).
  /// RunConfig::executor.threads sets the worker count (0 = hardware
  /// concurrency, 1 = inline deterministic execution).
  /// RunConfig::executor.trace is an optional trace collector
  /// (caller-owned, must outlive run()). When set, each run() records a
  /// root "fleet_run" span, one "task" span per graph task
  /// (acquire/stage/finalize, labelled "<node>/<stage>", on the worker
  /// thread that ran it, with a "stolen" flag) and one "stage" span per
  /// pipeline stage nested inside its task by time containment — the
  /// Chrome-trace export drops into Perfetto. Null disables tracing at
  /// zero cost.
  FleetCalibrator(WorldModel world, RunConfig run, FleetConfig fleet = {});

  /// Calibrate every job, recording each report into `registry` as it
  /// completes. Blocks until the batch finishes (or cancellation drains
  /// the queue). One batch at a time per calibrator.
  FleetSummary run(std::vector<FleetJob> jobs, NodeRegistry& registry);

  /// Ask a running batch to stop after in-flight nodes finish; queued jobs
  /// are skipped. Callable from any thread, including the progress
  /// callback. Cleared at the start of the next run().
  void request_cancel() noexcept { cancel_.store(true, std::memory_order_relaxed); }

  [[nodiscard]] const CalibrationPipeline& pipeline() const noexcept { return pipeline_; }

  /// Configured worker count (RunConfig::executor.threads; 0 = hardware
  /// concurrency).
  [[nodiscard]] unsigned threads() const noexcept { return threads_; }

  /// Threads run() will actually use for a batch of `jobs` jobs.
  [[nodiscard]] unsigned effective_threads(std::size_t jobs) const noexcept;

 private:
  CalibrationPipeline pipeline_;
  FleetConfig config_;
  unsigned threads_ = 0;
  obs::TraceSession* trace_ = nullptr;
  std::atomic<bool> cancel_{false};
};

}  // namespace speccal::calib

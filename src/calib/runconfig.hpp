// Task-oriented run configuration for fleet calibration.
//
// RunConfig gathers into one validated value what to compute and how to
// survive faults (pipeline, including pipeline.retry) and how to schedule
// it (executor). FleetCalibrator's RunConfig constructor is the preferred
// entry point.
#pragma once

#include "calib/executor.hpp"
#include "calib/pipeline.hpp"
#include "calib/retry.hpp"

namespace speccal::calib {

struct RunConfig {
  /// What each node's calibration computes (stages, thresholds, world
  /// interaction) and its per-stage fault policy (`pipeline.retry`).
  PipelineConfig pipeline;
  /// Stage-graph executor: thread count (0 = hardware concurrency) and
  /// trace sink.
  ExecutorConfig executor;

  /// Throws std::invalid_argument naming the offending field (e.g.
  /// "RunConfig.pipeline.retry.max_attempts must be >= 1") when a value is
  /// out of range. FleetCalibrator's RunConfig constructor calls this.
  void validate() const;
};

}  // namespace speccal::calib

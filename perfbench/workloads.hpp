// The benchmark's four workloads and what one run of a workload reports.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "cli.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct WorkloadResult {
  std::string workload;
  bool correct = true;
  std::vector<std::string> problems;  // each failed check, human readable
  std::size_t attempted = 0;          // node calibrations in timed passes
  std::size_t failed = 0;             // aborted, quarantined, missing or wrong
  std::size_t passes = 0;             // timed passes
  std::size_t traced_passes = 0;
  std::size_t fleet_size = 0;         // nodes per pass
  /// Per-node latency over every timed pass: the sample count behind
  /// node_latency_p50_ms, and the highest percentile with ten samples
  /// beyond it at the default fleet size.
  std::size_t latency_samples = 0;
  double latency_p75_ms = 0.0;
  std::vector<double> pass_wall_s;    // each timed call, in order
  std::vector<double> pass_peak_rss_mb;  // each timed call's peak RSS, in order
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run),
  /// in report order.
  std::vector<Metric> metrics;
  std::string chrome_trace;  // last traced pass, Chrome trace_event JSON
  std::string counter_deltas_json;  // registry deltas of the traced passes
};

/// Run one workload as `opt` says. Never throws for a failed check: that
/// lands in `correct` / `problems` / `failed`.
[[nodiscard]] WorkloadResult run_workload(const std::string& workload, const Options& opt);

}  // namespace perfbench

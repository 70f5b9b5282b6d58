// Tests of the benchmark itself: its strict command line, and that its
// correctness checks pass on an unseen seed and catch a broken input.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cli.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

ParseResult parse(std::vector<std::string> args) { return parse_args(args); }

TEST(PerfbenchCli, AcceptsTheRunCommandLine) {
  const auto r = parse({"--workload", "wire_replay", "--seed", "7", "--seconds", "10",
                        "--trace", "1"});
  ASSERT_TRUE(r.options) << r.error;
  EXPECT_EQ(r.options->workload, "wire_replay");
  EXPECT_EQ(r.options->seed, 7u);
  EXPECT_DOUBLE_EQ(r.options->seconds, 10.0);
  EXPECT_TRUE(r.options->trace);
}

TEST(PerfbenchCli, AcceptsEqualsFormAndWireOnlyFlag) {
  const auto r = parse({"--workload=paper_sites", "--runs=3", "--seconds=0.5"});
  ASSERT_TRUE(r.options) << r.error;
  EXPECT_EQ(r.options->workload, "paper_sites");
  EXPECT_EQ(r.options->runs, 3u);
  const auto wire = parse({"--workload", "wire_replay", "--corrupt-segments", "2"});
  ASSERT_TRUE(wire.options) << wire.error;
  EXPECT_EQ(wire.options->corrupt_segments, 2u);
}

TEST(PerfbenchCli, RejectsBadCommandLines) {
  const std::vector<std::vector<std::string>> bad = {
      {},                                                  // no workload
      {"--workload", "fleet"},                             // unknown workload
      {"--workload", "fleet_serial,paper_sites"},          // one workload per process
      {"--workload", "all"},                               // likewise
      {"--workload", "fleet_serial", "--bogus", "1"},      // unknown flag
      {"--workload", "fleet_serial", "--seed"},            // missing value
      {"--workload", "fleet_serial", "--seed", "12x"},     // trailing junk
      {"--workload", "fleet_serial", "--seed", "-1"},      // negative
      {"--workload", "fleet_serial", "--seed", "1e3"},     // not a whole number
      {"--workload", "fleet_serial", "--seed", "99999999999999999999"},  // overflow
      {"--workload", "fleet_serial", "--runs", "0"},       // out of range
      {"--workload", "fleet_serial", "--nodes", "3"},      // not a flag
      {"--workload", "fleet_serial", "--corrupt-segments", "1"},  // wire_replay only
      {"--workload", "fleet_serial", "--seconds", "nan"},  // not a number
      {"--workload", "fleet_serial", "--seconds", "-5"},   // negative
      {"--workload", "fleet_serial", "--trace", "2"},      // not 0/1
      {"--workload", "fleet_serial", "--trace", "1", "--trace", "0"},  // repeated
      {"--workload", "fleet_serial", "stray"},             // positional
  };
  for (const auto& args : bad) {
    const auto r = parse(args);
    std::string joined;
    for (const auto& a : args) joined += a + " ";
    EXPECT_FALSE(r.options) << "accepted: " << joined;
    EXPECT_FALSE(r.error.empty()) << joined;
  }
}

Options small(std::uint64_t seed) {
  Options opt;
  opt.seed = seed;
  opt.nodes = 3;
  opt.runs = 1;
  opt.seconds = 0.0;
  return opt;
}

TEST(PerfbenchWorkloads, UnseenSeedCalibratesEveryNode) {
  const WorkloadResult r = run_workload("fleet_parallel", small(20261016));
  EXPECT_TRUE(r.correct) << (r.problems.empty() ? "" : r.problems.front());
  EXPECT_EQ(r.attempted, 3u);
  EXPECT_EQ(r.failed, 0u);
  ASSERT_FALSE(r.metrics.empty());
  EXPECT_EQ(r.metrics.front().name, "nodes_per_s");
  for (const Metric& m : r.metrics) EXPECT_GT(m.value, 0.0) << m.name;
}

double decode_errors(const WorkloadResult& r) {
  const auto it = std::find_if(r.metrics.begin(), r.metrics.end(),
                               [](const Metric& m) { return m.name == "net.decode_errors"; });
  return it == r.metrics.end() ? -1.0 : it->value;
}

TEST(PerfbenchWorkloads, CorruptedWireSegmentIsCaught) {
  Options opt = small(13);
  opt.corrupt_segments = 1;
  opt.trace = true;
  const WorkloadResult r = run_workload("wire_replay", opt);
  EXPECT_FALSE(r.correct);
  EXPECT_GT(r.failed, 0u);
  EXPECT_EQ(decode_errors(r), 1.0);
}

TEST(PerfbenchWorkloads, MoreCorruptionThanSegmentsDamagesEverySegmentOnce) {
  Options opt = small(13);
  opt.corrupt_segments = 1000000;
  opt.trace = true;
  const WorkloadResult r = run_workload("wire_replay", opt);
  EXPECT_FALSE(r.correct);
  EXPECT_EQ(r.failed, r.attempted);
  EXPECT_GT(decode_errors(r), 1.0);
}

TEST(PerfbenchWorkloads, TracedRunReconcilesAndSplitsStages) {
  Options opt = small(13);
  opt.trace = true;
  const WorkloadResult r = run_workload("fleet_serial", opt);
  EXPECT_TRUE(r.correct) << (r.problems.empty() ? "" : r.problems.front());
  EXPECT_EQ(r.traced_passes, 1u);
  const auto value = [&](const std::string& name) {
    for (const Metric& m : r.metrics)
      if (m.name == name) return m.value;
    ADD_FAILURE() << "missing " << name;
    return 0.0;
  };
  EXPECT_GT(value("sdr.samples"), 0.0);
  EXPECT_GT(value("calib.tv_sweep.capture_ms"), 0.0);
  EXPECT_GT(value("calib.tv_sweep.measure_ms"), 0.0);
  EXPECT_NEAR(value("calib.tv_sweep.wall_ms"),
              value("calib.tv_sweep.capture_ms") + value("calib.tv_sweep.measure_ms"), 1e-6);
  EXPECT_EQ(value("calib.executor.tasks_failed"), 0.0);
  value("obs.trace_overhead_frac");
}

}  // namespace
}  // namespace perfbench

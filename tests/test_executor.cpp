// Tests: TaskGraph, the work-stealing StageExecutor, the task-oriented
// pipeline API (plan/stage_plan/NodeTaskSet) and RunConfig validation.
// Designed to run clean under ThreadSanitizer (the CI TSan job builds this
// binary alongside test_fleet).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "calib/executor.hpp"
#include "calib/fleet.hpp"
#include "calib/runconfig.hpp"
#include "calib/taskgraph.hpp"
#include "scenario/testbed.hpp"

namespace cal = speccal::calib;
namespace sc = speccal::scenario;

namespace {

constexpr std::uint64_t kSeed = 2023;

cal::PipelineConfig fast_config() {
  cal::PipelineConfig cfg;
  cfg.survey.fidelity = cal::Fidelity::kLinkBudget;
  cfg.survey.duration_s = 10.0;
  return cfg;
}

std::vector<cal::FleetJob> seeded_fleet(const cal::WorldModel& world,
                                        std::size_t count) {
  std::vector<cal::FleetJob> jobs;
  for (std::size_t i = 0; i < count; ++i) {
    const auto site = static_cast<sc::Site>(i % 3);
    cal::FleetJob job;
    job.claims.node_id = "node-" + std::to_string(i);
    job.claims.claims_outdoor = site == sc::Site::kRooftop;
    job.claims.claims_omnidirectional = false;
    job.make_device = [&world, site]() {
      return sc::make_owned_node(site, world, kSeed);
    };
    jobs.push_back(std::move(job));
  }
  return jobs;
}

}  // namespace

// ------------------------------------------------------------ task graph ----

TEST(TaskGraph, DependsValidatesIds) {
  cal::TaskGraph graph;
  const auto a = graph.add("a", [] {});
  const auto b = graph.add("b", [] {});
  graph.depends(b, a);
  EXPECT_EQ(graph.size(), 2u);
  EXPECT_EQ(graph.prerequisite_count(b), 1u);
  ASSERT_EQ(graph.successors(a).size(), 1u);
  EXPECT_EQ(graph.successors(a)[0], b);

  EXPECT_THROW(graph.depends(b, 99), std::invalid_argument);
  EXPECT_THROW(graph.depends(99, a), std::invalid_argument);
  EXPECT_THROW(graph.depends(a, a), std::invalid_argument);
}

TEST(Executor, EmptyGraphRunsToEmptyStats) {
  cal::TaskGraph graph;
  cal::StageExecutor executor;
  const auto stats = executor.run(graph);
  EXPECT_EQ(stats.tasks_run, 0u);
  EXPECT_EQ(stats.tasks_failed, 0u);
  EXPECT_TRUE(stats.first_error.empty());
}

TEST(Executor, RejectsCyclesAndMissingBodies) {
  {
    cal::TaskGraph graph;
    const auto a = graph.add("a", [] {});
    const auto b = graph.add("b", [] {});
    graph.depends(b, a);
    graph.depends(a, b);  // cycle
    cal::StageExecutor executor(cal::ExecutorConfig{1, nullptr});
    EXPECT_THROW(executor.run(graph), std::invalid_argument);
  }
  {
    cal::TaskGraph graph;
    (void)graph.add("hollow", {});
    cal::StageExecutor executor(cal::ExecutorConfig{1, nullptr});
    EXPECT_THROW(executor.run(graph), std::invalid_argument);
  }
}

TEST(Executor, SingleThreadOrderIsDeterministicDepthFirst) {
  // Two independent chains a0->a1->a2 and b0->b1->b2: inline execution must
  // run the first-declared chain to completion before starting the second
  // (LIFO depth-first with roots in declaration order), every time.
  for (int rep = 0; rep < 3; ++rep) {
    cal::TaskGraph graph;
    std::vector<std::string> order;
    std::vector<cal::TaskGraph::TaskId> a(3), b(3);
    for (int i = 0; i < 3; ++i)
      a[static_cast<std::size_t>(i)] = graph.add(
          "a" + std::to_string(i),
          [&order, i] { order.push_back("a" + std::to_string(i)); });
    for (int i = 0; i < 3; ++i)
      b[static_cast<std::size_t>(i)] = graph.add(
          "b" + std::to_string(i),
          [&order, i] { order.push_back("b" + std::to_string(i)); });
    for (int i = 1; i < 3; ++i) {
      graph.depends(a[static_cast<std::size_t>(i)], a[static_cast<std::size_t>(i - 1)]);
      graph.depends(b[static_cast<std::size_t>(i)], b[static_cast<std::size_t>(i - 1)]);
    }
    cal::StageExecutor executor(cal::ExecutorConfig{1, nullptr});
    const auto stats = executor.run(graph);
    EXPECT_EQ(stats.threads_used, 1u);
    EXPECT_EQ(stats.tasks_run, 6u);
    EXPECT_EQ(stats.tasks_stolen, 0u);
    const std::vector<std::string> want{"a0", "a1", "a2", "b0", "b1", "b2"};
    EXPECT_EQ(order, want);
  }
}

TEST(Executor, FailedTaskStillReleasesSuccessors) {
  cal::TaskGraph graph;
  bool downstream_ran = false;
  const auto boom = graph.add("boom", [] {
    throw std::runtime_error("stage exploded");
  });
  const auto after = graph.add("after", [&] { downstream_ran = true; });
  graph.depends(after, boom);
  cal::StageExecutor executor(cal::ExecutorConfig{1, nullptr});
  const auto stats = executor.run(graph);
  EXPECT_TRUE(downstream_ran);
  EXPECT_EQ(stats.tasks_run, 2u);
  EXPECT_EQ(stats.tasks_failed, 1u);
  EXPECT_EQ(stats.first_error, "stage exploded");
}

TEST(Executor, WorkStealingHammerDrainsEveryTask) {
  // Wide + deep graph, more workers than cores: every task must run exactly
  // once no matter how the steals interleave. TSan-hot on purpose.
  constexpr std::size_t kRoots = 40;
  constexpr std::size_t kDepth = 5;
  cal::TaskGraph graph;
  std::atomic<std::size_t> executed{0};
  for (std::size_t r = 0; r < kRoots; ++r) {
    cal::TaskGraph::TaskId prev = graph.add("t", [&] {
      executed.fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t d = 1; d < kDepth; ++d) {
      const auto next = graph.add("t", [&] {
        executed.fetch_add(1, std::memory_order_relaxed);
      });
      graph.depends(next, prev);
      prev = next;
    }
  }
  cal::StageExecutor executor(cal::ExecutorConfig{8, nullptr});
  const auto stats = executor.run(graph);
  EXPECT_EQ(executed.load(), kRoots * kDepth);
  EXPECT_EQ(stats.tasks_run, kRoots * kDepth);
  EXPECT_EQ(stats.tasks_failed, 0u);
}

// -------------------------------------------------------- pipeline plan ----

TEST(StagePlan, DeclaresSerialOrderAndDeviceChain) {
  const auto world = sc::make_world(kSeed);
  cal::CalibrationPipeline pipeline(world, fast_config());
  const auto specs = pipeline.stage_plan();
  // Sky present, lo_cal enabled; the anomaly scan stays disarmed by default.
  ASSERT_EQ(specs.size(), cal::kStageCount - 1);
  EXPECT_EQ(specs.front().stage, cal::Stage::kSurvey);
  EXPECT_TRUE(specs.front().deps.empty());
  // Device-touching stages must form a chain (sdr::Device is not
  // thread-safe): each later device stage depends on the previous one.
  cal::Stage prev_device = cal::Stage::kSurvey;
  for (std::size_t k = 1; k < specs.size(); ++k) {
    if (!specs[k].uses_device) continue;
    bool chained = false;
    for (const cal::Stage dep : specs[k].deps)
      if (dep == prev_device) chained = true;
    EXPECT_TRUE(chained) << "device stage " << cal::to_string(specs[k].stage)
                         << " not chained after " << cal::to_string(prev_device);
    prev_device = specs[k].stage;
  }
}

TEST(StagePlan, ArmedAnomalyScanChainsAfterLoCal) {
  const auto world = sc::make_world(kSeed);
  auto cfg = fast_config();
  cfg.anomaly_scan.enabled = true;
  cfg.anomaly_scan.bands.push_back({"adsb-1090", 1090e6, 2e6, 0.01});
  cal::CalibrationPipeline pipeline(world, cfg);
  const auto specs = pipeline.stage_plan();
  ASSERT_EQ(specs.size(), cal::kStageCount);  // every stage armed
  const auto& scan = specs.back();
  EXPECT_EQ(scan.stage, cal::Stage::kAnomalyScan);
  EXPECT_TRUE(scan.uses_device);
  // Chained onto the end of the device chain: lo_cal.
  ASSERT_EQ(scan.deps.size(), 1u);
  EXPECT_EQ(scan.deps.front(), cal::Stage::kLoCal);
}

TEST(NodeTaskSet, RunAllMatchesCalibrateBitwise) {
  const auto world = sc::make_world(kSeed);
  cal::CalibrationPipeline pipeline(world, fast_config());
  cal::NodeClaims claims;
  claims.node_id = "node-0";

  const auto direct_dev = sc::make_owned_node(sc::Site::kRooftop, world, kSeed);
  const auto direct = pipeline.calibrate(*direct_dev, claims);

  const auto planned_dev = sc::make_owned_node(sc::Site::kRooftop, world, kSeed);
  cal::CalibrationReport planned;
  {
    auto set = pipeline.plan(*planned_dev, claims, planned);
    EXPECT_EQ(set.tasks().size(), pipeline.stage_plan().size());
    set.run_all();
  }
  EXPECT_EQ(0, std::memcmp(&direct.trust.score, &planned.trust.score,
                           sizeof(double)));
  EXPECT_EQ(direct.tv_readings.size(), planned.tv_readings.size());
  EXPECT_EQ(direct.fov.open_sectors.to_string(),
            planned.fov.open_sectors.to_string());
}

// ----------------------------------------------------------------- fleet ----

TEST(FleetExecutor, ZeroNodeFleetIsEmptySummary) {
  const auto world = sc::make_world(kSeed);
  cal::RunConfig run;
  run.pipeline = fast_config();
  cal::FleetCalibrator calibrator(world, run);
  cal::NodeRegistry registry;
  const auto summary = calibrator.run({}, registry);
  EXPECT_EQ(summary.total, 0u);
  EXPECT_EQ(summary.calibrated, 0u);
  EXPECT_EQ(summary.executor.tasks_run, 0u);
  EXPECT_EQ(registry.size(), 0u);
}

TEST(FleetExecutor, SingleThreadBitwiseEqualsDirectPipeline) {
  const auto world = sc::make_world(kSeed);
  cal::CalibrationPipeline pipeline(world, fast_config());

  // Same claims as seeded_fleet builds for node-0 (site kRooftop).
  cal::NodeClaims claims;
  claims.node_id = "node-0";
  claims.claims_outdoor = true;
  claims.claims_omnidirectional = false;
  const auto dev = sc::make_owned_node(sc::Site::kRooftop, world, kSeed);
  const auto direct = pipeline.calibrate(*dev, claims);

  cal::RunConfig run;
  run.pipeline = fast_config();
  run.executor.threads = 1;
  cal::FleetCalibrator calibrator(world, run);
  cal::NodeRegistry registry;
  auto jobs = seeded_fleet(world, 1);
  const auto summary = calibrator.run(std::move(jobs), registry);
  EXPECT_EQ(summary.calibrated, 1u);
  EXPECT_EQ(summary.executor.threads_used, 1u);
  EXPECT_EQ(summary.executor.tasks_stolen, 0u);

  const auto* report = registry.find("node-0");
  ASSERT_NE(report, nullptr);
  EXPECT_EQ(0, std::memcmp(&direct.trust.score, &report->trust.score,
                           sizeof(double)));
}

TEST(FleetExecutor, CancellationLeavesNoOrphanTasks) {
  const auto world = sc::make_world(kSeed);
  cal::RunConfig run;
  run.pipeline = fast_config();
  run.executor.threads = 1;
  cal::FleetConfig cfg;
  cal::FleetCalibrator* target = nullptr;
  cfg.on_progress = [&target](const cal::FleetProgress& p) {
    if (p.completed == 2 && target != nullptr) target->request_cancel();
  };
  cal::FleetCalibrator fleet(world, run, cfg);
  target = &fleet;

  cal::NodeRegistry registry;
  const auto jobs = seeded_fleet(world, 6);
  const auto summary = fleet.run(jobs, registry);
  EXPECT_EQ(summary.calibrated, 2u);
  EXPECT_EQ(summary.skipped, 4u);
  EXPECT_EQ(registry.size(), 2u);
  // No orphans: the graph fully drained — every task (acquire + stages +
  // finalize, per node) executed, skipped nodes' tasks as no-ops.
  const std::size_t specs = fleet.pipeline().stage_plan().size();
  EXPECT_EQ(summary.executor.tasks_run, jobs.size() * (specs + 2));
  EXPECT_EQ(summary.executor.tasks_failed, 0u);
}

TEST(FleetExecutor, QuarantinedStageDoesNotBlockOtherNodes) {
  const auto world = sc::make_world(kSeed);
  cal::RunConfig run;
  run.pipeline = fast_config();
  run.pipeline.retry.max_attempts = 2;
  run.pipeline.retry.quarantine = true;
  run.executor.threads = 4;
  cal::FleetCalibrator calibrator(world, run);

  auto jobs = seeded_fleet(world, 5);
  // One node whose factory throws: its subgraph degrades to no-ops while
  // the other nodes' stages keep flowing through the same worker pool.
  cal::FleetJob doa;
  doa.claims.node_id = "node-doa";
  doa.make_device = []() -> std::unique_ptr<speccal::sdr::Device> {
    throw std::runtime_error("usb enumeration failed");
  };
  jobs.push_back(std::move(doa));

  cal::NodeRegistry registry;
  const auto summary = calibrator.run(std::move(jobs), registry);
  EXPECT_EQ(summary.calibrated, 6u);
  EXPECT_EQ(summary.failed, 1u);
  EXPECT_EQ(summary.executor.tasks_run, 6u * (calibrator.pipeline().stage_plan().size() + 2));
  const auto* broken = registry.find("node-doa");
  ASSERT_NE(broken, nullptr);
  EXPECT_TRUE(broken->aborted());
  for (std::size_t i = 0; i < 5; ++i) {
    const auto* ok = registry.find("node-" + std::to_string(i));
    ASSERT_NE(ok, nullptr);
    EXPECT_FALSE(ok->aborted());
    EXPECT_GT(ok->trust.score, 0.0);
  }
}

// ------------------------------------------------------------- runconfig ----

TEST(RunConfig, ValidationNamesOffendingField) {
  cal::RunConfig run;
  run.pipeline.retry.max_attempts = 0;
  try {
    run.validate();
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(
        std::string(e.what()).find("RunConfig.pipeline.retry.max_attempts"),
        std::string::npos);
  }

  run = {};
  EXPECT_NO_THROW(run.validate());
}

TEST(RunConfig, FleetCtorValidatesAndAppliesThreads) {
  const auto world = sc::make_world(kSeed);
  cal::RunConfig bad;
  bad.pipeline = fast_config();
  bad.pipeline.retry.max_attempts = 0;
  EXPECT_THROW(cal::FleetCalibrator(world, bad), std::invalid_argument);

  cal::RunConfig good;
  good.pipeline = fast_config();
  good.executor.threads = 3;
  cal::FleetCalibrator calibrator(world, good);
  EXPECT_EQ(calibrator.threads(), 3u);
  EXPECT_EQ(calibrator.effective_threads(100), 3u);
}

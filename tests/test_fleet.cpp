// Tests: the parallel fleet calibration engine and the thread-safe
// NodeRegistry. Designed to run clean under ThreadSanitizer (the CI TSan
// job builds exactly this binary).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <sstream>
#include <thread>

#include "calib/fleet.hpp"
#include "scenario/testbed.hpp"

namespace cal = speccal::calib;
namespace sc = speccal::scenario;
namespace sdr = speccal::sdr;

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

/// A device that refuses every tune request (dead front end / wrong
/// daughterboard) but otherwise behaves; exercises tune-failure isolation
/// through the device-agnostic interface.
class UntunableDevice final : public sdr::Device {
 public:
  [[nodiscard]] sdr::DeviceInfo info() const override {
    sdr::DeviceInfo info = sdr::SimulatedSdr::bladerf_like_info();
    info.driver = "untunable";
    return info;
  }
  [[nodiscard]] speccal::geo::Geodetic position() const override {
    return sc::testbed_origin();
  }
  bool tune(double, double) override { return false; }
  void set_gain_mode(sdr::GainMode) override {}
  void set_gain_db(double gain_db) override { gain_db_ = gain_db; }
  [[nodiscard]] double gain_db() const override { return gain_db_; }
  void capture_into(std::span<speccal::dsp::Sample> out) override {
    std::fill(out.begin(), out.end(), speccal::dsp::Sample{});  // silence
    stream_time_s_ += static_cast<double>(out.size()) / 2e6;
  }
  [[nodiscard]] double stream_time_s() const override { return stream_time_s_; }
  [[nodiscard]] double center_freq_hz() const override { return 100e6; }
  [[nodiscard]] double sample_rate_hz() const override { return 2e6; }

 private:
  double gain_db_ = 0.0;
  double stream_time_s_ = 0.0;
};

}  // namespace

TEST(Fleet, ParallelMatchesSerialBitwise) {
  const auto world = sc::make_world(kSeed);

  // Each node's deterministic report JSON (timings excluded).
  auto run_with = [&](unsigned threads) {
    cal::RunConfig run;
    run.pipeline = fast_config();
    run.executor.threads = threads;
    cal::FleetCalibrator calibrator(world, run);
    cal::NodeRegistry registry;
    const auto summary = calibrator.run(seeded_fleet(world, 9), registry);
    EXPECT_EQ(summary.calibrated, 9u);
    EXPECT_EQ(summary.failed, 0u);
    std::vector<std::string> reports;
    registry.for_each_report([&](const cal::CalibrationReport& r) {
      std::ostringstream os;
      r.write_json(os, /*include_stage_metrics=*/false);
      reports.push_back(os.str());
    });
    return reports;
  };

  const auto serial = run_with(1);
  ASSERT_EQ(serial.size(), 9u);
  // Byte for byte, not approximate: same seeds, same devices, no shared
  // state. 8 threads is the oversubscribed case on small hosts.
  for (const unsigned threads : {2u, 4u, 8u}) {
    const auto parallel = run_with(threads);
    ASSERT_EQ(serial.size(), parallel.size()) << threads << " threads";
    for (std::size_t i = 0; i < serial.size(); ++i)
      EXPECT_EQ(serial[i], parallel[i]) << threads << " threads, report " << i;
  }
}

TEST(Fleet, BrokenNodeIsIsolatedNotFatal) {
  const auto world = sc::make_world(kSeed);

  auto jobs = seeded_fleet(world, 4);
  // Node 4: tunes always refused. The model-level survey throws (no sim
  // control), every tv tune fails — but the batch must complete.
  cal::FleetJob broken;
  broken.claims.node_id = "broken-untunable";
  broken.make_device = [] {
    return std::unique_ptr<sdr::Device>(new UntunableDevice);
  };
  jobs.push_back(std::move(broken));
  // Node 5: factory itself explodes.
  cal::FleetJob doa;
  doa.claims.node_id = "broken-doa";
  doa.make_device = []() -> std::unique_ptr<sdr::Device> {
    throw std::runtime_error("usb enumeration failed");
  };
  jobs.push_back(std::move(doa));

  cal::RunConfig run;
  run.pipeline = fast_config();
  run.executor.threads = 3;
  cal::FleetConfig cfg;
  std::atomic<int> progress_calls{0};
  cfg.on_progress = [&](const cal::FleetProgress&) { ++progress_calls; };
  cal::FleetCalibrator calibrator(world, run, cfg);
  cal::NodeRegistry registry;
  const auto summary = calibrator.run(std::move(jobs), registry);

  EXPECT_EQ(summary.total, 6u);
  EXPECT_EQ(summary.calibrated, 6u);  // every node got a report
  EXPECT_EQ(summary.skipped, 0u);
  EXPECT_EQ(progress_calls.load(), 6);
  EXPECT_EQ(registry.size(), 6u);

  // The healthy nodes are untouched by their broken neighbours.
  for (std::size_t i = 0; i < 4; ++i) {
    const auto* report = registry.find("node-" + std::to_string(i));
    ASSERT_NE(report, nullptr);
    EXPECT_FALSE(report->aborted());
    EXPECT_GT(report->trust.score, 0.0);
  }

  // The factory failure is flagged with zero trust and a violation.
  const auto* doa_report = registry.find("broken-doa");
  ASSERT_NE(doa_report, nullptr);
  EXPECT_TRUE(doa_report->aborted());
  EXPECT_NE(doa_report->abort_reason.find("usb enumeration"), std::string::npos);
  EXPECT_EQ(doa_report->trust.score, 0.0);
  EXPECT_GE(doa_report->trust.violations(), 1u);
  EXPECT_EQ(summary.failed, 2u);

  // The untunable node also aborted (link-budget fidelity needs sim
  // control) — and its abort report still ranks below every healthy node.
  const auto* untunable = registry.find("broken-untunable");
  ASSERT_NE(untunable, nullptr);
  EXPECT_TRUE(untunable->aborted());
  const auto ranking = registry.ranked_by_trust();
  EXPECT_EQ(ranking.size(), 6u);
  EXPECT_GT(registry.find(ranking.front())->trust.score, 0.0);

  // Aborted reports still export valid JSON (abort_reason included).
  std::ostringstream os;
  doa_report->write_json(os);
  EXPECT_NE(os.str().find("\"aborted\":true"), std::string::npos);
  EXPECT_NE(os.str().find("usb enumeration"), std::string::npos);
}

TEST(Fleet, UntunableDeviceCompletesUnderWaveformFidelity) {
  // Waveform fidelity works on any Device; refused tunes must degrade to a
  // completed (not aborted) report that the trust layer tears apart.
  const auto world = sc::make_world(kSeed);
  cal::RunConfig run;
  run.pipeline = fast_config();
  run.pipeline.survey.fidelity = cal::Fidelity::kWaveform;
  run.pipeline.survey.duration_s = 0.25;  // keep the waveform window cheap
  run.executor.threads = 1;

  cal::FleetJob job;
  job.claims.node_id = "untunable-waveform";
  job.claims.claims_outdoor = true;
  job.claims.claims_omnidirectional = true;
  job.make_device = [] {
    return std::unique_ptr<sdr::Device>(new UntunableDevice);
  };

  cal::FleetCalibrator calibrator(world, run);
  cal::NodeRegistry registry;
  std::vector<cal::FleetJob> jobs;
  jobs.push_back(std::move(job));
  const auto summary = calibrator.run(std::move(jobs), registry);

  EXPECT_EQ(summary.calibrated, 1u);
  EXPECT_EQ(summary.failed, 0u);
  const auto* report = registry.find("untunable-waveform");
  ASSERT_NE(report, nullptr);
  EXPECT_FALSE(report->aborted());
  // A deaf receiver hears nothing: no receptions, no usable TV channels,
  // and the claimed capabilities come back as violations.
  EXPECT_EQ(report->survey.received_count(), 0u);
  for (const auto& reading : report->tv_readings) EXPECT_FALSE(reading.tune_ok);
  EXPECT_GE(report->trust.violations(), 1u);
  EXPECT_LT(report->trust.score, 70.0);
}

TEST(Fleet, CancellationSkipsQueuedJobs) {
  const auto world = sc::make_world(kSeed);

  // The progress callback cancels the engine it reports on: a batch that
  // stops itself after two nodes.
  cal::FleetCalibrator* self = nullptr;
  cal::RunConfig run;
  run.pipeline = fast_config();
  run.executor.threads = 1;  // deterministic: exactly two nodes complete
  cal::FleetConfig cfg;
  cfg.on_progress = [&self](const cal::FleetProgress& p) {
    if (p.completed == 2) self->request_cancel();
  };
  cal::FleetCalibrator engine(world, run, cfg);
  self = &engine;
  cal::NodeRegistry registry;
  const auto summary = engine.run(seeded_fleet(world, 6), registry);

  EXPECT_EQ(summary.calibrated, 2u);
  EXPECT_EQ(summary.skipped, 4u);
  EXPECT_EQ(registry.size(), 2u);
}

TEST(Fleet, StageMetricsAggregateAcrossFleet) {
  const auto world = sc::make_world(kSeed);
  cal::RunConfig run;
  run.pipeline = fast_config();
  run.executor.threads = 2;
  cal::FleetCalibrator calibrator(world, run);
  cal::NodeRegistry registry;
  const auto summary = calibrator.run(seeded_fleet(world, 6), registry);

  ASSERT_FALSE(summary.stage_stats.rows.empty());
  bool saw_survey = false;
  for (const auto& row : summary.stage_stats.rows) {
    EXPECT_EQ(row.nodes, 6u);
    EXPECT_GE(row.p90_ms, row.p50_ms);
    EXPECT_GE(row.max_ms, row.p90_ms);
    if (row.stage == cal::Stage::kSurvey) {
      saw_survey = true;
      EXPECT_GT(row.frames_decoded, 0u);
    }
  }
  EXPECT_TRUE(saw_survey);

  // Per-node metrics surface in the JSON export.
  std::ostringstream os;
  registry.find("node-0")->write_json(os);
  EXPECT_NE(os.str().find("\"stage_metrics\""), std::string::npos);
  EXPECT_NE(os.str().find("\"total_wall_ms\""), std::string::npos);
}

TEST(Fleet, RegistryHammeredFromManyThreads) {
  // Writers record fresh reports while readers rank, query, find and
  // iterate; run under TSan in CI to prove the locking.
  cal::NodeRegistry registry;
  constexpr int kWriters = 4;
  constexpr int kReaders = 4;
  constexpr int kReportsPerWriter = 50;
  std::atomic<bool> stop{false};

  auto make_report = [](int writer, int i) {
    cal::CalibrationReport report;
    report.claims.node_id =
        "w" + std::to_string(writer) + "-" + std::to_string(i % 10);
    report.trust.score = static_cast<double>((writer * 31 + i) % 101);
    return report;
  };

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kReportsPerWriter; ++i)
        registry.record(make_report(w, i));
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      std::size_t touched = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto ranked = registry.ranked_by_trust();
        for (const auto& id : ranked)
          if (registry.find(id) != nullptr) ++touched;
        (void)registry.usable_for(700e6, std::nullopt);
        registry.for_each_report(
            [&](const cal::CalibrationReport& rep) { touched += rep.aborted(); });
        (void)registry.size();
      }
      EXPECT_GE(touched, 0u);
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[static_cast<std::size_t>(w)].join();
  stop.store(true);
  for (std::size_t i = kWriters; i < threads.size(); ++i) threads[i].join();

  EXPECT_EQ(registry.size(), kWriters * 10u);  // ids wrap modulo 10
  const auto ranked = registry.ranked_by_trust();
  EXPECT_EQ(ranked.size(), registry.size());
}

// End-to-end calibration pipeline and node registry — the paper's §5
// "end-to-end system", assembled from the building blocks:
//   ADS-B survey -> FoV estimate
//   cellular scan + TV sweep -> frequency response
//   fuse -> installation classification -> claim verification -> trust
// One CalibrationReport per node; a NodeRegistry ranks the fleet.
//
// The pipeline exposes two granularities:
//   calibrate() — run all stages serially.
//   plan()      — decompose one node's calibration into a NodeTaskSet of
//     independent stage tasks with declared dependencies (stage_plan()),
//     which the fleet engine wires into a TaskGraph so a StageExecutor can
//     interleave stages across nodes. Both paths execute the same stage
//     bodies; calibrate() is literally plan()+run_all().
#pragma once

#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "calib/classify.hpp"
#include "calib/fov.hpp"
#include "calib/freqresp.hpp"
#include "calib/hardware.hpp"
#include "calib/lo_calibration.hpp"
#include "calib/metrics.hpp"
#include "calib/retry.hpp"
#include "calib/survey.hpp"
#include "calib/trust.hpp"
#include "cellular/scanner.hpp"
#include "geo/wgs84.hpp"
#include "sdr/emitter.hpp"
#include "tv/power_meter.hpp"

namespace speccal::obs {
class TraceSession;
}

namespace speccal::calib {

/// Everything that exists around the sensors (shared across nodes).
struct WorldModel {
  std::shared_ptr<const airtraffic::SkySimulator> sky;
  double ground_truth_latency_s = 10.0;
  cellular::CellDatabase cells;
  /// Broadcast TV emitters (same configs used to build device sources).
  std::vector<sdr::EmitterConfig> tv_channels;
  /// Seed of the *world* (transmitters, sky). Node factories derive emitter
  /// waveform RNGs from this — never from a per-node seed — so every node
  /// hears the same physical transmitters and fleet-consensus residuals
  /// compare like with like (scenario::make_world threads it through).
  std::uint64_t seed = 0;
};

/// One entry of the anomaly-scan watchlist: a band the scan stage tunes,
/// captures and summarizes so the fleet-consensus anomaly detector can
/// compare it across nodes. The calibration bands (TV channels) come free
/// from the tv_sweep stage; the watchlist covers bands calibration never
/// captures at RF — ADS-B 1090 MHz and the cellular downlink centers.
struct WatchBand {
  std::string label;            // band id, e.g. "adsb-1090" or "cell-2145"
  double center_hz = 0.0;
  double sample_rate_hz = 2e6;
  double capture_duration_s = 0.02;
};

/// Config for the optional kAnomalyScan stage. Disabled by default: the
/// stage captures extra spectrum, so plain calibration runs stay bitwise
/// identical to builds that predate it.
struct AnomalyScanConfig {
  bool enabled = false;
  std::vector<WatchBand> bands;

  /// Throws std::invalid_argument naming the field (shared validation
  /// convention, DESIGN.md §13). Only checked when enabled.
  void validate() const;
};

/// Per-band summary captured by the anomaly scan stage.
struct WatchObservation {
  std::string label;
  double center_hz = 0.0;
  double power_dbfs = -200.0;
  /// Normalized lag-1 autocorrelation of the capture (dsp::lag_autocorrelation)
  /// — the occupancy second opinion: ~0 noise/wideband, ~1 CW.
  double autocorr_rho = 0.0;
  bool tune_ok = false;
};

/// In-memory result of the anomaly scan stage. Deliberately NOT part of the
/// report's JSON export: clean-run reports must stay byte-identical whether
/// or not the scan is armed (the detector annotates flagged nodes only).
struct AnomalyScanResult {
  bool ran = false;
  /// Receiver position, recorded so the detector can weight consensus
  /// neighbors geographically without a side-channel lookup.
  geo::Geodetic position;
  std::vector<WatchObservation> bands;
};

/// What a node's calibration may vary. Every other stage setting is a
/// constant of the stage that reads it, so one recipe judges every node.
struct PipelineConfig {
  SurveyConfig survey;
  /// Per-stage retry/backoff/deadline/quarantine policy. The default is a
  /// strict passthrough (one attempt, exceptions propagate — the fleet
  /// engine then aborts the node); chaos runs and hardware deployments
  /// raise max_attempts and enable quarantine.
  RetryPolicy retry;
  /// Optional anomaly-detection watchlist sweep (off by default; appended
  /// after every other device stage so it never perturbs calibration
  /// captures). scenario::standard_watchlist() fills the testbed bands.
  AnomalyScanConfig anomaly_scan;
};

/// Complete evaluation of one node.
struct CalibrationReport {
  NodeClaims claims;
  SurveyResult survey;
  FovEstimate fov;
  std::vector<cellular::CellMeasurement> cell_scan;
  std::vector<tv::ChannelPowerReading> tv_readings;
  FrequencyResponseReport frequency_response;
  Classification classification;
  TrustReport trust;
  HardwareDiagnosis hardware;
  LoCalibrationResult lo_calibration;
  /// Watchlist band summaries for the anomaly detector (in-memory only —
  /// never serialized, see AnomalyScanResult).
  AnomalyScanResult anomaly_scan;
  /// Where each stage's wall time / sample budget went.
  StageMetrics metrics;
  /// Per-stage fault history (retries, quarantines). Empty for a clean run;
  /// a stage only appears here when it failed at least once, so fault-free
  /// reports are byte-identical whether or not retry is enabled.
  std::vector<FaultRecord> fault_records;
  /// Non-empty when the run aborted partway (device threw, tune storm, ...);
  /// fields populated before the abort point remain valid. The fleet engine
  /// fills this so one broken node never takes down a batch.
  std::string abort_reason;

  [[nodiscard]] bool aborted() const noexcept { return !abort_reason.empty(); }

  /// True when at least one stage was quarantined (persistent fault or
  /// deadline expiry) — the report is valid but degraded.
  [[nodiscard]] bool quarantined() const noexcept {
    for (const FaultRecord& fr : fault_records)
      if (fr.outcome != FaultOutcome::kRecovered) return true;
    return false;
  }

  /// Machine-readable export for downstream tooling. With
  /// `include_stage_metrics` false the wall-clock stage timings are
  /// omitted, leaving only deterministic measurement content — two runs
  /// over the same samples then serialize byte-identically, which is what
  /// the decode farm's float32 round-trip gate compares.
  void write_json(std::ostream& os, bool include_stage_metrics = true) const;
};

/// One entry of CalibrationPipeline::stage_plan(): a stage the pipeline
/// will run for the current config, its declared prerequisites, and whether
/// it touches the device. Stages with `uses_device` are additionally
/// serialized against each other by the fleet engine (sdr::Device is not
/// thread-safe), in declaration order.
struct StageSpec {
  Stage stage{};
  bool uses_device = false;
  std::vector<Stage> deps;
};

class CalibrationPipeline;

/// One node's calibration, decomposed into runnable stage tasks. Created by
/// CalibrationPipeline::plan(); move-only (tasks capture the internal
/// context by pointer). Run every task (in any order consistent with
/// stage_plan() dependencies — run_all() does it serially), then call
/// finalize() exactly once to merge fault records and apply the
/// quarantine-to-trust feedback. The device, report and trace session given
/// to plan() must outlive the task set.
class NodeTaskSet {
 public:
  struct Task {
    Stage stage{};
    std::function<void()> run;
  };

  NodeTaskSet(NodeTaskSet&&) noexcept;
  NodeTaskSet& operator=(NodeTaskSet&&) noexcept;
  NodeTaskSet(const NodeTaskSet&) = delete;
  NodeTaskSet& operator=(const NodeTaskSet&) = delete;
  ~NodeTaskSet();

  [[nodiscard]] const std::vector<Task>& tasks() const noexcept { return tasks_; }

  /// Run every task in declaration order (the serial stage order), then
  /// finalize. Exceptions propagate after a merge-only finalize, so fault
  /// records gathered before the abort survive in the report.
  void run_all();

  /// Merge per-stage fault records into the report (stage-enum order, same
  /// as the serial pipeline appended them) and — unless `aborted` — apply
  /// the quarantine trust feedback. Call exactly once, after every task ran
  /// (or after deciding to abandon the node).
  void finalize(bool aborted = false);

 private:
  friend class CalibrationPipeline;
  struct Context;
  NodeTaskSet();

  std::unique_ptr<Context> ctx_;
  std::vector<Task> tasks_;
};

class CalibrationPipeline {
 public:
  CalibrationPipeline(WorldModel world, PipelineConfig config = {});

  /// Run the full evaluation through the device-agnostic interface. The
  /// device must already carry the world's signal sources (simulation:
  /// ADS-B sky + TV emitters) or receive them off the air (hardware).
  /// When `trace` is non-null, every stage emits one Chrome-trace span
  /// (tagged with the node id) into the session; the report's StageMetrics
  /// are a view over the same clock readings.
  [[nodiscard]] CalibrationReport calibrate(
      sdr::Device& device, const NodeClaims& claims,
      obs::TraceSession* trace = nullptr) const;

  /// Decompose one node's calibration into stage tasks. Resets `report`,
  /// records the claims, and runs the (cheap) environment preamble
  /// immediately; the returned tasks carry the per-stage work. Tasks for
  /// the same node must respect stage_plan() dependencies but may otherwise
  /// run on any thread; tasks of *different* plans are fully independent.
  /// `device`, `report` and `trace` must outlive the returned set.
  [[nodiscard]] NodeTaskSet plan(sdr::Device& device, const NodeClaims& claims,
                                 CalibrationReport& report,
                                 obs::TraceSession* trace = nullptr) const;

  /// The stages plan() will emit for this config, in serial execution
  /// order, with their dependencies. Mirrors the tasks of any plan() made
  /// with the same config (index k of stage_plan() describes task k).
  [[nodiscard]] std::vector<StageSpec> stage_plan() const;

  [[nodiscard]] const WorldModel& world() const noexcept { return world_; }

 private:
  WorldModel world_;
  PipelineConfig config_;
};

/// Fleet bookkeeping: stores reports, ranks nodes by trust, answers
/// "which nodes can monitor band X from direction Y" queries.
///
/// Thread-safe: all members take an internal lock, so fleet workers can
/// record results while readers query. Query methods deliberately return
/// snapshot *copies* of the id lists — a view would dangle the moment
/// another thread records — so hold the result, not the registry, in loops.
class NodeRegistry {
 public:
  NodeRegistry() = default;

  /// Takes the report by value; move in to avoid the copy.
  void record(CalibrationReport report);

  /// Pointer into the registry, or nullptr. Stable across later record()
  /// calls (std::map nodes don't move) *except* re-recording the same id,
  /// which replaces the pointee. Don't cache across re-calibrations.
  [[nodiscard]] const CalibrationReport* find(const std::string& node_id) const noexcept;

  /// Node ids ordered by descending trust score (snapshot copy).
  [[nodiscard]] std::vector<std::string> ranked_by_trust() const;

  /// Nodes whose calibration shows `freq_hz` usable and (optionally) the
  /// azimuth open (snapshot copy).
  [[nodiscard]] std::vector<std::string> usable_for(double freq_hz,
                                                    std::optional<double> azimuth_deg) const;

  /// Visit every report (id order) under the registry lock — replaces
  /// find-per-id loops. Don't call registry methods from `fn` (deadlock).
  void for_each_report(const std::function<void(const CalibrationReport&)>& fn) const;

  /// Mutable visit, id order, under the registry lock — how the
  /// HealthMonitor merges health findings into flagged reports. Same rule
  /// as for_each_report: don't call registry methods from `fn`.
  void for_each_report_mutable(const std::function<void(CalibrationReport&)>& fn);

  [[nodiscard]] std::size_t size() const noexcept;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, CalibrationReport> reports_;
};

}  // namespace speccal::calib

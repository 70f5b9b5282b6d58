// Lightweight stage-timing instrumentation for the calibration pipeline.
//
// Every calibration run records, per pipeline stage, the wall time spent,
// the number of I/Q samples captured, and the number of frames decoded.
// One `StageMetrics` travels inside each `CalibrationReport` (and its JSON
// export); `aggregate_stage_metrics` folds a fleet's worth of them into
// per-stage percentiles so `fleet_audit` and the scaling bench can show
// where calibration time actually goes.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace speccal::util {
class JsonWriter;
}
namespace speccal::obs {
class TraceSession;
}

namespace speccal::calib {

/// Pipeline stages in execution order (§5 end-to-end system).
enum class Stage {
  kSurvey,       // ADS-B directional survey
  kFov,          // field-of-view estimation
  kCellScan,     // cellular RSRP scan
  kTvSweep,      // broadcast TV power sweep
  kFuse,         // frequency response + classification + trust
  kLoCal,        // reference-oscillator calibration
  kAnomalyScan,  // watchlist band sweep feeding the anomaly detector
};
inline constexpr std::size_t kStageCount = 7;

[[nodiscard]] const char* to_string(Stage stage) noexcept;

/// What one stage of one node's calibration cost.
struct StageSample {
  double wall_ms = 0.0;
  std::uint64_t samples_captured = 0;
  std::uint64_t frames_decoded = 0;
  bool ran = false;
};

/// Per-node instrumentation record (one per CalibrationReport).
struct StageMetrics {
  std::array<StageSample, kStageCount> stages{};

  [[nodiscard]] StageSample& at(Stage stage) noexcept {
    return stages[static_cast<std::size_t>(stage)];
  }
  [[nodiscard]] const StageSample& at(Stage stage) const noexcept {
    return stages[static_cast<std::size_t>(stage)];
  }

  [[nodiscard]] double total_wall_ms() const noexcept;

  /// Emits the "stage_metrics" value (an object) on an open writer; the
  /// caller provides the surrounding key.
  void write_json(util::JsonWriter& w) const;
};

/// RAII stopwatch: records wall time into a stage sample on destruction
/// (or at an explicit stop()). The single source of truth for stage timing:
/// one steady_clock read pair feeds the StageSample, the per-stage
/// histogram in obs::Registry::global() (speccal_calib_stage_<stage>_ms),
/// and — when a trace session is attached — the stage's Chrome-trace span,
/// so StageMetrics is a per-run view over the same observations the
/// observability layer exports.
///
/// Exception-safe: the destructor records on unwind too (a device that
/// throws mid-stage still leaves its partial wall time in the report), and
/// all timing uses std::chrono::steady_clock — wall-clock time never enters
/// a duration.
class StageTimer {
 public:
  /// `trace` may be null (no span). `node_id` tags the span's args; it is
  /// only copied when a session is attached.
  StageTimer(StageMetrics& metrics, Stage stage,
             obs::TraceSession* trace = nullptr,
             std::string_view node_id = {});
  ~StageTimer();

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

  /// Stop early and record; idempotent, the destructor then does nothing.
  void stop() noexcept;

 private:
  StageMetrics& metrics_;
  Stage stage_;
  obs::TraceSession* trace_;
  std::string node_id_;
  std::chrono::steady_clock::time_point start_;
  bool stopped_ = false;
};

/// Fleet-wide aggregation of per-node stage timings.
struct FleetStageStats {
  struct Row {
    Stage stage{};
    std::size_t nodes = 0;          // nodes where the stage ran
    double p50_ms = 0.0;
    double p90_ms = 0.0;
    double max_ms = 0.0;
    double mean_ms = 0.0;
    std::uint64_t samples_captured = 0;  // fleet total
    std::uint64_t frames_decoded = 0;    // fleet total
  };
  std::vector<Row> rows;  // one per stage that ran on >= 1 node
};

[[nodiscard]] FleetStageStats aggregate_stage_metrics(
    const std::vector<const StageMetrics*>& fleet);

}  // namespace speccal::calib

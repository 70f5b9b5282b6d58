#include "calib/metrics.hpp"

#include <algorithm>
#include <array>
#include <chrono>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"

namespace speccal::calib {

namespace {

/// One histogram per pipeline stage in the global registry
/// (speccal_calib_stage_<stage>_ms — naming convention DESIGN.md §10).
obs::Histogram& stage_histogram(Stage stage) {
  static std::array<obs::Histogram*, kStageCount>* hists = [] {
    auto* out = new std::array<obs::Histogram*, kStageCount>();
    for (std::size_t i = 0; i < kStageCount; ++i)
      (*out)[i] = &obs::Registry::global().histogram(
          std::string("speccal_calib_stage_") +
              to_string(static_cast<Stage>(i)) + "_ms",
          obs::default_duration_bounds_ms());
    return out;
  }();
  return *(*hists)[static_cast<std::size_t>(stage)];
}

/// Nearest-rank percentile over a sorted sample set.
double percentile(const std::vector<double>& sorted, double q) noexcept {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

}  // namespace

const char* to_string(Stage stage) noexcept {
  switch (stage) {
    case Stage::kSurvey: return "survey";
    case Stage::kFov: return "fov";
    case Stage::kCellScan: return "cell_scan";
    case Stage::kTvSweep: return "tv_sweep";
    case Stage::kFuse: return "fuse";
    case Stage::kLoCal: return "lo_calibration";
    case Stage::kAnomalyScan: return "anomaly_scan";
  }
  return "?";
}

double StageMetrics::total_wall_ms() const noexcept {
  double total = 0.0;
  for (const auto& s : stages) total += s.wall_ms;
  return total;
}

void StageMetrics::write_json(util::JsonWriter& w) const {
  w.begin_object();
  w.key("total_wall_ms");
  w.value(total_wall_ms());
  w.key("stages");
  w.begin_array();
  for (std::size_t i = 0; i < kStageCount; ++i) {
    const StageSample& s = stages[i];
    if (!s.ran) continue;
    w.begin_object();
    w.key("stage");
    w.value(to_string(static_cast<Stage>(i)));
    w.key("wall_ms");
    w.value(s.wall_ms);
    w.key("samples_captured");
    w.value(static_cast<std::int64_t>(s.samples_captured));
    w.key("frames_decoded");
    w.value(static_cast<std::int64_t>(s.frames_decoded));
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

StageTimer::StageTimer(StageMetrics& metrics, Stage stage,
                       obs::TraceSession* trace, std::string_view node_id)
    : metrics_(metrics),
      stage_(stage),
      trace_(trace),
      node_id_(trace != nullptr ? node_id : std::string_view{}),
      start_(std::chrono::steady_clock::now()) {}

StageTimer::~StageTimer() {
  // Record on unwind too; stop() swallows nothing today, but a destructor
  // that could propagate during stack unwinding would terminate.
  stop();
}

void StageTimer::stop() noexcept {
  if (stopped_) return;
  stopped_ = true;
  const auto end = std::chrono::steady_clock::now();
  const double wall_ms =
      std::chrono::duration<double, std::milli>(end - start_).count();
  StageSample& s = metrics_.at(stage_);
  s.wall_ms += wall_ms;
  s.ran = true;
  stage_histogram(stage_).observe(wall_ms);
  if (trace_ != nullptr) {
    // Same clock readings as the sample above: the trace span, the
    // histogram observation and the report wall time can never disagree.
    try {
      std::vector<obs::SpanArg> args;
      if (!node_id_.empty()) args.push_back(obs::SpanArg::str("node", node_id_));
      trace_->record_complete(to_string(stage_), "stage", start_, end,
                              std::move(args));
    } catch (...) {
      // Tracing must never take down a calibration (allocation failure).
    }
  }
}

FleetStageStats aggregate_stage_metrics(
    const std::vector<const StageMetrics*>& fleet) {
  FleetStageStats out;
  for (std::size_t i = 0; i < kStageCount; ++i) {
    std::vector<double> walls;
    FleetStageStats::Row row;
    row.stage = static_cast<Stage>(i);
    for (const StageMetrics* m : fleet) {
      if (m == nullptr) continue;
      const StageSample& s = m->stages[i];
      if (!s.ran) continue;
      walls.push_back(s.wall_ms);
      row.samples_captured += s.samples_captured;
      row.frames_decoded += s.frames_decoded;
    }
    if (walls.empty()) continue;
    std::sort(walls.begin(), walls.end());
    row.nodes = walls.size();
    row.p50_ms = percentile(walls, 0.50);
    row.p90_ms = percentile(walls, 0.90);
    row.max_ms = walls.back();
    double sum = 0.0;
    for (double w : walls) sum += w;
    row.mean_ms = sum / static_cast<double>(walls.size());
    out.rows.push_back(row);
  }
  return out;
}

}  // namespace speccal::calib

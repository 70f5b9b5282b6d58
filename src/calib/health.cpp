#include "calib/health.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <ostream>
#include <sstream>

#include "obs/metrics.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace speccal::calib {

const NodeHealth* HealthReport::find(const std::string& node_id) const noexcept {
  for (const NodeHealth& n : nodes)
    if (n.node_id == node_id) return &n;
  return nullptr;
}

void HealthReport::write_json(std::ostream& os) const {
  util::JsonWriter w(os);
  w.begin_object();
  w.key("schema_version");
  w.value(std::int64_t{1});
  w.key("unhealthy_threshold");
  w.value(unhealthy_threshold);
  w.key("unhealthy_count");
  w.value(static_cast<std::int64_t>(unhealthy_count));
  w.key("nodes");
  w.begin_array();
  for (const NodeHealth& n : nodes) {
    w.begin_object();
    w.key("node");
    w.value(n.node_id);
    w.key("score");
    w.value(n.score);
    w.key("unhealthy");
    w.value(n.unhealthy);
    w.key("aborted");
    w.value(n.aborted);
    w.key("recovered_stages");
    w.value(static_cast<std::int64_t>(n.recovered_stages));
    w.key("quarantined_stages");
    w.value(static_cast<std::int64_t>(n.quarantined_stages));
    w.key("crc_repair_rate");
    w.value(n.crc_repair_rate);
    w.key("divergence_db");
    w.value(n.divergence_db);
    w.key("penalties");
    w.begin_object();
    w.key("fault");
    w.value(n.fault_penalty);
    w.key("crc");
    w.value(n.crc_penalty);
    w.key("divergence");
    w.value(n.divergence_penalty);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << "\n";
}

namespace {

constexpr double kRetryPenalty = 20.0;
constexpr double kQuarantinePenalty = 45.0;
constexpr double kAbortPenalty = 100.0;
constexpr double kCrcPenaltyMax = 8.0;
constexpr double kDivergencePenaltyMax = 7.0;
/// Mean |residual| vs the fleet median [dB] at which the divergence
/// penalty saturates.
constexpr double kDivergenceFullScaleDb = 12.0;
/// Scores strictly below this are flagged unhealthy. It sits on the
/// separation gap: clean floor (85) > threshold-eligible fault ceiling (80).
constexpr double kUnhealthyThreshold = 85.0;
/// Minimum nodes reporting a band before its median counts as consensus.
constexpr std::size_t kMinBandPopulation = 3;

// The separation guarantee (header): any faulted node must score strictly
// below any clean node, so the clean-node penalty ceiling has to stay
// under the smallest fault penalty, and the threshold has to sit between.
static_assert(kCrcPenaltyMax + kDivergencePenaltyMax < kRetryPenalty);
static_assert(100.0 - kRetryPenalty < kUnhealthyThreshold &&
              kUnhealthyThreshold <= 100.0 - kCrcPenaltyMax - kDivergencePenaltyMax);

double median_of(std::vector<double>& values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace

HealthReport HealthMonitor::evaluate(const NodeRegistry& registry) const {
  HealthReport out;
  out.unhealthy_threshold = kUnhealthyThreshold;

  // Pass 1: fleet consensus — per-RF-channel median TV power across every
  // node that tuned the channel successfully.
  std::map<int, std::vector<double>> band_powers;
  registry.for_each_report([&](const CalibrationReport& report) {
    for (const auto& reading : report.tv_readings)
      if (reading.tune_ok) band_powers[reading.rf_channel].push_back(reading.power_dbfs);
  });
  std::map<int, double> band_median;
  for (auto& [channel, powers] : band_powers)
    if (powers.size() >= kMinBandPopulation)
      band_median[channel] = median_of(powers);

  // Pass 2: score each node against its fault history and the consensus.
  registry.for_each_report([&](const CalibrationReport& report) {
    NodeHealth h;
    h.node_id = report.claims.node_id;
    h.aborted = report.aborted();
    for (const FaultRecord& fr : report.fault_records) {
      if (fr.outcome == FaultOutcome::kRecovered) ++h.recovered_stages;
      else ++h.quarantined_stages;
    }
    if (report.survey.total_frames_decoded > 0)
      h.crc_repair_rate =
          static_cast<double>(report.survey.frames_crc_repaired) /
          static_cast<double>(report.survey.total_frames_decoded);
    double residual_sum = 0.0;
    std::size_t residual_bands = 0;
    for (const auto& reading : report.tv_readings) {
      if (!reading.tune_ok) continue;
      const auto it = band_median.find(reading.rf_channel);
      if (it == band_median.end()) continue;
      residual_sum += std::abs(reading.power_dbfs - it->second);
      ++residual_bands;
    }
    if (residual_bands > 0)
      h.divergence_db = residual_sum / static_cast<double>(residual_bands);

    if (!report.fault_records.empty()) h.fault_penalty += kRetryPenalty;
    h.fault_penalty +=
        kQuarantinePenalty * static_cast<double>(h.quarantined_stages);
    if (h.aborted) h.fault_penalty += kAbortPenalty;
    h.crc_penalty = kCrcPenaltyMax * std::clamp(h.crc_repair_rate, 0.0, 1.0);
    h.divergence_penalty =
        kDivergencePenaltyMax *
        std::clamp(h.divergence_db / kDivergenceFullScaleDb, 0.0, 1.0);

    h.score = std::max(
        0.0, 100.0 - h.fault_penalty - h.crc_penalty - h.divergence_penalty);
    h.unhealthy = h.score < kUnhealthyThreshold;
    if (h.unhealthy) ++out.unhealthy_count;
    out.nodes.push_back(std::move(h));
  });

  // Worst-first; node id tiebreak keeps the export deterministic.
  std::sort(out.nodes.begin(), out.nodes.end(),
            [](const NodeHealth& a, const NodeHealth& b) {
              if (a.score != b.score) return a.score < b.score;
              return a.node_id < b.node_id;
            });
  return out;
}

void HealthMonitor::publish(const HealthReport& health,
                            obs::Registry& registry) const {
  for (const NodeHealth& n : health.nodes)
    registry.gauge("speccal_node_health", {{"node", n.node_id}}).set(n.score);
  registry.gauge("speccal_health_unhealthy_nodes")
      .set(static_cast<double>(health.unhealthy_count));
}

void HealthMonitor::annotate(NodeRegistry& registry,
                             const HealthReport& health) const {
  registry.for_each_report_mutable([&](CalibrationReport& report) {
    const NodeHealth* h = health.find(report.claims.node_id);
    if (h == nullptr || !h->unhealthy) return;
    std::ostringstream oss;
    oss << "health score " << util::format_fixed(h->score, 1) << " below "
        << util::format_fixed(health.unhealthy_threshold, 1) << " ("
        << h->quarantined_stages << " quarantined stage(s), "
        << h->recovered_stages << " recovered, divergence "
        << util::format_fixed(h->divergence_db, 2) << " dB)";
    report.trust.findings.push_back({Severity::kWarning, oss.str()});
  });
}

}  // namespace speccal::calib

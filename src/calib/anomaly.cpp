#include "calib/anomaly.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <ostream>
#include <sstream>

#include "geo/wgs84.hpp"
#include "obs/eventlog.hpp"
#include "obs/metrics.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace speccal::calib {

const char* to_string(AnomalyKind kind) noexcept {
  switch (kind) {
    case AnomalyKind::kWidebandJammer: return "wideband-jammer";
    case AnomalyKind::kSpuriousEmitter: return "spurious-emitter";
    case AnomalyKind::kIntermodPair: return "intermod-pair";
    case AnomalyKind::kGhostAdsb: return "ghost-adsb";
    case AnomalyKind::kRoguePss: return "rogue-pss";
  }
  return "?";
}

const AnomalyFinding* AnomalyReport::find(
    const std::string& node_id) const noexcept {
  for (const AnomalyFinding& f : findings)
    if (f.node_id == node_id) return &f;
  return nullptr;
}

bool AnomalyReport::flagged(const std::string& node_id) const noexcept {
  return find(node_id) != nullptr;
}

void AnomalyReport::write_json(std::ostream& os) const {
  util::JsonWriter w(os);
  w.begin_object();
  w.key("schema_version");
  w.value(std::int64_t{1});
  w.key("residual_threshold_db");
  w.value(residual_threshold_db);
  w.key("geo_weighted");
  w.value(geo_weighted);
  w.key("nodes_evaluated");
  w.value(static_cast<std::int64_t>(nodes_evaluated));
  w.key("bands_evaluated");
  w.value(static_cast<std::int64_t>(bands_evaluated));
  w.key("flagged_nodes");
  w.value(static_cast<std::int64_t>(flagged_nodes));
  w.key("findings");
  w.begin_array();
  for (const AnomalyFinding& f : findings) {
    w.begin_object();
    w.key("node");
    w.value(f.node_id);
    w.key("kind");
    w.value(to_string(f.kind));
    w.key("worst_residual_db");
    w.value(f.worst_residual_db);
    w.key("max_rho");
    w.value(f.max_rho);
    w.key("bands");
    w.begin_array();
    for (const std::string& b : f.bands) w.value(b);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << "\n";
}

namespace {

/// One-sided residual above the neighbor consensus that flags a band.
constexpr double kResidualThresholdDb = 6.0;
/// Gaussian distance kernel scale for neighbor weighting [m]. The
/// testbed's sites sit 22-25 m apart; sigma = 5 makes co-sited peers
/// (shared multipath environment) dominate the consensus so the large
/// rooftop-vs-indoor propagation spread never reads as an anomaly.
constexpr double kDistanceSigmaM = 5.0;
/// Minimum nodes reporting a band before its consensus counts
/// (HealthMonitor convention), and minimum summed neighbor weight per
/// node when geographic weighting is active.
constexpr std::size_t kMinBandPopulation = 3;
constexpr double kMinNeighborWeight = 1.5;
/// Lag-1 |rho| at or above which a flagged TV band counts as coherent.
constexpr double kCwRhoThreshold = 0.6;
/// Hot TV channels at or above which a node types as a wideband jammer.
constexpr std::size_t kJammerMinBands = 3;

/// Which typing group a band key belongs to.
enum class BandGroup { kTv, kAdsb, kCell };

struct BandObs {
  std::string key;
  BandGroup group = BandGroup::kTv;
  double power_dbfs = -200.0;
  double rho = 0.0;
};

struct NodeData {
  std::string id;
  geo::Geodetic position;
  bool has_position = false;
  std::vector<BandObs> bands;
};

BandGroup classify_watch(const std::string& label) {
  if (label.rfind("adsb", 0) == 0) return BandGroup::kAdsb;
  if (label.rfind("cell", 0) == 0) return BandGroup::kCell;
  // Unknown watch labels participate like a narrow TV-style band.
  return BandGroup::kTv;
}

/// Weighted median of (value, weight) pairs: the smallest value whose
/// cumulative weight reaches half the total. Reduces to the lower-median
/// for uniform weights, which is all the determinism the residual test
/// needs (clean same-site peers are byte-identical anyway).
double weighted_median(std::vector<std::pair<double, double>>& entries) {
  std::sort(entries.begin(), entries.end());
  double total = 0.0;
  for (const auto& [value, weight] : entries) total += weight;
  double cum = 0.0;
  for (const auto& [value, weight] : entries) {
    cum += weight;
    if (cum >= 0.5 * total) return value;
  }
  return entries.back().first;
}

struct FlaggedBand {
  const BandObs* obs = nullptr;
  double residual_db = 0.0;
};

}  // namespace

AnomalyReport AnomalyDetector::evaluate(const NodeRegistry& registry) const {
  AnomalyReport out;
  out.residual_threshold_db = kResidualThresholdDb;

  // Pass 1: gather every node's measured bands — the TV sweep plus the
  // anomaly scan's watchlist — and its scan position.
  std::vector<NodeData> nodes;
  registry.for_each_report([&](const CalibrationReport& report) {
    NodeData node;
    node.id = report.claims.node_id;
    if (report.anomaly_scan.ran) {
      node.position = report.anomaly_scan.position;
      node.has_position = true;
    }
    for (const auto& reading : report.tv_readings) {
      if (!reading.tune_ok) continue;
      node.bands.push_back({"tv:" + std::to_string(reading.rf_channel),
                            BandGroup::kTv, reading.power_dbfs,
                            reading.autocorr_rho});
    }
    for (const auto& band : report.anomaly_scan.bands) {
      if (!band.tune_ok) continue;
      node.bands.push_back({"watch:" + band.label, classify_watch(band.label),
                            band.power_dbfs, band.autocorr_rho});
    }
    nodes.push_back(std::move(node));
  });
  out.nodes_evaluated = nodes.size();
  if (nodes.size() < 2) return out;

  out.geo_weighted = std::all_of(nodes.begin(), nodes.end(),
                                 [](const NodeData& n) { return n.has_position; });

  // Per-band fleet samples (node index, power), population-gated.
  std::map<std::string, std::vector<std::pair<std::size_t, double>>> band_samples;
  for (std::size_t i = 0; i < nodes.size(); ++i)
    for (const BandObs& b : nodes[i].bands)
      band_samples[b.key].push_back({i, b.power_dbfs});
  for (auto it = band_samples.begin(); it != band_samples.end();)
    it = it->second.size() < kMinBandPopulation
             ? band_samples.erase(it)
             : std::next(it);
  out.bands_evaluated = band_samples.size();

  // Pairwise distance -> neighbor weight (computed lazily per node pair).
  const double two_sigma_sq =
      2.0 * kDistanceSigmaM * kDistanceSigmaM;
  const auto neighbor_weight = [&](std::size_t i, std::size_t j) {
    if (!out.geo_weighted) return 1.0;
    const double d = geo::slant_range_m(nodes[i].position, nodes[j].position);
    return std::exp(-(d * d) / two_sigma_sq);
  };

  // Pass 2: each node's bands against the neighbor-weighted consensus of
  // everyone else, then type the flagged set.
  std::vector<std::pair<double, double>> entries;  // (power, weight) scratch
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    std::vector<FlaggedBand> tv, adsb, cell;
    for (const BandObs& b : nodes[i].bands) {
      const auto it = band_samples.find(b.key);
      if (it == band_samples.end()) continue;
      entries.clear();
      double total_weight = 0.0;
      for (const auto& [j, power] : it->second) {
        if (j == i) continue;
        const double w = neighbor_weight(i, j);
        entries.push_back({power, w});
        total_weight += w;
      }
      if (entries.empty()) continue;
      if (out.geo_weighted && total_weight < kMinNeighborWeight)
        continue;  // node too isolated for a trustworthy consensus
      const double consensus = weighted_median(entries);
      const double residual = b.power_dbfs - consensus;
      if (residual < kResidualThresholdDb) continue;
      FlaggedBand flagged{&b, residual};
      switch (b.group) {
        case BandGroup::kTv: tv.push_back(flagged); break;
        case BandGroup::kAdsb: adsb.push_back(flagged); break;
        case BandGroup::kCell: cell.push_back(flagged); break;
      }
    }
    if (tv.empty() && adsb.empty() && cell.empty()) continue;

    const auto make_finding = [&](AnomalyKind kind,
                                  const std::vector<FlaggedBand>& bands) {
      AnomalyFinding f;
      f.kind = kind;
      f.node_id = nodes[i].id;
      for (const FlaggedBand& fb : bands) {
        f.bands.push_back(fb.obs->key);
        f.worst_residual_db = std::max(f.worst_residual_db, fb.residual_db);
        f.max_rho = std::max(f.max_rho, fb.obs->rho);
      }
      std::sort(f.bands.begin(), f.bands.end());
      out.findings.push_back(std::move(f));
    };

    if (!adsb.empty()) make_finding(AnomalyKind::kGhostAdsb, adsb);
    if (!cell.empty()) make_finding(AnomalyKind::kRoguePss, cell);
    if (!tv.empty()) {
      const bool all_coherent =
          std::all_of(tv.begin(), tv.end(), [&](const FlaggedBand& fb) {
            return fb.obs->rho >= kCwRhoThreshold;
          });
      AnomalyKind kind;
      if (tv.size() >= kJammerMinBands)
        kind = AnomalyKind::kWidebandJammer;
      else if (tv.size() == 2)
        kind = all_coherent ? AnomalyKind::kIntermodPair
                            : AnomalyKind::kWidebandJammer;
      else
        kind = AnomalyKind::kSpuriousEmitter;
      make_finding(kind, tv);
    }
    ++out.flagged_nodes;
  }

  // Worst-first; node id and kind tiebreaks keep the export deterministic.
  std::sort(out.findings.begin(), out.findings.end(),
            [](const AnomalyFinding& a, const AnomalyFinding& b) {
              if (a.worst_residual_db != b.worst_residual_db)
                return a.worst_residual_db > b.worst_residual_db;
              if (a.node_id != b.node_id) return a.node_id < b.node_id;
              return static_cast<int>(a.kind) < static_cast<int>(b.kind);
            });
  return out;
}

void AnomalyDetector::publish(const AnomalyReport& report,
                              obs::Registry& registry) const {
  registry.counter("speccal_anomaly_findings_total")
      .add(report.findings.size());
  registry.gauge("speccal_anomaly_flagged_nodes")
      .set(static_cast<double>(report.flagged_nodes));
  registry.gauge("speccal_anomaly_bands_evaluated")
      .set(static_cast<double>(report.bands_evaluated));
  // One series per kind, zeroed when absent, so dashboards and the CI
  // smoke assertions see a stable set.
  constexpr AnomalyKind kKinds[] = {
      AnomalyKind::kWidebandJammer, AnomalyKind::kSpuriousEmitter,
      AnomalyKind::kIntermodPair, AnomalyKind::kGhostAdsb,
      AnomalyKind::kRoguePss};
  for (AnomalyKind kind : kKinds) {
    std::size_t count = 0;
    for (const AnomalyFinding& f : report.findings)
      if (f.kind == kind) ++count;
    registry.gauge("speccal_anomaly_findings", {{"kind", to_string(kind)}})
        .set(static_cast<double>(count));
  }
}

void AnomalyDetector::annotate(NodeRegistry& registry,
                               const AnomalyReport& report) const {
  registry.for_each_report_mutable([&](CalibrationReport& node_report) {
    for (const AnomalyFinding& f : report.findings) {
      if (f.node_id != node_report.claims.node_id) continue;
      std::ostringstream oss;
      oss << "anomaly: " << to_string(f.kind) << " on ";
      for (std::size_t b = 0; b < f.bands.size(); ++b)
        oss << (b == 0 ? "" : ", ") << f.bands[b];
      oss << " (+" << util::format_fixed(f.worst_residual_db, 1)
          << " dB over consensus, rho "
          << util::format_fixed(f.max_rho, 2) << ")";
      node_report.trust.findings.push_back({Severity::kWarning, oss.str()});
      obs::EventLog::global().log(
          obs::EventSeverity::kWarning, "anomaly_flagged", f.node_id, {},
          {obs::SpanArg::str("kind", to_string(f.kind)),
           obs::SpanArg::number("worst_residual_db", f.worst_residual_db),
           obs::SpanArg::integer("bands",
                                 static_cast<std::int64_t>(f.bands.size()))});
    }
  });
}

}  // namespace speccal::calib

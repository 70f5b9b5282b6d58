#include "calib/fov.hpp"

#include <algorithm>
#include <cmath>

#include "util/units.hpp"

namespace speccal::calib {

namespace {

/// Azimuth histogram bin width (SectorFovEstimator).
constexpr double kBinWidthDeg = 10.0;
/// Minimum fraction of received-vs-present far aircraft for an open bin.
constexpr double kOpenFraction = 0.34;
/// Bins with fewer far aircraft than this are interpolated from their
/// neighbours (no traffic != blocked — the paper is explicit about this).
constexpr std::size_t kMinSamples = 1;
/// KNN: how strongly far receptions dominate.
constexpr double kKnnRangeWeight = 0.5;

/// Merge consecutive open bins (wrapping) into maximal sectors.
geo::SectorSet bins_to_sectors(const std::vector<AzimuthBin>& bins, double bin_width) {
  geo::SectorSet out;
  const std::size_t n = bins.size();
  if (n == 0) return out;
  bool any_closed = false;
  for (const auto& b : bins) any_closed |= !b.open;
  if (!any_closed) {
    out.add(geo::Sector{0.0, 0.0});
    return out;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t prev = (i + n - 1) % n;
    if (bins[i].open && !bins[prev].open) {
      std::size_t j = i;
      std::size_t len = 0;
      while (bins[j].open && len < n) {
        j = (j + 1) % n;
        ++len;
      }
      const double start = bins[i].center_deg - bin_width / 2.0;
      out.add(geo::Sector{util::wrap_degrees(start),
                          util::wrap_degrees(start + static_cast<double>(len) * bin_width)});
    }
  }
  return out;
}

void finalize(FovEstimate& est, double bin_width) {
  est.open_sectors = bins_to_sectors(est.bins, bin_width);
  est.open_fraction_deg = est.open_sectors.coverage_deg() / 360.0;
}

}  // namespace

FovEstimate estimate_fov_sectors(const SurveyResult& survey, const FovConfig& config) {
  FovEstimate est;
  const auto bin_count =
      static_cast<std::size_t>(std::lround(360.0 / kBinWidthDeg));
  est.bins.resize(bin_count);
  for (std::size_t i = 0; i < bin_count; ++i)
    est.bins[i].center_deg = (static_cast<double>(i) + 0.5) * kBinWidthDeg;

  for (const auto& obs : survey.observations) {
    if (obs.range_km < config.near_field_km) continue;
    ++est.usable_observations;
    auto idx = static_cast<std::size_t>(util::wrap_degrees(obs.azimuth_deg) /
                                        kBinWidthDeg);
    idx = std::min(idx, bin_count - 1);
    AzimuthBin& bin = est.bins[idx];
    ++bin.present;
    if (obs.received) {
      ++bin.received;
      bin.max_received_km = std::max(bin.max_received_km, obs.range_km);
    }
  }

  // First pass: verdicts for bins with enough traffic.
  for (auto& bin : est.bins) {
    if (bin.present >= kMinSamples) {
      bin.open = static_cast<double>(bin.received) >=
                 kOpenFraction * static_cast<double>(bin.present);
    }
  }
  // Second pass: interpolate empty bins from the nearest decided ones
  // (absence of traffic is not evidence of blockage).
  for (std::size_t i = 0; i < bin_count; ++i) {
    AzimuthBin& bin = est.bins[i];
    if (bin.present >= kMinSamples) continue;
    bin.interpolated = true;
    for (std::size_t step = 1; step <= bin_count / 2; ++step) {
      const AzimuthBin& left = est.bins[(i + bin_count - step) % bin_count];
      const AzimuthBin& right = est.bins[(i + step) % bin_count];
      const bool left_decided = left.present >= kMinSamples;
      const bool right_decided = right.present >= kMinSamples;
      if (left_decided || right_decided) {
        if (left_decided && right_decided)
          bin.open = left.open || right.open;  // optimistic tie-break
        else
          bin.open = left_decided ? left.open : right.open;
        break;
      }
    }
  }

  finalize(est, kBinWidthDeg);
  return est;
}

FovEstimate estimate_fov_knn(const SurveyResult& survey, const FovConfig& config) {
  FovEstimate est;

  // Range-gated training points.
  struct Point {
    double azimuth;
    double weight;   // larger = stronger evidence
    bool received;
  };
  std::vector<Point> points;
  for (const auto& obs : survey.observations) {
    if (obs.range_km < config.near_field_km) continue;
    ++est.usable_observations;
    // Far receptions are strong evidence of openness; far misses are strong
    // evidence of blockage. Weight grows with range.
    const double w = 1.0 + kKnnRangeWeight * (obs.range_km / 50.0);
    points.push_back({util::wrap_degrees(obs.azimuth_deg), w, obs.received});
  }

  // Classify each degree of the horizon with distance-weighted KNN.
  constexpr std::size_t kBins = 360;
  est.bins.resize(kBins);
  std::vector<std::pair<double, std::size_t>> dist;  // (angular distance, point index)
  dist.reserve(points.size());
  for (std::size_t az = 0; az < kBins; ++az) {
    AzimuthBin& bin = est.bins[az];
    bin.center_deg = static_cast<double>(az) + 0.5;
    if (points.empty()) continue;

    dist.clear();
    for (std::size_t p = 0; p < points.size(); ++p)
      dist.emplace_back(util::angular_distance_deg(bin.center_deg, points[p].azimuth), p);
    const auto k = std::min<std::size_t>(static_cast<std::size_t>(config.knn_k),
                                         dist.size());
    std::partial_sort(dist.begin(), dist.begin() + static_cast<std::ptrdiff_t>(k),
                      dist.end());

    double open_vote = 0.0;
    double closed_vote = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      const Point& pt = points[dist[j].second];
      // Inverse-distance weighting in angle, floored to avoid singularities.
      const double w = pt.weight / (1.0 + dist[j].first / 10.0);
      if (pt.received)
        open_vote += w;
      else
        closed_vote += w;
      ++bin.present;
      if (pt.received) ++bin.received;
    }
    bin.open = open_vote > closed_vote;
  }

  finalize(est, 1.0);
  return est;
}

double fov_accuracy(const FovEstimate& estimate, const geo::SectorSet& truth_clear) noexcept {
  return geo::coverage_similarity(estimate.open_sectors, truth_clear);
}

}  // namespace speccal::calib

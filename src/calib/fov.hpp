// Field-of-view estimation from ADS-B observations.
//
// Two estimators over the survey's (azimuth, range, received) points:
//   * SectorFovEstimator — histogram of fixed azimuth bins; a bin is "open"
//     when enough far aircraft were received there (the visual judgement
//     one makes from the paper's Figure 1).
//   * KnnFovEstimator — the k-nearest-neighbours classifier the paper's §5
//     proposes for the end-to-end system: each azimuth is classified by its
//     k nearest (in angle) range-gated observations, distance-weighted.
// Both ignore aircraft closer than `near_field_km`: the paper observes that
// within ~20 km messages get through regardless of direction (multipath /
// penetration), so near traffic carries no directional information.
#pragma once

#include <vector>

#include "calib/survey.hpp"
#include "geo/sector.hpp"

namespace speccal::calib {

struct FovConfig {
  double near_field_km = 25.0;
  /// KNN neighbour count.
  int knn_k = 7;
};

/// Per-bin diagnostics (rendered by the Figure-1 bench).
struct AzimuthBin {
  double center_deg = 0.0;
  std::size_t present = 0;      // far aircraft in ground truth
  std::size_t received = 0;     // of which decoded
  double max_received_km = 0.0; // farthest decoded aircraft
  bool open = false;
  bool interpolated = false;    // verdict borrowed from neighbours
};

struct FovEstimate {
  geo::SectorSet open_sectors;
  std::vector<AzimuthBin> bins;
  double open_fraction_deg = 0.0;       // fraction of the circle deemed open
  std::size_t usable_observations = 0;  // beyond the near field
};

/// Histogram estimator.
[[nodiscard]] FovEstimate estimate_fov_sectors(const SurveyResult& survey,
                                               const FovConfig& config = {});

/// KNN estimator (1-degree resolution classification of the horizon).
[[nodiscard]] FovEstimate estimate_fov_knn(const SurveyResult& survey,
                                           const FovConfig& config = {});

/// Agreement between an estimate and ground truth clear sectors, in [0,1]
/// (Jaccard overlap of open azimuth sets).
[[nodiscard]] double fov_accuracy(const FovEstimate& estimate,
                                  const geo::SectorSet& truth_clear) noexcept;

}  // namespace speccal::calib

#include "calib/ml.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace speccal::calib {

namespace {
[[nodiscard]] double sigmoid(double x) noexcept {
  if (x >= 0.0) {
    const double e = std::exp(-x);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(x);
  return e / (1.0 + e);
}

[[nodiscard]] const BandQuality* find_class(const FrequencyResponseReport& freq,
                                            cellular::SpectrumClass cls) noexcept {
  for (const auto& band : freq.bands)
    if (band.band_class == cls) return &band;
  return nullptr;
}
}  // namespace

MlFeatures MlFeatures::from_report(const CalibrationReport& report) {
  MlFeatures f;
  f.values[0] = std::clamp(report.fov.open_fraction_deg, 0.0, 1.0);
  f.values[1] =
      report.survey.observations.empty()
          ? 0.0
          : static_cast<double>(report.survey.received_count()) /
                static_cast<double>(report.survey.observations.size());

  const auto* low = find_class(report.frequency_response,
                               cellular::SpectrumClass::kLowBand);
  const auto* mid = find_class(report.frequency_response,
                               cellular::SpectrumClass::kMidBand);
  f.values[2] = low && low->sources_received > 0
                    ? std::clamp(low->mean_attenuation_db / 50.0, 0.0, 1.0)
                    : 1.0;
  f.values[3] = mid && mid->sources_received > 0
                    ? std::clamp(mid->mean_attenuation_db / 50.0, 0.0, 1.0)
                    : 1.0;
  f.values[4] = mid && mid->sources_total > 0
                    ? static_cast<double>(mid->sources_received) /
                          static_cast<double>(mid->sources_total)
                    : 0.0;
  f.values[5] = std::clamp(
      report.frequency_response.attenuation_slope_db_per_decade / 50.0, -1.0, 1.0);
  return f;
}

const char* MlFeatures::name(std::size_t index) noexcept {
  static constexpr const char* kNames[kCount] = {
      "fov_open_fraction",   "adsb_received_fraction", "low_band_attenuation",
      "mid_band_attenuation", "mid_band_received",      "attenuation_slope",
  };
  return index < kCount ? kNames[index] : "?";
}

double IndoorClassifier::train(std::span<const MlFeatures> examples,
                               const std::vector<bool>& labels) {
  // Batch gradient descent with L2 regularization.
  constexpr double kLearningRate = 0.5;
  constexpr int kEpochs = 2000;
  constexpr double kL2 = 1e-3;

  if (examples.size() != labels.size() || examples.empty())
    throw std::invalid_argument("IndoorClassifier::train: bad dataset");

  weights_.fill(0.0);
  bias_ = 0.0;
  const double n = static_cast<double>(examples.size());
  double loss = 0.0;

  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    std::array<double, MlFeatures::kCount> grad{};
    double grad_bias = 0.0;
    loss = 0.0;
    for (std::size_t i = 0; i < examples.size(); ++i) {
      const double p = predict_probability(examples[i]);
      const double y = labels[i] ? 1.0 : 0.0;
      const double err = p - y;
      for (std::size_t k = 0; k < MlFeatures::kCount; ++k)
        grad[k] += err * examples[i].values[k];
      grad_bias += err;
      loss -= y * std::log(std::max(p, 1e-12)) +
              (1.0 - y) * std::log(std::max(1.0 - p, 1e-12));
    }
    loss /= n;
    for (std::size_t k = 0; k < MlFeatures::kCount; ++k) {
      loss += kL2 * weights_[k] * weights_[k] / 2.0;
      weights_[k] -= kLearningRate *
                     (grad[k] / n + kL2 * weights_[k]);
    }
    bias_ -= kLearningRate * grad_bias / n;
  }
  return loss;
}

double IndoorClassifier::predict_probability(const MlFeatures& features) const noexcept {
  double z = bias_;
  for (std::size_t k = 0; k < MlFeatures::kCount; ++k)
    z += weights_[k] * features.values[k];
  return sigmoid(z);
}

}  // namespace speccal::calib

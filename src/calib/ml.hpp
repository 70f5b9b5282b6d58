// ML-based installation classification — the paper's §5 direction:
// "Some recent studies have started looking at ML-based techniques to
//  obtain different types of information from signals of opportunity, such
//  as using Wi-Fi and cellular signals to determine if a device is indoor
//  or outdoor."
//
// A compact logistic-regression classifier over calibration-derived
// features. Training runs in-library (batch gradient descent with L2
// regularization) so a deployment can retrain on its own labeled fleet;
// the rule-based classifier in classify.hpp remains the zero-data
// baseline it is benchmarked against.
#pragma once

#include <array>
#include <span>
#include <vector>

#include "calib/pipeline.hpp"

namespace speccal::calib {

/// Feature vector extracted from one calibration report.
struct MlFeatures {
  static constexpr std::size_t kCount = 6;
  std::array<double, kCount> values{};

  /// Feature order (all scaled to roughly [0, 1]):
  ///  0 ADS-B open horizon fraction
  ///  1 ADS-B received fraction of ground-truth aircraft
  ///  2 low-band mean attenuation / 50 dB
  ///  3 mid-band mean attenuation / 50 dB (lost sources -> 1.0)
  ///  4 mid-band received fraction
  ///  5 attenuation slope / 50 dB-per-decade (clamped)
  [[nodiscard]] static MlFeatures from_report(const CalibrationReport& report);

  [[nodiscard]] static const char* name(std::size_t index) noexcept;
};

/// Binary logistic regression: P(indoor | features).
class IndoorClassifier {
 public:
  /// Train on labeled examples (label true = indoor). Returns the final
  /// training loss (mean cross-entropy + L2 term).
  double train(std::span<const MlFeatures> examples, const std::vector<bool>& labels);

  [[nodiscard]] double predict_probability(const MlFeatures& features) const noexcept;
  [[nodiscard]] bool predict_indoor(const MlFeatures& features,
                                    double threshold = 0.5) const noexcept {
    return predict_probability(features) >= threshold;
  }

  [[nodiscard]] const std::array<double, MlFeatures::kCount>& weights() const noexcept {
    return weights_;
  }
  [[nodiscard]] double bias() const noexcept { return bias_; }

 private:
  std::array<double, MlFeatures::kCount> weights_{};
  double bias_ = 0.0;
};

}  // namespace speccal::calib

// Installation classification — the paper's §3.2 deduction step.
//
// "Combining the results from multiple experiments, including ADS-B,
//  cellular networks, and broadcast TV, can provide additional insights
//  such as determining whether an installation is indoor or outdoor."
// The classifier fuses the FoV estimate with the frequency response into an
// installation verdict plus a human-readable rationale, usable to verify
// operator claims (and CBRS-style self-reports, §3.3).
#pragma once

#include <string>
#include <vector>

#include "calib/fov.hpp"
#include "calib/freqresp.hpp"

namespace speccal::calib {

enum class InstallationType {
  kOutdoorOpen,     // rooftop-like: wide FoV, little attenuation anywhere
  kOutdoorPartial,  // outdoor but screened (rooftop with structures)
  kIndoorWindow,    // behind glass: narrow FoV, mid-band attenuated
  kIndoorDeep,      // interior: tiny FoV, mid/high bands gone
};

[[nodiscard]] std::string to_string(InstallationType type);

struct Classification {
  InstallationType type = InstallationType::kIndoorDeep;
  double confidence = 0.0;  // [0, 1]
  std::vector<std::string> rationale;

  [[nodiscard]] bool indoor() const noexcept {
    return type == InstallationType::kIndoorWindow ||
           type == InstallationType::kIndoorDeep;
  }
};

/// Rule-based fusion of both evidence sources.
[[nodiscard]] Classification classify_installation(const FovEstimate& fov,
                                                   const FrequencyResponseReport& freq);

}  // namespace speccal::calib

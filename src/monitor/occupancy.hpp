// Channel occupancy detection over spectrum sweeps.
//
// The regulatory use cases the paper opens with — interference hunting,
// enforcement, whitespace planning — reduce to "how occupied is each
// channel, where, and when". Energy detection against a robustly-estimated
// noise floor, repeated over time, yields per-channel duty cycles.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "dsp/iq.hpp"
#include "monitor/scanner.hpp"

namespace speccal::monitor {

/// One logical channel to watch.
struct Channel {
  std::string label;
  double low_hz = 0.0;
  double high_hz = 0.0;
};

/// A channel counts as occupied when its band power exceeds the expected
/// empty-channel power (floor * bins) by this margin.
inline constexpr double kDetectionMarginDb = 6.0;

struct ChannelObservation {
  Channel channel;
  double power_dbfs = -200.0;
  double floor_dbfs = -200.0;   // expected empty-channel power
  double excess_db = 0.0;       // power above the floor
  bool occupied = false;
};

/// Energy-detect every channel in one sweep.
[[nodiscard]] std::vector<ChannelObservation> detect_occupancy(
    const SweepResult& sweep, const std::vector<Channel>& channels);

/// Autocorrelation-based occupancy estimate — the cheap second opinion from
/// the USRP scanning-receiver literature, independent of the Welch-PSD path.
///
/// Works on the raw time-domain capture of one channel (tuned to the
/// channel center, sample rate covering the channel): white noise
/// decorrelates at one sample, so rho = |R(1)|/R(0) sits near 0 on a vacant
/// channel; any signal narrower than the capture bandwidth keeps adjacent
/// samples correlated (ATSC in an 8 Msps capture holds rho ~ 0.4, a CW tone
/// rho ~ 1). One O(N) pass, no FFT plan, no PSD — which is exactly why the
/// anomaly detector uses it to cross-check PSD residuals: a sensor whose
/// spectral path is lying still has to produce time-domain samples whose
/// correlation structure matches.
struct AutocorrOccupancyEstimate {
  double rho = 0.0;          // |R(1)| / R(0), in [0, 1]
  double power_dbfs = -200.0;
  bool occupied = false;
};

/// Estimate occupancy of one captured channel from its lag autocorrelation.
[[nodiscard]] AutocorrOccupancyEstimate estimate_occupancy_autocorr(
    std::span<const dsp::Sample> capture);

/// Duty-cycle bookkeeping across repeated sweeps.
class OccupancyTracker {
 public:
  explicit OccupancyTracker(std::vector<Channel> channels)
      : channels_(std::move(channels)), occupied_counts_(channels_.size(), 0) {}

  void ingest(const SweepResult& sweep);

  /// Fraction of ingested sweeps in which channel `index` was occupied.
  [[nodiscard]] double duty_cycle(std::size_t index) const noexcept;

  [[nodiscard]] std::size_t sweeps() const noexcept { return sweeps_; }
  [[nodiscard]] const std::vector<Channel>& channels() const noexcept {
    return channels_;
  }

 private:
  std::vector<Channel> channels_;
  std::vector<std::size_t> occupied_counts_;
  std::size_t sweeps_ = 0;
};

}  // namespace speccal::monitor

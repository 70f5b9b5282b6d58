#include "monitor/occupancy.hpp"

#include <cmath>

#include "util/units.hpp"

namespace speccal::monitor {

std::vector<ChannelObservation> detect_occupancy(const SweepResult& sweep,
                                                 const std::vector<Channel>& channels) {
  std::vector<ChannelObservation> out;
  out.reserve(channels.size());
  for (const auto& channel : channels) {
    ChannelObservation obs;
    obs.channel = channel;
    obs.power_dbfs = sweep.band_power_dbfs(channel.low_hz, channel.high_hz);

    // Expected power of an *empty* channel: per-bin floor times the number
    // of bins the channel spans.
    double floor_linear = 0.0;
    for (const auto& hop : sweep.hops) {
      if (!hop.tune_ok || hop.psd.psd.empty()) continue;
      const double fs =
          hop.psd.bin_width_hz * static_cast<double>(hop.psd.psd.size());
      const double lo = std::max(channel.low_hz, hop.center_hz - fs / 2.0);
      const double hi = std::min(channel.high_hz, hop.center_hz + fs / 2.0);
      if (hi <= lo) continue;
      const double bins = (hi - lo) / hop.psd.bin_width_hz;
      floor_linear += util::db_to_ratio(hop.noise_floor_dbfs) * bins;
    }
    obs.floor_dbfs = floor_linear > 0.0 ? util::ratio_to_db(floor_linear) : -200.0;

    if (obs.power_dbfs > -200.0 && obs.floor_dbfs > -200.0) {
      obs.excess_db = obs.power_dbfs - obs.floor_dbfs;
      obs.occupied = obs.excess_db >= kDetectionMarginDb;
    }
    out.push_back(std::move(obs));
  }
  return out;
}

AutocorrOccupancyEstimate estimate_occupancy_autocorr(
    std::span<const dsp::Sample> capture) {
  /// Correlation lag in samples (1 = adjacent-sample).
  constexpr std::size_t kLag = 1;
  /// rho at or above this reads as occupied. It splits the vacant extreme
  /// (rho ~ 1/sqrt(N), < 0.01 for any realistic capture) from the weakest
  /// occupied case the Welch path would also flag (a band-limited signal
  /// at detection-margin SNR holds rho >= ~0.25).
  constexpr double kOccupiedThreshold = 0.15;
  AutocorrOccupancyEstimate out;
  out.rho = dsp::lag_autocorrelation(capture, kLag);
  out.power_dbfs = dsp::mean_power_dbfs(capture);
  out.occupied = out.rho >= kOccupiedThreshold;
  return out;
}

void OccupancyTracker::ingest(const SweepResult& sweep) {
  const auto observations = detect_occupancy(sweep, channels_);
  for (std::size_t i = 0; i < observations.size(); ++i)
    if (observations[i].occupied) ++occupied_counts_[i];
  ++sweeps_;
}

double OccupancyTracker::duty_cycle(std::size_t index) const noexcept {
  if (index >= occupied_counts_.size() || sweeps_ == 0) return 0.0;
  return static_cast<double>(occupied_counts_[index]) /
         static_cast<double>(sweeps_);
}

}  // namespace speccal::monitor

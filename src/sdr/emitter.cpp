#include "sdr/emitter.hpp"

#include <algorithm>
#include <cmath>

#include "dsp/nco.hpp"
#include "util/units.hpp"

namespace speccal::sdr {

double FixedEmitterSource::received_power_dbm(const RxEnvironment& rx) const noexcept {
  prop::LinkInput link;
  link.transmitter = config_.position;
  link.receiver = rx.position;
  link.freq_hz = config_.carrier_hz;
  link.tx_power_dbm = config_.eirp_dbm;
  link.emitter_id = config_.emitter_id;
  if (rx.antenna != nullptr) {
    const double az = geo::bearing_deg(rx.position, config_.position);
    link.rx_antenna_gain_dbi = rx.antenna->gain_dbi(config_.carrier_hz, az);
  }
  return prop::evaluate_link(link, config_.link, rx.obstructions, rx.fading)
      .rx_power_dbm;
}

void FixedEmitterSource::render(const CaptureContext& ctx,
                                std::span<dsp::Sample> accum) {
  // Channel placement in baseband.
  const double offset = config_.carrier_hz - ctx.center_freq_hz;
  const double low = offset - config_.bandwidth_hz / 2.0;
  const double high = offset + config_.bandwidth_hz / 2.0;
  // Entirely outside the capture? Nothing to add.
  if (high < -ctx.sample_rate_hz / 2.0 || low > ctx.sample_rate_hz / 2.0) return;

  const double rx_power_dbm = received_power_dbm(*ctx.rx);
  const double target_mw = util::dbm_to_watts(rx_power_dbm) * 1e3;
  if (target_mw < 1e-18) return;

  // (Re)design the channel shaping taps for the current tuning.
  const double clipped_low = std::max(low, -ctx.sample_rate_hz / 2.0 * 0.98);
  const double clipped_high = std::min(high, ctx.sample_rate_hz / 2.0 * 0.98);
  if (clipped_high <= clipped_low) return;
  const FilterKey key{ctx.sample_rate_hz, clipped_low, clipped_high};
  if (shaper_taps_.empty() || !(key == filter_key_)) {
    shaper_taps_ =
        dsp::design_bandpass(ctx.sample_rate_hz, clipped_low, clipped_high, 127);
    fft_shaper_.reset();
    filter_key_ = key;
    ++shaper_rebuilds_;
  }

  const std::size_t n = accum.size();
  if (n == 0) return;

  // White noise -> channel shape. The filter is primed with taps-1 extra
  // leading samples so the warm-up transient never reaches the output (or
  // the power normalization): only steady-state samples are emitted, and
  // the block is normalized to the exact target power afterwards, so the
  // filter's gain shape does not matter.
  const std::size_t prime = shaper_taps_.size() - 1;
  const std::size_t total = n + prime;
  auto white = scratch_.white(total);
  rng_.fill_normal(dsp::as_floats(white), 1.0f);
  auto shaped = scratch_.shaped(total);

  // Overlap-save: every block here has at least 127 samples, where it costs
  // far fewer operations than direct convolution (DESIGN.md §9).
  if (fft_shaper_ == nullptr)
    fft_shaper_ = std::make_unique<dsp::FftConvolver>(shaper_taps_);
  else
    fft_shaper_->reset();
  fft_shaper_->filter_into(white, shaped);
  const auto steady = shaped.subspan(prime, n);

  double fraction_in_band = 1.0;
  if (config_.pilot_offset_hz) fraction_in_band = 1.0 - util::db_to_ratio(config_.pilot_rel_db);

  const double shaped_power = dsp::mean_power(steady);
  if (shaped_power <= 0.0) return;
  const float scale =
      static_cast<float>(std::sqrt(target_mw * fraction_in_band / shaped_power));
  for (std::size_t i = 0; i < n; ++i) accum[i] += steady[i] * scale;

  // Pilot tone (ATSC-style), placed relative to the carrier.
  if (config_.pilot_offset_hz) {
    const double pilot_freq = offset + *config_.pilot_offset_hz;
    if (pilot_freq > -ctx.sample_rate_hz / 2.0 && pilot_freq < ctx.sample_rate_hz / 2.0) {
      const double pilot_mw = target_mw * util::db_to_ratio(config_.pilot_rel_db);
      const float amp = static_cast<float>(std::sqrt(pilot_mw));
      dsp::Nco nco(pilot_freq, ctx.sample_rate_hz);
      // Deterministic start phase tied to capture time keeps renders
      // continuous across adjacent buffers.
      nco.set_phase(2.0 * util::kPi * std::fmod(pilot_freq * ctx.start_time_s, 1.0));
      nco.add_tone(accum.first(n), amp);
    }
  }
}

}  // namespace speccal::sdr

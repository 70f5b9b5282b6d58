#include "calib/lo_calibration.hpp"

#include <algorithm>
#include <cmath>

#include "dsp/fft.hpp"
#include "dsp/goertzel.hpp"
#include "dsp/plan.hpp"
#include "obs/metrics.hpp"
#include "tv/channels.hpp"

namespace speccal::calib {

namespace {
/// Offset at which we park the pilot in baseband (off DC, where real
/// receivers have an offset spike).
constexpr double kPilotParkHz = -250e3;
constexpr double kGainDb = 20.0;
/// Pilot search window around the expected offset [Hz]: +-20 ppm at
/// 600 MHz is +-12 kHz. The search runs on a zero-padded FFT and refines
/// the peak bin by parabolic interpolation.
constexpr double kSearchSpanHz = 25e3;
/// Minimum pilot power over the local floor to accept a measurement.
constexpr double kMinPilotSnrDb = 15.0;

/// Goertzel refinement around a coarse peak estimate: evaluate the unpadded
/// DFT power on a fine grid (quarter-bin spacing, +/- one bin) and take a
/// parabolic fit through the grid maximum. Unlike the zero-padded FFT grid,
/// Goertzel evaluates at arbitrary fractional frequencies, so the fit is
/// centred on the tone rather than the nearest padded bin.
[[nodiscard]] double goertzel_refine_peak(std::span<const dsp::Sample> capture,
                                          double coarse_hz, double bin_hz,
                                          double sample_rate_hz) {
  constexpr std::size_t kGridPoints = 9;
  const double step = bin_hz / 4.0;
  std::vector<double> freqs(kGridPoints);
  for (std::size_t k = 0; k < kGridPoints; ++k)
    freqs[k] = coarse_hz + (static_cast<double>(k) - 4.0) * step;
  if (freqs.front() <= -sample_rate_hz / 2.0 || freqs.back() >= sample_rate_hz / 2.0)
    return coarse_hz;

  dsp::Goertzel comb(freqs, sample_rate_hz);
  comb.feed(capture);
  std::size_t best = 0;
  double best_power = -1.0;
  for (std::size_t k = 0; k < kGridPoints; ++k) {
    const double p = comb.power(k);
    if (p > best_power) {
      best_power = p;
      best = k;
    }
  }
  double refine = 0.0;
  if (best > 0 && best + 1 < kGridPoints) {
    const double prev = comb.power(best - 1);
    const double next = comb.power(best + 1);
    const double denom = prev - 2.0 * best_power + next;
    if (std::fabs(denom) > 1e-30) refine = 0.5 * (prev - next) / denom * step;
  }
  return freqs[best] + refine;
}
}  // namespace

LoCalibrationResult calibrate_lo(sdr::Device& device,
                                 const std::vector<int>& rf_channels) {
  LoCalibrationResult out;
  device.set_gain_mode(sdr::GainMode::kManual);
  device.set_gain_db(kGainDb);

  const auto samples =
      static_cast<std::size_t>(kLoCaptureDurationS * kLoSampleRateHz);

  // One plan-based estimator for all channels: every capture has the same
  // length, so the capture buffer, the zero-padded FFT plan and scratch are
  // built once and the per-channel spectrum lands in a reused buffer.
  dsp::Buffer capture(samples);
  dsp::SpectrumEstimator estimator(dsp::next_power_of_two(std::max<std::size_t>(1, samples)));
  std::vector<double> spectrum;

  for (int channel : rf_channels) {
    const auto edge = tv::channel_lower_edge_hz(channel);
    if (!edge) continue;
    PilotMeasurement meas;
    meas.station_pilot_hz = *edge + tv::kPilotOffsetHz;

    if (!device.tune(meas.station_pilot_hz - kPilotParkHz, kLoSampleRateHz)) {
      out.pilots.push_back(meas);
      continue;
    }
    device.capture_into(capture);

    // Zero-padded FFT peak search inside the expected window. (A Goertzel
    // comb covering the whole window at this resolution would cost ~1000x
    // more than the FFT, so Goertzel enters only after the peak is found —
    // as a fine-grid refinement around it, gated on the SNR test below.)
    estimator.estimate(capture, spectrum);
    const double fft_size = static_cast<double>(spectrum.size());
    const double bin_hz = kLoSampleRateHz / fft_size;

    std::size_t peak = 0;
    double peak_power = 0.0;
    std::vector<double> window_powers;
    for (double f = kPilotParkHz - kSearchSpanHz;
         f <= kPilotParkHz + kSearchSpanHz; f += bin_hz) {
      const std::size_t bin =
          dsp::bin_for_frequency(f, kLoSampleRateHz, spectrum.size());
      window_powers.push_back(spectrum[bin]);
      if (spectrum[bin] > peak_power) {
        peak_power = spectrum[bin];
        peak = bin;
      }
    }
    if (window_powers.empty()) {
      out.pilots.push_back(meas);
      continue;
    }

    // Local floor: median over the search window (the pilot is ~1 bin).
    std::vector<double> sorted = window_powers;
    std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2, sorted.end());
    const double floor = std::max(sorted[sorted.size() / 2], 1e-20);
    meas.pilot_snr_db = 10.0 * std::log10(peak_power / floor);

    // The Goertzel refinement stage is gated on the SNR test: channels with
    // no detectable pilot skip it (their FFT verdict — invalid — stands).
    static obs::Counter& refine_pass = obs::Registry::global().counter(
        "speccal_gate_lo_refine_pass_total");
    static obs::Counter& refine_skip = obs::Registry::global().counter(
        "speccal_gate_lo_refine_skip_total");
    if (meas.pilot_snr_db >= kMinPilotSnrDb) {
      refine_pass.add();
      // Parabolic interpolation over the peak bin and its neighbours.
      double refine = 0.0;
      if (peak > 0 && peak + 1 < spectrum.size()) {
        const double prev = spectrum[peak - 1];
        const double next = spectrum[peak + 1];
        const double denom = prev - 2.0 * peak_power + next;
        if (std::fabs(denom) > 1e-20)
          refine = 0.5 * (prev - next) / denom * bin_hz;
      }
      double peak_freq = static_cast<double>(peak) * bin_hz;
      if (peak_freq >= kLoSampleRateHz / 2.0) peak_freq -= kLoSampleRateHz;
      // Goertzel fine grid around the parabolic estimate (the lo_calibration
      // TODO this PR closes): fractional-frequency DFT evaluation on the
      // unpadded capture pins the pilot tighter than the padded-bin fit.
      const double measured = goertzel_refine_peak(
          capture, peak_freq + refine, bin_hz, kLoSampleRateHz);
      meas.measured_offset_hz = measured - kPilotParkHz;
      // offset = -ppm * f_pilot / 1e6  =>  ppm = -offset / f_pilot * 1e6.
      meas.ppm = -meas.measured_offset_hz / meas.station_pilot_hz * 1e6;
      meas.valid = true;
      ++out.valid_count;
    } else {
      refine_skip.add();
    }
    out.pilots.push_back(meas);
  }

  // Robust aggregate: median over valid pilots.
  std::vector<double> ppms;
  for (const auto& p : out.pilots)
    if (p.valid) ppms.push_back(p.ppm);
  if (!ppms.empty()) {
    std::nth_element(ppms.begin(), ppms.begin() + ppms.size() / 2, ppms.end());
    out.ppm = ppms[ppms.size() / 2];
  }
  return out;
}

}  // namespace speccal::calib

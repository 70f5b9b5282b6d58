// SDR device abstraction.
//
// The calibration pipeline talks only to this interface; the repository
// ships `SimulatedSdr`, and a hardware-backed implementation (BladeRF,
// RTL-SDR, ...) could be added without touching the pipeline. The interface
// mirrors the subset of SoapySDR-style functionality the paper's
// measurements require: tune, set gain or AGC, stream I/Q.
#pragma once

#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "dsp/iq.hpp"
#include "geo/wgs84.hpp"

namespace speccal::sdr {

struct RxEnvironment;  // sdr/sim.hpp — simulation-side receiver surroundings

enum class GainMode {
  kManual,  // paper's TV measurement: fixed gain so readings are comparable
  kAgc,     // automatic gain control
};

/// Static capabilities reported by a device (what an operator *claims*
/// versus what the calibration pipeline verifies).
struct DeviceInfo {
  std::string driver;
  double min_freq_hz = 0.0;
  double max_freq_hz = 0.0;
  double max_sample_rate_hz = 0.0;
  double noise_figure_db = 7.0;
  double full_scale_input_dbm = 0.0;  // input power that hits ADC full scale at 0 dB gain
  int adc_bits = 12;
  /// Reference-oscillator error [parts per million]. Cheap SDR TCXOs are a
  /// few ppm off; at 1 GHz each ppm shifts the tuned frequency by 1 kHz.
  /// The LO calibration module (calib/lo_calibration.hpp) estimates this
  /// from broadcast pilots, like kalibrate-rtl does from GSM.
  double lo_error_ppm = 0.0;
  /// Loss between antenna port and LNA [dB] — a damaged feedline or
  /// corroded connector. Attenuates every received signal (but not the
  /// receiver's own thermal noise); invisible to link-budget expectations,
  /// which is exactly why the calibration has to detect it empirically.
  double frontend_loss_db = 0.0;
};

/// Tuner state after a tune() request. SimulatedSdr and ReplayDevice both
/// take it from tune_outcome(), so a replayed pipeline makes the producer's
/// decisions (replay == in-process).
struct TuneOutcome {
  bool accepted = false;        // the device reaches the request
  double sample_rate_hz = 0.0;  // the rate the device runs at afterwards
};

/// A tune is accepted when the centre frequency lies in [min_freq_hz,
/// max_freq_hz] and the rate in (0, max_sample_rate_hz]. A refused tune still
/// adopts a positive, finite requested rate but otherwise keeps
/// `current_rate_hz`: a zero rate would advance the stream clock by
/// count / 0 = +inf on the next capture, and every later capture would be NaN.
[[nodiscard]] inline TuneOutcome tune_outcome(const DeviceInfo& info,
                                              double center_freq_hz,
                                              double sample_rate_hz,
                                              double current_rate_hz) noexcept {
  TuneOutcome out;
  out.accepted = center_freq_hz >= info.min_freq_hz &&
                 center_freq_hz <= info.max_freq_hz && sample_rate_hz > 0.0 &&
                 sample_rate_hz <= info.max_sample_rate_hz;
  out.sample_rate_hz = std::isfinite(sample_rate_hz) && sample_rate_hz > 0.0
                           ? sample_rate_hz
                           : current_rate_hz;
  return out;
}

/// Narrow capability interface for simulation-backed devices.
///
/// Model-level calibration stages (link-budget survey fidelity, the
/// srsUE-style cell scan) need the ground-truth receiver surroundings and
/// the ability to skip stream time between measurement windows — things a
/// real SDR cannot provide. Callers obtain this surface through
/// `Device::sim_control()` and must degrade gracefully when it is null.
class SimControl {
 public:
  virtual ~SimControl() = default;

  /// Ground-truth surroundings (obstructions, fading, antenna) of the
  /// simulated receiver.
  [[nodiscard]] virtual const RxEnvironment& rx_environment() const noexcept = 0;

  /// Jump the stream clock (e.g. skip between measurement windows).
  virtual void advance_time(double seconds) noexcept = 0;
};

class Device {
 public:
  virtual ~Device() = default;

  [[nodiscard]] virtual DeviceInfo info() const = 0;

  /// Geodetic position of the node. Real hardware reads GPS; the survey
  /// joins receptions against ground truth queried around this point.
  [[nodiscard]] virtual geo::Geodetic position() const = 0;

  /// Capability query: the simulation control surface, or nullptr when the
  /// device is real hardware.
  [[nodiscard]] virtual SimControl* sim_control() noexcept { return nullptr; }

  /// Tune the front end. Returns false if the device cannot reach
  /// `center_freq_hz` or `sample_rate_hz` (pipeline records the failure).
  virtual bool tune(double center_freq_hz, double sample_rate_hz) = 0;

  virtual void set_gain_mode(GainMode mode) = 0;
  virtual void set_gain_db(double gain_db) = 0;
  [[nodiscard]] virtual double gain_db() const = 0;

  /// Capture `out.size()` I/Q samples into a caller-owned buffer, starting
  /// at the device's current stream time, and advance stream time by
  /// out.size() / sample_rate. The one capture every device implements:
  /// measurement loops reuse one buffer, so steady-state captures never
  /// touch the heap.
  virtual void capture_into(std::span<dsp::Sample> out) = 0;

  /// Allocating helper: a zero-filled buffer of `count` samples passed to
  /// capture_into(). Virtual only so a timing decorator can wrap it; a
  /// device overrides capture_into, never this.
  [[nodiscard]] virtual dsp::Buffer capture(std::size_t count) {
    dsp::Buffer buf(count);
    capture_into(buf);
    return buf;
  }

  /// Current stream time [s] since device creation.
  [[nodiscard]] virtual double stream_time_s() const = 0;

  [[nodiscard]] virtual double center_freq_hz() const = 0;
  [[nodiscard]] virtual double sample_rate_hz() const = 0;
};

/// Base of every device that wraps another (fault injection, wire
/// recording, the fleet's site owner): owns `inner` and forwards each
/// member to it, so a decorator overrides only what it changes. capture()
/// keeps Device's helper, which runs this decorator's capture_into(), so an
/// override of capture_into() sees every capture.
class DeviceDecorator : public Device {
 public:
  explicit DeviceDecorator(std::unique_ptr<Device> inner) : inner_(std::move(inner)) {
    if (inner_ == nullptr)
      throw std::invalid_argument("DeviceDecorator: inner device is null");
  }

  [[nodiscard]] Device& inner() noexcept { return *inner_; }

  [[nodiscard]] DeviceInfo info() const override { return inner_->info(); }
  [[nodiscard]] geo::Geodetic position() const override { return inner_->position(); }
  [[nodiscard]] SimControl* sim_control() noexcept override {
    return inner_->sim_control();
  }
  bool tune(double center_freq_hz, double sample_rate_hz) override {
    return inner_->tune(center_freq_hz, sample_rate_hz);
  }
  void set_gain_mode(GainMode mode) override { inner_->set_gain_mode(mode); }
  void set_gain_db(double gain_db) override { inner_->set_gain_db(gain_db); }
  [[nodiscard]] double gain_db() const override { return inner_->gain_db(); }
  void capture_into(std::span<dsp::Sample> out) override { inner_->capture_into(out); }
  [[nodiscard]] double stream_time_s() const override { return inner_->stream_time_s(); }
  [[nodiscard]] double center_freq_hz() const override { return inner_->center_freq_hz(); }
  [[nodiscard]] double sample_rate_hz() const override { return inner_->sample_rate_hz(); }

 private:
  std::unique_ptr<Device> inner_;
};

}  // namespace speccal::sdr

// Streaming multi-frequency Goertzel DFT.
//
// Detecting a handful of known tones (the ATSC pilot, a carrier marker, a
// preamble band) does not need a full FFT; a Goertzel recurrence computes
// each bin in O(N) with two real multiplies per sample per component —
// cheap enough to run continuously on an embedded host, and the basis of
// the detector fast-path gates (DESIGN.md §14).
//
// Accuracy note (the "nrsc5 form"): the recurrence
//     s[n] = x[n] + coeff * s[n-1] - s[n-2],   coeff = 2 cos(w)
// replaces the historical per-sample complex rotate-accumulate (a full
// double-precision complex multiply per sample, 8 real multiplies) with two
// real multiply-adds per component. Both forms carry O(N * eps) rounding
// growth — the rotation form through phasor drift, the recurrence through
// the |s| ~ N state magnitude on an on-bin tone — so double state keeps the
// relative power error under ~N^2 * 2^-53 (≈3e-6 at N = 160k, comfortably
// inside the documented 1e-4 equivalence tolerance; see test_dsp_simd for
// the FFT-bin cross-checks).
#pragma once

#include <complex>
#include <cstdint>
#include <span>
#include <vector>

namespace speccal::dsp {

/// Streaming Goertzel over K simultaneous frequency bins sharing one pass
/// of the samples. Feed blocks as they arrive; read power()/output() at any
/// point; reset() to reuse the instance (and its bin tables) across captures.
class Goertzel {
 public:
  /// Bins at `freqs_hz` (each in (-fs/2, fs/2]) for complex input sampled at
  /// `sample_rate_hz`. Throws std::invalid_argument on an empty frequency
  /// list or a non-positive sample rate.
  Goertzel(std::span<const double> freqs_hz, double sample_rate_hz);
  Goertzel(std::initializer_list<double> freqs_hz, double sample_rate_hz);

  /// Clears the recurrence state and the sample count; bin tables persist.
  void reset() noexcept;

  /// Advances every bin over `block` (one shared pass, chunked for cache
  /// locality). Streaming: consecutive feeds are equivalent to one feed of
  /// the concatenated blocks.
  void feed(std::span<const std::complex<float>> block) noexcept;

  [[nodiscard]] std::size_t bin_count() const noexcept { return bins_.size(); }
  [[nodiscard]] double freq_hz(std::size_t bin) const { return bins_[bin].freq_hz; }
  [[nodiscard]] std::uint64_t samples_fed() const noexcept { return n_; }

  /// |X(f)|^2 / N^2, full scale = 1.0 for a full-scale tone at the bin
  /// frequency. 0.0 before any samples are fed.
  [[nodiscard]] double power(std::size_t bin) const noexcept;

  /// X(f) / N, the normalized complex DFT sum (a full-scale on-bin tone
  /// yields magnitude ~1.0). {0, 0} before any samples are fed.
  [[nodiscard]] std::complex<double> output(std::size_t bin) const noexcept;

 private:
  struct BinState {
    double freq_hz = 0.0;
    double w = 0.0;       // 2*pi*f/fs
    double coeff = 0.0;   // 2*cos(w)
    double cos_w = 0.0;   // components of e^{-jw} for finalization
    double sin_w = 0.0;
    // Complex recurrence state as two independent real recurrences.
    double s1r = 0.0, s2r = 0.0;
    double s1i = 0.0, s2i = 0.0;
  };

  // y = s1 - e^{-jw} * s2, the unrotated DFT sum (|y| == |X|).
  [[nodiscard]] std::complex<double> unrotated(const BinState& b) const noexcept;

  std::vector<BinState> bins_;
  std::uint64_t n_ = 0;
};

}  // namespace speccal::dsp

// LTE primary synchronization signal (PSS): generation, transmission and
// waveform-level cell search.
//
// The paper's srsUE "scan" is, physically, PSS detection: a Zadoff-Chu
// sequence of length 62 transmitted twice per frame on the 62 subcarriers
// around DC. The model-level CellScanner (scanner.hpp) predicts *whether*
// sync succeeds from the link budget; this module closes the loop by
// actually transmitting the PSS through the simulated SDR and detecting it
// by cross-correlation, exactly as a UE does during cell search. A
// validation bench/test checks that the two levels agree.
//
// Conventions follow 3GPP TS 36.211 §6.11.1: root indices u ∈ {25, 29, 34}
// for N_ID^(2) ∈ {0, 1, 2}; cell-search runs at the standard 1.92 Msps
// (128-point OFDM symbols, 6-RB bandwidth).
#pragma once

#include <array>
#include <complex>
#include <optional>
#include <vector>

#include "cellular/tower.hpp"
#include "prop/linkbudget.hpp"
#include "sdr/sim.hpp"

namespace speccal::cellular {

/// Cell-search sample rate (6-RB downlink, 128-point FFT).
inline constexpr double kSearchRateHz = 1.92e6;
/// Samples per OFDM symbol at the search rate (no cyclic prefix).
inline constexpr std::size_t kPssFftSize = 128;
/// PSS repeats every half frame.
inline constexpr double kPssPeriodS = 5e-3;

/// Frequency-domain Zadoff-Chu PSS sequence (62 entries) for N_ID^(2).
/// Throws std::invalid_argument for nid2 > 2.
[[nodiscard]] std::array<std::complex<double>, 62> pss_sequence(int nid2);

/// Time-domain PSS symbol (kPssFftSize samples, unit average power):
/// the 62 ZC entries mapped to subcarriers -31..-1, +1..+31 and IFFT'd.
/// `fractional_delay` (in samples, 0..1) applies a frequency-domain phase
/// ramp; the searcher correlates against both a 0 and a 0.5-sample-delayed
/// reference so bursts landing between sample instants still correlate.
[[nodiscard]] std::vector<std::complex<float>> pss_time_domain(
    int nid2, double fractional_delay = 0.0);

/// Signal source transmitting a cell's downlink as PSS bursts every half
/// frame plus band-limited OFDM-like noise carrying the rest of the power.
class CellSignalSource final : public sdr::SignalSource {
 public:
  CellSignalSource(Cell cell, prop::LinkParams link, util::Rng rng);

  void render(const sdr::CaptureContext& ctx, std::span<dsp::Sample> accum) override;

  [[nodiscard]] const Cell& cell() const noexcept { return cell_; }

 private:
  Cell cell_;
  prop::LinkParams link_;
  util::Rng rng_;
  std::array<std::vector<std::complex<float>>, 3> pss_waveforms_;
};

struct PssDetection {
  bool detected = false;
  int nid2 = -1;
  std::size_t timing_offset = 0;   // sample index of the PSS start
  double metric = 0.0;             // peak normalized correlation in [0, 1]
  double cfo_hz = 0.0;             // coarse CFO from the correlation phase
};

/// Cell-search capture length: 20 ms = 4 PSS occurrences, non-coherently
/// combined.
inline constexpr double kPssCaptureDurationS = 20e-3;
/// Combined-correlation peak required to declare sync. The PSS carries
/// 62 of ~600 subcarriers, so even an arbitrarily strong cell tops out
/// near 0.09 (self-interference from the rest of the grid); the noise
/// extreme-value tail after 4-occurrence combining stays below ~0.045.
inline constexpr double kPssDetectionThreshold = 0.065;

/// Correlate a capture against the three PSS roots.
[[nodiscard]] PssDetection pss_search(std::span<const std::complex<float>> capture);

/// Full waveform-level cell search: tune the device to each candidate
/// cell's downlink EARFCN at 1.92 Msps, capture, correlate. The search
/// runs under AGC, as a real UE front end does: a macro cell a few hundred
/// metres away would otherwise clip the ADC and shred the correlation.
/// (Contrast with the TV power meter, which *must* pin the gain to keep
/// readings comparable.) The device must carry CellSignalSource entries
/// for the physical world.
[[nodiscard]] std::vector<std::pair<Cell, PssDetection>> waveform_cell_search(
    sdr::Device& device, const std::vector<Cell>& candidates);

}  // namespace speccal::cellular

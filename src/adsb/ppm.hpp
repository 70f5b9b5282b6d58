// 1090ES pulse-position modulation physical layer at 2 Msps.
//
// Wire format (RTCA DO-260): an 8 us preamble with pulses at 0, 1.0, 3.5
// and 4.5 us, then 112 data bits of 1 us each — a '1' puts the 0.5 us pulse
// in the first half of the bit, a '0' in the second half. At the classic
// dump1090 rate of 2 Msps each half-bit is exactly one sample:
//   preamble pulses at sample indices {0, 2, 7, 9} of 16,
//   bit k occupies samples {16 + 2k, 16 + 2k + 1}.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "adsb/frame.hpp"
#include "dsp/iq.hpp"

namespace speccal::adsb {

inline constexpr double kAdsbFreqHz = 1090e6;
inline constexpr double kUatFreqHz = 978e6;
inline constexpr double kPpmSampleRateHz = 2e6;
inline constexpr std::size_t kPreambleSamples = 16;
inline constexpr std::size_t kLongFrameBits = 112;
inline constexpr std::size_t kShortFrameBits = 56;
inline constexpr std::size_t kFrameSamples = kPreambleSamples + 2 * kLongFrameBits;  // 240
inline constexpr std::size_t kShortFrameSamples =
    kPreambleSamples + 2 * kShortFrameBits;  // 128

/// 0/1 envelope of a modulated frame (kFrameSamples entries).
[[nodiscard]] std::vector<float> ppm_envelope(const RawFrame& frame);

/// Add the modulated frame into `accum` (length >= offset + kFrameSamples
/// portions are written; anything extending past the buffer is clipped).
/// `amplitude` is the RMS pulse amplitude; `carrier_phase` and
/// `cfo_hz` model oscillator offset of the transmitter.
void modulate_into(const RawFrame& frame, double amplitude, double carrier_phase,
                   double cfo_hz, std::size_t offset,
                   std::span<dsp::Sample> accum) noexcept;

/// Same, but the frame may start before the buffer (negative offset): only
/// the in-buffer portion is written, with phase computed from the true frame
/// start so split renders across adjacent buffers are seamless.
void modulate_into_signed(const RawFrame& frame, double amplitude, double carrier_phase,
                          double cfo_hz, std::ptrdiff_t offset,
                          std::span<dsp::Sample> accum) noexcept;

/// 56-bit (DF11) variants.
[[nodiscard]] std::vector<float> ppm_envelope_short(const ShortFrame& frame);
void modulate_short_into_signed(const ShortFrame& frame, double amplitude,
                                double carrier_phase, double cfo_hz,
                                std::ptrdiff_t offset,
                                std::span<dsp::Sample> accum) noexcept;

/// One detected (CRC-valid) frame in a sample stream.
struct Detection {
  RawFrame frame{};              // short frames occupy the first 7 bytes
  std::size_t bit_count = kLongFrameBits;  // 112 (DF17-19) or 56 (DF11)
  std::size_t sample_index = 0;  // index of the preamble start
  double rssi_dbfs = 0.0;        // mean pulse power
  int repaired_bits = 0;         // 0 = clean CRC

  [[nodiscard]] bool long_frame() const noexcept { return bit_count == kLongFrameBits; }
  [[nodiscard]] ShortFrame short_frame() const noexcept {
    ShortFrame out{};
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = frame[i];
    return out;
  }
};

struct DemodConfig {
  /// Maximum bit errors the CRC repair may fix (0 disables repair).
  int max_crc_repair_bits = 1;
  /// Preamble pulses must exceed this multiple of the gap power.
  double preamble_snr_ratio = 2.0;
};

/// Stateless block demodulator: scans a magnitude-squared stream for
/// preambles, slices bits, validates CRC (with optional repair).
class PpmDemodulator {
 public:
  explicit PpmDemodulator(DemodConfig config = {}) noexcept : config_(config) {}

  /// Demodulate one block. Detections near the tail that would extend past
  /// the block are ignored (the caller overlaps blocks by kFrameSamples).
  [[nodiscard]] std::vector<Detection> process(std::span<const dsp::Sample> samples) const;

 private:
  DemodConfig config_;
};

}  // namespace speccal::adsb

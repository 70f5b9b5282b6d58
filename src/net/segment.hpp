// Versioned binary IQ segment wire format — the Electrosense+ split.
//
// Cheap crowd-sourced sensors ship raw-ish IQ; a backend decode farm does
// the heavy lifting. This header defines the wire contract between the two:
// a fixed 64-byte little-endian header (magic / version / stream id /
// sequence / capture metadata), a payload in one of four encodings, and a
// CRC-32 trailer over everything before it.
//
//   offset size field            notes
//   ------ ---- ---------------- -------------------------------------------
//        0    4 magic            bytes "SCSG" (0x47534353 read as LE u32)
//        4    2 version          wire version, currently 1
//        6    1 encoding         Encoding enum (0/1/2/3)
//        7    1 flags            bit0 = end-of-stream; other bits reserved,
//                                must be zero in v1 (decoder rejects)
//        8    4 stream_id        producer node stream (backend manifest key)
//       12    4 sequence         per-stream counter, contiguous from 0
//       16    4 capture_index    which capture this segment belongs to
//       20    4 sample_count     IQ samples in THIS segment
//       24    4 payload_bytes    must equal encoded_payload_bytes(...)
//       28    8 center_freq_hz   f64 — tuner state when captured
//       36    8 sample_rate_hz   f64
//       44    8 gain_db          f64 — gain applied to the recorded samples
//       52    8 timestamp_s      f64 — device stream time at segment start
//       60    4 scale            f32 — fixed-point full scale (1.0 for float
//                                encodings); finite and > 0 or rejected
//       64  ... payload          sample_count samples, encoding-dependent
//      end    4 crc32            IEEE 802.3 (poly 0xEDB88320) over
//                                header + payload, stored LE
//
// Versioning / compatibility policy (DESIGN.md §13): the version field is
// bumped on any layout or semantics change; a v1 decoder rejects every
// other version and every reserved flag bit rather than guessing. The
// decoder is strict and total: any input — truncated, corrupted, lying
// about lengths — produces a DecodeStatus, never UB (tests/test_net.cpp
// runs it under ASan/UBSan against adversarial mutations).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "dsp/iq.hpp"

namespace speccal::net {

inline constexpr std::uint32_t kMagic = 0x47534353u;  // "SCSG" byte order
inline constexpr std::uint16_t kWireVersion = 1;
inline constexpr std::size_t kHeaderSize = 64;
inline constexpr std::size_t kCrcSize = 4;
/// Hard ceiling on samples per segment: bounds every size computation well
/// below u32 overflow and caps a single segment's memory at ~128 MiB.
inline constexpr std::uint32_t kMaxSegmentSamples = 1u << 24;

/// Payload encodings. Float32 is the lossless passthrough (bitwise
/// round-trip); the others trade fidelity for wire bytes, with documented
/// worst-case error per reconstructed component (DESIGN.md §13).
enum class Encoding : std::uint8_t {
  kFloat32 = 0,  // 8 B/sample, exact
  kFloat16 = 1,  // 4 B/sample, |err| <= 2^-11 for |v| <= 1
  kFixed8 = 2,   // 2 B/sample, |err| <= scale / 254
  kFixed12 = 3,  // 3 B/sample, |err| <= scale / 4094
  // Fixed-point bounds are the real-arithmetic quantization bounds; the
  // float32 encode/decode arithmetic adds at most a couple of ULPs of the
  // reconstructed component on top.
};

[[nodiscard]] const char* to_string(Encoding encoding) noexcept;
/// Wire bytes per sample for `encoding`.
[[nodiscard]] std::size_t bytes_per_sample(Encoding encoding) noexcept;
/// Exact payload size for `samples` samples (no padding in any encoding).
[[nodiscard]] std::size_t encoded_payload_bytes(Encoding encoding,
                                                std::size_t samples) noexcept;

/// IEEE 802.3 CRC-32 (reflected, poly 0xEDB88320, init/final 0xFFFFFFFF).
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> bytes) noexcept;

namespace flags {
inline constexpr std::uint8_t kEndOfStream = 0x01;
inline constexpr std::uint8_t kReservedMask = static_cast<std::uint8_t>(~kEndOfStream);
}  // namespace flags

/// One wire segment, exactly as transported.
struct Segment {
  std::vector<std::uint8_t> bytes;

  [[nodiscard]] std::size_t size() const noexcept { return bytes.size(); }
};

/// Decoded header fields (host order).
struct SegmentHeader {
  std::uint16_t version = kWireVersion;
  Encoding encoding = Encoding::kFloat32;
  std::uint8_t flags = 0;
  std::uint32_t stream_id = 0;
  std::uint32_t sequence = 0;
  std::uint32_t capture_index = 0;
  std::uint32_t sample_count = 0;
  std::uint32_t payload_bytes = 0;
  double center_freq_hz = 0.0;
  double sample_rate_hz = 0.0;
  double gain_db = 0.0;
  double timestamp_s = 0.0;
  float scale = 1.0f;

  [[nodiscard]] bool end_of_stream() const noexcept {
    return (flags & flags::kEndOfStream) != 0;
  }
};

/// Why a segment was rejected. kOk is the only accepting status; everything
/// else leaves the output untouched.
enum class DecodeStatus : std::uint8_t {
  kOk = 0,
  kTooShort,        // fewer bytes than header + CRC trailer
  kBadMagic,
  kBadVersion,      // any version != kWireVersion (strict v1 policy)
  kBadEncoding,     // encoding byte outside the enum
  kReservedFlags,   // reserved flag bits set
  kBadSampleCount,  // > kMaxSegmentSamples, or 0 without end-of-stream
  kLengthMismatch,  // payload_bytes lies about the encoding/sample_count,
                    // or total size != header + payload + CRC
  kBadScale,        // fixed-point scale not finite or <= 0
  kCrcMismatch,
};

[[nodiscard]] const char* to_string(DecodeStatus status) noexcept;

/// Validated view over one wire segment: header in host order plus a span
/// of the (CRC-checked) payload inside `bytes`. Valid only while the
/// underlying bytes live.
struct SegmentView {
  SegmentHeader header;
  std::span<const std::uint8_t> payload;
};

/// Strict bounds-checked parse of one wire segment. Every field is
/// validated (in the DecodeStatus order above) before the payload span is
/// exposed; on any failure `out` is untouched and the function returns the
/// reason. Never throws, never reads out of bounds.
[[nodiscard]] DecodeStatus parse_segment(std::span<const std::uint8_t> bytes,
                                         SegmentView& out) noexcept;

/// Reconstruct the IQ samples of a parsed segment into `out` (resized to
/// header.sample_count; reuse one buffer across calls for the zero-alloc
/// steady state). The view must come from parse_segment.
void decode_payload(const SegmentView& view, dsp::Buffer& out);

/// What a segment records about the producing device at capture time.
struct CaptureMeta {
  double center_freq_hz = 0.0;
  double sample_rate_hz = 0.0;
  double gain_db = 0.0;
  double timestamp_s = 0.0;
};

struct SegmentWriterConfig {
  Encoding encoding = Encoding::kFloat32;
  /// Captures larger than this are split across consecutive segments with
  /// the same capture_index (the decode farm reassembles them).
  std::size_t max_samples_per_segment = 65536;

  /// Throws std::invalid_argument naming the field on out-of-range values
  /// (the shared config-validation convention, DESIGN.md §13).
  void validate() const;
};

/// Encodes one node's capture stream into wire segments. Owns the
/// per-stream sequence/capture counters; one writer per producer stream
/// (not thread-safe, like the device it records).
class SegmentWriter {
 public:
  /// Validates `config` (throws std::invalid_argument naming the field).
  SegmentWriter(SegmentWriterConfig config, std::uint32_t stream_id);

  /// Encode one capture (split into >= 1 segments) and hand each segment to
  /// `sink`. Samples must describe one contiguous device capture.
  void write_capture(const CaptureMeta& meta, std::span<const dsp::Sample> samples,
                     const std::function<void(Segment&&)>& sink);

  /// Emit the end-of-stream marker (zero samples, kEndOfStream flag). Call
  /// exactly once, after the last capture.
  void finish(const CaptureMeta& meta, const std::function<void(Segment&&)>& sink);

  [[nodiscard]] std::uint32_t stream_id() const noexcept { return stream_id_; }
  [[nodiscard]] std::uint32_t segments_written() const noexcept { return sequence_; }

 private:
  [[nodiscard]] Segment encode(const CaptureMeta& meta, std::uint8_t seg_flags,
                               std::span<const dsp::Sample> samples);

  SegmentWriterConfig config_;
  std::uint32_t stream_id_ = 0;
  std::uint32_t sequence_ = 0;
  std::uint32_t capture_index_ = 0;
};

/// IEEE 754 binary16 conversions (round-to-nearest-even; values beyond
/// half range saturate to +-65504). Exposed for tests.
[[nodiscard]] std::uint16_t float_to_half(float value) noexcept;
[[nodiscard]] float half_to_float(std::uint16_t half) noexcept;

}  // namespace speccal::net

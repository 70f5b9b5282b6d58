#include "net/segment.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace speccal::net {

namespace {

// Little-endian field access. memcpy keeps every read/write in-bounds and
// alignment-safe; the compiler folds these into plain loads/stores.
template <typename T>
void put(std::uint8_t* base, std::size_t offset, T value) noexcept {
  std::memcpy(base + offset, &value, sizeof(T));
}

template <typename T>
[[nodiscard]] T get(const std::uint8_t* base, std::size_t offset) noexcept {
  T value;
  std::memcpy(&value, base + offset, sizeof(T));
  return value;
}

[[nodiscard]] const std::array<std::uint32_t, 256>& crc_table() noexcept {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  return table;
}

// Fixed-point quantization: symmetric two's-complement range [-qmax, qmax]
// scaled so `scale` maps to qmax. Encoder and decoder share these so the
// documented error bound (scale / (2 * qmax)) is exact.
[[nodiscard]] std::int32_t quantize_fixed(float v, float scale,
                                          std::int32_t qmax) noexcept {
  const float unit = scale > 0.0f ? v / scale : 0.0f;
  // NaN / inf components (a chaos-injected NaN burst is a legal capture)
  // quantize to zero rather than tripping lround's undefined behaviour.
  if (!std::isfinite(unit)) return 0;
  const auto q = static_cast<std::int32_t>(
      std::lround(std::clamp(unit, -1.0f, 1.0f) * static_cast<float>(qmax)));
  return std::clamp(q, -qmax, qmax);
}

[[nodiscard]] float dequantize_fixed(std::int32_t q, float scale,
                                     std::int32_t qmax) noexcept {
  return static_cast<float>(q) * scale / static_cast<float>(qmax);
}

/// Per-segment fixed-point full scale: the largest component magnitude, or
/// 1.0 for an all-zero block (any positive value reconstructs zeros).
[[nodiscard]] float fixed_scale(std::span<const dsp::Sample> samples) noexcept {
  float peak = 0.0f;
  for (const dsp::Sample& s : samples)
    peak = std::max({peak, std::abs(s.real()), std::abs(s.imag())});
  return (peak > 0.0f && std::isfinite(peak)) ? peak : 1.0f;
}

[[nodiscard]] std::int32_t sign_extend_12(std::uint32_t raw) noexcept {
  return static_cast<std::int32_t>((raw ^ 0x800u)) - 0x800;
}

}  // namespace

const char* to_string(Encoding encoding) noexcept {
  switch (encoding) {
    case Encoding::kFloat32: return "float32";
    case Encoding::kFloat16: return "float16";
    case Encoding::kFixed8: return "fixed8";
    case Encoding::kFixed12: return "fixed12";
  }
  return "unknown";
}

std::size_t bytes_per_sample(Encoding encoding) noexcept {
  switch (encoding) {
    case Encoding::kFloat32: return 8;
    case Encoding::kFloat16: return 4;
    case Encoding::kFixed8: return 2;
    case Encoding::kFixed12: return 3;
  }
  return 0;
}

std::size_t encoded_payload_bytes(Encoding encoding, std::size_t samples) noexcept {
  return bytes_per_sample(encoding) * samples;
}

std::uint32_t crc32(std::span<const std::uint8_t> bytes) noexcept {
  const auto& table = crc_table();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const std::uint8_t b : bytes)
    crc = table[(crc ^ b) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

const char* to_string(DecodeStatus status) noexcept {
  switch (status) {
    case DecodeStatus::kOk: return "ok";
    case DecodeStatus::kTooShort: return "too_short";
    case DecodeStatus::kBadMagic: return "bad_magic";
    case DecodeStatus::kBadVersion: return "bad_version";
    case DecodeStatus::kBadEncoding: return "bad_encoding";
    case DecodeStatus::kReservedFlags: return "reserved_flags";
    case DecodeStatus::kBadSampleCount: return "bad_sample_count";
    case DecodeStatus::kLengthMismatch: return "length_mismatch";
    case DecodeStatus::kBadScale: return "bad_scale";
    case DecodeStatus::kCrcMismatch: return "crc_mismatch";
  }
  return "unknown";
}

std::uint16_t float_to_half(float value) noexcept {
  std::uint32_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  const std::uint32_t sign = (bits >> 16) & 0x8000u;
  std::int32_t exponent =
      static_cast<std::int32_t>((bits >> 23) & 0xFFu) - 127 + 15;
  std::uint32_t mantissa = bits & 0x007FFFFFu;

  if (((bits >> 23) & 0xFFu) == 0xFFu) {
    // Inf / NaN: keep the class (NaN payload truncated to the top bits).
    return static_cast<std::uint16_t>(
        sign | 0x7C00u | (mantissa != 0 ? (mantissa >> 13) | 0x1u : 0u));
  }
  if (exponent >= 0x1F) {
    // Overflow: saturate to the largest finite half (+-65504), not inf, so
    // a lossy segment never injects infinities into the DSP chain.
    return static_cast<std::uint16_t>(sign | 0x7BFFu);
  }
  if (exponent <= 0) {
    // Subnormal half (or underflow to zero), with round-to-nearest-even.
    if (exponent < -10) return static_cast<std::uint16_t>(sign);
    mantissa |= 0x00800000u;  // implicit leading 1
    const std::uint32_t shift = static_cast<std::uint32_t>(14 - exponent);
    const std::uint32_t rounded =
        (mantissa + (1u << (shift - 1)) - 1u + ((mantissa >> shift) & 1u)) >> shift;
    return static_cast<std::uint16_t>(sign | rounded);
  }
  // Normal: round mantissa to 10 bits, nearest-even; carry may bump the
  // exponent (handled naturally because the mantissa overflows into it).
  const std::uint32_t half =
      (static_cast<std::uint32_t>(exponent) << 10) | (mantissa >> 13);
  const std::uint32_t round_bit = (mantissa >> 12) & 1u;
  const std::uint32_t sticky = (mantissa & 0x0FFFu) != 0 ? 1u : 0u;
  std::uint32_t out = half;
  if (round_bit && (sticky || (half & 1u))) ++out;
  if (out >= 0x7C00u) out = 0x7BFFu;  // rounding crossed into inf: saturate
  return static_cast<std::uint16_t>(sign | out);
}

float half_to_float(std::uint16_t half) noexcept {
  const std::uint32_t sign = (static_cast<std::uint32_t>(half) & 0x8000u) << 16;
  const std::uint32_t exponent = (half >> 10) & 0x1Fu;
  const std::uint32_t mantissa = half & 0x3FFu;
  std::uint32_t bits;
  if (exponent == 0) {
    if (mantissa == 0) {
      bits = sign;  // signed zero
    } else {
      // Subnormal half -> normalized float.
      int e = -1;
      std::uint32_t m = mantissa;
      do {
        ++e;
        m <<= 1;
      } while ((m & 0x400u) == 0);
      bits = sign | (static_cast<std::uint32_t>(127 - 15 - e) << 23) |
             ((m & 0x3FFu) << 13);
    }
  } else if (exponent == 0x1Fu) {
    bits = sign | 0x7F800000u | (mantissa << 13);  // inf / NaN
  } else {
    bits = sign | ((exponent - 15 + 127) << 23) | (mantissa << 13);
  }
  float value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

DecodeStatus parse_segment(std::span<const std::uint8_t> bytes,
                           SegmentView& out) noexcept {
  if (bytes.size() < kHeaderSize + kCrcSize) return DecodeStatus::kTooShort;
  const std::uint8_t* p = bytes.data();

  if (get<std::uint32_t>(p, 0) != kMagic) return DecodeStatus::kBadMagic;

  SegmentHeader h;
  h.version = get<std::uint16_t>(p, 4);
  if (h.version != kWireVersion) return DecodeStatus::kBadVersion;

  const std::uint8_t encoding_byte = get<std::uint8_t>(p, 6);
  if (encoding_byte > static_cast<std::uint8_t>(Encoding::kFixed12))
    return DecodeStatus::kBadEncoding;
  h.encoding = static_cast<Encoding>(encoding_byte);

  h.flags = get<std::uint8_t>(p, 7);
  if ((h.flags & flags::kReservedMask) != 0) return DecodeStatus::kReservedFlags;

  h.stream_id = get<std::uint32_t>(p, 8);
  h.sequence = get<std::uint32_t>(p, 12);
  h.capture_index = get<std::uint32_t>(p, 16);
  h.sample_count = get<std::uint32_t>(p, 20);
  h.payload_bytes = get<std::uint32_t>(p, 24);
  h.center_freq_hz = get<double>(p, 28);
  h.sample_rate_hz = get<double>(p, 36);
  h.gain_db = get<double>(p, 44);
  h.timestamp_s = get<double>(p, 52);
  h.scale = get<float>(p, 60);

  if (h.sample_count > kMaxSegmentSamples ||
      (h.sample_count == 0 && !h.end_of_stream()))
    return DecodeStatus::kBadSampleCount;

  // The payload length must be derivable from (encoding, sample_count) AND
  // match the segment size exactly — a lying payload_bytes can neither
  // shrink nor grow what the decoder will read.
  const std::uint64_t expected_payload =
      encoded_payload_bytes(h.encoding, h.sample_count);
  if (h.payload_bytes != expected_payload) return DecodeStatus::kLengthMismatch;
  if (bytes.size() != kHeaderSize + expected_payload + kCrcSize)
    return DecodeStatus::kLengthMismatch;

  if ((h.encoding == Encoding::kFixed8 || h.encoding == Encoding::kFixed12) &&
      (!std::isfinite(h.scale) || h.scale <= 0.0f))
    return DecodeStatus::kBadScale;

  const std::uint32_t stored_crc =
      get<std::uint32_t>(p, bytes.size() - kCrcSize);
  if (crc32(bytes.first(bytes.size() - kCrcSize)) != stored_crc)
    return DecodeStatus::kCrcMismatch;

  out.header = h;
  out.payload = bytes.subspan(kHeaderSize, h.payload_bytes);
  return DecodeStatus::kOk;
}

void decode_payload(const SegmentView& view, dsp::Buffer& out) {
  const SegmentHeader& h = view.header;
  out.resize(h.sample_count);
  const std::uint8_t* p = view.payload.data();
  switch (h.encoding) {
    case Encoding::kFloat32:
      for (std::uint32_t i = 0; i < h.sample_count; ++i)
        out[i] = dsp::Sample(get<float>(p, 8 * i), get<float>(p, 8 * i + 4));
      break;
    case Encoding::kFloat16:
      for (std::uint32_t i = 0; i < h.sample_count; ++i)
        out[i] = dsp::Sample(half_to_float(get<std::uint16_t>(p, 4 * i)),
                             half_to_float(get<std::uint16_t>(p, 4 * i + 2)));
      break;
    case Encoding::kFixed8:
      for (std::uint32_t i = 0; i < h.sample_count; ++i) {
        const auto re = static_cast<std::int8_t>(get<std::uint8_t>(p, 2 * i));
        const auto im = static_cast<std::int8_t>(get<std::uint8_t>(p, 2 * i + 1));
        out[i] = dsp::Sample(dequantize_fixed(re, h.scale, 127),
                             dequantize_fixed(im, h.scale, 127));
      }
      break;
    case Encoding::kFixed12:
      for (std::uint32_t i = 0; i < h.sample_count; ++i) {
        const std::uint32_t b0 = get<std::uint8_t>(p, 3 * i);
        const std::uint32_t b1 = get<std::uint8_t>(p, 3 * i + 1);
        const std::uint32_t b2 = get<std::uint8_t>(p, 3 * i + 2);
        const std::uint32_t raw_i = b0 | ((b1 & 0x0Fu) << 8);
        const std::uint32_t raw_q = ((b1 >> 4) & 0x0Fu) | (b2 << 4);
        out[i] = dsp::Sample(
            dequantize_fixed(sign_extend_12(raw_i), h.scale, 2047),
            dequantize_fixed(sign_extend_12(raw_q), h.scale, 2047));
      }
      break;
  }
}

void SegmentWriterConfig::validate() const {
  if (static_cast<std::uint8_t>(encoding) >
      static_cast<std::uint8_t>(Encoding::kFixed12))
    throw std::invalid_argument(
        "SegmentWriterConfig.encoding must be a defined Encoding value");
  if (max_samples_per_segment < 1 ||
      max_samples_per_segment > kMaxSegmentSamples)
    throw std::invalid_argument(
        "SegmentWriterConfig.max_samples_per_segment must be in [1, " +
        std::to_string(kMaxSegmentSamples) + "]");
}

SegmentWriter::SegmentWriter(SegmentWriterConfig config, std::uint32_t stream_id)
    : config_(config), stream_id_(stream_id) {
  config_.validate();
}

Segment SegmentWriter::encode(const CaptureMeta& meta, std::uint8_t seg_flags,
                              std::span<const dsp::Sample> samples) {
  const std::size_t payload = encoded_payload_bytes(config_.encoding, samples.size());
  Segment segment;
  segment.bytes.resize(kHeaderSize + payload + kCrcSize);
  std::uint8_t* p = segment.bytes.data();

  const float scale = (config_.encoding == Encoding::kFixed8 ||
                       config_.encoding == Encoding::kFixed12)
                          ? fixed_scale(samples)
                          : 1.0f;

  put<std::uint32_t>(p, 0, kMagic);
  put<std::uint16_t>(p, 4, kWireVersion);
  put<std::uint8_t>(p, 6, static_cast<std::uint8_t>(config_.encoding));
  put<std::uint8_t>(p, 7, seg_flags);
  put<std::uint32_t>(p, 8, stream_id_);
  put<std::uint32_t>(p, 12, sequence_);
  put<std::uint32_t>(p, 16, capture_index_);
  put<std::uint32_t>(p, 20, static_cast<std::uint32_t>(samples.size()));
  put<std::uint32_t>(p, 24, static_cast<std::uint32_t>(payload));
  put<double>(p, 28, meta.center_freq_hz);
  put<double>(p, 36, meta.sample_rate_hz);
  put<double>(p, 44, meta.gain_db);
  put<double>(p, 52, meta.timestamp_s);
  put<float>(p, 60, scale);

  std::uint8_t* body = p + kHeaderSize;
  switch (config_.encoding) {
    case Encoding::kFloat32:
      for (std::size_t i = 0; i < samples.size(); ++i) {
        put<float>(body, 8 * i, samples[i].real());
        put<float>(body, 8 * i + 4, samples[i].imag());
      }
      break;
    case Encoding::kFloat16:
      for (std::size_t i = 0; i < samples.size(); ++i) {
        put<std::uint16_t>(body, 4 * i, float_to_half(samples[i].real()));
        put<std::uint16_t>(body, 4 * i + 2, float_to_half(samples[i].imag()));
      }
      break;
    case Encoding::kFixed8:
      for (std::size_t i = 0; i < samples.size(); ++i) {
        put<std::uint8_t>(body, 2 * i,
                          static_cast<std::uint8_t>(static_cast<std::int8_t>(
                              quantize_fixed(samples[i].real(), scale, 127))));
        put<std::uint8_t>(body, 2 * i + 1,
                          static_cast<std::uint8_t>(static_cast<std::int8_t>(
                              quantize_fixed(samples[i].imag(), scale, 127))));
      }
      break;
    case Encoding::kFixed12:
      for (std::size_t i = 0; i < samples.size(); ++i) {
        const std::uint32_t raw_i = static_cast<std::uint32_t>(
                                        quantize_fixed(samples[i].real(), scale, 2047)) &
                                    0xFFFu;
        const std::uint32_t raw_q = static_cast<std::uint32_t>(
                                        quantize_fixed(samples[i].imag(), scale, 2047)) &
                                    0xFFFu;
        put<std::uint8_t>(body, 3 * i, static_cast<std::uint8_t>(raw_i & 0xFFu));
        put<std::uint8_t>(body, 3 * i + 1,
                          static_cast<std::uint8_t>(((raw_i >> 8) & 0x0Fu) |
                                                    ((raw_q & 0x0Fu) << 4)));
        put<std::uint8_t>(body, 3 * i + 2,
                          static_cast<std::uint8_t>((raw_q >> 4) & 0xFFu));
      }
      break;
  }

  put<std::uint32_t>(p, segment.bytes.size() - kCrcSize,
                     crc32(std::span<const std::uint8_t>(
                         segment.bytes.data(), segment.bytes.size() - kCrcSize)));

  ++sequence_;
  static obs::Counter& segments =
      obs::Registry::global().counter("speccal_net_segments_encoded_total");
  static obs::Counter& wire_bytes =
      obs::Registry::global().counter("speccal_net_bytes_encoded_total");
  segments.add();
  wire_bytes.add(segment.bytes.size());
  return segment;
}

void SegmentWriter::write_capture(const CaptureMeta& meta,
                                  std::span<const dsp::Sample> samples,
                                  const std::function<void(Segment&&)>& sink) {
  CaptureMeta chunk_meta = meta;
  std::size_t offset = 0;
  // A zero-sample data segment is invalid on the wire, so an empty capture
  // records nothing (it carries no information to replay).
  while (offset < samples.size()) {
    const std::size_t n =
        std::min(config_.max_samples_per_segment, samples.size() - offset);
    chunk_meta.timestamp_s =
        meta.timestamp_s +
        (meta.sample_rate_hz > 0.0
             ? static_cast<double>(offset) / meta.sample_rate_hz
             : 0.0);
    sink(encode(chunk_meta, 0, samples.subspan(offset, n)));
    offset += n;
  }
  if (!samples.empty()) ++capture_index_;
}

void SegmentWriter::finish(const CaptureMeta& meta,
                           const std::function<void(Segment&&)>& sink) {
  sink(encode(meta, flags::kEndOfStream, {}));
}

}  // namespace speccal::net

// Segment ingest throughput: encode and decode rates for every wire
// encoding, single-threaded — i.e. per decode-farm core. The decode path
// measured here (parse_segment + decode_payload into a reused buffer) is
// exactly what one DecodeFarm worker runs per segment, so segments/s here
// times decode_threads bounds farm ingest.
//
// Also self-checks each lossy encoding against its documented worst-case
// error (segment.hpp) and exits nonzero on a violation — the bench doubles
// as the tolerance conformance gate in CI.
//
// Results go to BENCH_ingest.json (--json=PATH; schema v1). --iters=N
// scales the number of timed passes over the capture set; N must be a
// positive JSON integer (anything else is a usage error, exit 2).
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "net/segment.hpp"
#include "util/json.hpp"
#include "util/args.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace speccal;

namespace {

constexpr std::uint64_t kSeed = 17;
constexpr std::size_t kCaptures = 24;
constexpr std::size_t kSamplesPerCapture = 65536;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// IQ with the dynamic range the simulator produces (unit-ish peaks).
std::vector<dsp::Buffer> make_captures() {
  util::Rng rng(kSeed);
  std::vector<dsp::Buffer> captures(kCaptures);
  for (auto& buf : captures) {
    buf.resize(kSamplesPerCapture);
    for (auto& s : buf)
      s = dsp::Sample(static_cast<float>(rng.normal(0.0, 0.25)),
                      static_cast<float>(rng.normal(0.0, 0.25)));
  }
  return captures;
}

struct EncodingRow {
  net::Encoding encoding = net::Encoding::kFloat32;
  std::size_t wire_bytes = 0;           // total wire bytes for the capture set
  double encode_segments_per_s = 0.0;   // per core (single-threaded)
  double encode_mbytes_per_s = 0.0;
  double decode_segments_per_s = 0.0;
  double decode_mbytes_per_s = 0.0;
  double max_abs_error = 0.0;           // vs the float32 originals
  double error_bound = 0.0;             // documented bound (0 = exact)
  bool within_tolerance = true;
};

/// Documented worst-case reconstruction error for `encoding` given the
/// per-segment scale (segment.hpp), plus a couple of ULPs of float
/// rounding in the encode/decode arithmetic.
double error_bound_for(net::Encoding encoding, float scale, float peak) {
  const double ulps = std::ldexp(static_cast<double>(peak), -22);
  switch (encoding) {
    case net::Encoding::kFloat32:
      return 0.0;
    case net::Encoding::kFloat16:
      return std::ldexp(1.0, -11) * std::max(1.0f, peak);
    case net::Encoding::kFixed8:
      return static_cast<double>(scale) / 254.0 + ulps;
    case net::Encoding::kFixed12:
      return static_cast<double>(scale) / 4094.0 + ulps;
  }
  return 0.0;
}

EncodingRow run_encoding(net::Encoding encoding,
                         const std::vector<dsp::Buffer>& captures, int iters) {
  EncodingRow row;
  row.encoding = encoding;

  net::CaptureMeta meta;
  meta.center_freq_hz = 605e6;
  meta.sample_rate_hz = 2.4e6;
  meta.gain_db = 30.0;

  net::SegmentWriterConfig cfg;
  cfg.encoding = encoding;

  // Reference wire stream (kept for the decode passes and the self-check).
  std::vector<net::Segment> wire;
  {
    net::SegmentWriter writer(cfg, 1);
    for (const auto& capture : captures)
      writer.write_capture(meta, capture,
                           [&](net::Segment&& s) { wire.push_back(std::move(s)); });
  }
  for (const auto& seg : wire) row.wire_bytes += seg.size();

  // Encode throughput: re-encode the capture set `iters` times.
  std::size_t encoded_segments = 0;
  const auto encode_start = Clock::now();
  for (int it = 0; it < iters; ++it) {
    net::SegmentWriter writer(cfg, 1);
    for (const auto& capture : captures)
      writer.write_capture(meta, capture,
                           [&](net::Segment&& s) { ++encoded_segments; (void)s; });
  }
  const double encode_s = seconds_since(encode_start);
  row.encode_segments_per_s = static_cast<double>(encoded_segments) / encode_s;
  row.encode_mbytes_per_s = static_cast<double>(row.wire_bytes) *
                            static_cast<double>(iters) / encode_s / 1e6;

  // Decode throughput: the farm worker's inner loop over the wire stream.
  dsp::Buffer scratch;
  std::size_t decoded_segments = 0;
  const auto decode_start = Clock::now();
  for (int it = 0; it < iters; ++it) {
    for (const auto& seg : wire) {
      net::SegmentView view;
      if (net::parse_segment(seg.bytes, view) != net::DecodeStatus::kOk) {
        std::cerr << "ingest: reference segment failed to parse\n";
        std::exit(1);
      }
      net::decode_payload(view, scratch);
      ++decoded_segments;
    }
  }
  const double decode_s = seconds_since(decode_start);
  row.decode_segments_per_s = static_cast<double>(decoded_segments) / decode_s;
  row.decode_mbytes_per_s = static_cast<double>(row.wire_bytes) *
                            static_cast<double>(iters) / decode_s / 1e6;

  // Tolerance self-check against the float32 originals.
  std::size_t capture_i = 0, offset = 0;
  for (const auto& seg : wire) {
    net::SegmentView view;
    (void)net::parse_segment(seg.bytes, view);
    net::decode_payload(view, scratch);
    const auto& original = captures[capture_i];
    float peak = 0.0f;
    for (std::size_t i = 0; i < scratch.size(); ++i) {
      const auto& o = original[offset + i];
      peak = std::max({peak, std::abs(o.real()), std::abs(o.imag())});
      row.max_abs_error = std::max(
          {row.max_abs_error,
           static_cast<double>(std::abs(scratch[i].real() - o.real())),
           static_cast<double>(std::abs(scratch[i].imag() - o.imag()))});
    }
    row.error_bound = std::max(
        row.error_bound, error_bound_for(encoding, view.header.scale, peak));
    offset += scratch.size();
    if (offset == original.size()) {
      offset = 0;
      ++capture_i;
    }
  }
  row.within_tolerance = row.max_abs_error <= row.error_bound ||
                         (encoding == net::Encoding::kFloat32 &&
                          row.max_abs_error == 0.0);
  return row;
}

bool write_bench_json(const std::string& path, const std::vector<EncodingRow>& rows,
                      int iters) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "ingest: cannot write " << path << "\n";
    return false;
  }
  util::JsonWriter w(os);
  w.begin_object();
  w.key("bench");
  w.value("ingest");
  w.key("schema_version");
  w.value(1);
  w.key("captures");
  w.value(kCaptures);
  w.key("samples_per_capture");
  w.value(kSamplesPerCapture);
  w.key("iters");
  w.value(static_cast<std::size_t>(iters));
  w.key("hardware_threads");
  w.value(static_cast<std::size_t>(std::thread::hardware_concurrency()));
  // All rates are single-threaded, i.e. per decode-farm core.
  w.key("results");
  w.begin_array();
  for (const auto& row : rows) {
    w.begin_object();
    w.key("encoding");
    w.value(net::to_string(row.encoding));
    w.key("bytes_per_sample");
    w.value(net::bytes_per_sample(row.encoding));
    w.key("wire_bytes");
    w.value(row.wire_bytes);
    w.key("encode_segments_per_s");
    w.value(row.encode_segments_per_s);
    w.key("encode_mbytes_per_s");
    w.value(row.encode_mbytes_per_s);
    w.key("decode_segments_per_s");
    w.value(row.decode_segments_per_s);
    w.key("decode_mbytes_per_s");
    w.value(row.decode_mbytes_per_s);
    w.key("max_abs_error");
    w.value(row.max_abs_error);
    w.key("error_bound");
    w.value(row.error_bound);
    w.key("within_tolerance");
    w.value(row.within_tolerance);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << "\n";
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_ingest.json";
  int iters = 8;
  try {
    util::Args args(argc, argv);
    json_path = args.text("--json").value_or(json_path);
    iters = args.integer("--iters", iters, 1);
    args.finish();
  } catch (const std::invalid_argument& e) {
    return util::usage_error("ingest", e.what(), "[--json=PATH] [--iters=N]");
  }

  const auto captures = make_captures();
  std::cout << "Segment ingest: " << kCaptures << " captures x "
            << kSamplesPerCapture << " samples, " << iters
            << " timed passes, single-threaded (per farm core)\n";

  const net::Encoding encodings[] = {
      net::Encoding::kFloat32, net::Encoding::kFloat16, net::Encoding::kFixed8,
      net::Encoding::kFixed12};
  std::vector<EncodingRow> rows;
  for (const auto encoding : encodings)
    rows.push_back(run_encoding(encoding, captures, iters));

  util::Table table({"encoding", "B/sample", "enc seg/s", "enc MB/s",
                     "dec seg/s", "dec MB/s", "max err", "bound"});
  bool all_within = true;
  for (const auto& row : rows) {
    char max_err[32], bound[32];
    std::snprintf(max_err, sizeof(max_err), "%.3e", row.max_abs_error);
    std::snprintf(bound, sizeof(bound), "%.3e", row.error_bound);
    table.add_row({net::to_string(row.encoding),
                   std::to_string(net::bytes_per_sample(row.encoding)),
                   std::to_string(static_cast<long>(row.encode_segments_per_s)),
                   std::to_string(static_cast<long>(row.encode_mbytes_per_s)),
                   std::to_string(static_cast<long>(row.decode_segments_per_s)),
                   std::to_string(static_cast<long>(row.decode_mbytes_per_s)),
                   max_err, bound});
    all_within = all_within && row.within_tolerance;
  }
  table.print(std::cout);

  if (!write_bench_json(json_path, rows, iters)) return 1;
  std::cout << "wrote " << json_path << "\n";

  if (!all_within) {
    std::cerr << "ingest: FAIL — an encoding exceeded its documented "
                 "error bound\n";
    return 1;
  }
  std::cout << "all encodings within documented error bounds\n";
  return 0;
}

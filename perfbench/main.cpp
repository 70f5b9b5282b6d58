// speccal end-to-end benchmark. Runs the workload named on the command
// line and prints a self-describing header line, a table of its metrics
// and, last, one JSON result line:
//   {"correct": true, "attempted": 40, "failed": 0,
//    "metrics": {"nodes_per_s": {"value": 2.17, "unit": "nodes/s"}, ...}}
// Exit status: 0 when every check passed, 1 when one failed, 2 on a usage
// error (no result printed). See perfbench/README.md.
#include <sched.h>

#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli.hpp"
#include "dsp/simd.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
// Where result and trace files go: "results" in the build tree.
#ifndef PERFBENCH_RESULTS_DIR
#define PERFBENCH_RESULTS_DIR "results"
#endif

namespace {

using perfbench::Options;
using perfbench::WorkloadResult;

/// Shortest text that reads back as the same double.
std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc{} ? std::string(buf, ptr) : "0";
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

unsigned usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return static_cast<unsigned>(CPU_COUNT(&set));
}

std::string header_json(const Options& opt, const WorkloadResult& r) {
  std::ostringstream os;
  os << "{\"commit\": " << quoted(opt.commit)
     << ", \"source_digest\": " << quoted(opt.source_digest)
     << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
     << ", \"compiler\": " << quoted(compiler())
     << ", \"simd_backend\": " << quoted(speccal::dsp::simd::backend_name())
     << ", \"hardware_threads\": " << std::thread::hardware_concurrency()
     << ", \"nproc\": " << usable_cpus() << ", \"workload\": " << quoted(r.workload)
     << ", \"seed\": " << opt.seed << ", \"fleet_size\": " << r.fleet_size
     << ", \"trace\": " << (opt.trace ? 1 : 0) << ", \"seconds\": " << number(opt.seconds)
     << ", \"passes\": " << r.passes << ", \"traced_passes\": " << r.traced_passes
     << ", \"latency_samples\": " << r.latency_samples
     << ", \"node_latency_p75_ms\": " << number(r.latency_p75_ms) << ", \"pass_wall_s\": [";
  for (std::size_t i = 0; i < r.pass_wall_s.size(); ++i)
    os << (i ? ", " : "") << number(r.pass_wall_s[i]);
  os << "], \"pass_peak_rss_mb\": [";
  for (std::size_t i = 0; i < r.pass_peak_rss_mb.size(); ++i)
    os << (i ? ", " : "") << number(r.pass_peak_rss_mb[i]);
  os << "]"
     << ", \"failed_frac\": "
     << number(r.attempted ? static_cast<double>(r.failed) / r.attempted : 1.0) << "}";
  return os.str();
}

std::string result_json(const WorkloadResult& r) {
  std::ostringstream os;
  os << "{\"correct\": " << (r.correct ? "true" : "false") << ", \"attempted\": "
     << std::max<std::size_t>(r.attempted, 1) << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i)
    os << (i ? ", " : "") << quoted(r.metrics[i].name) << ": {\"value\": "
       << number(r.metrics[i].value) << ", \"unit\": " << quoted(r.metrics[i].unit) << "}";
  os << "}}";
  return os.str();
}

void print_table(const WorkloadResult& r) {
  std::cout << "  " << r.workload << ": " << r.passes << " timed passes";
  if (r.traced_passes) std::cout << " (" << r.traced_passes << " traced)";
  std::cout << ", " << r.fleet_size << " nodes each, " << r.failed << " of " << r.attempted
            << " node calibrations failed\n";
  for (const auto& m : r.metrics)
    std::cout << "    " << std::left << std::setw(36) << m.name << std::right << std::setw(16)
              << number(m.value) << " " << m.unit << "\n";
  for (const auto& p : r.problems) std::cout << "    FAIL " << p << "\n";
}

void write_files(const Options& opt, const WorkloadResult& r, const std::string& header) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(PERFBENCH_RESULTS_DIR, ec);
  const std::string stem =
      (fs::path(PERFBENCH_RESULTS_DIR) /
       (r.workload + "-seed" + std::to_string(opt.seed) + "-trace" + (opt.trace ? "1" : "0")))
          .string();
  std::ofstream os(stem + ".json");
  os << "{\"header\": " << header << ",\n \"result\": " << result_json(r)
     << ",\n \"problems\": [";
  for (std::size_t i = 0; i < r.problems.size(); ++i)
    os << (i ? ", " : "") << quoted(r.problems[i]);
  os << "]";
  if (!r.counter_deltas_json.empty())
    os << ",\n \"counter_deltas\": " << r.counter_deltas_json;
  os << "}\n";
  if (!r.chrome_trace.empty()) std::ofstream(stem + ".chrome.json") << r.chrome_trace;
  if (!os) std::cerr << "perfbench: could not write " << stem << ".json\n";
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::ParseResult parsed =
      perfbench::parse_args(std::vector<std::string>(argv + 1, argv + argc));
  if (parsed.help) {
    std::cout << perfbench::usage();
    return 0;
  }
  if (!parsed.options) {
    std::cerr << "speccal_perfbench: " << parsed.error << "\n" << perfbench::usage();
    return 2;
  }
  const Options& opt = *parsed.options;

  const WorkloadResult r = perfbench::run_workload(opt.workload, opt);
  const std::string header = header_json(opt, r);
  std::cout << "perfbench " << header << "\n";
  print_table(r);
  write_files(opt, r, header);
  std::cout << result_json(r) << std::endl;
  return r.correct ? 0 : 1;
}

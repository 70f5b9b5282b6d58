#include "cli.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <set>

namespace perfbench {

namespace {

/// Whole decimal number in [lo, hi]; digits only, nothing trailing.
template <typename T>
bool parse_uint(std::string_view text, T lo, T hi, T& out) {
  if (text.empty() || text.size() > 20) return false;
  if (!std::all_of(text.begin(), text.end(), [](char c) { return c >= '0' && c <= '9'; }))
    return false;
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc{} || ptr != text.data() + text.size()) return false;
  if (v < lo || v > hi) return false;
  out = static_cast<T>(v);
  return true;
}

bool parse_seconds(std::string_view text, double& out) {
  if (text.empty() || text.front() == '-' || text.front() == '+') return false;
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), v,
                                         std::chars_format::fixed);
  if (ec != std::errc{} || ptr != text.data() + text.size()) return false;
  if (!std::isfinite(v) || v < 0.0 || v > 3600.0) return false;
  out = v;
  return true;
}

}  // namespace

std::string usage() {
  return "usage: speccal_perfbench --workload NAME [--seed N] [--seconds S]\n"
         "                         [--runs N] [--trace 0|1] [--corrupt-segments N]\n"
         "                         [--commit SHA] [--source-digest HEX]\n"
         "workloads: fleet_serial fleet_parallel wire_replay paper_sites\n"
         "  --seed N              world and node seed, 0..2^63 (default 13)\n"
         "  --seconds S           measuring time per workload, 0..3600 (default 10)\n"
         "  --runs N              minimum timed passes, 1..1000 (default 2)\n"
         "  --trace 0|1           1 = traced run reporting per-layer metrics\n"
         "  --corrupt-segments N  wire_replay only: flip a byte in N wire segments\n";
}

ParseResult parse_args(const std::vector<std::string>& args) {
  ParseResult result;
  Options opt;
  std::set<std::string> seen;
  const auto fail = [&](std::string why) {
    result.error = std::move(why);
    return result;
  };

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--help" || arg == "-h") {
      result.help = true;
      return result;
    }
    if (arg.rfind("--", 0) != 0) return fail("unexpected argument '" + arg + "'");
    std::string flag = arg;
    std::string value;
    if (const std::size_t eq = arg.find('='); eq != std::string::npos) {
      flag = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else {
      if (i + 1 >= args.size()) return fail(flag + " needs a value");
      value = args[++i];
    }
    if (!seen.insert(flag).second) return fail(flag + " given twice");

    bool ok = true;
    if (flag == "--workload") {
      ok = std::find(std::begin(kWorkloads), std::end(kWorkloads), value) !=
           std::end(kWorkloads);
      opt.workload = value;
    } else if (flag == "--seed") {
      ok = parse_uint<std::uint64_t>(value, 0, std::uint64_t{1} << 63, opt.seed);
    } else if (flag == "--seconds") {
      ok = parse_seconds(value, opt.seconds);
    } else if (flag == "--runs") {
      ok = parse_uint<unsigned>(value, 1, 1000, opt.runs);
    } else if (flag == "--trace") {
      ok = value == "0" || value == "1";
      opt.trace = value == "1";
    } else if (flag == "--corrupt-segments") {
      ok = parse_uint<unsigned>(value, 0, 1000000, opt.corrupt_segments);
    } else if (flag == "--commit") {
      ok = !value.empty();
      opt.commit = value;
    } else if (flag == "--source-digest") {
      ok = !value.empty();
      opt.source_digest = value;
    } else {
      return fail("unknown flag " + flag);
    }
    if (!ok) return fail("bad value for " + flag + ": '" + value + "'");
  }
  if (!seen.contains("--workload")) return fail("--workload is required");
  if (opt.corrupt_segments > 0 && opt.workload != "wire_replay")
    return fail("--corrupt-segments needs --workload wire_replay");
  result.options = std::move(opt);
  return result;
}

}  // namespace perfbench

// Strict command line of the benchmark binary.
//
// Every flag takes a value, spelled `--flag value` or `--flag=value`.
// Unknown flags, repeated flags, unknown workloads and malformed or
// out-of-range numbers are usage errors: parse_args() reports them instead
// of throwing, and main() exits 2 without printing a result. One process
// runs one workload, so no workload inherits another's heap or warm caches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// The four workloads.
inline constexpr std::string_view kWorkloads[] = {"fleet_serial", "fleet_parallel",
                                                  "wire_replay", "paper_sites"};

struct Options {
  std::string workload;                // a name from kWorkloads
  std::uint64_t seed = 13;             // world and node seed
  double seconds = 10.0;               // measuring time per workload
  unsigned runs = 2;                   // minimum timed passes per workload
  bool trace = false;                  // traced run: per-layer metrics
  std::size_t nodes = 20;              // fleet size (fleet and wire workloads); not a flag
  unsigned corrupt_segments = 0;       // wire_replay: damage this many segments
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

struct ParseResult {
  std::optional<Options> options;  // set when the command line is valid
  bool help = false;               // --help was given
  std::string error;               // why the command line was refused
};

[[nodiscard]] ParseResult parse_args(const std::vector<std::string>& args);

[[nodiscard]] std::string usage();

}  // namespace perfbench

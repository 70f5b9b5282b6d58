// Value pins: the measurement-only report JSON (write_json(os, false)) of
// two seeded inputs, compared field by field with tests/golden/ under one
// tolerance table.
//
//   fleet_seed13.json        perfbench's fleet: seed 13, 20 nodes,
//                            link-budget survey, claims varied by index
//   paper_sites_seed13.json  the paper's three sites, 10 s waveform survey
//
// Every run writes the reports it computed to golden/ in the build tree;
// a mismatch also prints every field that moved. A change that moves
// report values on purpose regenerates a pin by copying that file over the
// one in tests/golden/, and declares the diff in CHANGES.md.
//
// The written files are also the cross-tier contract (DESIGN.md §14): the
// pins hold values only to their tolerances, but the SSE2 and scalar builds
// must compute the same bytes, and CI's tier-identity job `cmp`s the files
// of the default, forced-scalar and ASan + UBSan legs.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "calib/fleet.hpp"
#include "scenario/testbed.hpp"
#include "util/json_reader.hpp"

namespace cal = speccal::calib;
namespace sc = speccal::scenario;
using speccal::util::JsonReader;

namespace {

constexpr std::uint64_t kSeed = 13;

/// Largest accepted |actual - pinned| per numeric field, by field name
/// (names are unique in the report schema). Every other value — numbers,
/// strings, booleans, array lengths and key sets — must match exactly.
struct Tolerance {
  std::string_view field;
  double abs;
};
constexpr std::array kTolerances{
    Tolerance{"power_dbfs", 0.05},               // tv_sweep
    Tolerance{"rsrp_dbm", 0.05},                 // cell_scan
    Tolerance{"mean_attenuation_db", 0.05},      // frequency_response, bands
    Tolerance{"slope_db_per_decade", 0.05},      // frequency_response
    Tolerance{"estimated_cable_loss_db", 0.05},  // hardware
    Tolerance{"ppm", 0.05},                      // lo_calibration
    Tolerance{"score", 0.5},                     // trust
};

double tolerance_for(std::string_view field) {
  for (const Tolerance& t : kTolerances)
    if (t.field == field) return t.abs;
  return 0.0;
}

std::string format(double x) {
  std::ostringstream os;
  os.precision(12);
  os << x;
  return os.str();
}

/// A scalar as JSON text; containers as "[...]" / "{...}".
std::string describe(const JsonReader::Value& v) {
  if (v.is_null()) return "null";
  if (v.is_bool()) return v.boolean() ? "true" : "false";
  if (v.is_string()) return '"' + v.str() + '"';
  if (v.is_number()) return format(v.number());
  return v.is_array() ? "[...]" : "{...}";
}

/// Appends one line per difference between `pinned` and `actual`; `field`
/// is the object key the values sit under (array entries inherit it).
void diff(const JsonReader::Value& pinned, const JsonReader::Value& actual,
          const std::string& path, std::string_view field, std::vector<std::string>& out) {
  if (pinned.is_number() && actual.is_number()) {
    const double tol = tolerance_for(field);
    if (!(std::abs(actual.number() - pinned.number()) <= tol))
      out.push_back(path + ": pinned " + describe(pinned) + ", got " + describe(actual) +
                    (tol > 0.0 ? " (tolerance " + format(tol) + ")" : " (exact)"));
    return;
  }
  if (pinned.is_object() && actual.is_object()) {
    for (const auto& [key, value] : pinned.object()) {
      if (actual.has(key))
        diff(value, actual.at(key), path + "." + key, key, out);
      else
        out.push_back(path + "." + key + ": pinned, missing from the report");
    }
    for (const auto& [key, value] : actual.object())
      if (!pinned.has(key)) out.push_back(path + "." + key + ": in the report, not pinned");
    return;
  }
  if (pinned.is_array() && actual.is_array()) {
    const auto& want = pinned.array();
    const auto& got = actual.array();
    if (want.size() != got.size()) {
      out.push_back(path + ": pinned " + std::to_string(want.size()) + " entries, got " +
                    std::to_string(got.size()));
      return;
    }
    for (std::size_t i = 0; i < want.size(); ++i)
      diff(want[i], got[i], path + "[" + std::to_string(i) + "]", field, out);
    return;
  }
  // Strings, booleans, null, or values of different types.
  if (describe(pinned) != describe(actual))
    out.push_back(path + ": pinned " + describe(pinned) + ", got " + describe(actual));
}

/// Field differences between two report arrays, paths rooted at node ids.
std::vector<std::string> diff_reports(std::string_view pinned, std::string_view actual) {
  const JsonReader::Value want_doc = JsonReader::parse(pinned);
  const JsonReader::Value got_doc = JsonReader::parse(actual);
  const auto& want = want_doc.array("pin");
  const auto& got = got_doc.array("reports");
  std::vector<std::string> out;
  if (want.size() != got.size())
    out.push_back("pinned " + std::to_string(want.size()) + " reports, got " +
                  std::to_string(got.size()));
  for (std::size_t i = 0; i < std::min(want.size(), got.size()); ++i)
    diff(want[i], got[i], want[i].at("node_id").str("node_id"), "", out);
  return out;
}

/// Calibrates `nodes` (site, claims) through FleetCalibrator and returns
/// their reports as a JSON array, one report per line in input order.
std::string calibrate(const cal::PipelineConfig& pipeline,
                      const std::vector<std::pair<sc::Site, cal::NodeClaims>>& nodes) {
  const auto world = sc::make_world(kSeed);
  cal::RunConfig run;
  run.pipeline = pipeline;
  run.executor.threads = 4;  // reports do not depend on it (test_fleet)
  std::vector<cal::FleetJob> jobs;
  for (const auto& [site, claims] : nodes) {
    cal::FleetJob job;
    job.claims = claims;
    job.make_device = [&world, site] { return sc::make_owned_node(site, world, kSeed); };
    jobs.push_back(std::move(job));
  }
  cal::NodeRegistry registry;
  (void)cal::FleetCalibrator(world, run).run(std::move(jobs), registry);

  std::string doc = "[\n";
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const cal::CalibrationReport* report = registry.find(nodes[i].second.node_id);
    if (report == nullptr) throw std::runtime_error("no report for " + nodes[i].second.node_id);
    std::ostringstream os;
    report->write_json(os, /*include_stage_metrics=*/false);
    doc += os.str() + (i + 1 < nodes.size() ? ",\n" : "\n");
  }
  return doc + "]\n";
}

void expect_matches_pin(const std::string& name, const std::string& actual) {
  const std::filesystem::path pin = std::filesystem::path(SPECCAL_GOLDEN_DIR) / name;
  const std::filesystem::path out = std::filesystem::path(SPECCAL_GOLDEN_OUT_DIR) / name;
  std::filesystem::create_directories(out.parent_path());
  std::ofstream(out) << actual;
  std::ifstream in(pin);
  std::ostringstream pinned;
  pinned << in.rdbuf();
  const std::vector<std::string> diffs =
      in ? diff_reports(pinned.str(), actual)
         : std::vector<std::string>{pin.string() + ": cannot read the pin"};
  if (diffs.empty()) return;

  std::string listing;
  for (const std::string& d : diffs) listing += "  " + d + "\n";
  ADD_FAILURE() << diffs.size() << " field(s) differ from " << pin.string() << ":\n"
                << listing << "The computed reports are in " << out.string()
                << "; copy that file over the pin to regenerate it.";
}

}  // namespace

TEST(GoldenDiff, AppliesTheToleranceTable) {
  const auto diffs = [](std::string_view a, std::string_view b) {
    return diff_reports(a, b).size();
  };
  const std::string pinned =
      R"([{"node_id":"n","tv_sweep":[{"channel":13,"power_dbfs":-20.0}],)"
      R"("trust":{"score":90,"findings":[]},"names":["a"]}])";
  EXPECT_EQ(diffs(pinned, pinned), 0u);
  // Inside the dB and trust tolerances.
  EXPECT_EQ(diffs(pinned, R"([{"node_id":"n","tv_sweep":[{"channel":13,"power_dbfs":-20.04}],)"
                          R"("trust":{"score":90.4,"findings":[]},"names":["a"]}])"),
            0u);
  // Outside them, and every exact field.
  EXPECT_EQ(diffs(pinned, R"([{"node_id":"n","tv_sweep":[{"channel":13,"power_dbfs":-20.06}],)"
                          R"("trust":{"score":90.6,"findings":[]},"names":["a"]}])"),
            2u);
  EXPECT_EQ(diffs(pinned, R"([{"node_id":"n","tv_sweep":[{"channel":14,"power_dbfs":-20.0}],)"
                          R"("trust":{"score":90,"findings":[{}]},"names":["b"]}])"),
            3u);
  // Key sets and report counts.
  EXPECT_EQ(diffs(pinned, R"([{"node_id":"n","tv_sweep":[],"trust":{"score":90,"findings":[]},)"
                          R"("names":["a"],"extra":1}])"),
            2u);
  EXPECT_EQ(diffs(pinned, "[]"), 1u);
}

TEST(Golden, SeededFleetMatchesPin) {
  // perfbench's fleet (perfbench/workloads.cpp, fleet_inputs).
  std::vector<std::pair<sc::Site, cal::NodeClaims>> nodes;
  for (std::size_t i = 0; i < 20; ++i) {
    const auto site = static_cast<sc::Site>(i % 3);
    cal::NodeClaims claims;
    claims.node_id = "node-" + std::to_string(i);
    claims.min_freq_hz = 100e6;
    claims.max_freq_hz = 6e9;
    claims.claims_outdoor = site != sc::Site::kIndoor;
    claims.claims_omnidirectional = i % 5 == 0;
    nodes.emplace_back(site, std::move(claims));
  }
  cal::PipelineConfig cfg;
  cfg.survey.fidelity = cal::Fidelity::kLinkBudget;
  expect_matches_pin("fleet_seed13.json", calibrate(cfg, nodes));
}

TEST(Golden, PaperSitesMatchPin) {
  // perfbench's paper_sites: the operator claims of examples/quickstart.
  std::vector<std::pair<sc::Site, cal::NodeClaims>> nodes;
  for (const sc::Site site : {sc::Site::kRooftop, sc::Site::kWindow, sc::Site::kIndoor}) {
    cal::NodeClaims claims;
    claims.node_id = sc::site_name(site);
    claims.claims_outdoor = true;
    claims.claims_omnidirectional = true;
    nodes.emplace_back(site, std::move(claims));
  }
  cal::PipelineConfig cfg;
  cfg.survey.fidelity = cal::Fidelity::kWaveform;
  cfg.survey.duration_s = 10.0;
  cfg.survey.ground_truth_query_at_s = 5.0;
  expect_matches_pin("paper_sites_seed13.json", calibrate(cfg, nodes));
}

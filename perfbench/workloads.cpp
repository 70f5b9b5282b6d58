#include "workloads.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "calib/fleet.hpp"
#include "layers.hpp"
#include "net/decode_farm.hpp"
#include "net/queue.hpp"
#include "scenario/testbed.hpp"
#include "sdr/segmentize.hpp"
#include "sdr/sim.hpp"

namespace perfbench {

namespace {

namespace cal = speccal::calib;
namespace net = speccal::net;
namespace obs = speccal::obs;
namespace scn = speccal::scenario;
namespace sdr = speccal::sdr;
using Clock = std::chrono::steady_clock;

/// fleet_parallel's executor width, and the producer run's in wire_replay.
constexpr unsigned kParallelThreads = 4;
/// paper_sites' ADS-B survey window (the paper uses 30 s), and its executor
/// width: one thread per site, so no node waits for a worker.
constexpr double kPaperSurveyWindowS = 10.0;
constexpr unsigned kPaperSites = 3;
/// A run starts no pass it expects to end later than this share of
/// --seconds after measuring began, so run time does not grow with a slow host.
constexpr double kMaxOvershoot = 1.3;
/// fleet_serial warms plan caches and scratch pools on this many nodes
/// (one per site) before timing.
constexpr std::size_t kWarmNodes = 3;
/// Stated gap for trace reconciliation where no node waits for a worker:
/// spans must cover node latency to within this share (or kReconcileFloorMs).
constexpr double kReconcileFrac = 0.05;
constexpr double kReconcileFloorMs = 5.0;
/// At most this many failed-check messages are kept per workload.
constexpr std::size_t kMaxProblems = 20;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Process user + system CPU time.
double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) { return t.tv_sec + t.tv_usec / 1e6; };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// A field of /proc/self/status in kB ("VmRSS", "VmHWM"), as MB.
double status_mb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind(field + ":", 0) == 0) return std::stod(line.substr(field.size() + 1)) / 1024.0;
  throw std::runtime_error("no " + field + " in /proc/self/status");
}

/// Peak resident set of one call, above the resident set before it: the
/// kernel's high-water mark is reset to the current RSS first.
class PeakRss {
 public:
  PeakRss() {
    std::ofstream clear("/proc/self/clear_refs");
    if (!(clear << "5" << std::flush))
      throw std::runtime_error("cannot reset the RSS high-water mark (/proc/self/clear_refs)");
    base_mb_ = status_mb("VmRSS");
  }
  [[nodiscard]] double mb() const { return status_mb("VmHWM") - base_mb_; }

 private:
  double base_mb_ = 0.0;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ------------------------------------------------------------------ inputs ----

/// One node's deterministic outcome, as compared across runs.
struct NodeOutcome {
  std::string json;  // write_json(include_stage_metrics=false)
  bool aborted = false;
  bool quarantined = false;
  double trust = 0.0;
  double stage_wall_ms = 0.0;  // sum over stages (timing, not compared)
};
using Outcomes = std::map<std::string, NodeOutcome>;

Outcomes collect(const cal::NodeRegistry& registry) {
  Outcomes out;
  registry.for_each_report([&](const cal::CalibrationReport& report) {
    NodeOutcome o;
    std::ostringstream os;
    report.write_json(os, /*include_stage_metrics=*/false);
    o.json = os.str();
    o.aborted = report.aborted();
    o.quarantined = report.quarantined();
    o.trust = report.trust.score;
    o.stage_wall_ms = report.metrics.total_wall_ms();
    out.emplace(report.claims.node_id, std::move(o));
  });
  return out;
}

/// Empty when the node's report is usable on its own terms.
std::string node_problem(const NodeOutcome& o) {
  if (o.aborted) return "aborted";
  if (o.quarantined) return "quarantined";
  if (!std::isfinite(o.trust) || o.trust < 0.0 || o.trust > 100.0)
    return "trust outside [0, 100]";
  // util::JsonWriter prints NaN and inf as null; clean reports hold none.
  if (o.json.find("null") != std::string::npos) return "non-finite value in report";
  return {};
}

/// A workload's generated inputs: the world and, per node, its site, site
/// models and operator claims; for wire_replay also the recorded stream.
struct Inputs {
  cal::WorldModel world;
  std::uint64_t seed = 0;
  std::vector<scn::Site> sites;
  std::vector<scn::SiteSetup> site_setups;
  std::vector<cal::NodeClaims> claims;
  std::vector<net::Segment> segments;  // wire_replay: sorted by (stream, sequence)
  Outcomes producer;                   // wire_replay: the in-process reports

  void add_node(scn::Site site, cal::NodeClaims node_claims) {
    sites.push_back(site);
    site_setups.push_back(scn::make_site(site, seed));
    claims.push_back(std::move(node_claims));
  }
};

/// The seeded fleet bench/fleet_scaling builds: sites round-robin, claims
/// varied by index.
Inputs fleet_inputs(std::uint64_t seed, std::size_t nodes) {
  Inputs in;
  in.world = scn::make_world(seed);
  in.seed = seed;
  for (std::size_t i = 0; i < nodes; ++i) {
    const auto site = static_cast<scn::Site>(i % 3);
    cal::NodeClaims claims;
    claims.node_id = "node-" + std::to_string(i);
    claims.min_freq_hz = 100e6;
    claims.max_freq_hz = 6e9;
    claims.claims_outdoor = site != scn::Site::kIndoor;
    claims.claims_omnidirectional = i % 5 == 0;
    in.add_node(site, std::move(claims));
  }
  return in;
}

/// The paper's three sites, one node each, with the operator claims of
/// examples/quickstart (outdoor, omnidirectional) for calibration to check.
Inputs paper_inputs(std::uint64_t seed) {
  Inputs in;
  in.world = scn::make_world(seed);
  in.seed = seed;
  for (const scn::Site site : {scn::Site::kRooftop, scn::Site::kWindow, scn::Site::kIndoor}) {
    cal::NodeClaims claims;
    claims.node_id = scn::site_name(site);
    claims.claims_outdoor = true;
    claims.claims_omnidirectional = true;
    in.add_node(site, std::move(claims));
  }
  return in;
}

/// Nodes first, first + stride, ... of `in`, at most `count` of them.
Inputs every_nth(const Inputs& in, std::size_t first, std::size_t stride, std::size_t count) {
  Inputs out;
  out.world = in.world;
  out.seed = in.seed;
  for (std::size_t i = first; i < in.sites.size() && out.sites.size() < count; i += stride) {
    out.sites.push_back(in.sites[i]);
    out.site_setups.push_back(in.site_setups[i]);
    out.claims.push_back(in.claims[i]);
  }
  return out;
}

cal::PipelineConfig link_budget_config() {
  cal::PipelineConfig cfg;
  cfg.survey.fidelity = cal::Fidelity::kLinkBudget;
  return cfg;
}

cal::PipelineConfig waveform_config() {
  cal::PipelineConfig cfg;
  cfg.survey.fidelity = cal::Fidelity::kWaveform;
  cfg.survey.duration_s = kPaperSurveyWindowS;
  cfg.survey.ground_truth_query_at_s = kPaperSurveyWindowS / 2.0;
  return cfg;
}

// ------------------------------------------------------------------ passes ----

/// One timed call and what was observed around it.
struct Pass {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::size_t attempted = 0;
  unsigned threads = 1;                  // calibration threads used
  std::map<std::string, double> latency_ms;  // per node
  Outcomes outcomes;
  double peak_rss_mb = 0.0;              // the call's peak RSS above the RSS before it
  CounterSnapshot counters;              // registry deltas over the pass
  std::vector<DeviceTally> tallies;      // traced fleet passes
  net::DecodeFarmStats farm;             // wire_replay
  std::size_t queue_peak = 0;            // wire_replay
  bool traced = false;
  TraceBreakdown spans;                  // traced passes
};

/// Calibrate `in` through FleetCalibrator::run. Latency runs from the
/// make_device factory call to the node's on_progress callback.
Pass fleet_pass(const Inputs& in, const cal::PipelineConfig& cfg, unsigned threads,
                obs::TraceSession* trace) {
  const std::size_t n = in.claims.size();
  Pass pass;
  pass.attempted = n;
  pass.tallies.resize(n);
  std::vector<Clock::time_point> started(n), done(n);
  std::vector<char> reported(n, 0);
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < n; ++i) index[in.claims[i].node_id] = i;

  cal::RunConfig run;
  run.pipeline = cfg;
  run.executor.threads = threads;
  run.executor.trace = trace;
  cal::FleetConfig fleet;
  fleet.on_progress = [&](const cal::FleetProgress& p) {
    const std::size_t i = index.at(p.node_id);
    done[i] = Clock::now();
    reported[i] = 1;
  };
  cal::FleetCalibrator calibrator(in.world, run, fleet);

  std::vector<cal::FleetJob> jobs;
  for (std::size_t i = 0; i < n; ++i) {
    cal::FleetJob job;
    job.claims = in.claims[i];
    job.make_device = [&, i]() -> std::unique_ptr<sdr::Device> {
      started[i] = Clock::now();
      auto device = scn::make_owned_node(in.sites[i], in.world, in.seed);
      if (trace == nullptr) return device;
      return std::make_unique<TimedDevice>(std::move(device), *trace,
                                           in.claims[i].node_id, pass.tallies[i]);
    };
    jobs.push_back(std::move(job));
  }

  cal::NodeRegistry registry;
  const PeakRss rss;
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  const cal::FleetSummary summary = calibrator.run(std::move(jobs), registry);
  pass.wall_s = seconds_since(t0);
  pass.cpu_s = cpu_seconds() - cpu0;
  pass.peak_rss_mb = rss.mb();
  pass.threads = std::max(1u, summary.executor.threads_used);
  for (std::size_t i = 0; i < n; ++i)
    if (reported[i]) pass.latency_ms[in.claims[i].node_id] = ms_between(started[i], done[i]);
  pass.outcomes = collect(registry);
  return pass;
}

/// Reports of the serial executor (threads = 1) for every node of `in`.
/// Reports depend only on the node, never on the batch it ran in, so the
/// fleet is split into kParallelThreads serial batches run side by side.
Outcomes serial_reports(const Inputs& in, const cal::PipelineConfig& cfg) {
  std::vector<Outcomes> parts(kParallelThreads);
  std::vector<std::string> errors(kParallelThreads);
  {
    std::vector<std::jthread> workers;
    for (unsigned t = 0; t < kParallelThreads; ++t)
      workers.emplace_back([&, t] {
        try {
          parts[t] = fleet_pass(every_nth(in, t, kParallelThreads, in.sites.size()), cfg, 1,
                                nullptr)
                         .outcomes;
        } catch (const std::exception& e) {
          errors[t] = e.what();
        }
      });
  }
  Outcomes out;
  for (unsigned t = 0; t < kParallelThreads; ++t) {
    if (!errors[t].empty()) throw std::runtime_error("serial reference: " + errors[t]);
    out.merge(parts[t]);
  }
  return out;
}

/// wire_replay's inputs: the fleet (the farm's manifests point into its
/// site models) and the producer's recorded float32 wire stream.
Inputs wire_inputs(std::uint64_t seed, std::size_t nodes, const cal::PipelineConfig& cfg,
                   unsigned corrupt) {
  Inputs in = fleet_inputs(seed, nodes);

  std::mutex mutex;
  cal::RunConfig run;
  run.pipeline = cfg;
  run.executor.threads = kParallelThreads;
  cal::FleetCalibrator producer(in.world, run);
  std::vector<cal::FleetJob> jobs;
  for (std::size_t i = 0; i < nodes; ++i) {
    cal::FleetJob job;
    job.claims = in.claims[i];
    job.make_device = [&, i]() -> std::unique_ptr<sdr::Device> {
      return std::make_unique<sdr::SegmentizingDevice>(
          scn::make_owned_node(in.sites[i], in.world, seed), net::SegmentWriterConfig{},
          static_cast<std::uint32_t>(i), [&](net::Segment&& s) {
            const std::scoped_lock lock(mutex);
            in.segments.push_back(std::move(s));
          });
    };
    jobs.push_back(std::move(job));
  }
  cal::NodeRegistry registry;
  (void)producer.run(std::move(jobs), registry);
  in.producer = collect(registry);

  // Producer threads interleave streams; fix one arrival order per seed.
  const auto key = [](const net::Segment& s) {
    net::SegmentView view;
    if (net::parse_segment(s.bytes, view) != net::DecodeStatus::kOk)
      throw std::runtime_error("producer wrote an unparsable segment");
    return std::pair{view.header.stream_id, view.header.sequence};
  };
  std::vector<std::pair<std::pair<std::uint32_t, std::uint32_t>, std::size_t>> order;
  for (std::size_t i = 0; i < in.segments.size(); ++i) order.push_back({key(in.segments[i]), i});
  std::sort(order.begin(), order.end());
  std::vector<net::Segment> sorted;
  sorted.reserve(order.size());
  for (const auto& entry : order) sorted.push_back(std::move(in.segments[entry.second]));
  in.segments = std::move(sorted);

  // Deliberate damage for the negative test: one flipped payload byte
  // fails the segment's CRC. At most one flip per segment, so no second
  // flip can restore a byte.
  const std::size_t damaged = std::min<std::size_t>(corrupt, in.segments.size());
  for (std::size_t k = 0; k < damaged; ++k) {
    auto& bytes = in.segments[k * in.segments.size() / damaged].bytes;
    bytes[bytes.size() / 2] ^= 0xFF;
  }
  return in;
}

/// Replay the recorded stream through net::DecodeFarm (1 decode, 1
/// calibration thread). The farm builds its own jobs, so node latency is
/// the report's summed stage time. Peak RSS counts the queue the farm
/// drains, not the stream's master copy in `in`.
Pass wire_pass(const Inputs& in, const cal::PipelineConfig& cfg, obs::TraceSession* trace) {
  const PeakRss rss;
  net::SegmentQueue queue(in.segments.size() + 1);
  for (const net::Segment& s : in.segments) {
    net::Segment copy = s;
    queue.push(std::move(copy));
  }
  queue.close();

  cal::RunConfig run;
  run.pipeline = cfg;
  run.executor.threads = 1;
  run.executor.trace = trace;
  net::DecodeFarmConfig farm_cfg;
  farm_cfg.decode_threads = 1;
  net::DecodeFarm farm(in.world, run, farm_cfg);
  for (std::size_t i = 0; i < in.claims.size(); ++i) {
    net::NodeManifest manifest;
    manifest.claims = in.claims[i];
    manifest.info = sdr::SimulatedSdr::bladerf_like_info();
    manifest.position = in.site_setups[i].position;
    manifest.rx = in.site_setups[i].rx_environment();
    farm.register_node(static_cast<std::uint32_t>(i), std::move(manifest));
  }

  Pass pass;
  pass.attempted = in.claims.size();
  cal::NodeRegistry registry;
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  pass.farm = farm.run(queue, registry);
  pass.wall_s = seconds_since(t0);
  pass.cpu_s = cpu_seconds() - cpu0;
  pass.peak_rss_mb = rss.mb();
  pass.queue_peak = queue.stats().peak_depth;
  pass.outcomes = collect(registry);
  for (const auto& [id, o] : pass.outcomes) pass.latency_ms[id] = o.stage_wall_ms;
  return pass;
}

// --------------------------------------------------------------- workloads ----

/// A workload's inputs, timed as set-up.
Inputs make_inputs(const std::string& workload, const Options& opt) {
  if (workload == "wire_replay")
    return wire_inputs(opt.seed, opt.nodes, link_budget_config(), opt.corrupt_segments);
  if (workload == "paper_sites") return paper_inputs(opt.seed);
  return fleet_inputs(opt.seed, opt.nodes);
}

/// The timed pass of one workload over its inputs, and the reports every
/// pass must match.
struct Bench {
  std::function<Pass(obs::TraceSession*)> pass;
  std::optional<Outcomes> reference;  // none = match the first pass
  std::string reference_name = "the first pass";
};

/// Untimed: fleet_serial warms plan caches and scratch pools first, and
/// fleet_parallel's serial reference run doubles as its warm-up.
Bench make_bench(const std::string& workload, const Inputs& in) {
  Bench b;
  if (workload == "wire_replay") {
    b.pass = [&in](obs::TraceSession* t) { return wire_pass(in, link_budget_config(), t); };
    b.reference = in.producer;
    b.reference_name = "the producer's in-process run";
    return b;
  }
  const cal::PipelineConfig cfg =
      workload == "paper_sites" ? waveform_config() : link_budget_config();
  const unsigned threads = workload == "fleet_serial"     ? 1
                           : workload == "fleet_parallel" ? kParallelThreads
                                                          : kPaperSites;
  b.pass = [&in, cfg, threads](obs::TraceSession* t) { return fleet_pass(in, cfg, threads, t); };
  if (workload == "fleet_serial")
    (void)fleet_pass(every_nth(in, 0, 1, kWarmNodes), cfg, threads, nullptr);
  if (workload == "fleet_parallel") {
    b.reference = serial_reports(in, cfg);
    b.reference_name = "the serial run";
  }
  return b;
}

/// Set-up repetitions behind setup_s's median: one before the passes, the
/// rest after them. A fleet's set-up takes tens of microseconds, so many
/// repetitions cost nothing; wire_replay's is a whole recording run.
unsigned setup_reps(const std::string& workload) {
  return workload == "wire_replay" ? 3 : 51;
}

// ----------------------------------------------------------------- metrics ----

const cal::Stage kDeviceStages[] = {cal::Stage::kSurvey, cal::Stage::kTvSweep,
                                    cal::Stage::kLoCal};

/// Time the node's stage and acquire/finalize task spans cover.
double accounted_ms(const NodeSpans& s) {
  double total = s.acquire_ms + s.finalize_ms;
  for (const double ms : s.stage_wall_ms) total += ms;
  return total;
}

/// Node latency in a traced pass. The farm's jobs are not reachable from
/// outside, so on wire_replay it is the extent of the node's task spans.
double node_latency_ms(const Pass& p, const std::string& workload, const std::string& node,
                       const NodeSpans& s) {
  if (workload == "wire_replay") return s.last_task_end_ms - s.first_task_start_ms;
  const auto it = p.latency_ms.find(node);
  return it == p.latency_ms.end() ? 0.0 : it->second;
}

std::uint64_t count(const CounterSnapshot& c, const char* name) {
  const auto it = c.find(name);
  return it == c.end() ? 0 : it->second;
}

double frac(const CounterSnapshot& c, const char* num, const char* other) {
  const double a = static_cast<double>(count(c, num));
  return ratio(a, a + static_cast<double>(count(c, other)));
}

/// The counts the exact-repeat guard pins across passes.
std::vector<std::pair<std::string, std::uint64_t>> repeat_counts(const Pass& p) {
  return {{"sdr.samples", count(p.counters, "speccal_sdr_samples_total")},
          {"adsb.frames_decoded", count(p.counters, "speccal_adsb_frames_decoded_total")},
          {"calib.executor.tasks_run", count(p.counters, "speccal_executor_tasks_total")},
          {"net.segments", p.farm.segments},
          {"net.wire_bytes", p.farm.bytes}};
}

/// Per-layer values of one traced pass, in report order.
std::vector<Metric> layer_metrics(const Pass& p, const std::string& workload) {
  const double n = static_cast<double>(p.attempted);
  DeviceTally dev;
  for (const DeviceTally& t : p.tallies) {
    dev.samples += t.samples;
    dev.tune_failures += t.tune_failures;
    dev.busy_ms += t.busy_ms;
  }
  std::vector<Metric> m;
  const auto add = [&](std::string name, std::string unit, double v) {
    m.push_back({std::move(name), std::move(unit), v});
  };
  add("sdr.capture_ms", "ms", dev.busy_ms / n);
  add("sdr.capture_msps", "Msps", ratio(static_cast<double>(dev.samples), dev.busy_ms * 1e3));
  add("sdr.samples", "count", static_cast<double>(dev.samples));
  add("sdr.tune_failures", "count", static_cast<double>(dev.tune_failures));
  add("sdr.render_grow_events", "count",
      static_cast<double>(count(p.counters, "speccal_sdr_render_grow_events_total")));

  // Stage spans per node; device stages split into capture and self time.
  double other_ms = 0.0, unaccounted_ms = 0.0, latency_sum = 0.0;
  std::array<double, cal::kStageCount> wall{}, capture{};
  for (const auto& [node, s] : p.spans.nodes) {
    for (std::size_t k = 0; k < cal::kStageCount; ++k) {
      wall[k] += s.stage_wall_ms[k];
      capture[k] += s.stage_capture_ms[k];
    }
    other_ms += accounted_ms(s);
    latency_sum += node_latency_ms(p, workload, node, s);
    unaccounted_ms += node_latency_ms(p, workload, node, s) - accounted_ms(s);
  }
  for (const cal::Stage stage : kDeviceStages) {
    const auto k = static_cast<std::size_t>(stage);
    const std::string prefix = std::string("calib.") + cal::to_string(stage);
    add(prefix + ".wall_ms", "ms", wall[k] / n);
    add(prefix + ".capture_ms", "ms", capture[k] / n);
    add(prefix + ".measure_ms", "ms", (wall[k] - capture[k]) / n);
    other_ms -= wall[k];
  }
  add("calib.other_ms", "ms", other_ms / n);
  add("calib.unaccounted_ms", "ms", unaccounted_ms / n);
  const auto tv = static_cast<std::size_t>(cal::Stage::kTvSweep);
  add("calib.tv_sweep.node_share", "ratio", ratio(wall[tv], latency_sum));

  add("calib.executor.tasks_run", "count",
      static_cast<double>(count(p.counters, "speccal_executor_tasks_total")));
  add("calib.executor.tasks_stolen", "count",
      static_cast<double>(count(p.counters, "speccal_executor_steals_total")));
  add("calib.executor.tasks_failed", "count",
      static_cast<double>(count(p.counters, "speccal_executor_failures_total")));
  add("calib.executor.worker_busy_frac", "ratio",
      ratio(p.spans.task_busy_ms, p.threads * p.spans.fleet_run_ms));

  add("tv.pilot_gate_skip_frac", "ratio",
      frac(p.counters, "speccal_gate_tv_pilot_skip_total", "speccal_gate_tv_pilot_pass_total"));
  add("calib.lo_refine_pass_frac", "ratio",
      frac(p.counters, "speccal_gate_lo_refine_pass_total", "speccal_gate_lo_refine_skip_total"));
  add("dsp.plan_cache_hit_frac", "ratio",
      frac(p.counters, "speccal_dsp_plan_cache_hits_total", "speccal_dsp_plan_cache_misses_total"));
  add("dsp.scratch_grow_events", "count",
      static_cast<double>(count(p.counters, "speccal_dsp_scratch_grow_events_total")));

  const double attempted = static_cast<double>(count(p.counters, "speccal_adsb_frames_attempted_total"));
  const double decoded = static_cast<double>(count(p.counters, "speccal_adsb_frames_decoded_total"));
  add("adsb.frames_attempted", "count", attempted);
  add("adsb.frames_decoded", "count", decoded);
  add("adsb.decode_yield", "ratio", ratio(decoded, attempted));
  add("adsb.preamble_skip_frac", "ratio",
      frac(p.counters, "speccal_gate_adsb_preamble_skip_total",
           "speccal_gate_adsb_preamble_pass_total"));
  add("adsb.crc_repaired", "count",
      static_cast<double>(count(p.counters, "speccal_adsb_frames_crc_repaired_total")));

  add("net.decode_s", "s", p.farm.decode_wall_s);
  add("net.segments", "count", static_cast<double>(p.farm.segments));
  add("net.wire_bytes", "bytes", static_cast<double>(p.farm.bytes));
  add("net.decode_errors", "count", static_cast<double>(p.farm.decode_errors));
  add("net.queue_high_watermark", "count", static_cast<double>(p.queue_peak));
  add("net.calibrate_s", "s", p.farm.wall_s > 0.0 ? p.farm.wall_s - p.farm.decode_wall_s : 0.0);
  add("net.wire_mb_per_s", "MB/s", p.farm.mbytes_per_s);
  return m;
}

void note(WorkloadResult& r, std::string problem) {
  r.correct = false;
  if (r.problems.size() < kMaxProblems) r.problems.push_back(std::move(problem));
}

/// Trace reconciliation: where no node waits for a worker, a node's spans
/// must account for its latency within the stated gap.
void reconcile(WorkloadResult& r, const Pass& p, const std::string& workload) {
  for (const auto& [node, s] : p.spans.nodes) {
    const double latency = node_latency_ms(p, workload, node, s);
    const double gap = latency - accounted_ms(s);
    if (std::abs(gap) > std::max(kReconcileFrac * latency, kReconcileFloorMs))
      note(r, "trace reconciliation: " + node + " spans cover " +
                  std::to_string(accounted_ms(s)) + " ms of " + std::to_string(latency) +
                  " ms latency");
  }
}

void check_outcomes(WorkloadResult& r, const Bench& bench, const Inputs& in,
                    const std::vector<Pass>& passes) {
  const Outcomes& ref = bench.reference ? *bench.reference : passes.front().outcomes;
  for (std::size_t k = 0; k < passes.size(); ++k) {
    const Pass& p = passes[k];
    r.attempted += p.attempted;
    for (const cal::NodeClaims& claims : in.claims) {
      const std::string& id = claims.node_id;
      const auto it = p.outcomes.find(id);
      std::string why;
      if (it == p.outcomes.end()) {
        why = "no report";
      } else if (why = node_problem(it->second); why.empty()) {
        const auto ref_it = ref.find(id);
        if (ref_it == ref.end() || ref_it->second.json != it->second.json)
          why = "report differs from " + bench.reference_name;
      }
      if (!why.empty()) {
        ++r.failed;
        note(r, "pass " + std::to_string(k) + " " + id + ": " + why);
      }
    }
  }
  const auto first = repeat_counts(passes.front());
  for (std::size_t k = 1; k < passes.size(); ++k) {
    const auto counts = repeat_counts(passes[k]);
    for (std::size_t i = 0; i < counts.size(); ++i)
      if (counts[i].second != first[i].second)
        note(r, "exact-repeat guard: " + counts[i].first + " is " +
                    std::to_string(counts[i].second) + " in pass " + std::to_string(k) +
                    " but " + std::to_string(first[i].second) + " in pass 0");
  }
}

std::string counters_json(const CounterSnapshot& c) {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& [name, value] : c) {
    os << (first ? "" : ", ") << "\"" << name << "\": " << value;
    first = false;
  }
  os << "}";
  return os.str();
}

}  // namespace

WorkloadResult run_workload(const std::string& workload, const Options& opt) {
  WorkloadResult r;
  r.workload = workload;
  try {
    std::vector<double> setup_s;
    const auto timed_setup = [&] {
      const auto t0 = Clock::now();
      auto in = std::make_unique<Inputs>(make_inputs(workload, opt));
      setup_s.push_back(seconds_since(t0));
      return in;
    };
    std::unique_ptr<Inputs> in = timed_setup();
    r.fleet_size = in->claims.size();
    std::optional<Bench> bench = make_bench(workload, *in);

    // Traced runs alternate untraced and traced passes, so the overhead
    // compares like with like.
    const std::size_t min_passes = opt.trace ? std::max(2u, opt.runs) : opt.runs;
    std::vector<Pass> passes;
    std::string last_trace;
    const auto t_measure = Clock::now();
    double last_pass_s = 0.0;
    const auto another_pass = [&] {
      const double elapsed = seconds_since(t_measure);
      return passes.size() < min_passes ||
             (elapsed < opt.seconds && elapsed + last_pass_s <= kMaxOvershoot * opt.seconds);
    };
    while (another_pass()) {
      const auto t_pass = Clock::now();
      const bool traced = opt.trace && passes.size() % 2 == 1;
      std::unique_ptr<obs::TraceSession> session;
      if (traced) session = std::make_unique<obs::TraceSession>();
      const CounterSnapshot before = snapshot_counters();
      Pass p = bench->pass(session.get());
      p.counters = counter_delta(before, snapshot_counters());
      p.traced = traced;
      if (session) {
        p.spans = analyse_trace(*session);
        std::ostringstream os;
        session->write_chrome_trace(os);
        last_trace = os.str();
      }
      passes.push_back(std::move(p));
      // Hand freed pass memory back to the OS, so every pass starts from the
      // same heap and its peak RSS is not met from memory an earlier pass
      // left in an allocator arena.
      malloc_trim(0);
      last_pass_s = seconds_since(t_pass);
    }
    r.passes = passes.size();
    check_outcomes(r, *bench, *in, passes);
    bench.reset();
    in.reset();
    malloc_trim(0);

    std::vector<double> rate, cpu, rss, latency, traced_wall, plain_wall;
    for (const Pass& p : passes) {
      rate.push_back(p.outcomes.size() / p.wall_s);
      cpu.push_back(p.cpu_s / static_cast<double>(p.attempted));
      rss.push_back(p.peak_rss_mb);
      for (const auto& [id, ms] : p.latency_ms) latency.push_back(ms);
      (p.traced ? traced_wall : plain_wall).push_back(p.wall_s);
      r.pass_wall_s.push_back(p.wall_s);
      r.pass_peak_rss_mb.push_back(p.peak_rss_mb);
    }
    r.latency_samples = latency.size();
    r.latency_p75_ms = percentile(latency, 0.75);

    if (!opt.trace) {
      // The remaining set-up repetitions run now, on a warm host, one set of
      // inputs alive at a time.
      for (unsigned i = 1; i < setup_reps(workload); ++i) (void)timed_setup();
      // The first pass warms the allocator: when it frees its first large
      // buffers glibc raises its mmap threshold, and later passes keep such
      // buffers on the heap, as a long-running backend does. So its peak
      // RSS reads low and is left out when there are later passes.
      if (rss.size() > 1) rss.erase(rss.begin());
      r.metrics = {{"nodes_per_s", "nodes/s", median(rate)},
                   {"node_latency_p50_ms", "ms", median(latency)},
                   {"cpu_s_per_node", "s", median(cpu)},
                   {"setup_s", "s", median(setup_s)},
                   {"peak_rss_mb", "MB", median(rss)}};
      return r;
    }

    // Per-layer metrics: mean over the traced passes.
    CounterSnapshot traced_counters;
    for (const Pass& p : passes) {
      if (!p.traced) continue;
      ++r.traced_passes;
      const std::vector<Metric> m = layer_metrics(p, workload);
      if (r.metrics.empty()) {
        r.metrics = m;
        for (Metric& x : r.metrics) x.value = 0.0;
      }
      for (std::size_t i = 0; i < m.size(); ++i) r.metrics[i].value += m[i].value;
      for (const auto& [name, v] : p.counters) traced_counters[name] += v;
    }
    for (Metric& x : r.metrics) x.value /= static_cast<double>(r.traced_passes);
    r.metrics.push_back({"obs.trace_overhead_frac", "ratio",
                         median(traced_wall) / median(plain_wall) - 1.0});
    r.chrome_trace = std::move(last_trace);
    r.counter_deltas_json = counters_json(traced_counters);
    if (workload != "fleet_parallel")
      for (const Pass& p : passes)
        if (p.traced) reconcile(r, p, workload);
  } catch (const std::exception& e) {
    note(r, std::string("exception: ") + e.what());
  }
  return r;
}

}  // namespace perfbench

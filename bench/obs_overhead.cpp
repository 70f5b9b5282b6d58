// Observability overhead benchmark: the stages of the simulated capture
// path (shaped-emitter render, 127-tap overlap-save shaper, pilot NCO, full
// SimulatedSdr capture) timed with the observability fast paths (metrics
// AND event journal) enabled vs disabled, tracing off in both, written to
// BENCH_obs.json. CI gates on the documented contract (DESIGN.md §10, §15):
// with tracing off, the obs layer costs < 2% throughput on every capture
// stage — a counter update is one relaxed load plus one relaxed fetch_add,
// paid per *block*, never per sample; a disabled event append is one
// relaxed load.
//
// The gated rows include "event_append": a full capture block plus one
// journal append — the worst plausible cold-path rate (events fire on
// faults and rejects, never per block) — which keeps the mutex-guarded
// append honest against the same 2% gate.
//
// A second, ungated section times one full pipeline calibration with and
// without a TraceSession attached, alternating the two on one device as
// time_stage alternates obs on/off, and reports the span count. The cost
// of tracing (two clock reads + one locked append per stage span) is far
// below the run-to-run spread of a ~100 ms calibration, so the row is
// informational: it bounds that cost, it cannot resolve it.
//
// Usage: obs_overhead [--json=PATH] [--iters=N] [--trace-out=PATH]
//   --json defaults to BENCH_obs.json; --iters caps each variant's timing
//   loop (0 = auto-calibrate; anything but a non-negative JSON integer is a
//   usage error, exit 2); --trace-out additionally writes the traced
//   pipeline run's Chrome trace (the CI sample artifact). The 2% gate is
//   the fixed kMaxOverhead.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "calib/pipeline.hpp"
#include "dsp/convolver.hpp"
#include "dsp/fir.hpp"
#include "dsp/iq.hpp"
#include "dsp/nco.hpp"
#include "obs/eventlog.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scenario/testbed.hpp"
#include "sdr/emitter.hpp"
#include "sdr/sim.hpp"
#include "util/json.hpp"
#include "util/args.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

using namespace speccal;

namespace {

constexpr std::size_t kBlock = 65536;  // one capture block (~8 ms at 8 Msps)
constexpr double kMaxOverhead = 0.02;   // the DESIGN.md §10 contract
constexpr int kPipelineReps = 3;        // per side of the tracing row

struct Row {
  std::string name;
  std::string variant;  // obs_on | obs_off
  std::size_t iterations = 0;
  double wall_s = 0.0;
  double samples_per_s = 0.0;
};

/// One switch for every per-operation obs fast path: the metric kill
/// switch and the event-journal kill switch flip together, so "off" means
/// the whole observability layer is reduced to relaxed loads.
void set_obs_enabled(bool enabled) {
  obs::set_metrics_enabled(enabled);
  obs::set_events_enabled(enabled);
}

/// Best (minimum) wall time for `iters` calls of fn, over `reps` runs.
template <typename Fn>
double best_wall_s(std::size_t iters, int reps, Fn&& fn) {
  using clock = std::chrono::steady_clock;
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = clock::now();
    for (std::size_t i = 0; i < iters; ++i) fn();
    best = std::min(best,
                    std::chrono::duration<double>(clock::now() - t0).count());
  }
  return best;
}

/// Auto-calibrate an iteration count giving ~25 ms per rep.
template <typename Fn>
std::size_t calibrate_iters(Fn&& fn) {
  using clock = std::chrono::steady_clock;
  std::size_t batch = 1;
  for (;;) {
    const auto t0 = clock::now();
    for (std::size_t i = 0; i < batch; ++i) fn();
    const double s = std::chrono::duration<double>(clock::now() - t0).count();
    if (s >= 0.025 || batch > (1u << 16)) return batch;
    batch *= 2;
  }
}

/// Time one stage twice — obs on, obs off — interleaved over `reps`
/// repetitions (min-of-K on each side), so drift hits both variants alike.
/// A measurement that lands at or over kMaxOverhead is re-run (at most
/// twice) and the best pass kept: the gate is a contract on the fast path,
/// not on scheduler noise, and a real regression fails every pass. Appends both
/// rows and returns the relative overhead of obs-on (clamped at 0: noise
/// can make the instrumented side come out ahead).
template <typename Fn>
double time_stage(const std::string& name, std::size_t iters, Fn&& fn,
                  std::vector<Row>& rows) {
  constexpr int kReps = 7;
  if (iters == 0) {
    set_obs_enabled(true);
    iters = calibrate_iters(fn);
  }
  const auto measure = [&](double& on_best, double& off_best) {
    on_best = 1e300;
    off_best = 1e300;
    for (int r = 0; r < kReps; ++r) {
      set_obs_enabled(true);
      on_best = std::min(on_best, best_wall_s(iters, 1, fn));
      set_obs_enabled(false);
      off_best = std::min(off_best, best_wall_s(iters, 1, fn));
    }
    set_obs_enabled(true);
    return std::max(0.0, on_best / off_best - 1.0);
  };
  double on_best = 0.0, off_best = 0.0;
  double overhead = measure(on_best, off_best);
  for (int retry = 0; retry < 2 && overhead >= kMaxOverhead; ++retry) {
    double on2 = 0.0, off2 = 0.0;
    const double second = measure(on2, off2);
    if (second < overhead) {
      overhead = second;
      on_best = on2;
      off_best = off2;
    }
  }

  const double samples = static_cast<double>(iters) * static_cast<double>(kBlock);
  rows.push_back({name, "obs_on", iters, on_best, samples / on_best});
  rows.push_back({name, "obs_off", iters, off_best, samples / off_best});
  return overhead;
}

std::vector<dsp::Sample> noise_block(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<dsp::Sample> block(n);
  for (auto& v : block)
    v = {static_cast<float>(rng.normal()), static_cast<float>(rng.normal())};
  return block;
}

// A fixed TV-emitter scene: one 5.38 MHz station at 521 MHz, 15 km east.
struct Scene {
  sdr::EmitterConfig cfg;
  sdr::RxEnvironment rx;
  const sdr::AntennaModel antenna = sdr::AntennaModel::isotropic();

  Scene() {
    cfg.emitter_id = 1;
    cfg.position = geo::destination({37.87, -122.27, 10.0}, 90.0, 15e3);
    cfg.position.alt_m = 180.0;
    cfg.carrier_hz = 521e6;
    cfg.bandwidth_hz = 5.38e6;
    cfg.eirp_dbm = 82.0;
    cfg.link.model = prop::PathModel::kFreeSpace;
    cfg.pilot_offset_hz = -2690559.0;
    rx.position = {37.87, -122.27, 10.0};
    rx.antenna = &antenna;
  }
};

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_obs.json";
  std::string trace_path;
  std::size_t iters = 0;  // auto-calibrate
  try {
    util::Args args(argc, argv);
    json_path = args.text("--json").value_or(json_path);
    iters = args.integer("--iters", iters);
    trace_path = args.text("--trace-out").value_or("");
    args.finish();
  } catch (const std::invalid_argument& e) {
    return util::usage_error("obs_overhead", e.what(),
                             "[--json=PATH] [--iters=N] [--trace-out=PATH]");
  }

  const Scene scene;
  std::vector<Row> rows;
  std::vector<std::pair<std::string, double>> overheads;

  // Stage 1: shaped-emitter render (RenderScratch grow counters live here).
  {
    sdr::FixedEmitterSource source(scene.cfg, util::Rng(21));
    dsp::Buffer accum(kBlock);
    sdr::CaptureContext ctx;
    ctx.center_freq_hz = scene.cfg.carrier_hz;
    ctx.sample_rate_hz = 8e6;
    ctx.sample_count = kBlock;
    ctx.rx = &scene.rx;
    overheads.emplace_back(
        "shaped_render", time_stage("shaped_render", iters,
                                    [&] {
                                      source.render(ctx, accum);
                                      ctx.start_time_s +=
                                          static_cast<double>(kBlock) / 8e6;
                                    },
                                    rows));
  }

  // Stage 2: 127-tap overlap-save shaper (plan-cache counters on first use
  // only; steady state must show zero cost).
  {
    const auto taps = dsp::design_bandpass(8e6, -2.69e6, 2.69e6, 127);
    const auto in = noise_block(kBlock, 5);
    std::vector<dsp::Sample> out(in.size());
    dsp::FftConvolver conv(taps);
    overheads.emplace_back(
        "fir_127tap",
        time_stage("fir_127tap", iters, [&] { conv.filter_into(in, out); },
                   rows));
  }

  // Stage 3: pilot NCO — a pure-compute control lane with no metric in it.
  {
    dsp::Buffer accum(kBlock);
    dsp::Nco nco(-2.69e6, 8e6);
    overheads.emplace_back(
        "nco_pilot", time_stage("nco_pilot", iters,
                                [&] {
                                  for (auto& s : accum) s += nco.next() * 0.01f;
                                },
                                rows));
  }

  // Stage 4: the full simulated capture — two counter adds per block.
  {
    sdr::SimulatedSdr dev(sdr::SimulatedSdr::bladerf_like_info(), scene.rx,
                          util::Rng(7));
    dev.add_source(
        std::make_shared<sdr::FixedEmitterSource>(scene.cfg, util::Rng(21)));
    dev.set_gain_mode(sdr::GainMode::kManual);
    dev.set_gain_db(20.0);
    if (!dev.tune(521e6, 8e6)) {
      std::cerr << "obs_overhead: tune failed\n";
      return 1;
    }
    dsp::Buffer buf(kBlock);
    overheads.emplace_back(
        "sdr_capture",
        time_stage("sdr_capture", iters, [&] { dev.capture_into(buf); }, rows));

    // Stage 5: capture block + one journal append — the worst plausible
    // cold-path event rate (events fire on faults/rejects, never per
    // block). Keeps the mutex-guarded append inside the 2% contract; when
    // events are off the append is one relaxed load.
    overheads.emplace_back(
        "event_append",
        time_stage("event_append", iters,
                   [&] {
                     dev.capture_into(buf);
                     obs::EventLog::global().log(obs::EventSeverity::kInfo,
                                                 "bench_block", "bench-node",
                                                 "capture");
                   },
                   rows));
  }

  // ---------------------------------------------- tracing cost (ungated) ----
  // One node through the full pipeline, untraced and traced in alternation,
  // min-of-reps on each side. Spans sit at stage granularity, so the
  // absolute cost is a handful of microseconds.
  double untraced_ms = 0.0, traced_ms = 0.0;
  std::size_t trace_events = 0;
  {
    const auto world = scenario::make_world(13, 30);
    calib::PipelineConfig cfg;
    cfg.survey.fidelity = calib::Fidelity::kLinkBudget;
    const calib::CalibrationPipeline pipeline(world, cfg);
    const auto site = scenario::make_site(scenario::Site::kRooftop, 13);
    const auto device = scenario::make_node(site, world, 13);
    calib::NodeClaims claims;
    claims.node_id = "bench-node";
    claims.min_freq_hz = 100e6;
    claims.max_freq_hz = 6e9;
    claims.claims_outdoor = true;

    using clock = std::chrono::steady_clock;
    obs::TraceSession session;
    obs::TraceSession* const sides[] = {nullptr, &session};  // untraced, traced
    untraced_ms = 1e300;
    traced_ms = 1e300;
    for (int r = 0; r < kPipelineReps; ++r) {
      for (obs::TraceSession* trace : sides) {
        const auto t0 = clock::now();
        const auto report = pipeline.calibrate(*device, claims, trace);
        const double ms =
            std::chrono::duration<double, std::milli>(clock::now() - t0).count();
        if (report.aborted()) {
          std::cerr << "obs_overhead: pipeline aborted: " << report.abort_reason
                    << "\n";
          return 1;
        }
        double& best = trace != nullptr ? traced_ms : untraced_ms;
        best = std::min(best, ms);
      }
    }
    trace_events = session.event_count();
    if (!trace_path.empty()) {
      std::ofstream os(trace_path);
      if (!os) {
        std::cerr << "obs_overhead: cannot write " << trace_path << "\n";
        return 1;
      }
      session.write_chrome_trace(os);
    }
  }

  // ------------------------------------------------------------- report ----
  util::Table table({"stage", "variant", "Msamples/s"});
  for (const auto& row : rows)
    table.add_row({row.name, row.variant,
                   util::format_fixed(row.samples_per_s / 1e6, 2)});
  table.set_title("Capture-path throughput, obs on vs off (" +
                  std::to_string(kBlock) + "-sample blocks)");
  table.print(std::cout);

  bool ok = true;
  for (const auto& [name, x] : overheads) {
    const bool pass = x < kMaxOverhead;
    ok = ok && pass;
    std::cout << name << " overhead: " << util::format_fixed(x * 100.0, 2)
              << "% (gate " << util::format_fixed(kMaxOverhead * 100.0, 2)
              << "%) -> " << (pass ? "ok" : "FAIL") << "\n";
  }
  std::cout << "pipeline calibrate: " << util::format_fixed(untraced_ms, 1)
            << " ms untraced, " << util::format_fixed(traced_ms, 1)
            << " ms traced (" << trace_events << " spans over "
            << kPipelineReps << " runs; informational)\n";

  std::ofstream os(json_path);
  if (!os) {
    std::cerr << "obs_overhead: cannot write " << json_path << "\n";
    return 1;
  }
  util::JsonWriter w(os);
  w.begin_object();
  w.key("bench");
  w.value("obs_overhead");
  w.key("schema_version");
  w.value(3);
  w.key("block_size");
  w.value(kBlock);
  w.key("max_overhead");
  w.value(kMaxOverhead);
  w.key("results");
  w.begin_array();
  for (const auto& row : rows) {
    w.begin_object();
    w.key("name");
    w.value(row.name);
    w.key("variant");
    w.value(row.variant);
    w.key("iterations");
    w.value(row.iterations);
    w.key("wall_s");
    w.value(row.wall_s);
    w.key("samples_per_s");
    w.value(row.samples_per_s);
    w.end_object();
  }
  w.end_array();
  w.key("overhead");
  w.begin_object();
  for (const auto& [name, x] : overheads) {
    w.key(name);
    w.value(x);
  }
  w.end_object();
  w.key("pipeline_trace");
  w.begin_object();
  w.key("untraced_ms");
  w.value(untraced_ms);
  w.key("traced_ms");
  w.value(traced_ms);
  w.key("events");
  w.value(trace_events);
  w.end_object();
  w.key("ok");
  w.value(ok);
  w.end_object();
  os << "\n";

  if (!ok) {
    std::cerr << "FAIL: metrics overhead exceeded the documented "
              << util::format_fixed(kMaxOverhead * 100.0, 2) << "% contract\n";
    return 1;
  }
  return 0;
}

#include "layers.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "minijson.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

namespace cal = speccal::calib;
namespace obs = speccal::obs;

// ------------------------------------------------------------ TimedDevice ----

TimedDevice::TimedDevice(std::unique_ptr<speccal::sdr::Device> inner,
                         obs::TraceSession& trace, std::string node_id,
                         DeviceTally& tally)
    : inner_(std::move(inner)), trace_(trace), node_id_(std::move(node_id)), tally_(tally) {}

void TimedDevice::record(std::string_view name, clock::time_point start,
                         std::uint64_t samples) {
  const auto end = clock::now();
  tally_.samples += samples;
  tally_.busy_ms += std::chrono::duration<double, std::milli>(end - start).count();
  trace_.record_complete(name, "sdr", start, end, {obs::SpanArg::str("node", node_id_)});
}

bool TimedDevice::tune(double center_freq_hz, double sample_rate_hz) {
  const auto start = clock::now();
  const bool ok = inner_->tune(center_freq_hz, sample_rate_hz);
  if (!ok) ++tally_.tune_failures;
  record("tune", start, 0);
  return ok;
}

speccal::dsp::Buffer TimedDevice::capture(std::size_t count) {
  const auto start = clock::now();
  speccal::dsp::Buffer out = inner_->capture(count);
  record("capture", start, out.size());
  return out;
}

void TimedDevice::capture_into(std::span<speccal::dsp::Sample> out) {
  const auto start = clock::now();
  inner_->capture_into(out);
  record("capture", start, out.size());
}

// ---------------------------------------------------------------- counters ----

namespace {

constexpr const char* kCounters[] = {
    "speccal_sdr_samples_total",
    "speccal_sdr_render_grow_events_total",
    "speccal_adsb_frames_attempted_total",
    "speccal_adsb_frames_decoded_total",
    "speccal_adsb_frames_crc_repaired_total",
    "speccal_gate_adsb_preamble_pass_total",
    "speccal_gate_adsb_preamble_skip_total",
    "speccal_gate_tv_pilot_pass_total",
    "speccal_gate_tv_pilot_skip_total",
    "speccal_gate_lo_refine_pass_total",
    "speccal_gate_lo_refine_skip_total",
    "speccal_dsp_plan_cache_hits_total",
    "speccal_dsp_plan_cache_misses_total",
    "speccal_dsp_scratch_grow_events_total",
    "speccal_executor_tasks_total",
    "speccal_executor_steals_total",
    "speccal_executor_failures_total",
};

}  // namespace

CounterSnapshot snapshot_counters() {
  CounterSnapshot out;
  auto& registry = obs::Registry::global();
  for (const char* name : kCounters) out[name] = registry.counter(name).value();
  return out;
}

CounterSnapshot counter_delta(const CounterSnapshot& before, const CounterSnapshot& after) {
  CounterSnapshot out;
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    out[name] = value - (it == before.end() ? 0 : it->second);
  }
  return out;
}

// ------------------------------------------------------------------ traces ----

namespace {

struct Event {
  std::string name;
  std::string cat;
  std::string node;
  double ts = 0.0;   // us
  double dur = 0.0;  // us
  double tid = 0.0;
};

int stage_index(std::string_view name) {
  for (std::size_t i = 0; i < cal::kStageCount; ++i)
    if (name == cal::to_string(static_cast<cal::Stage>(i))) return static_cast<int>(i);
  return -1;
}

std::vector<Event> complete_events(const obs::TraceSession& trace) {
  std::ostringstream os;
  trace.write_chrome_trace(os);
  const auto doc = json::parse(os.str());
  const json::Value* events = doc ? doc->find("traceEvents") : nullptr;
  if (events == nullptr || events->type != json::Value::Type::kArray)
    throw std::runtime_error("trace export did not parse");
  std::vector<Event> out;
  for (const json::Value& e : events->items) {
    const json::Value* ph = e.find("ph");
    if (ph == nullptr || ph->string != "X") continue;
    Event ev;
    const json::Value* name = e.find("name");
    const json::Value* cat = e.find("cat");
    const json::Value* ts = e.find("ts");
    const json::Value* dur = e.find("dur");
    const json::Value* tid = e.find("tid");
    if (!name || !cat || !ts || !dur || !tid)
      throw std::runtime_error("trace event without name/cat/ts/dur/tid");
    ev.name = name->string;
    ev.cat = cat->string;
    ev.ts = ts->number;
    ev.dur = dur->number;
    ev.tid = tid->number;
    if (const json::Value* args = e.find("args"))
      if (const json::Value* node = args->find("node")) ev.node = node->string;
    out.push_back(std::move(ev));
  }
  return out;
}

}  // namespace

TraceBreakdown analyse_trace(const obs::TraceSession& trace) {
  const std::vector<Event> events = complete_events(trace);
  TraceBreakdown out;
  std::vector<const Event*> stages;
  for (const Event& ev : events) {
    if (ev.cat == "stage") {
      const int k = stage_index(ev.name);
      if (k < 0) continue;
      out.nodes[ev.node].stage_wall_ms[static_cast<std::size_t>(k)] += ev.dur / 1e3;
      stages.push_back(&ev);
    } else if (ev.cat == "task") {
      // Task labels are "<node>/<stage|acquire|finalize>".
      out.task_busy_ms += ev.dur / 1e3;
      const std::size_t slash = ev.name.rfind('/');
      if (slash == std::string::npos) continue;
      NodeSpans& node = out.nodes[ev.name.substr(0, slash)];
      const std::string_view what = std::string_view(ev.name).substr(slash + 1);
      if (what == "acquire") node.acquire_ms += ev.dur / 1e3;
      if (what == "finalize") node.finalize_ms += ev.dur / 1e3;
      if (node.first_task_start_ms < 0.0 || ev.ts / 1e3 < node.first_task_start_ms)
        node.first_task_start_ms = ev.ts / 1e3;
      node.last_task_end_ms = std::max(node.last_task_end_ms, (ev.ts + ev.dur) / 1e3);
    } else if (ev.cat == "fleet" && ev.name == "fleet_run") {
      out.fleet_run_ms += ev.dur / 1e3;
    }
  }
  // Device spans nest in their stage span by time containment on one thread;
  // the slack absorbs rounding in the export's printed timestamps.
  constexpr double kSlackUs = 0.01;
  for (const Event& ev : events) {
    if (ev.cat != "sdr") continue;
    for (const Event* st : stages)
      if (st->node == ev.node && st->tid == ev.tid && st->ts <= ev.ts + kSlackUs &&
          ev.ts + ev.dur <= st->ts + st->dur + kSlackUs) {
        out.nodes[ev.node].stage_capture_ms[static_cast<std::size_t>(
            stage_index(st->name))] += ev.dur / 1e3;
        break;
      }
  }
  return out;
}

}  // namespace perfbench

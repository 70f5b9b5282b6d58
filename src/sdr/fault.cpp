#include "sdr/fault.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <set>
#include <stdexcept>
#include <thread>

#include "obs/eventlog.hpp"
#include "obs/metrics.hpp"
#include "util/json_reader.hpp"

namespace speccal::sdr {

namespace {

obs::Counter& injected_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("speccal_fault_injected_total");
  return c;
}

[[noreturn]] void throw_injected(FaultOp op, FaultKind kind, std::uint64_t index) {
  throw std::runtime_error(std::string("injected fault: ") + to_string(op) +
                           " op " + std::to_string(index) + " (" +
                           to_string(kind) + ")");
}

/// The taxonomy of DESIGN.md §11: can `kind` fire on an `op` call?
bool fires_on(FaultOp op, FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kThrow: return op != FaultOp::kGain;
    case FaultKind::kShortRead:
    case FaultKind::kNanBurst:
    case FaultKind::kSaturate:
    case FaultKind::kStall: return op == FaultOp::kCapture;
    case FaultKind::kTuneRefuse: return op == FaultOp::kTune;
    case FaultKind::kGainDriftDb: return op == FaultOp::kGain;
  }
  return false;
}

/// Throws std::invalid_argument naming `where` (the spec's field path) on a
/// kind its op cannot fire or a parameter out of range.
void validate_spec(const FaultSpec& spec, const std::string& where) {
  if (!fires_on(spec.op, spec.kind))
    throw std::invalid_argument(where + ".kind '" + to_string(spec.kind) +
                                "' cannot fire on op '" + to_string(spec.op) +
                                "'");
  if (!(spec.probability >= 0.0 && spec.probability <= 1.0))
    throw std::invalid_argument(where + ".probability must be in [0, 1]");
  if (spec.kind == FaultKind::kShortRead && !(spec.param >= 0.0 && spec.param <= 1.0))
    throw std::invalid_argument(where +
                                ".param (short-read fraction) must be in [0, 1]");
  // An hour is far above any watchdog timeout and keeps sleep_for finite.
  if (spec.kind == FaultKind::kStall && !(spec.param >= 0.0 && spec.param <= 3600.0))
    throw std::invalid_argument(where + ".param (stall seconds) must be in [0, 3600]");
}

}  // namespace

const char* to_string(FaultOp op) noexcept {
  switch (op) {
    case FaultOp::kCapture: return "capture";
    case FaultOp::kTune: return "tune";
    case FaultOp::kGain: return "gain";
  }
  return "?";
}

const char* to_string(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kThrow: return "throw";
    case FaultKind::kShortRead: return "short_read";
    case FaultKind::kNanBurst: return "nan";
    case FaultKind::kSaturate: return "saturate";
    case FaultKind::kStall: return "stall";
    case FaultKind::kTuneRefuse: return "tune_refuse";
    case FaultKind::kGainDriftDb: return "gain_drift";
  }
  return "?";
}

FaultInjectingDevice::FaultInjectingDevice(std::unique_ptr<Device> inner,
                                           std::vector<FaultSpec> schedule,
                                           std::uint64_t seed,
                                           std::string node_label)
    : DeviceDecorator(std::move(inner)),
      schedule_(std::move(schedule)),
      node_label_(std::move(node_label)),
      rng_(seed) {
  for (std::size_t i = 0; i < schedule_.size(); ++i)
    validate_spec(schedule_[i],
                  "FaultInjectingDevice.schedule[" + std::to_string(i) + "]");
}

const FaultSpec* FaultInjectingDevice::match(FaultOp op, std::uint64_t index) {
  for (const FaultSpec& spec : schedule_) {
    if (spec.op != op) continue;
    if (index < spec.first) continue;
    if (spec.count >= 0 &&
        index >= spec.first + static_cast<std::uint64_t>(spec.count))
      continue;
    if (spec.probability < 1.0 && !rng_.chance(spec.probability)) continue;
    return &spec;
  }
  return nullptr;
}

void FaultInjectingDevice::note_injection(const FaultSpec& spec,
                                          std::uint64_t index) {
  ++injected_;
  injected_counter().add();
  obs::EventLog::global().log(
      obs::EventSeverity::kWarning, "fault_injected", node_label_, {},
      {obs::SpanArg::str("op", to_string(spec.op)),
       obs::SpanArg::str("kind", to_string(spec.kind)),
       obs::SpanArg::integer("op_index", static_cast<std::int64_t>(index))});
}

bool FaultInjectingDevice::tune(double center_freq_hz, double sample_rate_hz) {
  const std::uint64_t index = tune_ops_++;
  if (const FaultSpec* spec = match(FaultOp::kTune, index)) {
    note_injection(*spec, index);
    if (spec->kind == FaultKind::kThrow)
      throw_injected(FaultOp::kTune, spec->kind, index);
    // kTuneRefuse: the PLL refuses to lock. The inner device is left
    // untouched so its previous tuning stays valid.
    return false;
  }
  return DeviceDecorator::tune(center_freq_hz, sample_rate_hz);
}

void FaultInjectingDevice::set_gain_db(double gain_db) {
  const std::uint64_t index = gain_ops_++;
  if (const FaultSpec* spec = match(FaultOp::kGain, index)) {  // kGainDriftDb
    note_injection(*spec, index);
    DeviceDecorator::set_gain_db(gain_db + spec->param);
    reported_gain_db_ = gain_db;  // the silent lie: report what was asked
    gain_lie_active_ = true;
    return;
  }
  gain_lie_active_ = false;
  DeviceDecorator::set_gain_db(gain_db);
}

double FaultInjectingDevice::gain_db() const {
  return gain_lie_active_ ? reported_gain_db_ : DeviceDecorator::gain_db();
}

void FaultInjectingDevice::capture_into(std::span<dsp::Sample> out) {
  const std::uint64_t index = capture_ops_++;
  const FaultSpec* spec = match(FaultOp::kCapture, index);
  if (spec == nullptr) return DeviceDecorator::capture_into(out);
  note_injection(*spec, index);
  switch (spec->kind) {
    case FaultKind::kStall:
      std::this_thread::sleep_for(std::chrono::duration<double>(spec->param));
      stalled_s_ += spec->param;
      [[fallthrough]];
    case FaultKind::kThrow:
      throw_injected(FaultOp::kCapture, spec->kind, index);
    case FaultKind::kShortRead:
      // Only the head of the buffer is written; the tail keeps whatever the
      // caller had there — in a stage's reused buffer, the previous
      // capture's samples (DESIGN.md §11).
      DeviceDecorator::capture_into(out.first(static_cast<std::size_t>(
          static_cast<double>(out.size()) * spec->param)));
      return;
    case FaultKind::kNanBurst:
    case FaultKind::kSaturate: {
      DeviceDecorator::capture_into(out);
      const float v = spec->kind == FaultKind::kSaturate
                          ? 1.0f
                          : std::numeric_limits<float>::quiet_NaN();
      std::fill(out.begin(), out.end(), dsp::Sample{v, v});
      return;
    }
    case FaultKind::kTuneRefuse:   // never on a capture: the constructor
    case FaultKind::kGainDriftDb:  // rejects both (validate_spec)
      break;
  }
}

// --- Profiles ---------------------------------------------------------------

const std::vector<FaultSpec>* FaultProfile::faults_for(
    std::size_t node_index) const noexcept {
  for (const NodeFaults& n : nodes)
    if (n.index == node_index && !n.faults.empty()) return &n.faults;
  return nullptr;
}

void FaultProfile::validate() const {
  if (retry_max_attempts < 1)
    throw std::invalid_argument("FaultProfile.retry_max_attempts must be >= 1");
  if (initial_backoff_s < 0.0)
    throw std::invalid_argument("FaultProfile.initial_backoff_s must be >= 0");
  if (stage_deadline_s < 0.0)
    throw std::invalid_argument("FaultProfile.stage_deadline_s must be >= 0");
  std::set<std::size_t> indices;
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    const auto where = [n](std::size_t f) {
      return "FaultProfile.nodes[" + std::to_string(n) + "].faults[" +
             std::to_string(f) + "]";
    };
    if (!indices.insert(nodes[n].index).second)
      throw std::invalid_argument("FaultProfile.nodes[" + std::to_string(n) +
                                  "].index repeats an earlier node's index");
    for (std::size_t f = 0; f < nodes[n].faults.size(); ++f)
      validate_spec(nodes[n].faults[f], where(f));
  }
}

std::unique_ptr<Device> FaultProfile::wrap(std::unique_ptr<Device> device,
                                           std::size_t node_index,
                                           std::string node_label) const {
  const std::vector<FaultSpec>* faults = faults_for(node_index);
  if (faults == nullptr) return device;
  // Per-node injector seed: stable function of the profile seed and the
  // node index, so probabilistic faults are reproducible per node no matter
  // which worker thread builds the device.
  std::uint64_t state = seed ^ (0x9E3779B97F4A7C15ull * (node_index + 1));
  const std::uint64_t node_seed = util::splitmix64(state);
  return std::make_unique<FaultInjectingDevice>(std::move(device), *faults,
                                                node_seed,
                                                std::move(node_label));
}

namespace {

using util::JsonReader;

FaultSpec fault_from(const JsonReader::Value& doc, const std::string& path) {
  FaultSpec spec;
  for (const auto& [key, v] : doc.object(path)) {
    const std::string at = path + "." + key;
    if (key == "op") spec.op = v.enumerator(FaultOp::kGain, at);
    else if (key == "kind") spec.kind = v.enumerator(FaultKind::kGainDriftDb, at);
    else if (key == "first") spec.first = v.integer<std::uint64_t>(at);
    else if (key == "count") spec.count = v.integer<std::int64_t>(at);
    else if (key == "param") spec.param = v.number(at);
    else if (key == "probability") spec.probability = v.number(at);
    else throw std::invalid_argument("unknown key '" + at + "'");
  }
  return spec;
}

FaultProfile::NodeFaults node_from(const JsonReader::Value& doc,
                                   const std::string& path) {
  FaultProfile::NodeFaults node;
  for (const auto& [key, v] : doc.object(path)) {
    const std::string at = path + "." + key;
    if (key == "index") {
      node.index = v.integer<std::size_t>(at);
    } else if (key == "faults") {
      const JsonReader::Array& faults = v.array(at);
      for (std::size_t f = 0; f < faults.size(); ++f)
        node.faults.push_back(
            fault_from(faults[f], at + "[" + std::to_string(f) + "]"));
    } else {
      throw std::invalid_argument("unknown key '" + at + "'");
    }
  }
  return node;
}

/// Schema mapping of an inline JSON profile; every error is an
/// std::invalid_argument prefixed "fault profile: ".
FaultProfile profile_from_json(std::string_view text) try {
  FaultProfile profile;
  profile.name = "custom";
  const JsonReader::Value doc = JsonReader::parse(text);
  for (const auto& [key, v] : doc.object("profile")) {
    if (key == "name") profile.name = v.str(key);
    else if (key == "seed") profile.seed = v.integer<std::uint64_t>(key);
    else if (key == "retry_max_attempts") profile.retry_max_attempts = v.integer<int>(key);
    else if (key == "initial_backoff_s") profile.initial_backoff_s = v.number(key);
    else if (key == "stage_deadline_s") profile.stage_deadline_s = v.number(key);
    else if (key == "expected_quarantined_nodes") profile.expected_quarantined_nodes = v.integer<std::size_t>(key);
    else if (key == "nodes") {
      const JsonReader::Array& nodes = v.array(key);
      for (std::size_t n = 0; n < nodes.size(); ++n)
        profile.nodes.push_back(
            node_from(nodes[n], "nodes[" + std::to_string(n) + "]"));
    } else {
      throw std::invalid_argument("unknown key '" + key + "'");
    }
  }
  return profile;
} catch (const std::invalid_argument& e) {
  throw std::invalid_argument(std::string("fault profile: ") + e.what());
}

/// "flaky20": scripted for a 20-node fleet. Three transient nodes whose
/// first two captures throw (recover on retry 3), one dead node whose every
/// capture throws (quarantined). Everyone else untouched — their reports
/// must stay bitwise identical to a fault-free run.
FaultProfile flaky20_profile() {
  FaultProfile profile;
  profile.name = "flaky20";
  profile.seed = 20;
  profile.retry_max_attempts = 4;
  profile.initial_backoff_s = 0.01;
  profile.expected_quarantined_nodes = 1;
  const FaultSpec transient{FaultOp::kCapture, FaultKind::kThrow, 0, 2, 0.0, 1.0};
  const FaultSpec dead{FaultOp::kCapture, FaultKind::kThrow, 0, -1, 0.0, 1.0};
  profile.nodes.push_back({2, {transient}});
  profile.nodes.push_back({5, {dead}});
  profile.nodes.push_back({7, {transient}});
  profile.nodes.push_back({12, {transient}});
  return profile;
}

/// "chaos": flaky20 plus silent data corruption — a deaf tuner, a NaN
/// spewer, a saturated front end and a gain liar. Only the dead node
/// quarantines; the corrupted nodes complete with degraded, low-trust
/// reports (the calibration layer's job is to notice).
FaultProfile chaos_profile() {
  FaultProfile profile = flaky20_profile();
  profile.name = "chaos";
  profile.seed = 1337;
  profile.nodes.push_back(
      {9, {FaultSpec{FaultOp::kTune, FaultKind::kTuneRefuse, 0, -1, 0.0, 1.0}}});
  profile.nodes.push_back(
      {14, {FaultSpec{FaultOp::kCapture, FaultKind::kNanBurst, 0, -1, 0.0, 1.0}}});
  profile.nodes.push_back(
      {17, {FaultSpec{FaultOp::kCapture, FaultKind::kSaturate, 0, -1, 0.0, 0.5},
            FaultSpec{FaultOp::kGain, FaultKind::kGainDriftDb, 0, -1, 6.0, 1.0}}});
  return profile;
}

}  // namespace

FaultProfile make_fault_profile(std::string_view name_or_json) {
  const auto validated = [](FaultProfile profile) {
    profile.validate();
    return profile;
  };
  // Inline JSON document?
  const auto non_ws = name_or_json.find_first_not_of(" \t\r\n");
  if (non_ws != std::string_view::npos && name_or_json[non_ws] == '{')
    return validated(profile_from_json(name_or_json));

  if (name_or_json == "none") return FaultProfile{};
  if (name_or_json == "flaky20") return validated(flaky20_profile());
  if (name_or_json == "chaos") return validated(chaos_profile());
  throw std::invalid_argument(
      "unknown fault profile '" + std::string(name_or_json) +
      "' (built-ins: none, flaky20, chaos; or an inline JSON document)");
}

}  // namespace speccal::sdr

#include "calib/retry.hpp"

#include <chrono>
#include <cmath>

#include "obs/eventlog.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sdr/device.hpp"

namespace speccal::calib {

namespace {

constexpr double kBackoffMultiplier = 2.0;
constexpr double kJitterFraction = 0.1;
constexpr std::uint64_t kJitterSeed = 0x5eedf001u;

/// Stable per-node seed: chains every node-id byte through SplitMix64 so
/// "node-1"/"node-2" land in unrelated jitter streams regardless of which
/// worker thread runs them.
std::uint64_t jitter_seed_for(std::string_view node_id) {
  std::uint64_t state = kJitterSeed;
  for (const char c : node_id) {
    state ^= static_cast<unsigned char>(c);
    (void)util::splitmix64(state);
  }
  return util::splitmix64(state);
}

/// Per-(node, stage) stream: chaining the stage index through another
/// SplitMix64 round keeps each stage's jitter independent of how many other
/// stages of the node faulted before it — required now that stages of one
/// node can execute in any order (or concurrently) under the executor.
std::uint64_t stage_jitter_seed(std::uint64_t node_seed, Stage stage) {
  std::uint64_t state = node_seed ^ (static_cast<std::uint64_t>(stage) + 1);
  return util::splitmix64(state);
}

}  // namespace

void FaultTally::note(const std::vector<FaultRecord>& records) noexcept {
  // Quarantine wins: a node with both a quarantined and a recovered stage
  // is degraded, not recovered (same rule as CalibrationReport::quarantined).
  for (const FaultRecord& fr : records) {
    if (fr.outcome != FaultOutcome::kRecovered) {
      ++quarantined;
      return;
    }
  }
  if (!records.empty()) ++recovered;
}

const char* to_string(FaultOutcome outcome) noexcept {
  switch (outcome) {
    case FaultOutcome::kRecovered: return "recovered";
    case FaultOutcome::kQuarantined: return "quarantined";
    case FaultOutcome::kDeadlineExpired: return "deadline_expired";
  }
  return "?";
}

RetryRunner::RetryRunner(const RetryPolicy& policy, std::string_view node_id,
                         sdr::Device* device, obs::TraceSession* trace)
    : policy_(policy),
      node_id_(node_id),
      device_(device),
      trace_(trace),
      node_seed_(jitter_seed_for(node_id)) {}

double RetryRunner::next_backoff_s(int failed_attempt,
                                   util::Rng& jitter_rng) const noexcept {
  double backoff = policy_.initial_backoff_s *
                   std::pow(kBackoffMultiplier, failed_attempt - 1);
  backoff *= 1.0 + kJitterFraction * (2.0 * jitter_rng.uniform() - 1.0);
  return std::max(0.0, backoff);
}

bool RetryRunner::run(Stage stage, std::vector<FaultRecord>& records,
                      const std::function<void()>& reset,
                      const std::function<void()>& body) {
  if (policy_.passthrough()) {
    reset();
    body();
    return true;
  }

  util::Rng jitter_rng(stage_jitter_seed(node_seed_, stage));
  const auto stage_start = std::chrono::steady_clock::now();
  FaultRecord record;
  record.stage = stage;
  std::exception_ptr last_exception;
  const int max_attempts = std::max(1, policy_.max_attempts);

  for (int attempt = 1;; ++attempt) {
    record.attempts = attempt;
    try {
      obs::Span retry_span;
      if (attempt > 1) {
        obs::Registry::global().counter("speccal_retry_attempts_total").add();
        if (trace_ != nullptr) {
          retry_span = obs::Span(trace_, "retry", "retry");
          retry_span.arg("stage", to_string(stage));
          retry_span.arg("attempt", static_cast<std::int64_t>(attempt));
          if (!node_id_.empty()) retry_span.arg("node", node_id_);
        }
      }
      reset();
      body();
      if (attempt > 1) {
        record.outcome = FaultOutcome::kRecovered;
        obs::Registry::global().counter("speccal_retry_recovered_total").add();
        obs::EventLog::global().log(
            obs::EventSeverity::kWarning, "stage_recovered", node_id_,
            to_string(stage),
            {obs::SpanArg::integer("attempts", attempt),
             obs::SpanArg::str("last_error", record.last_error)});
        records.push_back(std::move(record));
      }
      return true;
    } catch (const std::exception& e) {
      last_exception = std::current_exception();
      record.last_error = e.what();
    } catch (...) {
      last_exception = std::current_exception();
      record.last_error = "unknown exception";
    }

    const double elapsed_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      stage_start)
            .count();
    const bool deadline_hit = policy_.stage_deadline_s > 0.0 &&
                              elapsed_s >= policy_.stage_deadline_s;
    if (attempt >= max_attempts || deadline_hit) {
      if (!policy_.quarantine) std::rethrow_exception(last_exception);
      reset();  // drop the failed attempt's partial outputs
      record.outcome = deadline_hit ? FaultOutcome::kDeadlineExpired
                                    : FaultOutcome::kQuarantined;
      record.degraded = true;
      obs::Registry::global()
          .counter("speccal_fault_quarantined_stages_total")
          .add();
      obs::EventLog::global().log(
          obs::EventSeverity::kError,
          deadline_hit ? "stage_deadline_expired" : "stage_quarantined",
          node_id_, to_string(stage),
          {obs::SpanArg::integer("attempts", attempt),
           obs::SpanArg::str("last_error", record.last_error)});
      records.push_back(std::move(record));
      return false;
    }

    const double backoff_s = next_backoff_s(attempt, jitter_rng);
    record.backoff_total_s += backoff_s;
    obs::Registry::global()
        .histogram("speccal_retry_backoff_ms", obs::default_duration_bounds_ms())
        .observe(backoff_s * 1e3);
    // Backoff consumes stream time, not wall time — deterministic, and the
    // world genuinely moves on while we wait. Pure stages (null device)
    // advance nothing.
    if (device_ != nullptr)
      if (sdr::SimControl* sim = device_->sim_control()) sim->advance_time(backoff_s);
  }
}

}  // namespace speccal::calib

// Trace spans with Chrome trace_event JSON export.
//
// A TraceSession collects completed spans from any number of threads; the
// export is the Chrome `trace_event` "complete event" (ph:"X") format, so a
// fleet calibration run drops straight into chrome://tracing or Perfetto:
// each worker thread becomes a track, each node a span on that track, and
// each pipeline stage a nested child (nesting is by time containment per
// thread, which RAII scoping guarantees).
//
// Overhead contract (DESIGN.md §10): a Span constructed with a null session
// does nothing at all — no clock read, no allocation — so instrumentation
// points cost one pointer test when tracing is off. With a session attached,
// a span costs two steady-clock reads plus one mutex-guarded append at
// destruction; spans therefore belong at stage/node granularity, never
// inside per-sample loops (counters cover those — obs/metrics.hpp).
//
// Timestamps come from std::chrono::steady_clock exclusively (monotonic;
// wall-clock time never enters the trace), measured relative to the
// session's construction.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace speccal::obs {

/// One key/value annotation on a span ("args" in the Chrome format).
struct SpanArg {
  enum class Kind { kString, kInt, kDouble, kBool };
  std::string key;
  Kind kind = Kind::kString;
  std::string string_value;
  std::int64_t int_value = 0;
  double double_value = 0.0;
  bool bool_value = false;

  [[nodiscard]] static SpanArg str(std::string_view key, std::string_view value);
  [[nodiscard]] static SpanArg integer(std::string_view key, std::int64_t value);
  [[nodiscard]] static SpanArg number(std::string_view key, double value);
  [[nodiscard]] static SpanArg boolean(std::string_view key, bool value);
};

/// Thread-safe collector of completed spans for one run.
class TraceSession {
 public:
  using clock = std::chrono::steady_clock;

  TraceSession();
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  /// Record a finished span. The calling thread determines the track (tid);
  /// timestamps are clamped to the session start. Callable from any thread.
  void record_complete(std::string_view name, std::string_view category,
                       clock::time_point start, clock::time_point end,
                       std::vector<SpanArg> args = {});

  /// Label the *calling* thread's track in the export (and pin its lane
  /// order when sort_index >= 0 — Perfetto sorts unpinned lanes by raw
  /// tid). Executor workers call this once at startup so their lanes read
  /// `worker-0..N-1` in pool order instead of registration order; unnamed
  /// threads keep the "main"/"worker-<tid>" fallback.
  void name_thread(std::string_view name, int sort_index = -1);

  [[nodiscard]] std::size_t event_count() const;

  /// Full Chrome trace document:
  ///   {"traceEvents":[...metadata + X events...],"displayTimeUnit":"ms"}
  /// Events are sorted by start timestamp; thread_name metadata events label
  /// each worker track.
  void write_chrome_trace(std::ostream& os) const;

 private:
  struct Event {
    std::string name;
    std::string category;
    double ts_us = 0.0;   // since session start
    double dur_us = 0.0;
    int tid = 0;
    std::vector<SpanArg> args;
  };
  struct ThreadLabel {
    std::string name;
    int sort_index = -1;  // < 0: let the viewer sort by tid
  };
  int tid_for_locked(std::thread::id id);

  mutable std::mutex mutex_;
  clock::time_point t0_;
  std::vector<Event> events_;
  std::vector<std::thread::id> threads_;  // index == tid
  std::map<int, ThreadLabel> thread_labels_;
};

/// RAII span. Constructed against a session (or nullptr = disabled); records
/// itself into the session when it ends (scope exit, move-from, or an
/// explicit end()). Exception-safe: unwinding ends the span.
class Span {
 public:
  Span() noexcept = default;  // inactive
  Span(TraceSession* session, std::string name,
       std::string category = "speccal");

  Span(Span&& other) noexcept;
  Span& operator=(Span&& other) noexcept;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span();

  /// Attach an annotation (no-op on an inactive span).
  void arg(std::string_view key, std::string_view value);
  void arg(std::string_view key, const char* value) {
    arg(key, std::string_view(value));
  }
  void arg(std::string_view key, std::int64_t value);
  void arg(std::string_view key, double value);
  void arg(std::string_view key, bool value);

  /// Close and record now; idempotent.
  void end() noexcept;

  [[nodiscard]] bool active() const noexcept { return session_ != nullptr; }

 private:
  TraceSession* session_ = nullptr;
  std::string name_;
  std::string category_;
  std::vector<SpanArg> args_;
  TraceSession::clock::time_point start_{};
};

}  // namespace speccal::obs

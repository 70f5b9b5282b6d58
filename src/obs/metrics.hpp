// Fleet-wide metrics registry — the backend-visibility layer the paper's
// crowd-sourced deployment model presumes (Electrosense keeps per-node
// health series for exactly this reason).
//
// Three instrument kinds, all with a lock-free fast path:
//   * Counter   — monotonic uint64 (speccal_sdr_captures_total),
//   * Gauge     — last-written double (speccal_dsp_plan_cache_entries),
//   * Histogram — fixed-bucket distribution (speccal_calib_stage_*_ms).
// Handles returned by a Registry are stable references valid for the
// registry's lifetime; updating one is a relaxed atomic op, so hot paths
// (capture loops, demodulators, plan cache) publish without taking a lock.
// Registration and exposition take a mutex — both are cold.
//
// `Registry::global()` is the process-wide instance every library layer
// publishes into; tests that need isolation construct their own Registry
// and read deltas, or flip `set_metrics_enabled(false)` to silence the
// fast path entirely (one relaxed load + branch per update — this is what
// bench/obs_overhead measures).
//
// Naming convention (DESIGN.md §10): speccal_<area>_<name>_<unit>, where
// <unit> is `total` for counters, a unit like `ms`/`bytes` for histograms
// and gauges. Names are validated at registration.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace speccal::util {
class JsonWriter;
}

namespace speccal::obs {

namespace detail {
inline std::atomic<bool> g_metrics_enabled{true};
}  // namespace detail

/// Process-wide kill switch for every metric fast path (used by
/// bench/obs_overhead to measure the instrumented-vs-uninstrumented delta).
inline void set_metrics_enabled(bool enabled) noexcept {
  detail::g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}
[[nodiscard]] inline bool metrics_enabled() noexcept {
  return detail::g_metrics_enabled.load(std::memory_order_relaxed);
}

/// Monotonic event count. add() is a relaxed fetch_add — safe from any
/// thread, never locks.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    if (!metrics_enabled()) return;
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  Counter() = default;
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written instantaneous value (cache entries, bytes reserved, ...).
class Gauge {
 public:
  void set(double v) noexcept {
    if (!metrics_enabled()) return;
    value_.store(v, std::memory_order_relaxed);
  }
  /// Relaxed read-modify-write via CAS (atomic<double>::fetch_add is not
  /// guaranteed pre-C++20 libs; the CAS loop is portable and uncontended
  /// in practice).
  void add(double delta) noexcept {
    if (!metrics_enabled()) return;
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  Gauge() = default;
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram with Prometheus `le` semantics: an observation v
/// lands in the first bucket whose upper bound satisfies v <= bound, or in
/// the implicit +Inf overflow bucket. Bounds are fixed at registration.
/// observe() is two relaxed atomic ops plus a CAS for the sum; exposition
/// reads are a best-effort snapshot (buckets are independent atomics).
class Histogram {
 public:
  void observe(double v) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::span<const double> bounds() const noexcept { return bounds_; }
  /// Non-cumulative count of bucket `i` (i == bounds().size() is +Inf).
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  explicit Histogram(std::span<const double> bounds);
  std::vector<double> bounds_;  // strictly increasing upper bounds
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Upper bounds suited to pipeline-stage wall times (1 ms .. 10 s).
[[nodiscard]] std::span<const double> default_duration_bounds_ms() noexcept;

enum class MetricKind { kCounter, kGauge, kHistogram };

[[nodiscard]] const char* to_string(MetricKind kind) noexcept;

/// One label on a metric series. Label names follow Prometheus rules
/// ([a-zA-Z_][a-zA-Z0-9_]*); values are arbitrary UTF-8 and get escaped at
/// exposition time — this is how per-node series (`speccal_node_health`)
/// carry node ids like "dave-rooftop" that are illegal in metric names.
struct Label {
  std::string name;
  std::string value;
};
using Labels = std::vector<Label>;

/// Thread-safe name -> metric registry with JSON exposition.
///
/// counter()/gauge()/histogram() get-or-create: the same (name, labels)
/// always returns the same handle, so independent call sites share one
/// series. Requesting an existing name as a different kind throws
/// std::invalid_argument (as does a name outside [a-zA-Z0-9_:], a label
/// name outside [a-zA-Z_][a-zA-Z0-9_]*, or a duplicated label name).
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide instance every library layer publishes into.
  /// Intentionally leaked so handles cached in function-local statics stay
  /// valid through shutdown.
  [[nodiscard]] static Registry& global();

  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  /// Labeled variants: label order is irrelevant (sets are canonicalized by
  /// sorting on label name); every label set of one metric name must agree
  /// on kind. Histograms are deliberately unlabeled — per-node cardinality
  /// belongs on cheap scalars, not bucket arrays.
  [[nodiscard]] Counter& counter(std::string_view name, Labels labels);
  [[nodiscard]] Gauge& gauge(std::string_view name, Labels labels);
  /// Bounds must be strictly increasing and non-empty; they are fixed by
  /// the first registration (later calls with the same name return the
  /// existing histogram and ignore `bounds`).
  [[nodiscard]] Histogram& histogram(std::string_view name,
                                     std::span<const double> bounds);

  [[nodiscard]] std::size_t size() const;

  /// JSON exposition:
  ///   {"metrics":[{"name":...,"type":"counter","value":N}, ...]}
  /// Labeled series additionally carry {"labels":{...}}. Histograms carry
  /// cumulative `le` buckets plus sum/count. Emits onto an open writer so
  /// callers can embed the object in a larger document.
  void write_json(util::JsonWriter& w) const;
  /// Standalone-document convenience.
  void write_json(std::ostream& os) const;

 private:
  struct Entry {
    std::string name;  // base metric name (key also encodes labels)
    Labels labels;     // canonically sorted; empty for unlabeled series
    MetricKind kind{};
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  Entry& entry_for(std::string_view name, Labels labels, MetricKind kind,
                   std::span<const double> bounds);

  mutable std::mutex mutex_;
  // Keyed so every label set of one name sorts contiguously, right after
  // the unlabeled series and before any longer name ("name" < "name\x01.."
  // < "name_sub"): exposition stays name-grouped with one pass.
  std::map<std::string, Entry, std::less<>> metrics_;
  std::map<std::string, MetricKind, std::less<>> kinds_;  // name -> kind
};

}  // namespace speccal::obs

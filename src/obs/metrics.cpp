#include "obs/metrics.hpp"

#include <algorithm>
#include <array>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "util/json.hpp"

namespace speccal::obs {

// ------------------------------------------------------------- histogram ----

Histogram::Histogram(std::span<const double> bounds)
    : bounds_(bounds.begin(), bounds.end()),
      buckets_(new std::atomic<std::uint64_t>[bounds.size() + 1]) {
  if (bounds_.empty())
    throw std::invalid_argument("Histogram: bucket bounds must be non-empty");
  for (std::size_t i = 1; i < bounds_.size(); ++i)
    if (!(bounds_[i - 1] < bounds_[i]))
      throw std::invalid_argument(
          "Histogram: bucket bounds must be strictly increasing");
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::observe(double v) noexcept {
  if (!metrics_enabled()) return;
  // First bound >= v (le semantics); everything above lands in +Inf.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

std::span<const double> default_duration_bounds_ms() noexcept {
  static constexpr std::array<double, 13> kBounds = {
      1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0,
      5000.0, 10000.0};
  return kBounds;
}

const char* to_string(MetricKind kind) noexcept {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

// -------------------------------------------------------------- registry ----

namespace {

bool valid_metric_name(std::string_view name) noexcept {
  if (name.empty()) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) return false;
  }
  return true;
}

bool valid_label_name(std::string_view name) noexcept {
  if (name.empty()) return false;
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
    const bool ok = alpha || c == '_' || (i > 0 && c >= '0' && c <= '9');
    if (!ok) return false;
  }
  return true;
}

// Label-value escaping (backslash, double quote, newline) keeps the
// rendered label set, and so the registry key, injective.
void write_escaped_label_value(std::ostream& os, std::string_view value) {
  for (char c : value) {
    switch (c) {
      case '\\': os << "\\\\"; break;
      case '"': os << "\\\""; break;
      case '\n': os << "\\n"; break;
      default: os << c;
    }
  }
}

void write_label_set(std::ostream& os, const Labels& labels) {
  os << '{';
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i != 0) os << ',';
    os << labels[i].name << "=\"";
    write_escaped_label_value(os, labels[i].value);
    os << '"';
  }
  os << '}';
}

}  // namespace

Registry& Registry::global() {
  // Leaked on purpose: instrumented layers cache handles in function-local
  // statics, and those must outlive every other static destructor.
  static Registry* instance = new Registry();
  return *instance;
}

Registry::Entry& Registry::entry_for(std::string_view name, Labels labels,
                                     MetricKind kind,
                                     std::span<const double> bounds) {
  if (!valid_metric_name(name))
    throw std::invalid_argument("Registry: invalid metric name \"" +
                                std::string(name) +
                                "\" (allowed: [a-zA-Z0-9_:])");
  // Canonicalize: sort by label name so {a,b} and {b,a} are one series.
  std::sort(labels.begin(), labels.end(),
            [](const Label& x, const Label& y) { return x.name < y.name; });
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (!valid_label_name(labels[i].name))
      throw std::invalid_argument("Registry: invalid label name \"" +
                                  labels[i].name +
                                  "\" (allowed: [a-zA-Z_][a-zA-Z0-9_]*)");
    if (i > 0 && labels[i - 1].name == labels[i].name)
      throw std::invalid_argument("Registry: duplicate label name \"" +
                                  labels[i].name + "\" on metric \"" +
                                  std::string(name) + "\"");
  }
  // '\x01' sorts below every valid name character, so all label sets of one
  // name stay contiguous in the map (see header comment). The escaped label
  // rendering is injective, which makes the key unique per label set.
  std::string key(name);
  if (!labels.empty()) {
    std::ostringstream oss;
    write_label_set(oss, labels);
    key += '\x01';
    key += oss.str();
  }
  const std::scoped_lock lock(mutex_);
  if (auto kit = kinds_.find(name); kit != kinds_.end()) {
    if (kit->second != kind)
      throw std::invalid_argument(
          "Registry: metric \"" + std::string(name) + "\" already registered as " +
          to_string(kit->second) + ", requested as " + to_string(kind));
  } else {
    kinds_.emplace(std::string(name), kind);
  }
  auto it = metrics_.find(key);
  if (it != metrics_.end()) return it->second;
  Entry entry;
  entry.name = std::string(name);
  entry.labels = std::move(labels);
  entry.kind = kind;
  switch (kind) {
    case MetricKind::kCounter: entry.counter.reset(new Counter()); break;
    case MetricKind::kGauge: entry.gauge.reset(new Gauge()); break;
    case MetricKind::kHistogram:
      entry.histogram.reset(new Histogram(bounds));
      break;
  }
  return metrics_.emplace(std::move(key), std::move(entry)).first->second;
}

Counter& Registry::counter(std::string_view name) {
  return *entry_for(name, {}, MetricKind::kCounter, {}).counter;
}

Gauge& Registry::gauge(std::string_view name) {
  return *entry_for(name, {}, MetricKind::kGauge, {}).gauge;
}

Counter& Registry::counter(std::string_view name, Labels labels) {
  return *entry_for(name, std::move(labels), MetricKind::kCounter, {}).counter;
}

Gauge& Registry::gauge(std::string_view name, Labels labels) {
  return *entry_for(name, std::move(labels), MetricKind::kGauge, {}).gauge;
}

Histogram& Registry::histogram(std::string_view name,
                               std::span<const double> bounds) {
  return *entry_for(name, {}, MetricKind::kHistogram, bounds).histogram;
}

std::size_t Registry::size() const {
  const std::scoped_lock lock(mutex_);
  return metrics_.size();
}

void Registry::write_json(util::JsonWriter& w) const {
  const std::scoped_lock lock(mutex_);
  w.begin_object();
  w.key("metrics");
  w.begin_array();
  for (const auto& [key, entry] : metrics_) {
    w.begin_object();
    w.key("name");
    w.value(entry.name);
    if (!entry.labels.empty()) {
      w.key("labels");
      w.begin_object();
      for (const Label& label : entry.labels) {
        w.key(label.name);
        w.value(label.value);
      }
      w.end_object();
    }
    w.key("type");
    w.value(to_string(entry.kind));
    switch (entry.kind) {
      case MetricKind::kCounter:
        w.key("value");
        w.value(static_cast<std::int64_t>(entry.counter->value()));
        break;
      case MetricKind::kGauge:
        w.key("value");
        w.value(entry.gauge->value());
        break;
      case MetricKind::kHistogram: {
        const Histogram& h = *entry.histogram;
        w.key("count");
        w.value(static_cast<std::int64_t>(h.count()));
        w.key("sum");
        w.value(h.sum());
        w.key("buckets");
        w.begin_array();
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i <= h.bounds().size(); ++i) {
          cumulative += h.bucket_count(i);
          w.begin_object();
          w.key("le");
          if (i < h.bounds().size()) w.value(h.bounds()[i]);
          else w.value("+Inf");
          w.key("count");
          w.value(static_cast<std::int64_t>(cumulative));
          w.end_object();
        }
        w.end_array();
        break;
      }
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

void Registry::write_json(std::ostream& os) const {
  util::JsonWriter w(os);
  write_json(w);
  os << "\n";
}

}  // namespace speccal::obs

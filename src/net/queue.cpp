#include "net/queue.hpp"

#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"

namespace speccal::net {

namespace {

// Backpressure visibility (DESIGN.md §13/§15): queue state is mirrored into
// process-wide gauges after every mutation, so --metrics-out / Prometheus
// exposition shows ingest pressure without polling stats() in-process. One
// ingest queue per process in every current deployment; with several, the
// series reflect the most recently mutated queue.
obs::Gauge& depth_gauge() {
  static obs::Gauge& g =
      obs::Registry::global().gauge("speccal_net_queue_depth");
  return g;
}
obs::Gauge& high_watermark_gauge() {
  static obs::Gauge& g =
      obs::Registry::global().gauge("speccal_net_queue_high_watermark");
  return g;
}
obs::Gauge& closed_gauge() {
  static obs::Gauge& g =
      obs::Registry::global().gauge("speccal_net_queue_closed");
  return g;
}
obs::Counter& rejected_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("speccal_net_queue_rejected_total");
  return c;
}

}  // namespace

SegmentQueue::SegmentQueue(std::size_t capacity) : capacity_(capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("SegmentQueue.capacity must be >= 1");
  }
  ring_.resize(capacity_);
  // A fresh queue owns the series from here on.
  depth_gauge().set(0.0);
  closed_gauge().set(0.0);
}

void SegmentQueue::push_locked(Segment&& segment) {
  ring_[(head_ + count_) % capacity_] = std::move(segment);
  ++count_;
  ++stats_.pushed;
  if (count_ > stats_.peak_depth) stats_.peak_depth = count_;
}

void SegmentQueue::pop_locked(Segment& out) {
  out = std::move(ring_[head_]);
  head_ = (head_ + 1) % capacity_;
  --count_;
  ++stats_.popped;
}

bool SegmentQueue::push(Segment&& segment) {
  std::size_t depth = 0, peak = 0;
  {
    std::unique_lock lock(mutex_);
    not_full_.wait(lock, [this] { return closed_ || count_ < capacity_; });
    if (closed_) {
      ++stats_.rejected;
      rejected_counter().add();
      return false;
    }
    push_locked(std::move(segment));
    depth = count_;
    peak = stats_.peak_depth;
  }
  obs::Registry::global().counter("speccal_net_queue_pushed_total").add();
  depth_gauge().set(static_cast<double>(depth));
  high_watermark_gauge().set(static_cast<double>(peak));
  not_empty_.notify_one();
  return true;
}

bool SegmentQueue::try_push(Segment&& segment) {
  std::size_t depth = 0, peak = 0;
  {
    std::unique_lock lock(mutex_);
    if (closed_ || count_ == capacity_) {
      ++stats_.rejected;
      rejected_counter().add();
      return false;
    }
    push_locked(std::move(segment));
    depth = count_;
    peak = stats_.peak_depth;
  }
  obs::Registry::global().counter("speccal_net_queue_pushed_total").add();
  depth_gauge().set(static_cast<double>(depth));
  high_watermark_gauge().set(static_cast<double>(peak));
  not_empty_.notify_one();
  return true;
}

std::optional<Segment> SegmentQueue::pop() {
  Segment out;
  std::size_t depth = 0;
  {
    std::unique_lock lock(mutex_);
    not_empty_.wait(lock, [this] { return closed_ || count_ > 0; });
    if (count_ == 0) return std::nullopt;  // closed and drained
    pop_locked(out);
    depth = count_;
  }
  obs::Registry::global().counter("speccal_net_queue_popped_total").add();
  depth_gauge().set(static_cast<double>(depth));
  not_full_.notify_one();
  return out;
}

bool SegmentQueue::try_pop(Segment& out) {
  std::size_t depth = 0;
  {
    std::unique_lock lock(mutex_);
    if (count_ == 0) return false;
    pop_locked(out);
    depth = count_;
  }
  obs::Registry::global().counter("speccal_net_queue_popped_total").add();
  depth_gauge().set(static_cast<double>(depth));
  not_full_.notify_one();
  return true;
}

void SegmentQueue::close() {
  {
    std::unique_lock lock(mutex_);
    closed_ = true;
  }
  closed_gauge().set(1.0);
  not_full_.notify_all();
  not_empty_.notify_all();
}

bool SegmentQueue::closed() const {
  std::unique_lock lock(mutex_);
  return closed_;
}

std::size_t SegmentQueue::size() const {
  std::unique_lock lock(mutex_);
  return count_;
}

SegmentQueue::Stats SegmentQueue::stats() const {
  std::unique_lock lock(mutex_);
  return stats_;
}

}  // namespace speccal::net

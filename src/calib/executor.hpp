// Work-stealing executor for calibration task graphs.
//
// StageExecutor runs a TaskGraph on a small pool of workers. Each worker
// owns a deque: newly-ready successors are pushed to the owner's back and
// popped from the back (LIFO — depth-first, cache-warm, and on a per-node
// subgraph it reproduces the serial stage order), while idle workers steal
// from the *front* of a victim's deque (FIFO — they take the oldest, most
// independent work, typically another node's root). Root tasks are dealt
// round-robin across the workers before the pool starts.
//
// threads <= 1 runs the whole graph inline on the calling thread with no
// pool, no locks on the hot path, and a deterministic depth-first order:
// the single-thread execution of the fleet graph is statement-for-statement
// the serial calibration loop, which is what makes the fleet engine's
// "parallel == serial, bitwise" gate testable.
//
// Failure model: a task body that throws is caught and counted
// (ExecutorStats::tasks_failed, first_error keeps the earliest message);
// its successors still run. Calibration task bodies guard themselves on
// their node's error state, so one broken node never wedges the graph —
// every task always executes, and run() always drains.
//
// Determinism contract (DESIGN.md §12): the executor controls *when* tasks
// run, never *what* they compute. Any schedule — serial, stolen, or
// oversubscribed — must produce bitwise-identical reports; everything
// order-dependent (device I/O chains, retry jitter) is pinned by the graph's
// edges and by per-(node, stage) seeding, not by execution order.
#pragma once

#include <cstddef>
#include <string>

#include "calib/taskgraph.hpp"

namespace speccal::obs {
class TraceSession;
}

namespace speccal::calib {

struct ExecutorConfig {
  /// Worker threads. 0 = hardware concurrency; 1 = inline (no pool).
  unsigned threads = 0;
  /// Optional trace collector (caller-owned, must outlive run()). Each task
  /// emits one "task" span on the worker thread that ran it, labelled with
  /// the task's graph label and a "stolen" flag. Null = zero cost.
  obs::TraceSession* trace = nullptr;
};

/// What one run() did. Steal counts are a scheduling diagnostic, not a
/// correctness signal: zero steals just means the load was balanced.
struct ExecutorStats {
  unsigned threads_used = 0;
  std::size_t tasks_run = 0;     // always equals graph.size() after run()
  std::size_t tasks_stolen = 0;  // tasks executed by a non-owning worker
  std::size_t tasks_failed = 0;  // bodies that threw (caught, counted)
  std::string first_error;       // what() of the earliest failure, if any
};

class StageExecutor {
 public:
  explicit StageExecutor(ExecutorConfig config = {});

  /// Execute every task in `graph`, respecting its edges. Blocks until the
  /// graph drains. Throws std::invalid_argument if the graph has a task
  /// with no body or a dependency cycle (detected as a non-draining graph
  /// before any thread is spawned).
  ExecutorStats run(const TaskGraph& graph);

  /// Threads run() will actually use for a graph of `tasks` tasks.
  [[nodiscard]] unsigned effective_threads(std::size_t tasks) const noexcept;

 private:
  ExecutorStats run_inline(const TaskGraph& graph);

  ExecutorConfig config_;
};

}  // namespace speccal::calib

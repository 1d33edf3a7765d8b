// Deterministic discrete-event scheduler.
//
// The SHARD substrate (paper section 1.2) ran on a real network at CCA; the
// reproduction runs the same protocols on a discrete-event simulation so that
// every theorem of the paper can be checked against exactly reproducible
// executions, including executions with controlled network partitions.
// Events with equal timestamps fire in insertion order, so a run is a pure
// function of (seed, configuration).
#pragma once

#include <cstdint>
#include <queue>
#include <unordered_set>
#include <vector>

#include "runtime/hooks.hpp"
#include "sim/delay.hpp"

namespace sim {

/// A deterministic discrete-event scheduler ("virtual time" event loop),
/// and the simulator's runtime::Executor: one instance serves every node.
///
/// Components schedule closures at absolute or relative simulated times;
/// `run()` drains the queue in (time, insertion-sequence) order. Cancellation
/// is supported so protocols can maintain retransmission timers.
class Scheduler final : public runtime::Executor {
 public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulated time. Starts at 0.
  Time now() const override { return now_; }

  /// Schedule `action` at absolute simulated time `t` (>= now()).
  TimerId schedule_at(Time t, Action action) override;

  /// Schedule `action` `dt` seconds from now.
  TimerId schedule_after(Time dt, Action action) override {
    return schedule_at(now_ + dt, std::move(action));
  }

  /// Cancel a pending event. Returns false if it already ran or was
  /// previously cancelled.
  bool cancel(TimerId id) override;

  /// Run `action` synchronously after the CURRENT event's action finishes —
  /// at the same simulated time, before any queued event, and without
  /// creating a scheduler event (no new id, no dispatch hook call, no
  /// perturbation of the (time, seq) order). This is the hook batching
  /// layers use to coalesce work accumulated within one dispatch: stage
  /// during the action, flush at its end. Deferred actions may defer
  /// further actions (drained FIFO until empty). Called while no event is
  /// dispatching (e.g. from test code driving components directly),
  /// `action` runs immediately.
  void defer(Action action) override;

  /// Execute the next pending event. Returns false when the queue is empty.
  bool step();

  /// Run until the queue is empty ("quiescence"). Returns events executed.
  std::size_t run();

  /// Run events with time <= `t`, then set now() = t even if idle.
  /// Returns events executed.
  std::size_t run_until(Time t);

  /// True if no events are pending (cancelled-but-unpopped events count as
  /// pending until drained; run()/step() skip them).
  bool idle() const { return queue_.empty(); }

  /// Total events executed since construction.
  std::size_t events_executed() const { return executed_; }

  /// Install (or clear, with nullptr) the dispatch hook, called once per
  /// executed event with worker kNoWorker, after now() has advanced to the
  /// event's time and before its action runs.
  void set_dispatch_hook(runtime::Hooks::DispatchFn hook) {
    on_dispatch_ = std::move(hook);
  }

 private:
  struct Event {
    Time t = 0.0;
    std::uint64_t seq = 0;  // insertion order; tie-break for determinism
    TimerId id = 0;
    Action action;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };

  // Cancelled events stay in the heap and are skipped on pop; `cancelled_`
  // holds their ids until then (erased when the tombstone is consumed, so
  // the set tracks *pending* cancellations, not history). Hash lookup keeps
  // both cancel() and the per-pop check O(1) — cancel-heavy chaos runs used
  // to pay O(log cancelled) per pop re-sorting a vector.
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::unordered_set<TimerId> cancelled_;
  // End-of-dispatch work staged by defer(); drained inside step() after the
  // current action returns. Index-based drain: deferred actions may append.
  std::vector<Action> deferred_;
  bool dispatching_ = false;
  std::uint64_t next_seq_ = 0;
  TimerId next_id_ = 1;
  Time now_ = 0.0;
  std::size_t executed_ = 0;
  runtime::Hooks::DispatchFn on_dispatch_;

  bool is_cancelled(TimerId id);
};

}  // namespace sim

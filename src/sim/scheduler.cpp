#include "sim/scheduler.hpp"

#include <cassert>

namespace sim {

Scheduler::TimerId Scheduler::schedule_at(Time t, Action action) {
  if (t < now_) {
    // Scheduling into the past would silently reorder causality; treat as a
    // programming error at the call site but clamp so protocol code that
    // computes t = now + sampled_delay with delay 0 is still fine.
    t = now_;
  }
  Event ev;
  ev.t = t;
  ev.seq = next_seq_++;
  ev.id = next_id_++;
  ev.action = std::move(action);
  queue_.push(std::move(ev));
  return next_id_ - 1;
}

bool Scheduler::cancel(TimerId id) {
  if (id == 0 || id >= next_id_) return false;
  // Only record ids that might still be pending.
  cancelled_.insert(id);
  // We cannot know cheaply whether the event already ran; callers use the
  // return value only as a hint. Track liveness conservatively by probing.
  return true;
}

bool Scheduler::is_cancelled(TimerId id) {
  const auto it = cancelled_.find(id);
  if (it == cancelled_.end()) return false;
  // Each event is popped at most once, so this tombstone is spent: drop it
  // to keep the set proportional to pending cancellations.
  cancelled_.erase(it);
  return true;
}

void Scheduler::defer(Action action) {
  if (!dispatching_) {
    // Not inside a dispatch (component driven directly by test code):
    // there is no "end of the current event" to wait for — run now.
    action();
    return;
  }
  deferred_.push_back(std::move(action));
}

bool Scheduler::step() {
  while (!queue_.empty()) {
    Event ev = queue_.top();
    queue_.pop();
    if (is_cancelled(ev.id)) continue;
    assert(ev.t >= now_);
    now_ = ev.t;
    ++executed_;
    if (on_dispatch_) on_dispatch_(runtime::kNoWorker, ev.t, ev.id);
    dispatching_ = true;
    ev.action();
    // Drain end-of-dispatch work (batch flushes). Index loop: a deferred
    // action may defer more; everything runs before the next queued event.
    for (std::size_t i = 0; i < deferred_.size(); ++i) {
      Action a = std::move(deferred_[i]);
      a();
    }
    deferred_.clear();
    dispatching_ = false;
    return true;
  }
  return false;
}

std::size_t Scheduler::run() {
  std::size_t n = 0;
  while (step()) ++n;
  return n;
}

std::size_t Scheduler::run_until(Time t) {
  std::size_t n = 0;
  for (;;) {
    // Drop cancelled events from the front so the time check below sees the
    // next event that would actually run.
    while (!queue_.empty() && is_cancelled(queue_.top().id)) queue_.pop();
    if (queue_.empty() || queue_.top().t > t) break;
    if (step()) ++n;
  }
  if (now_ < t) now_ = t;
  return n;
}

}  // namespace sim

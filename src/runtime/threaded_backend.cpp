#include "runtime/threaded_backend.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>

namespace runtime {

// --- WorkerExecutor --------------------------------------------------------

Time WorkerExecutor::now() const { return backend_.now(); }

Executor::TimerId WorkerExecutor::schedule_at(Time t, Action action) {
  return backend_.post_task(worker_, t, ThreadedBackend::Task::Kind::kTimer,
                            std::move(action));
}

Executor::TimerId WorkerExecutor::schedule_after(Time dt, Action action) {
  return schedule_at(backend_.now() + dt, std::move(action));
}

bool WorkerExecutor::cancel(TimerId id) {
  return backend_.cancel_timer(worker_, id);
}

void WorkerExecutor::defer(Action action) {
  backend_.defer_on(worker_, std::move(action));
}

// --- ThreadedBackend -------------------------------------------------------

ThreadedBackend::ThreadedBackend(std::size_t num_nodes, std::uint64_t seed,
                                 ThreadedConfig config)
    : config_(config), epoch_(std::chrono::steady_clock::now()) {
  if (num_nodes == 0) throw std::invalid_argument("no nodes");
  if (config_.max_delay < config_.min_delay) {
    throw std::invalid_argument("max_delay < min_delay");
  }
  handlers_.resize(num_nodes);
  sim::Rng master(seed);
  for (std::size_t i = 0; i < num_nodes; ++i) {
    workers_.push_back(std::make_unique<Worker>());
    executors_.push_back(std::make_unique<WorkerExecutor>(*this, i));
    down_.push_back(std::make_unique<std::atomic<bool>>(false));
    send_rngs_.emplace_back(master.fork_seed());
  }
}

ThreadedBackend::~ThreadedBackend() { drain_and_stop(); }

Executor& ThreadedBackend::executor(NodeId node) {
  return *executors_.at(static_cast<std::size_t>(node));
}

void ThreadedBackend::set_hooks(Hooks hooks) {
  if (started_) throw std::logic_error("set_hooks after start()");
  hooks_ = std::move(hooks);
}

void ThreadedBackend::register_node(NodeId node, Handler handler) {
  if (started_) throw std::logic_error("register_node after start()");
  const std::size_t i = static_cast<std::size_t>(node);
  if (i >= handlers_.size()) {
    throw std::out_of_range("register_node: no worker for node");
  }
  handlers_[i] = std::move(handler);
}

void ThreadedBackend::set_node_down(NodeId node, bool down) {
  down_.at(static_cast<std::size_t>(node))
      ->store(down, std::memory_order_release);
}

bool ThreadedBackend::node_down(NodeId node) const {
  return down_.at(static_cast<std::size_t>(node))
      ->load(std::memory_order_acquire);
}

void ThreadedBackend::start() {
  if (started_) return;
  started_ = true;
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    workers_[i]->thread = std::thread([this, i] { worker_loop(i); });
  }
}

void ThreadedBackend::post(NodeId node, std::function<void()> fn) {
  post_task(static_cast<std::size_t>(node), now(), Task::Kind::kImmediate,
            std::move(fn));
}

std::uint64_t ThreadedBackend::post_task(std::size_t w, Time due,
                                         Task::Kind kind,
                                         std::function<void()> fn) {
  Worker& wk = *workers_.at(w);
  const std::uint64_t seq =
      next_seq_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(wk.mu);
    wk.queue.push(Task{due, seq, kind, std::move(fn)});
  }
  wk.cv.notify_all();
  return seq;
}

bool ThreadedBackend::cancel_timer(std::size_t w, std::uint64_t id) {
  Worker& wk = *workers_.at(w);
  std::lock_guard<std::mutex> lk(wk.mu);
  // The queue is not indexable; mark the id and let the pop discard it.
  // Double-cancel / cancel-after-fire both return false via the marker's
  // absence only when the id already popped unmarked — track fired ids is
  // overkill for the protocol's usage (periodic timers are never
  // cancelled twice), so: report success iff not already marked.
  return wk.cancelled.insert(id).second;
}

void ThreadedBackend::defer_on(std::size_t w, Executor::Action action) {
  Worker& wk = *workers_.at(w);
  if (wk.thread.get_id() == std::this_thread::get_id()) {
    // Own worker mid-task: stage onto the deferred list, drained right
    // after the current fn returns — the group-commit coalescing hook.
    // Own-thread only, so no lock.
    wk.deferred.push_back(std::move(action));
    return;
  }
  // Foreign thread (driver): nothing is dispatching on the caller, so the
  // closest honest semantics is "run asap on the owning worker".
  post_task(w, now(), Task::Kind::kImmediate, std::move(action));
}

std::uint64_t ThreadedBackend::send(NodeId src, NodeId dst,
                                    std::any payload) {
  // Shutdown: refuse BEFORE tracing anything, so no kNetSend is ever left
  // without a terminal fate (the trace validator asserts this).
  if (draining_.load(std::memory_order_acquire)) return 0;
  const std::size_t s = static_cast<std::size_t>(src);
  if (s >= workers_.size() || static_cast<std::size_t>(dst) >= workers_.size()) {
    throw std::out_of_range("send: no such node");
  }
  if (down_[s]->load(std::memory_order_acquire)) {
    emit_fate(src, dst, 0, MessageFate::kDroppedCrashed);
    return 0;
  }
  // Per-source stream: only src's worker draws from it, no lock needed.
  sim::Rng& rng = send_rngs_[s];
  if (config_.drop_probability > 0.0 &&
      rng.bernoulli(config_.drop_probability)) {
    emit_fate(src, dst, 0, MessageFate::kDroppedRandom);
    return 0;
  }
  const double delay = rng.uniform(config_.min_delay, config_.max_delay);
  const std::uint64_t id =
      next_msg_id_.fetch_add(1, std::memory_order_relaxed);
  // Count the message BEFORE its kSent becomes visible: drain_and_stop's
  // "bus is silent" check must never observe a traced send it isn't
  // waiting for.
  in_flight_.fetch_add(1, std::memory_order_acq_rel);
  emit_fate(src, dst, id, MessageFate::kSent);
  Message msg;
  msg.src = src;
  msg.dst = dst;
  msg.id = id;
  msg.payload = std::move(payload);
  post_task(
      static_cast<std::size_t>(dst), now() + delay, Task::Kind::kMessage,
      [this, msg = std::move(msg)]() mutable {
        // Delivery-side: runs on dst's worker. Crash drops here carry the
        // message id — the message travelled (mirrors the simulator).
        if (down_[static_cast<std::size_t>(msg.dst)]->load(
                std::memory_order_acquire)) {
          emit_fate(msg.src, msg.dst, msg.id, MessageFate::kDroppedCrashed);
          return;
        }
        emit_fate(msg.src, msg.dst, msg.id, MessageFate::kDelivered);
        handlers_[static_cast<std::size_t>(msg.dst)](msg);
      });
  return id;
}

std::size_t ThreadedBackend::send_to_all(NodeId src,
                                         const std::any& payload) {
  std::size_t sent = 0;
  for (std::size_t i = 0; i < handlers_.size(); ++i) {
    const NodeId dst = static_cast<NodeId>(i);
    if (dst == src) continue;
    send(src, dst, payload);
    ++sent;
  }
  return sent;
}

void ThreadedBackend::emit_fate(NodeId src, NodeId dst, std::uint64_t id,
                                MessageFate fate) {
  if (hooks_.on_message_fate) hooks_.on_message_fate(src, dst, id, fate);
}

void ThreadedBackend::worker_loop(std::size_t w) {
  Worker& wk = *workers_[w];
  std::unique_lock<std::mutex> lk(wk.mu);
  for (;;) {
    // Find the next runnable task (or exit).
    if (stop_.load(std::memory_order_acquire)) return;
    if (wk.queue.empty()) {
      wk.cv.wait(lk);
      continue;
    }
    const Task& top = wk.queue.top();
    if (top.kind == Task::Kind::kTimer) {
      if (wk.cancelled.count(top.seq) != 0) {
        wk.cancelled.erase(top.seq);
        wk.queue.pop();
        continue;
      }
      if (draining_.load(std::memory_order_acquire)) {
        // Draining discards pending timers regardless of due time — they
        // are the self-rescheduling periodic work that would keep the bus
        // alive forever.
        wk.queue.pop();
        continue;
      }
    }
    const Time due = top.due;
    const Time t_now = now();
    if (due > t_now) {
      wk.cv.wait_for(lk, std::chrono::duration<double>(due - t_now));
      continue;
    }
    Task task = std::move(const_cast<Task&>(wk.queue.top()));
    wk.queue.pop();
    wk.running = true;
    lk.unlock();

    if (hooks_.on_dispatch) {
      hooks_.on_dispatch(static_cast<NodeId>(w), now(), task.seq);
    }
    task.fn();
    // Drain deferred actions staged by the task (index-based: an action
    // may stage more). Runs on the owning thread before the task counts
    // as finished — same stage/flush contract as the simulator.
    for (std::size_t i = 0; i < wk.deferred.size(); ++i) {
      Executor::Action a = std::move(wk.deferred[i]);
      a();
    }
    wk.deferred.clear();
    if (task.kind == Task::Kind::kMessage) {
      // The message only stops counting once its handler (and everything
      // the handler deferred) ran — any sends it made are already counted.
      in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    }

    lk.lock();
    wk.running = false;
  }
}

void ThreadedBackend::drain_and_stop() {
  if (stopped_) return;
  stopped_ = true;
  if (!started_) return;
  draining_.store(true, std::memory_order_release);
  for (auto& wk : workers_) {
    {
      std::lock_guard<std::mutex> lk(wk->mu);
    }
    wk->cv.notify_all();
  }
  // Quiesce: all queues empty, nothing running, nothing on the bus. Sends
  // only happen inside running tasks and draining_ refuses new ones, so
  // once this predicate holds it holds forever. Cross-worker work transfer
  // is exactly the kMessage tasks, each counted in in_flight_ from before
  // its kSent fate until after its handler finishes — so a message posted
  // to an already-scanned worker cannot slip past the scan.
  for (;;) {
    bool idle = in_flight_.load(std::memory_order_acquire) == 0;
    if (idle) {
      for (auto& wk : workers_) {
        std::lock_guard<std::mutex> lk(wk->mu);
        bool queue_live = false;
        // Pending kTimer tasks will be discarded by the worker; anything
        // else still has to run.
        if (!wk->queue.empty()) queue_live = true;
        if (wk->running || queue_live) {
          idle = false;
          wk->cv.notify_all();
          break;
        }
      }
    }
    if (idle && in_flight_.load(std::memory_order_acquire) == 0) break;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  stop_.store(true, std::memory_order_release);
  for (auto& wk : workers_) {
    {
      std::lock_guard<std::mutex> lk(wk->mu);
    }
    wk->cv.notify_all();
  }
  for (auto& wk : workers_) {
    if (wk->thread.joinable()) wk->thread.join();
  }
}

}  // namespace runtime

// The real-runtime backend: one worker thread per node, monotonic clocks,
// and an in-process message bus with seeded delay/drop injection.
//
// Where the simulator backend interleaves every node on one logical worker
// in deterministic (time, seq) order, this backend runs each node on its
// own OS thread against the real clock. The protocol code is identical —
// it sees only runtime::Executor / runtime::Transport — and stays
// thread-confined by construction:
//
//   * everything a node does runs as tasks on its own worker (timers it
//     schedules, messages addressed to it, work posted via post());
//   * the bus hands a message to the destination's worker queue after a
//     seeded uniform delay, so delivery-side work (handler, fate hook)
//     executes on the destination's thread;
//   * per-source RNG streams drive drop/delay draws, so fault injection
//     needs no locking on the send path.
//
// Runs are NOT deterministic (that is the point); correctness is checked
// post hoc — the driver (runtime::RealtimeCluster) merges the per-node
// trace shards and runs the full oracle stack plus the send/fate trace
// validator over the merged stream.
//
// Shutdown contract (the invariant the trace validator enforces): once
// drain_and_stop() begins, (1) new sends are refused BEFORE any fate is
// traced — so no kNetSend ever lacks its terminal fate — and (2) every
// message already on the bus is still delivered (or crash-dropped) before
// the workers join. Pending timers are discarded instead: they are the
// self-rescheduling periodic work (anti-entropy) that would otherwise keep
// the bus busy forever.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <unordered_set>
#include <vector>

#include "runtime/api.hpp"
#include "runtime/hooks.hpp"
#include "sim/rng.hpp"

namespace runtime {

/// Bus fault injection. The node count and the master seed of the
/// per-source delay/drop RNG streams are ThreadedBackend constructor
/// arguments.
struct ThreadedConfig {
  /// Uniform per-message bus delay bounds, in (real) seconds.
  double min_delay = 0.0002;
  double max_delay = 0.002;
  /// Per-send drop probability (anti-entropy repairs what this loses).
  double drop_probability = 0.0;
};

class ThreadedBackend;

/// Executor view of one worker: timers and deferred actions land on that
/// worker's queue, which is what keeps the owning node thread-confined.
class WorkerExecutor final : public Executor {
 public:
  WorkerExecutor(ThreadedBackend& backend, std::size_t worker)
      : backend_(backend), worker_(worker) {}

  Time now() const override;
  TimerId schedule_at(Time t, Action action) override;
  TimerId schedule_after(Time dt, Action action) override;
  bool cancel(TimerId id) override;
  void defer(Action action) override;

 private:
  ThreadedBackend& backend_;
  std::size_t worker_;
};

/// The workers plus the bus, which is the backend's Transport. send() must
/// be called from the source's worker thread (protocol code always does —
/// sends happen inside tasks) or from the main thread before start().
class ThreadedBackend final : public Transport {
 public:
  ThreadedBackend(std::size_t num_nodes, std::uint64_t seed,
                  ThreadedConfig config = {});
  ~ThreadedBackend() override;

  ThreadedBackend(const ThreadedBackend&) = delete;
  ThreadedBackend& operator=(const ThreadedBackend&) = delete;

  /// The executor whose timers/deferred actions run on `node`'s worker.
  Executor& executor(NodeId node);
  Transport& transport() { return *this; }

  /// Install the observation hooks. Must precede start(): workers read
  /// the hook set without synchronization afterwards.
  void set_hooks(Hooks hooks);

  /// Transport. A call naming a node without a worker throws
  /// std::out_of_range; register_node after start() throws
  /// std::logic_error.
  void register_node(NodeId node, Handler handler) override;
  std::size_t node_count() const override { return handlers_.size(); }
  std::uint64_t send(NodeId src, NodeId dst, std::any payload) override;
  std::size_t send_to_all(NodeId src, const std::any& payload) override;
  void set_node_down(NodeId node, bool down) override;
  bool node_down(NodeId node) const override;

  /// Launch the worker threads. Tasks posted before start() (node start
  /// calls, pre-seeded timers) run once the workers come up.
  void start();

  /// Monotonic seconds since construction — the shared wall clock every
  /// worker stamps trace events with.
  Time now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
  }

  /// Run `fn` as a task on `node`'s worker (thread-safe; callable from the
  /// main thread). This is how drivers submit work and take snapshots.
  void post(NodeId node, std::function<void()> fn);

  /// Refuse new sends, discard pending timers, deliver every message
  /// already on the bus, then join the workers. Idempotent. After this
  /// returns, per-node state can be read from any thread.
  void drain_and_stop();

  bool stopped() const { return stopped_; }

 private:
  friend class WorkerExecutor;

  struct Task {
    Time due = 0.0;
    std::uint64_t seq = 0;  ///< global stamp: dispatch-hook id + tie-break
    enum class Kind : std::uint8_t { kTimer, kMessage, kImmediate } kind =
        Kind::kImmediate;
    std::function<void()> fn;
  };
  struct TaskLater {
    bool operator()(const Task& a, const Task& b) const {
      if (a.due != b.due) return a.due > b.due;
      return a.seq > b.seq;
    }
  };

  struct Worker {
    std::mutex mu;
    std::condition_variable cv;
    std::priority_queue<Task, std::vector<Task>, TaskLater> queue;
    /// Timer ids cancelled before firing; checked (and erased) at pop.
    std::unordered_set<std::uint64_t> cancelled;
    /// A task's fn is executing right now.
    bool running = false;
    /// Deferred actions staged by the CURRENTLY RUNNING task; drained by
    /// the owning thread right after the task's fn returns. Own-thread
    /// only — never locked.
    std::vector<Executor::Action> deferred;
    std::thread thread;
  };

  void worker_loop(std::size_t w);
  std::uint64_t post_task(std::size_t w, Time due, Task::Kind kind,
                          std::function<void()> fn);
  bool cancel_timer(std::size_t w, std::uint64_t id);
  void defer_on(std::size_t w, Executor::Action action);
  void emit_fate(NodeId src, NodeId dst, std::uint64_t id, MessageFate fate);

  ThreadedConfig config_;
  Hooks hooks_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::unique_ptr<WorkerExecutor>> executors_;
  /// Receive handlers + down flags, indexed by node. Registration is
  /// main-thread-only before start(); read without locks afterwards.
  std::vector<Handler> handlers_;
  std::vector<std::unique_ptr<std::atomic<bool>>> down_;
  /// Per-source RNG streams (delay + drop draws); each is touched only by
  /// its source's worker.
  std::vector<sim::Rng> send_rngs_;
  std::atomic<std::uint64_t> next_seq_{1};
  std::atomic<std::uint64_t> next_msg_id_{1};
  /// Messages accepted onto the bus whose delivery task has not finished.
  /// Incremented BEFORE the kSent fate, decremented AFTER the delivery
  /// task (fn + its deferred actions) completes — so "all workers idle and
  /// in_flight == 0" really means the bus is silent.
  std::atomic<std::uint64_t> in_flight_{0};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stop_{false};
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace runtime

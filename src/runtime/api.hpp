// The execution API: what a SHARD node needs from the world it runs in.
//
// The protocol layers (net::ReliableBroadcast, shard::Node) are written
// against two narrow interfaces instead of the concrete simulator:
//
//   * Executor — time and timers: now(), schedule_at/after, cancel, and
//     defer() (run-at-end-of-current-dispatch, the hook the group-commit
//     batching uses to coalesce a burst).
//   * Transport — membership and datagrams: register a receive handler,
//     send to one peer or all, and the crash-fault hooks (set_node_down /
//     node_down) the network consults before delivering.
//
// Two worlds implement them directly: the deterministic discrete-event
// simulator, where sim::Scheduler is the Executor and sim::Network the
// Transport (the test mode, see sim_backend.hpp), and a threaded runtime
// with one worker per node, real monotonic clocks, and an in-process
// message bus (threaded_backend.hpp). The same protocol code runs on both;
// only the driver differs (shard::Cluster vs runtime::RealtimeCluster).
//
// Layering: runtime reuses the simulator's scalar types (Time, NodeId) and
// owns the message types both worlds carry, so the simulator implements
// this API with no translation layer in between.
#pragma once

#include <any>
#include <cstdint>
#include <functional>

#include "sim/delay.hpp"

namespace runtime {

using Time = sim::Time;
using NodeId = sim::NodeId;

/// A delivered datagram.
struct Message {
  NodeId src = 0;
  NodeId dst = 0;
  std::uint64_t id = 0;  // unique per send, for tracing
  std::any payload;
};

/// What became of one send attempt. Both backends report the same
/// taxonomy through the fate hook (Hooks::on_message_fate).
enum class MessageFate {
  kSent,             ///< Accepted; delivery scheduled after sampled delay.
  kDelivered,        ///< Handed to the destination's handler.
  kDroppedPartition, ///< Lost to an active cut at send time.
  kDroppedRandom,    ///< Lost to the random-drop coin.
  kDroppedCrashed,   ///< An endpoint was down at send or delivery time.
};

/// Worker id reported by dispatch hooks when the backend has no per-node
/// workers (the single-threaded simulator dispatches everything on one
/// logical worker). Same raw value as obs::kControlNode, so drivers can
/// route such events to a control track without translating.
inline constexpr NodeId kNoWorker = 0xffffffffu;

/// Timers, deferred actions, and the clock — one per node on the threaded
/// backend (actions scheduled through a node's executor run on that node's
/// worker thread, which is what keeps Node code thread-confined), one
/// shared instance on the simulator.
class Executor {
 public:
  using Action = std::function<void()>;
  using TimerId = std::uint64_t;

  virtual ~Executor() = default;

  /// Current time in seconds: simulated time on the sim backend, monotonic
  /// seconds since backend start on the threaded one.
  virtual Time now() const = 0;

  /// Schedule `action` at absolute time `t` (>= now()).
  virtual TimerId schedule_at(Time t, Action action) = 0;

  /// Schedule `action` `dt` seconds from now.
  virtual TimerId schedule_after(Time dt, Action action) = 0;

  /// Cancel a pending timer. Returns false if it already ran (or was
  /// already cancelled).
  virtual bool cancel(TimerId id) = 0;

  /// Run `action` after the CURRENT dispatch finishes — same instant,
  /// before any queued work, no new timer identity. Called while nothing
  /// is dispatching, the action runs immediately. This is the batching
  /// layers' coalescing hook (stage during the action, flush at its end);
  /// both backends honor the stage/flush contract.
  virtual void defer(Action action) = 0;
};

/// Membership + unreliable datagrams. One instance serves the cluster;
/// each node registers a receive handler at construction.
class Transport {
 public:
  using Handler = std::function<void(const Message&)>;

  virtual ~Transport() = default;

  /// Register the receive handler for `node` (grows the node table). Must
  /// complete before any traffic flows — backends may read the handler
  /// table without locks afterwards.
  virtual void register_node(NodeId node, Handler handler) = 0;

  /// Number of registered nodes.
  virtual std::size_t node_count() const = 0;

  /// Send `payload` from src to dst. Returns the message id (unique per
  /// accepted send; 0 if the message was dropped at send time).
  virtual std::uint64_t send(NodeId src, NodeId dst, std::any payload) = 0;

  /// Broadcast to every registered node except src. Returns sends made.
  virtual std::size_t send_to_all(NodeId src, const std::any& payload) = 0;

  /// Mark a node crashed/restarted. While down the node neither sends nor
  /// receives (sends dropped at send time, in-flight messages at delivery
  /// time). Driven by the node's own crash()/restart().
  virtual void set_node_down(NodeId node, bool down) = 0;

  /// Is `node` currently marked down?
  virtual bool node_down(NodeId node) const = 0;
};

}  // namespace runtime

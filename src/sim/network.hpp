// Point-to-point message layer over the discrete-event scheduler.
//
// Models the unreliable datagram substrate underneath the [GLBKSS] reliable
// broadcast: per-message sampled latency, optional random loss, and loss of
// every message whose send time falls inside an active cut of the fault
// plan the network is built with.
// Payloads are type-erased (std::any) so the non-template network can carry
// any application's update envelopes.
#pragma once

#include <any>
#include <cstdint>
#include <utility>
#include <vector>

#include "runtime/hooks.hpp"
#include "sim/delay.hpp"
#include "sim/fault_plan.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"

namespace sim {

/// Counters exposed for the availability experiments (E8, E12, E18).
struct NetworkStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_partition = 0;
  std::uint64_t dropped_random = 0;
  /// Messages lost because an endpoint was crashed — at send time (either
  /// end down) or at delivery time (destination crashed while the datagram
  /// was in flight; its volatile receive path no longer exists).
  std::uint64_t dropped_crashed = 0;
};

/// Simulated unreliable network, and the simulator's runtime::Transport.
///
/// One instance serves the whole cluster. Each node registers a receive
/// handler; `send` samples a latency from the delay model and schedules
/// delivery, unless the message is lost to a cut of `faults` or a random
/// drop. Only the plan's cuts are read here; its crash windows reach the
/// network through set_node_down.
class Network final : public runtime::Transport {
 public:
  struct Config {
    Delay delay = Delay::constant(0.01);
    double drop_probability = 0.0;
  };

  Network(Scheduler& sched, Config config, std::uint64_t seed,
          FaultPlan faults = FaultPlan{})
      : sched_(sched),
        config_(std::move(config)),
        faults_(std::move(faults)),
        rng_(seed) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Register the receive handler for `node`. Grows the node table as needed.
  void register_node(NodeId node, Handler handler) override;

  /// Number of registered nodes.
  std::size_t node_count() const override { return handlers_.size(); }

  /// Send `payload` from src to dst. Returns the message id (0 if the
  /// message was dropped immediately).
  std::uint64_t send(NodeId src, NodeId dst, std::any payload) override;

  /// Broadcast to every registered node except src. Returns messages sent.
  std::size_t send_to_all(NodeId src, const std::any& payload) override;

  /// Mark a node crashed/restarted. While down the node neither sends nor
  /// receives: sends from/to it are dropped at send time, and in-flight
  /// messages addressed to it are dropped at delivery time. Driven by
  /// Node::crash()/restart() (single source of truth — the fault plan only
  /// decides *when* the cluster calls those).
  void set_node_down(NodeId node, bool down) override;

  /// Is `node` currently marked down?
  bool node_down(NodeId node) const override {
    return node < down_.size() && down_[node];
  }

  const NetworkStats& stats() const { return stats_; }
  const Config& config() const { return config_; }

  /// Install (or clear, with nullptr) the message-fate hook, called once
  /// per outcome; the stats counters are the aggregate view of the same
  /// outcomes.
  void set_fate_hook(runtime::Hooks::MessageFateFn hook) {
    on_fate_ = std::move(hook);
  }

 private:
  Scheduler& sched_;
  Config config_;
  FaultPlan faults_;
  Rng rng_;
  std::vector<Handler> handlers_;
  std::vector<char> down_;  ///< down_[n]: node n is currently crashed
  NetworkStats stats_;
  runtime::Hooks::MessageFateFn on_fate_;
  std::uint64_t next_msg_id_ = 1;
};

}  // namespace sim

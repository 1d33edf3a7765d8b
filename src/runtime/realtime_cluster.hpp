// A SHARD cluster on the threaded backend: real threads, real clocks, and
// post-hoc checking.
//
// shard::Cluster is the deterministic driver (simulated time, byte-stable
// traces, checkers running against a reproducible run). RealtimeCluster is
// its wall-clock counterpart: the SAME Node/broadcast code, constructed
// against runtime::ThreadedBackend, one worker thread per node. Nothing
// here is deterministic, so the methodology inverts — instead of pinning
// traces, every run is validated after the fact:
//
//   * each node records into its own obs::ShardedTracer shard (exactly one
//     writer per shard: the node's worker); shutdown() merges the shards
//     by the shared atomic sequence stamp;
//   * the full oracle stack (convergence, prefix-subsequence condition,
//     transitivity, state == replay) runs over the assembled execution;
//   * runtime::validate_message_fates asserts the shutdown contract on the
//     merged trace — every traced send has its terminal fate.
//
// Interaction model: the driver thread posts work (submit) and polls for
// convergence with cross-thread snapshots (run_on round-trips); per-node
// state is only touched on that node's worker until shutdown() joins the
// workers, after which everything is plainly readable.
#pragma once

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "core/execution.hpp"
#include "net/broadcast.hpp"
#include "obs/event.hpp"
#include "obs/sharded_tracer.hpp"
#include "runtime/hooks.hpp"
#include "runtime/threaded_backend.hpp"
#include "runtime/validate.hpp"
#include "shard/cluster_common.hpp"
#include "shard/node.hpp"
#include "sim/rng.hpp"

namespace runtime {

struct RealtimeConfig {
  std::size_t num_nodes = 3;
  std::uint64_t seed = 1;
  /// Broadcast options in REAL seconds — anti-entropy intervals that suit
  /// the simulator (0.5 s against ~1 ms delays) are far too lazy here;
  /// pick intervals a few times the bus delay.
  net::BroadcastOptions broadcast;
  ThreadedConfig bus;
  /// Per-node trace ring capacity. The fate validator needs the complete
  /// stream, so size this above the expected event count.
  std::size_t ring_capacity = 1 << 16;
  /// Trace dispatch events too (noisy; fates and protocol events usually
  /// suffice for the validator and the checkers).
  bool trace_dispatch = false;
};

template <core::Application App>
class RealtimeCluster {
 public:
  using NodeT = shard::Node<App>;
  using Request = typename App::Request;

  explicit RealtimeCluster(RealtimeConfig config)
      : config_(std::move(config)),
        backend_(config_.num_nodes, config_.seed, config_.bus),
        tracer_(config_.num_nodes, config_.ring_capacity) {
    // One writer per shard: dispatch fires on the executing worker, fates
    // on the event's program-order side (the Hooks threading contract).
    backend_.set_hooks(shard::trace_hooks(
        tracer_, [this] { return backend_.now(); }, config_.trace_dispatch));
    sim::Rng master(config_.seed);
    master.fork_seed();  // parity with Cluster: first fork is the network's
    for (std::size_t i = 0; i < config_.num_nodes; ++i) {
      nodes_.push_back(std::make_unique<NodeT>(
          static_cast<core::NodeId>(i), backend_.executor(i),
          backend_.transport(), config_.num_nodes, config_.broadcast,
          /*checkpoint_interval=*/32, master.fork_seed(),
          /*enable_compaction=*/false, &tracer_.shard(i)));
    }
    backend_.start();
    for (std::size_t i = 0; i < config_.num_nodes; ++i) {
      backend_.post(static_cast<NodeId>(i),
                    [n = nodes_[i].get()] { n->start(); });
    }
  }

  ~RealtimeCluster() { shutdown(); }

  /// Submit a request at `node` (asynchronously, on its worker). Rejected
  /// (the node is down) or executed; either way counted at the node.
  void submit(core::NodeId node, Request request) {
    backend_.post(node, [n = nodes_.at(node).get(), this,
                         request = std::move(request)] {
      n->try_submit(request, backend_.now());
    });
  }

  /// Crash / restart a node (posted to its worker, like every mutation).
  void crash(core::NodeId node) {
    backend_.post(node,
                  [n = nodes_.at(node).get(), this] { n->crash(backend_.now()); });
  }
  void restart(core::NodeId node) {
    // Snapshot the catch-up target on the DRIVER thread: a worker must
    // never block on a round-trip to itself. The target is recovery-window
    // instrumentation; a slightly stale total is harmless.
    const std::uint64_t target = snapshot_total_originated();
    backend_.post(node, [this, node, target] {
      nodes_[node]->restart(sim::RecoveryMode::kDurable, backend_.now(),
                            target, 1.0);
    });
  }

  /// Poll until every node knows every originated update, all states
  /// agree, and (if nonzero) the total matches `expect_originated`.
  /// Returns false on timeout.
  bool await_convergence(double timeout_s = 30.0,
                         std::uint64_t expect_originated = 0) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(timeout_s);
    while (std::chrono::steady_clock::now() < deadline) {
      if (converged_snapshot(expect_originated)) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return converged_snapshot(expect_originated);
  }

  /// Drain the bus, join the workers. After this, all state is plainly
  /// readable from the calling thread. Idempotent.
  void shutdown() { backend_.drain_and_stop(); }

  // --- post-shutdown (or snapshot) inspection -----------------------------

  NodeT& node(core::NodeId i) { return *nodes_.at(i); }
  const NodeT& node(core::NodeId i) const { return *nodes_.at(i); }
  std::size_t num_nodes() const { return nodes_.size(); }
  ThreadedBackend& backend() { return backend_; }
  obs::ShardedTracer& tracer() { return tracer_; }

  std::uint64_t total_originated() const {
    return shard::total_originated(nodes_);
  }
  bool converged() const { return shard::converged(nodes_); }
  core::PrefixRef::Resolver prefix_resolver() const {
    return shard::prefix_resolver(nodes_);
  }
  /// The formal execution — the same assembly as shard::Cluster's, so the
  /// whole analysis stack applies.
  core::Execution<App> execution() const { return shard::execution(nodes_); }

  /// The merged trace (per-node shards interleaved by the shared stamp).
  std::vector<obs::Event> trace() const { return tracer_.ring(); }

  /// The shutdown-contract check over the merged trace.
  FateValidation validate_fates() const {
    return validate_message_fates(trace());
  }

 private:
  /// Cross-thread snapshot helper: run `fn` on node i's worker and wait
  /// for the result. After shutdown the workers are gone and everything
  /// is quiescent, so call inline.
  template <class F>
  auto run_on(core::NodeId i, F fn) {
    if (backend_.stopped()) return fn();
    std::promise<decltype(fn())> done;
    auto fut = done.get_future();
    backend_.post(i, [&done, &fn] { done.set_value(fn()); });
    return fut.get();
  }

  std::uint64_t snapshot_total_originated() {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      total += run_on(static_cast<core::NodeId>(i), [this, i] {
        return static_cast<std::uint64_t>(nodes_[i]->originated().size());
      });
    }
    return total;
  }

  bool converged_snapshot(std::uint64_t expect_originated) {
    using State = typename App::State;
    const std::size_t n = nodes_.size();
    std::vector<std::uint64_t> originated(n), known(n);
    std::vector<State> states;
    states.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      auto snap = run_on(static_cast<core::NodeId>(i), [this, i] {
        return std::make_tuple(
            static_cast<std::uint64_t>(nodes_[i]->originated().size()),
            nodes_[i]->updates_known(), State(nodes_[i]->state()));
      });
      originated[i] = std::get<0>(snap);
      known[i] = std::get<1>(snap);
      states.push_back(std::move(std::get<2>(snap)));
    }
    std::uint64_t total = 0;
    for (const std::uint64_t o : originated) total += o;
    if (expect_originated != 0 && total != expect_originated) return false;
    for (const std::uint64_t k : known) {
      if (k != total) return false;
    }
    for (std::size_t i = 1; i < n; ++i) {
      if (!(states[i] == states[0])) return false;
    }
    return true;
  }

  RealtimeConfig config_;
  ThreadedBackend backend_;
  obs::ShardedTracer tracer_;
  std::vector<std::unique_ptr<NodeT>> nodes_;
};

}  // namespace runtime

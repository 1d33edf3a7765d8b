// What both cluster drivers share: shard::Cluster (simulated time) and
// runtime::RealtimeCluster (one worker thread per node) run the same Node
// code, so the post-run views over their nodes and the routing of backend
// hook events into trace shards are one set of free functions.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "core/execution.hpp"
#include "core/prefix.hpp"
#include "obs/sharded_tracer.hpp"
#include "runtime/hooks.hpp"
#include "shard/node.hpp"

namespace shard {

template <core::Application App>
using NodeList = std::vector<std::unique_ptr<Node<App>>>;

/// Transactions originated cluster-wide.
template <core::Application App>
std::uint64_t total_originated(const NodeList<App>& nodes) {
  std::uint64_t total = 0;
  for (const auto& n : nodes) total += n->originated().size();
  return total;
}

/// Every node knows every update (and therefore, by the merge invariant,
/// every replica state is identical) — the paper's mutual consistency.
template <core::Application App>
bool converged(const NodeList<App>& nodes) {
  const std::uint64_t total = total_originated(nodes);
  for (const auto& n : nodes) {
    if (n->updates_known() != total) return false;
  }
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    if (!(nodes[i]->state() == nodes[0]->state())) return false;
  }
  return true;
}

/// Maps (origin, 1-based broadcast seq) to that broadcast's timestamp:
/// origin o's seq-th broadcast is its (seq-1)-th originated record. This
/// is the lazy half of prefix interning — Records carry O(#nodes)
/// references (core::PrefixRef); only the analysis layer, through this
/// resolver, ever materializes the O(history) timestamp sets. The resolver
/// holds a reference to `nodes`.
template <core::Application App>
core::PrefixRef::Resolver prefix_resolver(const NodeList<App>& nodes) {
  return [&nodes](core::NodeId origin, std::uint64_t origin_seq) {
    return nodes.at(origin)->originated().at(origin_seq - 1).ts;
  };
}

/// Assemble the formal execution: all transactions from all origins in
/// global timestamp order, interned prefixes expanded (via
/// prefix_resolver) and mapped from timestamps to indices.
template <core::Application App>
core::Execution<App> execution(const NodeList<App>& nodes) {
  // Collect (timestamp -> record) across nodes; std::map orders by ts.
  std::map<core::Timestamp, const TxRecord<App>*> by_ts;
  for (const auto& n : nodes) {
    for (const auto& rec : n->originated()) by_ts.emplace(rec.ts, &rec);
  }
  std::map<core::Timestamp, std::size_t> index_of;
  std::size_t next = 0;
  for (const auto& [ts, rec] : by_ts) index_of.emplace(ts, next++);

  const core::PrefixRef::Resolver resolve = prefix_resolver(nodes);
  core::Execution<App> exec;
  for (const auto& [ts, rec] : by_ts) {
    core::TxInstance<App> tx;
    tx.ts = rec->ts;
    tx.origin = rec->origin;
    tx.real_time = rec->real_time;
    tx.request = rec->request;
    tx.update = rec->update;
    tx.external_actions = rec->external_actions;
    const std::vector<core::Timestamp> pts = rec->prefix.expand(resolve);
    tx.prefix.reserve(pts.size());
    for (const core::Timestamp& p : pts) tx.prefix.push_back(index_of.at(p));
    exec.append(std::move(tx));
  }
  return exec;
}

/// The trace event a message outcome is recorded as.
inline obs::EventType fate_event_type(runtime::MessageFate fate) {
  switch (fate) {
    case runtime::MessageFate::kSent:
      return obs::EventType::kNetSend;
    case runtime::MessageFate::kDelivered:
      return obs::EventType::kNetDeliver;
    case runtime::MessageFate::kDroppedPartition:
      return obs::EventType::kNetDropPartition;
    case runtime::MessageFate::kDroppedRandom:
      return obs::EventType::kNetDropRandom;
    case runtime::MessageFate::kDroppedCrashed:
      return obs::EventType::kNetDropCrashed;
  }
  return obs::EventType::kNetSend;  // unreachable
}

/// Route backend hook events into `tracer`'s shards, one writer per shard
/// (the runtime::Hooks threading contract). A dispatch lands in the
/// executing worker's shard; the simulator's kNoWorker is kControlNode, so
/// its dispatches land in the control shard. Send-side fates belong to the
/// source's program order; deliveries and delivery-time crash drops (id !=
/// 0: the message travelled) to the destination's — so the causal graph
/// threads each node's track through the deliveries it actually observed.
/// `now` stamps the fates; `dispatch` = false leaves dispatches untraced.
inline runtime::Hooks trace_hooks(obs::ShardedTracer& tracer,
                                  std::function<sim::Time()> now,
                                  bool dispatch = true) {
  static_assert(runtime::kNoWorker == obs::kControlNode);
  runtime::Hooks hooks;
  if (dispatch) {
    hooks.on_dispatch = [&tracer](runtime::NodeId worker, sim::Time t,
                                  std::uint64_t id) {
      tracer.shard(worker).record(obs::EventType::kSchedulerDispatch, t,
                                  worker, 0, 0, id);
    };
  }
  hooks.on_message_fate = [&tracer, now = std::move(now)](
                              runtime::NodeId src, runtime::NodeId dst,
                              std::uint64_t id, runtime::MessageFate fate) {
    const obs::EventType type = fate_event_type(fate);
    const bool at_dst = type == obs::EventType::kNetDeliver ||
                        (type == obs::EventType::kNetDropCrashed && id != 0);
    tracer.shard(at_dst ? dst : src)
        .record(type, now(), at_dst ? dst : src, 0, 0, at_dst ? src : dst, id);
  };
  return hooks;
}

}  // namespace shard

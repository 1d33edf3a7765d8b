// Observation hooks for an execution backend.
//
// One registration object, handed to Backend::set_hooks(), carries both
// backend-level observers: the dispatch hook and the message-fate hook.
// The simulator's scheduler and network fire these callback types
// themselves and the threaded backend fires them from its workers, so a
// consumer written against Hooks works unchanged on either backend. (The
// node-level shard::StreamObserver observes the protocol, not the backend;
// the cluster driver attaches it to each node.)
//
// Threading contract (threaded backend): on_dispatch fires on the worker
// that executed the task, on_message_fate fires on the worker that owns the
// event's program-order side (send-side fates on the source's worker,
// delivery-side fates on the destination's) — so a consumer that routes by
// node id into per-node shards has exactly one writer per shard. On the
// simulator everything fires on the driving thread, in (time, seq) order.
#pragma once

#include <cstdint>
#include <functional>

#include "runtime/api.hpp"

namespace runtime {

/// Both hooks are purely observational: they must not schedule, cancel or
/// send, so installing them never changes what runs or in which order.
/// Each costs one branch per event when unset.
struct Hooks {
  /// One call per executed dispatch (scheduler event / worker task), after
  /// the clock advanced to its time, before its action runs. `worker` is
  /// the executing worker's node id, or kNoWorker on the single-threaded
  /// simulator.
  using DispatchFn =
      std::function<void(NodeId worker, Time t, std::uint64_t id)>;
  /// One call per message outcome (a sent message that is later delivered
  /// reports twice: kSent, then kDelivered). `id` is 0 for send-time drops.
  using MessageFateFn = std::function<void(NodeId src, NodeId dst,
                                           std::uint64_t id, MessageFate fate)>;

  DispatchFn on_dispatch;
  MessageFateFn on_message_fate;
};

}  // namespace runtime

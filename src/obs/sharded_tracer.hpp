// Per-node trace shards with a deterministic merge into the global order.
//
// One global tracer is the wrong shape for a real deployment: every node
// funnels events through a single ring, one chatty node evicts everyone
// else's recent history, and a future multi-threaded runtime would need a
// lock around record(). ShardedTracer gives each node its own bounded ring
// (plus one "control" shard for cluster-scope events: scheduler dispatch,
// partition cut markers), so tracing is per-node by construction — a node
// records only into its shard, and nothing shared sits on the record path
// except one monotone sequence counter.
//
// That counter is the merge key. Every record is stamped with the next
// global sequence number, so merging the shard rings by (time, seq) —
// sequence breaks ties within one simulated instant — reconstructs exactly
// the interleaved global record order. In the deterministic single-threaded
// simulator the stamp IS the record index, so the merged stream is the
// record order itself (the chaos and crash-chaos tiers pin it against the
// sink capture). On a real runtime the same merge works off a hybrid
// logical clock in place of the counter.
//
// Sinks attached through the TraceSource surface are fanned out to every
// shard; shard dispatch is synchronous, so a global sink still observes
// events in the exact global record order (the determinism captures rely
// on this).
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

#include "obs/tracer.hpp"

namespace obs {

class ShardedTracer : public TraceSource {
 public:
  /// One shard per node plus the trailing control shard; each ring holds
  /// `ring_capacity` events.
  ShardedTracer(std::size_t num_nodes, std::size_t ring_capacity = 8192);

  ShardedTracer(const ShardedTracer&) = delete;
  ShardedTracer& operator=(const ShardedTracer&) = delete;

  /// The shard a component at `node` records into. Any id outside
  /// [0, num_nodes) — kControlNode in particular — maps to the control
  /// shard. The returned Tracer is recorded into directly (non-virtual
  /// hot path), exactly like a standalone global tracer.
  Tracer& shard(sim::NodeId node) {
    const std::size_t i = static_cast<std::size_t>(node);
    return *shards_[i < shards_.size() - 1 ? i : shards_.size() - 1];
  }
  const Tracer& shard(sim::NodeId node) const {
    const std::size_t i = static_cast<std::size_t>(node);
    return *shards_[i < shards_.size() - 1 ? i : shards_.size() - 1];
  }
  Tracer& control_shard() { return *shards_.back(); }

  /// The next global sequence stamp (== events recorded so far).
  std::uint64_t next_seq() const {
    return seq_.load(std::memory_order_relaxed);
  }

  // --- TraceSource ------------------------------------------------------

  void add_sink(Sink* sink) override;
  std::uint64_t recorded() const override;
  std::uint64_t evicted() const override;
  std::vector<std::uint64_t> type_counts() const override;
  std::size_t ring_size() const override;
  /// K-way merge of the shard rings by global stamp — the retained events
  /// in exact global record order. With no eviction anywhere this is the
  /// full stream; after eviction it is the interleave of each shard's
  /// retained suffix (per-node recent history, which is the point).
  std::vector<Event> ring() const override;
  std::vector<Event> slice_around(std::uint64_t ts_logical,
                                  sim::NodeId ts_node,
                                  std::size_t context = 6) const override;

 private:
  /// Shared by all shards via set_sequencer. Atomic so the threaded
  /// runtime's per-node shards can stamp concurrently (each shard still has
  /// exactly one writer; only the merge key is shared).
  std::atomic<std::uint64_t> seq_{0};
  std::vector<std::unique_ptr<Tracer>> shards_;
};

}  // namespace obs

// Typed execution-trace events.
//
// The paper's theorems are statements about *executions* — which updates a
// decision saw, when information propagated, how merges reordered the log.
// End-of-run counters (EngineStats, BroadcastStats) cannot answer "what
// happened around timestamp 17:2 on node 3?"; this event taxonomy can. One
// Event is one observable step of the substrate, stamped with simulated
// time, the node it happened at, and (where applicable) the globally unique
// timestamp of the update involved — the same (logical, node) pair
// core::Timestamp carries, stored raw here so the obs layer sits below
// core in the dependency order.
#pragma once

#include <cstdint>
#include <string_view>

#include "sim/delay.hpp"

namespace obs {

/// Sentinel for events not tied to any one node (partition cuts, scheduler
/// dispatch): rendered on a synthetic "control" track by the exporters.
inline constexpr sim::NodeId kControlNode = 0xffffffffu;

/// Everything the substrate can report. Names group by subsystem; the
/// exporters render them as "<group>.<what>" (see event_type_name).
enum class EventType : std::uint8_t {
  // sim/scheduler — one per dispatched event (a = its timer id).
  kSchedulerDispatch,
  // sim/network — message fates. Send-side events (send and send-time
  // drops) are recorded at the source: node = src, a = dst. Delivery-side
  // events (deliver, and the delivery-time crash drop) are recorded at the
  // destination: node = dst, a = src — so each node's program order
  // contains the deliveries it observed. b = message id for every fate of
  // a message the network accepted (unique per send, joins send→deliver);
  // b = 0 for send-time drops, where no message ever entered the network.
  kNetSend,
  kNetDeliver,
  kNetDropPartition,
  kNetDropRandom,
  kNetDropCrashed,
  // net/broadcast — payload lifecycle at one endpoint.
  kBroadcastOriginate,   ///< Node submitted; ts set, a = origin_seq.
  kBroadcastSend,        ///< Flood fan-out; a = peers sent to.
  kBroadcastDeliver,     ///< Delivered upward; a = origin, b = origin_seq.
  kBroadcastDuplicate,   ///< Re-received payload dropped; a/b as deliver.
  kAntiEntropyDigest,    ///< Digest sent; a = chosen peer.
  kAntiEntropyRepair,    ///< Repair batch sent; a = requester, b = payloads.
  // shard/update_log — merge machinery (ts = update merged).
  kMergeTailAppend,      ///< In-order arrival applied at the tail.
  kMergeMidInsert,       ///< Out-of-order arrival; a = entries displaced.
  kMergeUndo,            ///< a = updates undone by a mid-insert.
  kMergeRedo,            ///< a = literal redo count of a mid-insert: the
                         ///< newcomer plus the entries above it, whether or
                         ///< not the engine re-applied them.
  kCheckpointTake,       ///< Tail-append snapshot only; a = checkpoint
                         ///< index. Snapshots re-taken by a mid-insert's
                         ///< replay count in EngineStats::checkpoints_taken
                         ///< but record no event.
  kCheckpointInvalidate, ///< a = checkpoints dropped.
  // shard/node — Node::crash and Node::restart.
  kCrash,                ///< Node went down.
  kRestart,              ///< Node came back; a = RecoveryMode.
  // shard/cluster — a sim::FaultPlan cut opening and healing (control
  // track; a = the cut's index in the plan).
  kPartitionOpen,
  kPartitionHeal,
  // net/broadcast Byzantine adversary — receive-path payload tampering
  // (node = victim; a = origin, b = origin_seq, as for kBroadcastDeliver).
  kByzantineCorrupt,     ///< Update field substituted before accept.
  kByzantineDuplicate,   ///< Wire re-injected into accept (dedup target).
  kByzantineReorder,     ///< Wire held back until the next packet.
  // net/broadcast batched floods (appended: existing raw values are part of
  // serialized traces). Recorded once per COALESCED flush — a flush of one
  // wire records kBroadcastSend only, so unbatched-shaped traffic under a
  // batched config stays byte-identical to max_batch == 0.
  kBroadcastBatchSend,   ///< a = wires coalesced, b = peers sent to.
};

/// Total number of event types (array-sizing helper for per-type counts).
inline constexpr std::size_t kNumEventTypes =
    static_cast<std::size_t>(EventType::kBroadcastBatchSend) + 1;

/// Stable machine-readable name, e.g. "merge.mid_insert". Used by both
/// exporters and the determinism regression (byte-identical streams).
std::string_view event_type_name(EventType t);

/// One trace event. POD; 48 bytes, so the ring stays cache-friendly.
struct Event {
  EventType type = EventType::kSchedulerDispatch;
  double time = 0.0;           ///< Simulated time of occurrence.
  sim::NodeId node = 0;        ///< Where it happened (kControlNode if none).
  std::uint64_t ts_logical = 0;  ///< Update timestamp (0,0 if n/a).
  sim::NodeId ts_node = 0;
  std::uint64_t a = 0;  ///< Type-specific detail (see EventType comments).
  std::uint64_t b = 0;  ///< Second detail slot.

  /// Field-wise equality — what the trace-diff bisector compares.
  friend bool operator==(const Event&, const Event&) = default;
};

}  // namespace obs

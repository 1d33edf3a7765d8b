// Counters for the reliable-broadcast layer (non-template part).
#pragma once

#include <cstdint>
#include <string>

namespace obs {
class MetricsRegistry;
}

namespace net {

/// Observability for the [GLBKSS]-style broadcast. Used by the availability
/// and thrashing experiments (E8, E12) and by the protocol tests.
struct BroadcastStats {
  std::uint64_t originated = 0;        ///< Payloads broadcast by this node.
  std::uint64_t delivered = 0;         ///< Payloads delivered upward.
  std::uint64_t duplicates_dropped = 0;///< Re-received payloads ignored.
  std::uint64_t causally_buffered = 0; ///< Arrivals parked awaiting deps.
  std::uint64_t anti_entropy_rounds = 0;   ///< Periodic rounds that sent a
                                           ///< digest (one each; repair
                                           ///< continuations are counted in
                                           ///< continuation_digests).
  std::uint64_t anti_entropy_repairs = 0;  ///< Payloads resent to peers.
  std::uint64_t repairs_truncated = 0;     ///< Repair replies capped by
                                           ///< max_repairs_per_message.
  std::uint64_t continuation_digests = 0;  ///< Digests sent immediately on
                                           ///< receiving a truncated batch.
  std::uint64_t store_pruned = 0;          ///< Repair-store entries dropped
                                           ///< because every peer holds them.
  std::uint64_t rounds_skipped_down = 0;   ///< Gossip ticks while crashed.
  std::uint64_t amnesia_resets = 0;        ///< Volatile-state wipes (restarts).
  std::uint64_t outbox_replays = 0;        ///< Own stable payloads re-accepted
                                           ///< after an amnesia or stale-disk
                                           ///< restart.
  std::uint64_t stale_resets = 0;          ///< Stale-disk rewinds (restarts
                                           ///< from a stale checkpoint).
  std::uint64_t mid_broadcast_crashes = 0; ///< Crashes injected between the
                                           ///< stable-outbox append and the
                                           ///< first flood send.
  std::uint64_t byz_corrupted = 0;         ///< Updates substituted by the
                                           ///< Byzantine adversary on receive.
  std::uint64_t byz_corrupt_noops = 0;     ///< Corruption draws whose donor
                                           ///< equaled the original (provably
                                           ///< masked — nothing changed).
  std::uint64_t byz_duplicated = 0;        ///< Wires re-injected into accept.
  std::uint64_t byz_reordered = 0;         ///< Wires held back one packet.
  std::uint64_t flood_batches = 0;         ///< Coalesced flood packets sent
                                           ///< (>= 2 wires each).
  std::uint64_t flood_batched_wires = 0;   ///< Wires carried by those packets.
  std::uint64_t outbox_commits = 0;        ///< Stable-outbox sync operations
                                           ///< (group commit amortizes these
                                           ///< across a submit burst).
  std::uint64_t outbox_records_synced = 0; ///< Intention records covered by
                                           ///< those syncs (== originated).

  std::string summary() const;

  /// Fold every counter into `reg` under the canonical broadcast.* names
  /// (obs/metric_names.hpp); adds, so calling once per node aggregates
  /// cluster-wide.
  void export_to(obs::MetricsRegistry& reg) const;
};

}  // namespace net

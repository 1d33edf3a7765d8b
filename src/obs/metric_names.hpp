// Canonical metric names — one constants header instead of string literals
// scattered across exporters and the tests/benches that read them back.
//
// The registry (metrics.hpp) keys everything by dotted path; before this
// header the same path was spelled independently at the export site and at
// every consumer ("checker.violations" alone appeared in the streaming
// checker, two test suites and a bench), so a rename silently decoupled
// them — the consumer read 0 from a key nobody wrote anymore. Mirroring the
// EventType name table's drift guards, every name lives here once and
// kAllMetricNames enumerates them for the uniqueness/round-trip regression
// (tests/test_incident.cpp).
//
// Only cross-referenced families are hoisted: checker.* (streaming
// checker), epoch.*/causal.*/lifecycle.* (the replication metrics
// obs::export_replication_metrics derives from one timing row per update),
// broadcast.* (BroadcastStats). engine.*/net.*/cluster.*/retained.*/trace.*
// names appear at exactly one export site each and stay there.
#pragma once

#include <array>

namespace obs::metric_names {

// --- checker.* — analysis::StreamingChecker::export_metrics -------------
inline constexpr const char* kCheckerTxsIngested = "checker.txs_ingested";
inline constexpr const char* kCheckerTxsFinalized = "checker.txs_finalized";
inline constexpr const char* kCheckerDeliveries = "checker.deliveries";
inline constexpr const char* kCheckerViolations = "checker.violations";
inline constexpr const char* kCheckerDivergenceEvents =
    "checker.divergence_events";
inline constexpr const char* kCheckerOrderViolations =
    "checker.order_violations";
inline constexpr const char* kCheckerPinnedWindows = "checker.pinned_windows";
inline constexpr const char* kCheckerIncidentSeeds = "checker.incident_seeds";
inline constexpr const char* kCheckerPendingNow = "checker.pending_now";
inline constexpr const char* kCheckerPeakPending = "checker.peak_pending";
inline constexpr const char* kCheckerPeakLedgerEntries =
    "checker.peak_ledger_entries";
inline constexpr const char* kCheckerPeakShadowEntries =
    "checker.peak_shadow_entries";
inline constexpr const char* kCheckerFinalizeLag = "checker.finalize_lag";
inline constexpr const char* kCheckerDetectionLatency =
    "checker.detection_latency";

// --- epoch.* — obs::export_replication_metrics, per-epoch profiles ------
inline constexpr const char* kEpochCount = "epoch.count";
inline constexpr const char* kEpochTransitions = "epoch.transitions";
inline constexpr const char* kEpochCoalesced = "epoch.coalesced";
inline constexpr const char* kEpochUpdatesProfiled = "epoch.updates_profiled";
inline constexpr const char* kEpochUpdatesIncomplete =
    "epoch.updates_incomplete";
inline constexpr const char* kEpochCriticalPathUsTotal =
    "epoch.critical_path_us_total";
inline constexpr const char* kEpochCriticalPathUsMax =
    "epoch.critical_path_us_max";
inline constexpr const char* kEpochQuietSeconds = "epoch.quiet_seconds";
inline constexpr const char* kEpochDegradedSeconds = "epoch.degraded_seconds";
inline constexpr const char* kEpochCriticalPathSeconds =
    "epoch.critical_path_seconds";
/// Family prefix for the per-stage dominant counts
/// ("epoch.dominant.<stage>"); the stage suffix is data, not a name.
inline constexpr const char* kEpochDominantPrefix = "epoch.dominant.";

// --- causal.* / lifecycle.* — obs::export_replication_metrics, cells ---
inline constexpr const char* kCausalDeliverLatency = "causal.deliver_latency";
inline constexpr const char* kCausalFirstDeliverLatency =
    "causal.first_deliver_latency";
inline constexpr const char* kCausalLastDeliverLatency =
    "causal.last_deliver_latency";
inline constexpr const char* kCausalMidInsertLatency =
    "causal.mid_insert_latency";
inline constexpr const char* kCausalFanoutDegree = "causal.fanout_degree";
inline constexpr const char* kLifecycleUpdatesOriginated =
    "lifecycle.updates_originated";
inline constexpr const char* kLifecycleUpdatesFullyReplicated =
    "lifecycle.updates_fully_replicated";
inline constexpr const char* kLifecycleUndoChurnTotal =
    "lifecycle.undo_churn_total";
inline constexpr const char* kLifecycleDivergenceMaxMissing =
    "lifecycle.divergence_max_missing";
inline constexpr const char* kLifecycleReplicationLatency =
    "lifecycle.replication_latency";
inline constexpr const char* kLifecycleUndoChurn = "lifecycle.undo_churn";

// --- broadcast.* — net::BroadcastStats::export_to -----------------------
inline constexpr const char* kBroadcastOriginated = "broadcast.originated";
inline constexpr const char* kBroadcastDelivered = "broadcast.delivered";
inline constexpr const char* kBroadcastDuplicatesDropped =
    "broadcast.duplicates_dropped";
inline constexpr const char* kBroadcastCausallyBuffered =
    "broadcast.causally_buffered";
inline constexpr const char* kBroadcastAntiEntropyRounds =
    "broadcast.anti_entropy_rounds";
inline constexpr const char* kBroadcastAntiEntropyRepairs =
    "broadcast.anti_entropy_repairs";
inline constexpr const char* kBroadcastRepairsTruncated =
    "broadcast.repairs_truncated";
inline constexpr const char* kBroadcastContinuationDigests =
    "broadcast.continuation_digests";
inline constexpr const char* kBroadcastStorePruned = "broadcast.store_pruned";
inline constexpr const char* kBroadcastRoundsSkippedDown =
    "broadcast.rounds_skipped_down";
inline constexpr const char* kBroadcastAmnesiaResets =
    "broadcast.amnesia_resets";
inline constexpr const char* kBroadcastOutboxReplays =
    "broadcast.outbox_replays";
inline constexpr const char* kBroadcastStaleResets = "broadcast.stale_resets";
inline constexpr const char* kBroadcastMidBroadcastCrashes =
    "broadcast.mid_broadcast_crashes";
inline constexpr const char* kBroadcastByzCorrupted =
    "broadcast.byz_corrupted";
inline constexpr const char* kBroadcastByzCorruptNoops =
    "broadcast.byz_corrupt_noops";
inline constexpr const char* kBroadcastByzDuplicated =
    "broadcast.byz_duplicated";
inline constexpr const char* kBroadcastByzReordered =
    "broadcast.byz_reordered";
inline constexpr const char* kBroadcastFloodBatches =
    "broadcast.flood_batches";
inline constexpr const char* kBroadcastFloodBatchedWires =
    "broadcast.flood_batched_wires";
inline constexpr const char* kBroadcastOutboxCommits =
    "broadcast.outbox_commits";
inline constexpr const char* kBroadcastOutboxRecordsSynced =
    "broadcast.outbox_records_synced";

/// Every hoisted name (prefix constants excluded — they are families, not
/// keys). The drift-guard test asserts pairwise uniqueness and that each
/// name survives a MetricsRegistry JSON round trip.
inline constexpr std::array<const char*, 57> kAllMetricNames = {
    kCheckerTxsIngested,
    kCheckerTxsFinalized,
    kCheckerDeliveries,
    kCheckerViolations,
    kCheckerDivergenceEvents,
    kCheckerOrderViolations,
    kCheckerPinnedWindows,
    kCheckerIncidentSeeds,
    kCheckerPendingNow,
    kCheckerPeakPending,
    kCheckerPeakLedgerEntries,
    kCheckerPeakShadowEntries,
    kCheckerFinalizeLag,
    kCheckerDetectionLatency,
    kEpochCount,
    kEpochTransitions,
    kEpochCoalesced,
    kEpochUpdatesProfiled,
    kEpochUpdatesIncomplete,
    kEpochCriticalPathUsTotal,
    kEpochCriticalPathUsMax,
    kEpochQuietSeconds,
    kEpochDegradedSeconds,
    kEpochCriticalPathSeconds,
    kCausalDeliverLatency,
    kCausalFirstDeliverLatency,
    kCausalLastDeliverLatency,
    kCausalMidInsertLatency,
    kCausalFanoutDegree,
    kLifecycleUpdatesOriginated,
    kLifecycleUpdatesFullyReplicated,
    kLifecycleUndoChurnTotal,
    kLifecycleDivergenceMaxMissing,
    kLifecycleReplicationLatency,
    kLifecycleUndoChurn,
    kBroadcastOriginated,
    kBroadcastDelivered,
    kBroadcastDuplicatesDropped,
    kBroadcastCausallyBuffered,
    kBroadcastAntiEntropyRounds,
    kBroadcastAntiEntropyRepairs,
    kBroadcastRepairsTruncated,
    kBroadcastContinuationDigests,
    kBroadcastStorePruned,
    kBroadcastRoundsSkippedDown,
    kBroadcastAmnesiaResets,
    kBroadcastOutboxReplays,
    kBroadcastStaleResets,
    kBroadcastMidBroadcastCrashes,
    kBroadcastByzCorrupted,
    kBroadcastByzCorruptNoops,
    kBroadcastByzDuplicated,
    kBroadcastByzReordered,
    kBroadcastFloodBatches,
    kBroadcastFloodBatchedWires,
    kBroadcastOutboxCommits,
    kBroadcastOutboxRecordsSynced,
};

}  // namespace obs::metric_names

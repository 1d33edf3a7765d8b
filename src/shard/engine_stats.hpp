// Counters for the replica engine's undo/redo machinery (non-template part).
#pragma once

#include <cstdint>
#include <string>

namespace obs {
class MetricsRegistry;
}

namespace shard {

/// Observability for one node's merge engine. The thrashing experiment (E8),
/// the checkpoint-optimization microbench (E10), and the crash/recovery
/// experiment (E18) read these.
struct EngineStats {
  std::uint64_t decisions_run = 0;   ///< Decision parts executed locally.
  std::uint64_t tail_appends = 0;    ///< Updates merged at the log tail.
  std::uint64_t mid_inserts = 0;     ///< Updates merged out of order.
  std::uint64_t undone_updates = 0;  ///< Updates rolled back by mid-inserts.
  /// Applies the engine actually made: one per tail append plus every
  /// update replayed from a checkpoint after a mid-insert. Not the literal
  /// undo/redo count (undone_updates + mid_inserts + tail_appends): a
  /// replay adds the entries between its checkpoint and the insertion
  /// point, and skips every entry above a newcomer that changed nothing
  /// where it landed, so it can fall either side of the literal count.
  std::uint64_t redone_updates = 0;
  /// Snapshots taken, at the tail and along mid-insert replays.
  std::uint64_t checkpoints_taken = 0;
  std::uint64_t checkpoints_invalidated = 0;
  std::uint64_t checkpoints_thinned = 0;  ///< Snapshots dropped to keep the
                                          ///< count within max_checkpoints
                                          ///< (UpdateLog's retention rule),
                                          ///< not by mid-inserts.
  std::uint64_t entries_folded = 0;  ///< Compaction ([SL]): discarded entries.

  // Crash/recovery (E18). A submission reaching a down node is *rejected*,
  // never silently executed; recovery lag is the time from a restart until
  // the node has re-merged every update the cluster had originated by that
  // restart; catch-up updates are the merges performed in that window.
  std::uint64_t crashes = 0;               ///< crash() transitions.
  std::uint64_t recoveries = 0;            ///< restart() transitions.
  std::uint64_t rejected_submissions = 0;  ///< Submissions refused while down
                                           ///< (incl. reservations dropped by
                                           ///< a crash).
  std::uint64_t catch_up_updates = 0;      ///< Updates merged while catching
                                           ///< up after a restart.
  double downtime = 0.0;      ///< Total simulated time spent crashed.
  double recovery_lag = 0.0;  ///< Total restart -> caught-up time.

  std::string summary() const;

  /// Fold every field into `reg` under "<prefix>.<field>" (counters add,
  /// so calling once per node aggregates; the two durations land as
  /// gauges, which overwrite — export aggregated stats for those).
  void export_to(obs::MetricsRegistry& reg,
                 const std::string& prefix = "engine") const;
};

}  // namespace shard

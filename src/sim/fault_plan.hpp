// Fault injection: one composable, seeded plan of every fault a run injects.
//
// SHARD's availability story (paper section 1.2) is continued operation
// "in the face of communication failures, including network partitions",
// and a crashed node is just a node nobody can communicate with until it
// comes back. FaultPlan is the single place either is configured, along
// with the section 3.3 undo/redo recovery shapes and a receive-path
// adversary:
//
//   plan.crash(node, start, end[, mode])      — clean crash/restart window
//   plan.disk_failure(node, start, end)       — restart from a *stale*
//                                               checkpoint: the log suffix
//                                               past a seeded point is lost
//                                               and re-merged via undo/redo
//                                               + anti-entropy repair
//   plan.crash_mid_broadcast(node, seq, ...)  — crash between the stable
//                                               outbox append and the first
//                                               flood send, pinning the
//                                               write-ahead intention-log
//                                               boundary
//   plan.partition(...) / cut / split_halves / isolate
//   plan.rack_power_loss(rack, ...)           — correlated: partition the
//                                               rack AND crash every node in
//                                               it for the same window
//   plan.rolling_restart(n, start, ...)       — upgrade simulation: restart
//                                               one node at a time
//   plan.random_partitions / random_crashes / FaultPlan::chaos(seed, ...)
//   plan.byzantine_payload(...)               — adversarial receive-path
//                                               tampering: seeded corruption,
//                                               duplication and reordering of
//                                               update payloads at the
//                                               broadcast layer
//
// Each layer reads the plan directly: sim::Network tests its cuts at send
// time, shard::Cluster schedules its crash windows and arms its
// mid-broadcast crashes, and every broadcast endpoint gets its adversary.
// Messages a cut swallows come back through anti-entropy after the heal —
// the [GLBKSS] guarantee that "barring permanent communication failures,
// every node will eventually receive information about every transaction".
//
// Everything is deterministic: the plan's RNG is seeded at construction and
// consumed only by builder calls, so an identical call sequence yields an
// identical plan — and identical runs, byte for byte.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/delay.hpp"
#include "sim/rng.hpp"

namespace sim {

/// How a node comes back from a crash:
///
///   * kDurable — the node recovers its merged log from stable storage
///     (modeled as: the UpdateLog survives; conceptually the last
///     checkpoint plus the log suffix is replayed from disk) and catches up
///     on whatever it missed through the usual anti-entropy digests.
///   * kAmnesia — the node loses all volatile replication state (merged
///     log, delivery vectors, peer promises) and rebuilds from the initial
///     state by resynchronizing every update from its own stable outbox and
///     its peers. Only the minimal stable-storage footprint survives: the
///     node's own transaction records (timestamps, updates, fired external
///     actions), written before external actions fire so that decisions are
///     never re-run and external actions never re-fired (section 1.2).
///   * kStaleDisk — stable storage survives but lost its recent suffix (a
///     disk that dropped un-synced writes): the node resumes from a *stale*
///     checkpoint, keeping only a seeded fraction of its merged log, and
///     re-merges the lost tail through outbox replay and anti-entropy —
///     the deep undo/redo recovery path of section 3.3.
enum class RecoveryMode {
  kDurable,    ///< merged log survives; catch up on the missed suffix only
  kAmnesia,    ///< volatile state lost; resync everything from peers/outbox
  kStaleDisk,  ///< log suffix lost; resume from a stale checkpoint + repair
};

/// "durable" / "amnesia" / "stale-disk" — shared by describe() and the
/// trace exporters.
const char* to_string(RecoveryMode mode);

/// One down-window: `node` crashes at `start` and restarts at `end` with
/// `mode`. While down the node executes nothing, receives nothing, and
/// rejects submissions.
struct CrashEvent {
  NodeId node = 0;
  Time start = 0.0;
  Time end = 0.0;
  RecoveryMode mode = RecoveryMode::kDurable;
  /// kStaleDisk only: the fraction of the merged log that survived the disk
  /// failure (the rest is truncated at restart). FaultPlan::disk_failure
  /// draws this from the plan's seeded RNG unless given explicitly.
  double keep_fraction = 1.0;
};

/// One timed cut: during [start, end) the node set is split into `groups`;
/// two nodes communicate only if some group contains both. Nodes absent from
/// every group are isolated for the duration. Overlapping cuts compose
/// conjunctively: a pair is connected only if every active cut keeps it
/// together.
struct PartitionEvent {
  Time start = 0.0;
  Time end = 0.0;
  std::vector<std::vector<NodeId>> groups;
};

/// A crash triggered when `node` performs its `broadcast_seq`-th broadcast
/// (1-based, counting the node's own originated updates): the node goes
/// down *after* appending the wire record to its stable outbox but *before*
/// the first flood send. The update's decision has run and its external
/// actions have fired, so by the write-ahead intention-log rule the record
/// must survive and eventually merge everywhere — never re-running, never
/// lost. The node restarts `down_for` after the crash with `mode`.
struct MidBroadcastCrash {
  NodeId node = 0;
  std::uint64_t broadcast_seq = 1;
  Time down_for = 2.0;
  RecoveryMode mode = RecoveryMode::kDurable;
  double keep_fraction = 1.0;  ///< kStaleDisk restarts only
};

/// Byzantine payload adversary at the broadcast receive path. Each wire a
/// node receives during [start, end) is independently tampered with:
/// corrupted (the update field is substituted with a previously seen
/// payload's update, timestamp preserved), duplicated (re-injected into the
/// accept path, exercising dedup), or held back one packet (reordering).
/// All draws come from a dedicated RNG seeded by `seed`, so an unarmed run
/// is byte-identical to one with no Byzantine config at all, and an armed
/// run is deterministic per seed.
struct ByzantineOptions {
  bool enabled = false;
  double corrupt_probability = 0.0;
  double duplicate_probability = 0.0;
  double reorder_probability = 0.0;
  Time start = 0.0;
  Time end = 1e18;  ///< Effectively "forever" by default.
  std::uint64_t seed = 0;
};

/// Knobs for FaultPlan::chaos (seeded whole-plan generation).
struct ChaosOptions {
  int partition_events = 2;
  int crash_events = 2;
  Time min_down = 1.0;
  Time max_down = 5.0;
  /// Recovery-mode mix for random crashes: each crash is first a disk
  /// failure with `disk_failure_probability`, else amnesia with
  /// `amnesia_probability`, else a clean durable restart.
  double amnesia_probability = 0.35;
  double disk_failure_probability = 0.0;
  /// Per partition event: probability that the cut is a rack power loss,
  /// i.e. every node of the smaller side also crashes for the window.
  double rack_loss_probability = 0.0;
};

/// One composable, seeded plan of every fault the simulation can inject.
/// See the file comment for the vocabulary. Copyable; queries are O(events).
class FaultPlan {
 public:
  /// The seed drives every random draw the builder makes (disk-failure
  /// truncation points, random_* generation). Two plans built with the same
  /// seed and the same call sequence are identical.
  explicit FaultPlan(std::uint64_t seed = 0x5ABDF417u);

  // --- crashes ---------------------------------------------------------

  /// Crash `node` during [start, end); restart with `mode`. Throws
  /// std::invalid_argument on an empty or per-node overlapping window.
  FaultPlan& crash(NodeId node, Time start, Time end,
                   RecoveryMode mode = RecoveryMode::kDurable);

  /// Disk failure: crash `node` during [start, end) and restart from a
  /// stale checkpoint — only a fraction of the merged log survives, the
  /// truncated suffix is re-merged through undo/redo and anti-entropy.
  /// The surviving fraction is drawn from the plan's RNG ([0.1, 0.9)).
  FaultPlan& disk_failure(NodeId node, Time start, Time end);

  /// Disk failure with an explicit surviving fraction in [0, 1] (no RNG
  /// draw, so surrounding seeded draws are unaffected).
  FaultPlan& disk_failure(NodeId node, Time start, Time end,
                          double keep_fraction);

  /// Crash `node` mid-broadcast at its `broadcast_seq`-th originated update
  /// (see MidBroadcastCrash). Dynamic: fires when — and only if — the node
  /// actually reaches that broadcast.
  FaultPlan& crash_mid_broadcast(NodeId node, std::uint64_t broadcast_seq,
                                 Time down_for = 2.0,
                                 RecoveryMode mode = RecoveryMode::kDurable,
                                 double keep_fraction = 1.0);

  // --- partitions ------------------------------------------------------

  /// Add a raw partition event.
  FaultPlan& partition(PartitionEvent event);

  /// Split the node set into the given connectivity groups during
  /// [start, end).
  FaultPlan& cut(std::vector<std::vector<NodeId>> groups, Time start,
                 Time end);

  /// Split nodes [0, n) into halves [0, m) and [m, n) during [start, end).
  FaultPlan& split_halves(NodeId n, NodeId m, Time start, Time end);

  /// Isolate one node from the other cluster_size-1 during [start, end).
  FaultPlan& isolate(NodeId node, NodeId cluster_size, Time start, Time end);

  // --- correlated / composite -----------------------------------------

  /// Correlated failure: the `rack` loses power during [start, end). The
  /// rack is partitioned from the rest of the cluster AND every node in it
  /// crashes, for the same window; each restarts with `mode` when power
  /// returns. Models the PAPERS.md observation that realistic failures are
  /// topology-correlated, not independent coin flips.
  FaultPlan& rack_power_loss(const std::vector<NodeId>& rack,
                             NodeId cluster_size, Time start, Time end,
                             RecoveryMode mode = RecoveryMode::kDurable);

  /// Upgrade simulation: restart nodes 0..cluster_size-1 one at a time.
  /// Node i is down during [start + i*(down_for+gap), +down_for); windows
  /// never overlap, so the cluster keeps a quorum of live nodes throughout.
  FaultPlan& rolling_restart(NodeId cluster_size, Time start, Time down_for,
                             Time gap = 0.5,
                             RecoveryMode mode = RecoveryMode::kDurable);

  // --- seeded random generation ---------------------------------------

  /// `events` random two-group cuts over [0, horizon) (each a random
  /// nonempty proper subset vs the rest, lasting [horizon/10, horizon/3)).
  FaultPlan& random_partitions(std::size_t nodes, Time horizon, int events);

  /// `events` random crash windows over [0, horizon); down-times drawn
  /// from [min_down, max_down), mode mixed as in ChaosOptions. Windows
  /// that would overlap an earlier window of the same node are skipped
  /// (the draw sequence is fixed, keeping runs reproducible).
  FaultPlan& random_crashes(std::size_t nodes, Time horizon, int events,
                            Time min_down = 1.0, Time max_down = 5.0,
                            double amnesia_probability = 0.5,
                            double disk_failure_probability = 0.0);

  /// A whole random plan: partitions (with optional correlated rack
  /// losses) plus independent crashes, per `opt`.
  static FaultPlan chaos(std::uint64_t seed, std::size_t nodes, Time horizon,
                         const ChaosOptions& opt = {});

  // --- Byzantine payload adversary -------------------------------------

  /// Arm the Byzantine receive-path adversary (see ByzantineOptions). The
  /// adversary's RNG seed is drawn from the plan's stream, so two plans
  /// with the same seed and call sequence inject identical tampering.
  /// Probabilities must lie in [0, 1] and the window must be nonempty.
  FaultPlan& byzantine_payload(double corrupt_probability,
                               double duplicate_probability = 0.0,
                               double reorder_probability = 0.0,
                               Time start = 0.0, Time end = 1e18);

  // --- queries ---------------------------------------------------------

  /// Is `node` inside one of its crash windows at time t?
  bool down(NodeId node, Time t) const;
  /// Are a and b connected at time t (every active cut keeps them in one
  /// group)? The network asks this at send time.
  bool connected(NodeId a, NodeId b, Time t) const;
  /// Is any cut active at time t?
  bool partitioned_at(Time t) const;
  /// Latest cut end (0 if none): after it the network is whole again.
  Time last_heal_time() const;
  /// Latest crash-window end (0 if none): after it every node is up again.
  Time last_restart_time() const;
  /// Max of last heal and last scheduled restart. Mid-broadcast crashes are
  /// dynamic (they fire when the broadcast happens, if ever) and are not
  /// included; Cluster::settle()'s convergence loop covers them.
  Time all_clear_time() const;
  /// Crash-window time summed over all windows.
  Time total_downtime() const;
  bool empty() const;
  std::string describe() const;

  const std::vector<CrashEvent>& crashes() const { return crashes_; }
  const std::vector<PartitionEvent>& partitions() const { return partitions_; }
  const std::vector<MidBroadcastCrash>& mid_broadcast_crashes() const {
    return mid_;
  }
  const ByzantineOptions& byzantine() const { return byzantine_; }

 private:
  /// Append a crash window. Throws std::invalid_argument on an empty window
  /// or one overlapping an earlier window of the same node.
  void add_crash(CrashEvent event);
  /// Does `ev` overlap an earlier window of the same node?
  bool overlaps_crash(const CrashEvent& ev) const;

  Rng rng_;
  std::vector<CrashEvent> crashes_;
  std::vector<PartitionEvent> partitions_;
  std::vector<MidBroadcastCrash> mid_;
  ByzantineOptions byzantine_;
};

}  // namespace sim

// Epoch-aware flame profiling of causal replication chains.
//
// The causal graph (causal.hpp) knows every event attributable to an
// update; the epoch index (epoch.hpp) knows which failure regime each event
// fell in. This layer folds the two into latency attribution: for every
// update, its chain is decomposed into pipeline stages, and the stage
// durations are accumulated into one flame tree per epoch — so "where does
// stabilization time go while cut 0 is open?" is answerable directly
// instead of by staring at event dumps.
//
// Stage decomposition of one update's chain (times from the trace):
//
//   originate(t0) --flood_wait--> send(ts) --deliver--> per-replica
//       deliver(td) --merge_wait--> first merge(tm)
//
//   * flood_wait       ts - t0. Zero in the common case (the flood fans
//                      out in the originate step); nonzero when the origin
//                      crashed mid-broadcast and anti-entropy finished the
//                      job after restart.
//   * deliver;<rank>   td - ts per remote replica, bucketed by delivery
//                      rank: `first` (the fastest replica), `last` (the
//                      one that completes the flood — under a partition
//                      this is dominated by heal-time anti-entropy), `mid`
//                      (everything between).
//   * merge;<kind>     tm - td per remote replica, split tail_append vs
//                      mid_insert — mid_insert weight is the reordering
//                      cost the paper's log-transform machinery pays.
//
// The critical path of an update is the root-to-stable path to the replica
// whose first merge completes LAST — its length (tm* - t0) is the update's
// stabilization latency, and its dominant stage names what to fix. Per
// epoch, the profile carries critical-path statistics and dominant-stage
// counts next to the flame tree.
//
// The same walk keeps one cell per node that delivered the update (the
// origin's local delivery included), and export_to() derives every
// replication metric from those rows: the epoch.* family, the lifecycle.*
// family (originate -> last replica's merge, undo churn, divergence) and
// the causal.* latency breakdowns. One join of the trace, one derivation
// per latency; Cluster::metrics() runs it over the retained ring through
// export_replication_metrics().
//
// All weights are integer microseconds (llround of simulated seconds *
// 1e6): exporters emit integers only (plus shortest-round-trip epoch
// boundary times), so same-seed runs produce byte-identical folded text,
// JSON, and Perfetto slice output.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/causal.hpp"
#include "obs/epoch.hpp"
#include "obs/event.hpp"

namespace obs {

class MetricsRegistry;

/// One frame of a flame tree. Children are keyed by frame name in a
/// std::map, so every traversal is deterministic.
struct FlameNode {
  std::int64_t self_us = 0;   ///< Weight attributed exactly at this frame.
  std::int64_t total_us = 0;  ///< self_us + all descendants.
  std::uint64_t samples = 0;  ///< Stage instances that contributed here.
  std::map<std::string, FlameNode> children;
};

/// One node's view of an update's replication.
struct ReplicaCell {
  sim::NodeId node = 0;
  double deliver = 0.0;         ///< First broadcast delivery at this node.
  double merge = -1.0;          ///< First merge after it (< 0: none seen).
  bool mid_insert = false;      ///< That merge was out of order ...
  std::uint64_t displaced = 0;  ///< ... and displaced this many entries.
};

/// Per-update stage timing — the raw rows the flame trees fold and the
/// replication metrics derive from.
struct UpdateTiming {
  CausalGraph::UpdateKey key{0, 0};
  std::size_t epoch = 0;      ///< Epoch of the originate event.
  sim::NodeId origin = 0;     ///< Node that recorded the originate event.
  double originate = 0.0;     ///< t0.
  double send = 0.0;          ///< ts (== t0 when the flood was immediate).
  bool flooded = false;       ///< The origin's flood send is in the stream.
  std::uint64_t fanout = 0;   ///< Datagrams that flood sent.
  /// One cell per node that delivered the update, in first-delivery record
  /// order. Keyed by node id but never indexed by it: a stream read from a
  /// file may carry any 32-bit id.
  std::vector<ReplicaCell> cells;
  std::uint32_t replicas = 0; ///< Remote replicas whose first merge was seen.
  bool complete = false;      ///< At least one remote replica merged.
  double critical_end = 0.0;  ///< tm* — last replica's first merge time.
  sim::NodeId critical_node = 0;
  /// Critical-path segments, microseconds.
  std::int64_t crit_flood_us = 0;
  std::int64_t crit_deliver_us = 0;
  std::int64_t crit_merge_us = 0;
  std::string dominant;  ///< "flood_wait" | "deliver" | "merge".

  std::int64_t critical_us() const {
    return crit_flood_us + crit_deliver_us + crit_merge_us;
  }

  /// Provenance table, one line per node in [0, nodes): delivery and merge
  /// times relative to the originate, and the entries a mid-insert
  /// displaced. What the checker dump prints.
  std::string render_provenance(std::size_t nodes) const;
};

/// One epoch's attribution: the flame tree plus the summary statistics the
/// metrics export and the CLI's top-k table read.
struct EpochProfile {
  std::size_t epoch = 0;  ///< Index into the EpochIndex.
  std::string label;      ///< Epoch::label() — regime tag.
  double start = 0.0;
  double end = 0.0;
  FlameNode root;  ///< Children: flood_wait, deliver;*, merge;*.
  std::uint64_t updates = 0;     ///< Updates originated in this epoch.
  std::uint64_t incomplete = 0;  ///< ... with no remote merge in the stream.
  std::int64_t critical_total_us = 0;
  std::int64_t critical_max_us = 0;
  /// How many updates' critical path was dominated by each stage.
  std::map<std::string, std::uint64_t> dominant_counts;
};

/// A stage's share of one epoch, as the CLI ranks them.
struct StageShare {
  std::string stage;  ///< Leaf path, e.g. "deliver;last".
  std::int64_t us = 0;
  std::uint64_t samples = 0;
};

class FlameProfile {
 public:
  /// Fold every update chain in `graph` into per-epoch flame trees.
  /// `events` must be the stream both `graph` and `epochs` were built from.
  static FlameProfile build(const std::vector<Event>& events,
                            const CausalGraph& graph,
                            const EpochIndex& epochs);

  const std::vector<EpochProfile>& epochs() const { return epochs_; }
  const std::vector<UpdateTiming>& timings() const { return timings_; }

  /// Leaf stages of epoch `i` by descending weight (ties: stage name) —
  /// the "dominating stages" table flame_report prints.
  std::vector<StageShare> top_stages(std::size_t i, std::size_t k = 8) const;

  /// flamegraph.pl-compatible folded stacks: one line per leaf frame,
  /// "epoch<i>:<label>;<stage>[;<sub>] <weight_us>", epochs in order, frames
  /// in map order. Deterministic byte-for-byte for a given stream.
  std::string folded() const;

  /// Complete JSON document (integers + shortest-round-trip epoch times):
  /// per-epoch tree, stats, and dominant-stage counts. Byte-exact across
  /// same-seed runs.
  std::string to_json() const;

  /// Chrome/Perfetto trace_event slices: one track per pipeline stage, one
  /// "X" slice per update critical-path segment, plus an epoch banner track
  /// — stabilization latency laid out on the simulated timeline.
  std::string perfetto_json() const;

  /// Fold the profile into `reg`: epoch.* from the epoch profiles, and
  /// lifecycle.* / causal.* from the replica cells of a `cluster_size`-node
  /// run. `epochs` is the index the profile was built with. Cells of node
  /// ids at or above `cluster_size` are skipped. Merges count as monotone
  /// knowledge: a node's first merge is the one that counts, so a re-merge
  /// after an amnesia restart changes nothing.
  void export_to(MetricsRegistry& reg, const EpochIndex& epochs,
                 std::size_t cluster_size) const;

 private:
  std::vector<EpochProfile> epochs_;
  std::vector<UpdateTiming> timings_;
};

/// The replication metrics of a `cluster_size`-node run's retained trace:
/// build the epoch index, causal graph and flame profile of `ring` and fold
/// them into `reg` (FlameProfile::export_to).
void export_replication_metrics(const std::vector<Event>& ring,
                                std::size_t cluster_size,
                                MetricsRegistry& reg);

}  // namespace obs

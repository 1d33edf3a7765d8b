// Causal structure over the typed event stream: happens-before edges,
// per-update replication chains, and the trace-diff bisector.
//
// The paper's theorems are claims about *executions* — which updates a
// decision saw and how information propagated — and the tracer (tracer.hpp)
// records the raw material: every message fate carries its message id,
// every broadcast deliver carries its (origin, origin_seq), every merge
// carries the update's globally-unique timestamp. This layer joins those
// keys into the happens-before relation the checkers and debugging tools
// reason with:
//
//   * program order    — consecutive events at the same node (the control
//                        track counts as its own node);
//   * message order    — net.send -> net.deliver (or the delivery-time
//                        crash drop) joined via the unique message id;
//   * replication      — broadcast.originate -> broadcast.deliver of the
//                        same update, joined via (origin, origin_seq);
//   * merge            — broadcast.deliver -> the merge.* event it
//                        triggered at that node, joined via the update's
//                        timestamp.
//
// Record order is a topological order of this relation (delivery never
// precedes its send in a deterministic discrete-event run), which is how
// acyclicity is certified: validate() checks that every edge points
// forward. A backward edge, an orphan deliver (no matching send/originate
// in the stream), an orphan merge (no deliver that explains it), or a
// delivered-but-never-merged update each indicate either a truncated
// stream (ring eviction) or a protocol bug — the property tests assert all
// four are absent on complete streams from chaos and crash-chaos runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/event.hpp"

namespace obs {

/// Why one event happens-before another (see file comment).
enum class EdgeKind : std::uint8_t {
  kProgram,    ///< Same-node record order.
  kMessage,    ///< net.send -> net.deliver / delivery-time drop, by id.
  kReplicate,  ///< broadcast.originate -> broadcast.deliver, by (origin,seq).
  kMerge,      ///< broadcast.deliver -> merge.* it triggered, by update ts.
};

/// One happens-before edge between event indices of the source stream.
struct CausalEdge {
  std::size_t from = 0;
  std::size_t to = 0;
  EdgeKind kind = EdgeKind::kProgram;
};

/// Everything validate() can complain about. On a complete trace of a
/// correct run all vectors are empty; on a ring-truncated window, orphans
/// are expected (their causes fell off the ring) and the graph stays
/// usable for ancestry queries.
struct CausalIssues {
  /// Edges whose target does not come after their source in record order —
  /// would make the happens-before relation cyclic. Impossible by
  /// construction; checked anyway so the invariant is *verified*, not
  /// assumed.
  std::vector<std::size_t> backward_edges;  ///< indices into edges()
  /// net.deliver / delivery-time crash-drop events whose message id has no
  /// preceding net.send in the stream.
  std::vector<std::size_t> orphan_net_delivers;
  /// broadcast.deliver events whose (origin, origin_seq) was never seen
  /// originating.
  std::vector<std::size_t> orphan_broadcast_delivers;
  /// merge.tail_append / merge.mid_insert events with no broadcast.deliver
  /// of that update at that node still awaiting its merge.
  std::vector<std::size_t> orphan_merges;
  /// broadcast.deliver events never followed by the merge they should have
  /// triggered at their node.
  std::vector<std::size_t> unmerged_delivers;

  bool ok() const {
    return backward_edges.empty() && orphan_net_delivers.empty() &&
           orphan_broadcast_delivers.empty() && orphan_merges.empty() &&
           unmerged_delivers.empty();
  }
  /// One line per issue class with counts and first offenders.
  std::string summary() const;
};

/// The happens-before graph of one event stream. Built in one pass over
/// the events; the graph stores edges and per-update chains but does NOT
/// own the events — pass the same vector to the query helpers that render
/// them.
class CausalGraph {
 public:
  /// Key identifying an update: its globally-unique (logical, node)
  /// timestamp, exactly as events carry it.
  using UpdateKey = std::pair<std::uint64_t, sim::NodeId>;

  static CausalGraph build(const std::vector<Event>& events);

  std::size_t num_events() const { return num_events_; }
  const std::vector<CausalEdge>& edges() const { return edges_; }
  /// Indices of edges ending at event `i`.
  std::vector<std::size_t> parent_edges(std::size_t i) const;

  /// Structural invariants (see CausalIssues). Computed during build;
  /// cheap to call repeatedly.
  const CausalIssues& validate() const { return issues_; }

  /// Every event attributable to the update with timestamp (logical,
  /// node): originate, flood fan-out, per-replica delivers and duplicate
  /// receipts, merges, and the undo/redo work the merges caused. Ascending
  /// record order; empty if the stream never mentions the update.
  std::vector<std::size_t> update_chain(std::uint64_t ts_logical,
                                        sim::NodeId ts_node) const;

  /// Keys of every update the stream mentions, ascending (logical, node) —
  /// the enumeration the flame profiler folds over.
  std::vector<UpdateKey> update_keys() const;

  /// Causal ancestry of event `i`: the closest `limit` events from which
  /// `i` is reachable along happens-before edges (backward BFS, nearest
  /// first in discovery, returned in ascending record order, `i` itself
  /// excluded).
  std::vector<std::size_t> ancestry(std::size_t i,
                                    std::size_t limit = 32) const;

  /// The replication path of update (ts_logical, ts_node) to `node`: its
  /// originate event plus every chain event recorded at `node`, ascending.
  /// The "how did this update reach that replica" question the checker
  /// dump answers.
  std::vector<std::size_t> path_to_node(std::uint64_t ts_logical,
                                        sim::NodeId ts_node,
                                        sim::NodeId node) const;

 private:
  /// One update's replication chain: every attributable event index plus
  /// the node it was recorded at (so path_to_node needs no event access),
  /// and the originate index when the stream contains it.
  struct Chain {
    std::vector<std::size_t> events;
    std::vector<sim::NodeId> nodes;  ///< parallel to events
    std::size_t originate = static_cast<std::size_t>(-1);
  };

  std::size_t num_events_ = 0;
  std::vector<CausalEdge> edges_;
  CausalIssues issues_;
  std::map<UpdateKey, Chain> chains_;
  /// CSR over edges_ sorted by target: parent_start_[i]..parent_start_[i+1)
  /// indexes parent_edge_ids_.
  std::vector<std::size_t> parent_start_;
  std::vector<std::size_t> parent_edge_ids_;
};

/// First divergence between two event streams (same (seed, config) =>
/// byte-identical streams, so any divergence pinpoints injected
/// nondeterminism — the bisection primitive the chaos tiers need).
struct TraceDivergence {
  bool diverged = false;
  /// First index at which the streams differ. If one stream is a strict
  /// prefix of the other, this is the shorter stream's size.
  std::size_t index = 0;
  std::size_t a_size = 0;
  std::size_t b_size = 0;
};

TraceDivergence trace_diff(const std::vector<Event>& a,
                           const std::vector<Event>& b);

/// Human-readable report: the diverging pair of events plus the causal
/// ancestry of the diverging event in each stream (each stream gets its
/// own graph — after the divergence point their histories differ).
/// `ancestry_limit` bounds the ancestry printed per stream.
std::string divergence_report(const TraceDivergence& d,
                              const std::vector<Event>& a,
                              const std::vector<Event>& b,
                              std::size_t ancestry_limit = 12);

}  // namespace obs

// Violation forensics: epoch-attributed incident bundles.
//
// When a checker flags a violation, the point finding ("tx 12 broke the
// bound") is the start of the investigation, not the end of it. This layer
// assembles everything the trace plane knows about one violating update
// into a single self-describing bundle — the incident:
//
//   * the update's causal chain and ancestry (CausalGraph), so the path
//     the bad information took is in the report, not in a rerun;
//   * EPOCH ATTRIBUTION: the EpochIndex epoch that ADMITTED each
//     contributing update — attribution by the originate event, which is
//     deliberately distinct from the epoch of detection. A divergence
//     detected after a heal was usually admitted while the cut was open;
//     blaming the detection epoch would point the operator at the healthy
//     regime that merely surfaced the damage;
//   * the update's critical-path flame slice (FlameProfile stage
//     decomposition), folded-stack exportable so one violating update can
//     be dropped straight onto a flame graph next to the run's profile;
//   * the pinned trace window captured at detection time (or a live slice
//     of the supplied stream when nothing was pinned);
//   * the checker.*/epoch.* metrics subset, so the bundle carries the
//     checker's own health counters alongside the counter-example.
//
// Bundles are byte-deterministic: all weights are integer microseconds,
// epoch boundary times use shortest-round-trip formatting, and every
// container iterates in a deterministic order — same (seed, config), same
// bytes, which is what lets the chaos tiers pin incident output and lets
// CI upload a bundle as a stable artifact.
//
// Checker wiring lives one layer up (analysis/incident.hpp): post-hoc
// reports and the streaming checker both reduce to IncidentSeed rows, and
// this layer never needs to know which checker fired.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/epoch.hpp"
#include "obs/event.hpp"
#include "obs/flame.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace obs {

/// One violation, as a checker hands it over: the message, the offending
/// update's timestamp, and (when known) the global transaction index and
/// detection time. `detected_at < 0` means post-hoc — the oracle replayed
/// the finished run and there is no meaningful detection instant.
struct IncidentSeed {
  std::string message;
  std::size_t tx_index = static_cast<std::size_t>(-1);
  std::uint64_t ts_logical = 0;
  sim::NodeId ts_node = 0;
  double detected_at = -1.0;
};

/// A contributing update: one distinct update appearing in the violating
/// update's causal ancestry, with the epoch that admitted it.
struct IncidentContributor {
  std::uint64_t ts_logical = 0;
  sim::NodeId ts_node = 0;
  std::size_t admitted_epoch = 0;
  std::string epoch_label;
  std::int64_t originate_us = 0;  ///< Originate time, integer microseconds.
};

/// One assembled incident. Epoch indices refer to the EpochIndex built
/// over the stream the report was assembled from (IncidentReport::epochs).
struct Incident {
  IncidentSeed seed;
  /// The violating update appears in the supplied stream (its chain is
  /// nonempty). When false, the epoch/flame fields below are defaulted and
  /// only the seed and any pinned window carry information.
  bool in_stream = false;
  std::size_t admitted_epoch = 0;  ///< Epoch of the originate event.
  std::string admitted_label;
  std::size_t detected_epoch = 0;  ///< epoch_at(detected_at), else last
                                   ///< chain event's epoch.
  UpdateTiming timing{};           ///< Critical-path stage decomposition.
  bool timing_known = false;       ///< A FlameProfile row existed for it.
  std::vector<IncidentContributor> contributors;  ///< Ascending (ts, node).
  std::vector<Event> chain;   ///< The update's causal chain, record order.
  std::vector<Event> window;  ///< Pinned window, else live slice_around.
};

class IncidentReport {
 public:
  /// Assemble one bundle: build EpochIndex/CausalGraph/FlameProfile over
  /// `events` and attribute every seed. `pinned` supplies detection-time
  /// windows (matched by update timestamp; a live slice of `events` is the
  /// fallback). `metrics`, when non-null, contributes its checker.* and
  /// epoch.* entries to the bundle.
  static IncidentReport build(std::string title,
                              const std::vector<Event>& events,
                              const std::vector<IncidentSeed>& seeds,
                              const std::vector<PinnedWindow>& pinned = {},
                              const MetricsRegistry* metrics = nullptr,
                              std::size_t window_context = 6);

  bool empty() const { return incidents_.empty(); }
  const std::string& title() const { return title_; }
  const std::vector<Incident>& incidents() const { return incidents_; }
  /// The epoch segmentation every attribution refers to.
  const EpochIndex& epochs() const { return epochs_; }
  /// The filtered checker.*/epoch.* subset (empty registry when no metrics
  /// were supplied).
  const MetricsRegistry& metrics() const { return metrics_; }

  /// The complete bundle as one JSON document. Byte-deterministic: integer
  /// microseconds, shortest-round-trip epoch times, map-ordered fields.
  std::string to_json() const;

  /// flamegraph.pl-compatible folded stacks of every incident's critical
  /// path: "incident<i>:epoch<e>:<label>;<stage> <weight_us>", zero-weight
  /// stages skipped. Concatenates cleanly with FlameProfile::folded() for
  /// a violating-vs-overall flame comparison.
  std::string folded() const;

  /// Human-readable rendering: one block per incident — attribution line,
  /// critical path, per-replica provenance (every node track the stream
  /// carries, so a replica that never delivered the update shows as
  /// such), contributors, causal chain, trace window. Empty report =>
  /// empty string.
  std::string render() const;

 private:
  std::string title_;
  std::vector<Incident> incidents_;
  EpochIndex epochs_;
  MetricsRegistry metrics_;
  std::size_t nodes_ = 0;  ///< Node tracks in the stream (provenance rows).
};

}  // namespace obs

// Unified metrics: counters + gauges + histograms, one JSON snapshot.
//
// Before this layer every bench hand-rolled its own printf JSON over a
// different subset of EngineStats/BroadcastStats/NetworkStats. The registry
// is the single folding point: stats structs export themselves into it
// (EngineStats::export_to, BroadcastStats::export_to), the flame profile
// adds the trace-derived replication histograms
// (export_replication_metrics), and `to_json()` emits one machine-readable
// document. `from_json()` parses exactly that grammar back, so snapshots
// can be diffed/round-tripped by tools and tests.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace obs {

/// Fixed-bound histogram. Bounds are upper edges of the first N buckets;
/// one implicit overflow bucket catches everything above the last bound.
/// Tracks count/sum/min/max exactly, distribution to bucket resolution.
class Histogram {
 public:
  Histogram() = default;
  explicit Histogram(std::vector<double> bounds);

  /// Default bounds for simulated-time latencies: 20 exponential buckets
  /// from 1 ms to ~524 s.
  static Histogram latency();
  /// Default bounds for small nonnegative counts (undo churn): 0,1,2,4,...
  static Histogram counts();

  void add(double v);

  /// Accumulate another histogram with the same bounds (bucket-wise sum,
  /// exact count/sum, min/max widened). Throws std::invalid_argument on a
  /// bounds mismatch.
  void merge_from(const Histogram& other);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / count_; }
  /// Smallest bucket upper bound covering >= q of the mass (q in [0,1]);
  /// overflow reports the observed max.
  double quantile_bound(double q) const;

  const std::vector<double>& bounds() const { return bounds_; }
  /// counts()[i] pairs with bounds()[i]; back() is the overflow bucket.
  const std::vector<std::uint64_t>& bucket_counts() const { return counts_; }

  friend bool operator==(const Histogram&, const Histogram&) = default;

 private:
  friend class MetricsRegistry;  ///< from_json reconstructs the raw fields.
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;  ///< bounds_.size() + 1 entries.
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Named metrics, JSON in and out. Names are dotted paths
/// ("engine.mid_inserts", "lifecycle.replication_latency"); std::map keeps
/// emission order stable, so same metrics => byte-identical JSON.
class MetricsRegistry {
 public:
  void set_counter(const std::string& name, std::uint64_t value) {
    counters_[name] = value;
  }
  void add_counter(const std::string& name, std::uint64_t delta) {
    counters_[name] += delta;
  }
  void set_gauge(const std::string& name, double value) {
    gauges_[name] = value;
  }
  /// Insert-or-get; `proto` supplies the bounds on first touch.
  Histogram& histogram(const std::string& name,
                       const Histogram& proto = Histogram::latency());

  /// Accumulate another registry into this one: counters and gauges sum
  /// (a merged registry reads as "totals across runs"), histograms merge
  /// bucket-wise. The multi-seed aggregation every sweep bench uses.
  void merge_from(const MetricsRegistry& other);

  /// Snapshot difference: what accrued AFTER `earlier` was taken, given
  /// both are cumulative snapshots of the same run (the per-epoch deltas
  /// Cluster::metrics_series yields). Counters subtract (missing-in-
  /// earlier reads as 0; saturating at 0 so a derived counter that shrank
  /// never wraps). Gauges keep this snapshot's point-in-time value.
  /// Histograms subtract bucket-wise when bounds match — min/max keep this
  /// snapshot's values, since interval extremes are not recoverable from
  /// two cumulative summaries — and copy this snapshot's histogram whole
  /// on a bounds mismatch.
  MetricsRegistry delta_from(const MetricsRegistry& earlier) const;

  const std::map<std::string, std::uint64_t>& counters() const {
    return counters_;
  }
  const std::map<std::string, double>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  /// One pretty-printed JSON document of the whole registry.
  std::string to_json() const;

  /// Parse a document produced by to_json(). Throws std::invalid_argument
  /// on malformed input. Round-trip invariant:
  /// from_json(r.to_json()).to_json() == r.to_json().
  static MetricsRegistry from_json(const std::string& json);

  friend bool operator==(const MetricsRegistry&,
                         const MetricsRegistry&) = default;

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace obs

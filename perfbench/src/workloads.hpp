// The four workloads and what each instance of one reports.
//
// A run repeats one workload instance, built from the run's seed, until the
// measurement budget is spent; every timed figure is the median over its
// instances. A traced run alternates plain and probed instances, so the
// tracing overhead is measured within one process.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// Segments a simulator instance's run phase is cut into, at most.
constexpr std::size_t kRunSegments = 64;

/// What one workload instance measured and checked.
struct InstanceOut {
  bool traced = false;
  double setup_s = 0.0;   ///< inputs + cluster construction (+ threads)
  double run_s = 0.0;     ///< first submission to the last commit
  /// run_s cut at fixed points of the replay (simulator only): the same
  /// segments, doing the same work, in every instance of one seed.
  std::vector<double> run_segments;
  double verify_s = 0.0;  ///< first submission to the verdict
  double wall_s = 0.0;    ///< the whole instance
  std::uint64_t txs = 0;        ///< transactions submitted
  std::uint64_t committed = 0;  ///< merged at every replica
  std::uint64_t failed_txs = 0;
  std::vector<std::string> failures;
  /// Commit latency over the instance's committed transactions. (Kept as
  /// two figures, not the samples, so a run's memory does not grow with
  /// the number of instances it makes.)
  double commit_p50_ms = 0.0;
  double commit_p99_ms = 0.0;

  void set_commit_ms(const std::vector<double>& samples) {
    commit_p50_ms = percentile(samples, 0.5);
    commit_p99_ms = percentile(samples, 0.99);
  }
  /// Protocol counters that must repeat exactly on the simulator.
  std::map<std::string, std::uint64_t> counters;
  /// Per-layer figures (traced instances only).
  std::map<std::string, double> layer;
  /// Layer time the probes attribute, out of ledger.run_s.
  double attributed_s = 0.0;

  void fail(const std::string& what, std::uint64_t txs_hit) {
    failures.push_back(what);
    failed_txs += txs_hit;
  }
};

/// How the instances of one run add up to the result line.
struct WorkloadReport {
  std::vector<InstanceOut> plain;
  std::vector<InstanceOut> traced;
  /// The simulator workloads must repeat their counters exactly.
  bool deterministic = true;
  /// Extra transactions checked outside the timed instances.
  std::uint64_t extra_txs = 0;
  std::uint64_t extra_failed = 0;
  std::vector<std::string> extra_failures;
};

void run_zipf_burst(const Args& args, WorkloadReport& out, SpanLog* spans);
void run_lan_steady(const Args& args, WorkloadReport& out, SpanLog* spans);
void run_partition_verify(const Args& args, WorkloadReport& out,
                          SpanLog* spans);
void run_threaded_closed(const Args& args, WorkloadReport& out,
                         SpanLog* spans);

/// Runs `instance(traced)` until the budget is spent: plain instances only
/// in an untraced run, plain and traced alternating in a traced one.
template <class F>
void repeat_instances(const Args& args, WorkloadReport& out, F instance) {
  const Clock::time_point start = Clock::now();
  int n = 0;
  while (n < (args.trace ? 2 * kMinTracedPairs : kMinInstances) ||
         seconds_since(start) < args.seconds) {
    const bool traced = args.trace && n % 2 == 1;
    InstanceOut o = instance(traced);
    o.traced = traced;
    (traced ? out.traced : out.plain).push_back(std::move(o));
    ++n;
  }
}

}  // namespace perfbench

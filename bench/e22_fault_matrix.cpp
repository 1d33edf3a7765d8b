// E22 — availability and recovery lag across the fault matrix.
//
// One row per fault mode of the unified sim::FaultPlan surface, each run
// over the same airline workload and seed set:
//
//   clean            no faults (baseline row)
//   crash-durable    one node down 5s, log survives
//   crash-amnesia    one node down 5s, volatile state lost, outbox replayed
//   stale-disk       one node down 5s, restart from a stale checkpoint
//                    (40% of the merged log lost and re-merged)
//   rack-loss        correlated: a 2-node rack is partitioned AND crashed
//   rolling-restart  every node restarted once, one at a time (upgrade)
//   mid-broadcast    a crash pinned between the stable-outbox append and
//                    the first flood send (write-ahead intention boundary)
//
// Per row: the merged Cluster::metrics() registries across seeds plus
// derived e22.* gauges — availability (share of submissions accepted),
// mean recovery lag (simulated time a restarted node spends catching up),
// mean convergence lag (time past the schedule's all-clear until every
// replica knows every update), and checker_clean (the §3.1 checker and
// convergence held on every run). Everything emitted is a deterministic
// function of (mode, seeds): wall-clock never enters the output, so the
// JSON is byte-comparable across machines and gated by
// compare_bench.py e22 against bench/baselines/BENCH_e22.json.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/execution_checker.hpp"
#include "apps/airline/airline.hpp"
#include "bench_json.hpp"
#include "harness/scenario.hpp"
#include "harness/workload.hpp"
#include "obs/metrics.hpp"
#include "shard/cluster.hpp"
#include "sim/fault_plan.hpp"

namespace {

namespace al = apps::airline;
using Air = al::BasicAirline<20, 900, 300>;

constexpr double kHorizon = 30.0;
constexpr std::size_t kNodes = 4;

/// One fault-matrix row: a named FaultPlan builder.
struct Mode {
  const char* name;
  sim::FaultPlan (*build)(std::uint64_t seed);
};

sim::FaultPlan clean(std::uint64_t) { return sim::FaultPlan{}; }

sim::FaultPlan crash_durable(std::uint64_t) {
  return sim::FaultPlan{}.crash(2, 8.0, 13.0, sim::RecoveryMode::kDurable);
}

sim::FaultPlan crash_amnesia(std::uint64_t) {
  return sim::FaultPlan{}.crash(2, 8.0, 13.0, sim::RecoveryMode::kAmnesia);
}

sim::FaultPlan stale_disk(std::uint64_t) {
  return sim::FaultPlan{}.disk_failure(2, 8.0, 13.0, /*keep_fraction=*/0.6);
}

sim::FaultPlan rack_loss(std::uint64_t) {
  return sim::FaultPlan{}.rack_power_loss({2, 3}, kNodes, 8.0, 13.0);
}

sim::FaultPlan rolling(std::uint64_t) {
  return sim::FaultPlan{}.rolling_restart(kNodes, 6.0, /*down_for=*/3.0,
                                          /*gap=*/1.0);
}

sim::FaultPlan mid_broadcast(std::uint64_t) {
  return sim::FaultPlan{}.crash_mid_broadcast(2, 4, /*down_for=*/5.0);
}

constexpr Mode kModes[] = {
    {"clean", clean},
    {"crash-durable", crash_durable},
    {"crash-amnesia", crash_amnesia},
    {"stale-disk", stale_disk},
    {"rack-loss", rack_loss},
    {"rolling-restart", rolling},
    {"mid-broadcast", mid_broadcast},
};

struct Row {
  const char* mode;
  bool checker_clean = true;
  std::string metrics_json;
};

}  // namespace

int main() {
  const std::uint64_t kSeeds[] = {221, 222, 223};
  const std::size_t runs = std::size(kSeeds);
  std::vector<Row> rows;

  for (const Mode& mode : kModes) {
    Row row;
    row.mode = mode.name;
    obs::MetricsRegistry reg;
    double convergence_lag = 0.0;
    for (const std::uint64_t seed : kSeeds) {
      harness::Scenario sc = harness::wan(kNodes);
      sc.faults = mode.build(seed);
      shard::Cluster<Air> cluster(sc.cluster_config<Air>(seed ^ 0xe22));
      harness::AirlineWorkload w;
      w.duration = kHorizon;
      w.request_rate = 4.0;
      w.mover_rate = 4.0;
      w.cancel_fraction = 0.1;
      w.max_persons = 250;
      harness::drive_airline(cluster, w, seed ^ 0x5eed);

      cluster.run_until(kHorizon);
      // Convergence lag: simulated time past the last scheduled failure
      // (mid-broadcast restarts are dynamic; the loop below covers them)
      // until every replica knows every update.
      const double all_clear = std::max(kHorizon, sc.faults.all_clear_time());
      cluster.run_until(all_clear);
      double t = all_clear;
      while (!cluster.converged() && t < all_clear + 1e4) {
        t += 0.25;
        cluster.run_until(t);
      }
      convergence_lag += t - all_clear;

      const auto exec = cluster.execution();
      row.checker_clean =
          row.checker_clean &&
          analysis::check_prefix_subsequence_condition(exec).ok() &&
          analysis::is_transitive(exec) && cluster.converged() &&
          cluster.node(0).state() == exec.final_state() &&
          cluster.aggregate_engine_stats().decisions_run == exec.size();
      reg.add_counter("e22.txs", exec.size());
      reg.merge_from(cluster.metrics());
    }

    // Derived row gauges, computed from the merged counters so the
    // registry is self-describing.
    const std::uint64_t scheduled =
        reg.counters().at("cluster.scheduled_submissions");
    const std::uint64_t rejected =
        reg.counters().at("engine.rejected_submissions");
    const std::uint64_t crashes = reg.counters().at("engine.crashes");
    reg.add_counter("e22.runs", runs);
    reg.add_counter("e22.checker_clean", row.checker_clean ? 1 : 0);
    reg.set_gauge("e22.availability",
                  scheduled == 0 ? 1.0
                                 : 1.0 - static_cast<double>(rejected) /
                                             static_cast<double>(scheduled));
    reg.set_gauge("e22.mean_recovery_lag",
                  crashes == 0 ? 0.0
                               : reg.gauges().at("engine.recovery_lag") /
                                     static_cast<double>(crashes));
    reg.set_gauge("e22.mean_convergence_lag",
                  convergence_lag / static_cast<double>(runs));
    row.metrics_json = reg.to_json();
    rows.push_back(row);
  }

  std::printf("{\n  \"experiment\": \"e22_fault_matrix\",\n");
  std::printf("  \"horizon\": %.1f, \"nodes\": %zu, \"seeds\": %zu,\n",
              kHorizon, kNodes, runs);
  std::printf("  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::printf("    {\"mode\": \"%s\", \"checker_clean\": %s,\n", r.mode,
                r.checker_clean ? "true" : "false");
    std::printf("     \"metrics\":\n");
    print_indented(r.metrics_json, "      ");
    std::printf("\n    }%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
  return 0;
}

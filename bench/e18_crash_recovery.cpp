// E18 — availability and convergence lag under node crash/restart fault
// injection (section 1.2's availability narrative, extended to node death).
//
// Sweep the crash rate (random crash/restart schedules, durable and amnesia
// recovery mixed 50/50) over a fixed airline workload and measure what the
// fault injection costs: the share of submissions rejected because their
// origin was down (availability), how long restarted nodes lag behind the
// cluster frontier (recovery lag), how much they re-merge to catch up, and
// how long after the last failure the cluster needs to reconverge
// (convergence lag).
//
// Each sweep point is one obs::MetricsRegistry: the per-seed
// Cluster::metrics() snapshots merged (counters and gauges summed across
// seeds) plus derived e18.* availability/lag gauges. The emitted JSON embeds
// each registry via MetricsRegistry::to_json — the machine-readable
// counterpart of the E12 availability table, in the same schema as every
// other metrics consumer.
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

struct Point {
  int crash_events = 0;
  bool checker_clean = true;
  std::string metrics_json;
};

}  // namespace

int main() {
  constexpr double kHorizon = 30.0;
  const std::uint64_t kSeeds[] = {181, 182, 183};
  const std::size_t runs = std::size(kSeeds);
  std::vector<Point> points;

  for (const int crash_events : {0, 2, 4, 8, 12}) {
    Point pt;
    pt.crash_events = crash_events;
    obs::MetricsRegistry reg;
    double convergence_lag = 0.0;
    for (const std::uint64_t seed : kSeeds) {
      harness::Scenario sc = harness::wan(4);
      sc.faults = sim::FaultPlan(seed);
      sc.faults.random_crashes(sc.num_nodes, kHorizon, crash_events, 1.0,
                               5.0, 0.5);
      shard::Cluster<Air> cluster(sc.cluster_config<Air>(seed ^ 0xe18));
      harness::AirlineWorkload w;
      w.duration = kHorizon;
      w.request_rate = 4.0;
      w.mover_rate = 4.0;
      w.cancel_fraction = 0.1;
      w.max_persons = 250;
      harness::drive_airline(cluster, w, seed ^ 0x5eed);

      cluster.run_until(kHorizon);
      // Convergence lag: simulated time past the last failure (workload
      // end, partition heal, or final restart — whichever is latest) until
      // every replica knows every update.
      const double all_clear = std::max(kHorizon, sc.faults.all_clear_time());
      cluster.run_until(all_clear);
      double t = all_clear;
      while (!cluster.converged() && t < all_clear + 1e4) {
        t += 0.25;
        cluster.run_until(t);
      }
      convergence_lag += t - all_clear;

      const auto exec = cluster.execution();
      pt.checker_clean = pt.checker_clean &&
                         analysis::check_prefix_subsequence_condition(exec).ok() &&
                         cluster.converged();
      reg.add_counter("e18.txs", exec.size());
      reg.merge_from(cluster.metrics());
    }

    // Derived sweep-point gauges, computed from the merged counters so the
    // registry is self-describing.
    const std::uint64_t scheduled =
        reg.counters().at("cluster.scheduled_submissions");
    const std::uint64_t rejected =
        reg.counters().at("engine.rejected_submissions");
    const std::uint64_t crashes = reg.counters().at("engine.crashes");
    reg.add_counter("e18.crash_events_requested",
                    static_cast<std::uint64_t>(crash_events));
    reg.add_counter("e18.runs", runs);
    reg.add_counter("e18.checker_clean", pt.checker_clean ? 1 : 0);
    reg.set_gauge("e18.availability",
                  scheduled == 0 ? 1.0
                                 : 1.0 - static_cast<double>(rejected) /
                                             static_cast<double>(scheduled));
    reg.set_gauge("e18.mean_recovery_lag",
                  crashes == 0 ? 0.0
                               : reg.gauges().at("engine.recovery_lag") /
                                     static_cast<double>(crashes));
    reg.set_gauge("e18.mean_convergence_lag",
                  convergence_lag / static_cast<double>(runs));
    pt.metrics_json = reg.to_json();
    points.push_back(pt);
  }

  std::printf("{\n  \"experiment\": \"e18_crash_recovery\",\n");
  std::printf("  \"horizon\": %.1f, \"nodes\": 4, \"seeds\": %zu,\n", kHorizon,
              runs);
  std::printf("  \"points\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    std::printf("    {\"crash_events_requested\": %d, \"checker_clean\": %s,\n",
                p.crash_events, p.checker_clean ? "true" : "false");
    std::printf("     \"metrics\":\n");
    print_indented(p.metrics_json, "      ");
    std::printf("\n    }%s\n", i + 1 < points.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
  return 0;
}

// E16 — discarding obsolete information ([SL], the companion paper this
// one cites: Sarin & Lynch, "Discarding Obsolete Information in a
// Replicated Database System").
//
// Without compaction, every replica's update log grows without bound —
// undo/redo needs history. With the announcement protocol's stability
// point (min cluster-wide promise with all issued updates merged), the
// stable prefix folds into a base state. The sweep measures retained log
// size and late-insert cost over a long run, with and without compaction,
// and under a partition (which freezes the stability point — retention is
// the price of the cut).
#include <cstdio>

#include "analysis/execution_checker.hpp"
#include "apps/airline/airline.hpp"
#include "harness/scenario.hpp"
#include "harness/table.hpp"
#include "harness/workload.hpp"
#include "shard/cluster.hpp"

namespace {

namespace al = apps::airline;
using Air = al::BasicAirline<50, 900, 300>;

struct RunResult {
  std::uint64_t merged = 0;
  std::size_t retained_max = 0;   // max over nodes at end of run
  std::uint64_t folded = 0;
  bool converged = false;
  bool trace_intact = false;
};

RunResult run(bool compaction, double partition_len, std::uint64_t seed) {
  harness::Scenario sc =
      partition_len > 0.0
          ? harness::partitioned_wan(4, 10.0, 10.0 + partition_len)
          : harness::wan(4);
  sc.broadcast.anti_entropy_interval = 0.25;
  auto cfg = sc.cluster_config<Air>(seed);
  cfg.compaction = compaction;
  shard::Cluster<Air> cluster(cfg);
  harness::AirlineWorkload w;
  w.duration = 30.0 + partition_len;
  w.request_rate = 6.0;
  w.mover_rate = 6.0;
  w.max_persons = 500;
  harness::drive_airline(cluster, w, seed ^ 0xe16);
  cluster.run_until(w.duration);
  cluster.settle();
  cluster.run_until(cluster.scheduler().now() + 2.0);  // let folding finish

  RunResult r;
  r.converged = cluster.converged();
  for (core::NodeId n = 0; n < 4; ++n) {
    r.merged = std::max<std::uint64_t>(r.merged,
                                       cluster.node(n).updates_known());
    r.retained_max =
        std::max(r.retained_max, cluster.node(n).entries_retained());
    r.folded += cluster.node(n).engine_stats().entries_folded;
  }
  // Knowledge intact: the formal trace still checks out.
  const auto exec = cluster.execution();
  r.trace_intact = analysis::check_prefix_subsequence_condition(exec).ok() &&
                   cluster.node(0).state() == exec.final_state();
  return r;
}

}  // namespace

int main() {
  harness::Table table(
      "E16  Log compaction ([SL]): retained entries vs merged updates",
      {"variant", "merged updates", "max retained/node", "entries folded",
       "converged", "trace intact"});
  struct Row {
    const char* name;
    bool compaction;
    double partition;
  };
  for (const Row row :
       {Row{"no compaction, no partition", false, 0.0},
        Row{"compaction, no partition", true, 0.0},
        Row{"compaction, 15s partition", true, 15.0}}) {
    const RunResult r = run(row.compaction, row.partition, 33);
    table.add_row({row.name,
                   harness::Table::num(static_cast<std::size_t>(r.merged)),
                   harness::Table::num(r.retained_max),
                   harness::Table::num(static_cast<std::size_t>(r.folded)),
                   r.converged ? "yes" : "NO",
                   r.trace_intact ? "yes" : "NO"});
  }
  table.print();
  std::printf(
      "\nReading: without compaction a replica retains every update ever\n"
      "merged. With it, the cluster-stable prefix folds away and retention\n"
      "drops to the in-flight tail. A partition freezes the stability point\n"
      "— retention grows for its duration, then collapses after the heal.\n"
      "Knowledge is untouched: prefixes still name folded transactions and\n"
      "every checker passes.\n");
  return 0;
}

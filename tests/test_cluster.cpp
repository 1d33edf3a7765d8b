// SHARD cluster integration tests: mutual consistency under partitions and
// loss, execution-trace validity, transitivity under causal broadcast (and
// its possible absence without), determinism, and engine stats.
#include <gtest/gtest.h>

#include "analysis/execution_checker.hpp"
#include "analysis/thrashing.hpp"
#include "apps/airline/airline.hpp"
#include "harness/scenario.hpp"
#include "harness/workload.hpp"
#include "shard/cluster.hpp"

namespace {

namespace al = apps::airline;
using Air = al::BasicAirline<20, 900, 300>;
using al::Request;

harness::AirlineWorkload small_workload() {
  harness::AirlineWorkload w;
  w.duration = 15.0;
  w.request_rate = 2.0;
  w.mover_rate = 2.0;
  w.max_persons = 60;
  return w;
}

TEST(Cluster, ConvergesOnLan) {
  auto sc = harness::lan(3);
  shard::Cluster<Air> cluster(sc.cluster_config<Air>(1));
  harness::drive_airline(cluster, small_workload(), 2);
  cluster.run_until(15.0);
  cluster.settle();
  EXPECT_TRUE(cluster.converged());
  for (std::size_t i = 1; i < cluster.num_nodes(); ++i) {
    EXPECT_EQ(cluster.node(0).state(), cluster.node(i).state());
  }
}

TEST(Cluster, ConvergesAfterHardPartition) {
  // The headline SHARD property: both sides keep processing during the
  // partition, and merge to identical states after the heal.
  auto sc = harness::partitioned_wan(4, 3.0, 12.0);
  shard::Cluster<Air> cluster(sc.cluster_config<Air>(3));
  harness::drive_airline(cluster, small_workload(), 4);
  cluster.run_until(15.0);
  // During the partition both halves originated transactions.
  EXPECT_GT(cluster.node(0).originated().size() +
                cluster.node(1).originated().size(),
            0u);
  EXPECT_GT(cluster.node(2).originated().size() +
                cluster.node(3).originated().size(),
            0u);
  cluster.settle();
  EXPECT_TRUE(cluster.converged());
}

TEST(Cluster, DeterministicGivenSeed) {
  const auto run = [](std::uint64_t seed) {
    auto sc = harness::wan(3);
    shard::Cluster<Air> cluster(sc.cluster_config<Air>(seed));
    harness::drive_airline(cluster, small_workload(), 99);
    cluster.run_until(15.0);
    cluster.settle();
    return cluster.node(0).state();
  };
  EXPECT_EQ(run(7), run(7));
  // (Different seeds usually differ, but that is not guaranteed; don't
  // assert it.)
}

TEST(Cluster, ExecutionTraceValidUnderLoss) {
  auto sc = harness::wan(4);
  sc.network.drop_probability = 0.2;
  shard::Cluster<Air> cluster(sc.cluster_config<Air>(5));
  harness::drive_airline(cluster, small_workload(), 6);
  cluster.run_until(15.0);
  cluster.settle();
  const auto exec = cluster.execution();
  const auto report = analysis::check_prefix_subsequence_condition(exec);
  EXPECT_TRUE(report.ok()) << report.to_string();
  // Serial order == timestamp order, strictly increasing.
  for (std::size_t i = 1; i < exec.size(); ++i) {
    EXPECT_LT(exec.tx(i - 1).ts, exec.tx(i).ts);
  }
}

TEST(Cluster, CausalBroadcastYieldsTransitiveExecutions) {
  // Section 3.3: "an appropriate distributed communication protocol could
  // guarantee transitivity, perhaps by piggybacking information about known
  // transactions on messages." Our causal mode is that protocol.
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    auto sc = harness::partitioned_wan(4, 3.0, 10.0);
    shard::Cluster<Air> cluster(sc.cluster_config<Air>(seed));
    harness::drive_airline(cluster, small_workload(), seed);
    cluster.run_until(15.0);
    cluster.settle();
    EXPECT_TRUE(analysis::is_transitive(cluster.execution()))
        << "seed " << seed;
  }
}

TEST(Cluster, FinalStateEqualsExecutionReplay) {
  // The replicas' converged state must equal the formal execution's final
  // actual state — the engine really implements the model.
  auto sc = harness::wan(3);
  shard::Cluster<Air> cluster(sc.cluster_config<Air>(21));
  harness::drive_airline(cluster, small_workload(), 22);
  cluster.run_until(15.0);
  cluster.settle();
  const auto exec = cluster.execution();
  EXPECT_EQ(cluster.node(0).state(), exec.final_state());
}

TEST(Cluster, NodeSubmitRecordsPrefixAndExternalActions) {
  auto sc = harness::lan(2);
  shard::Cluster<Air> cluster(sc.cluster_config<Air>(31));
  const auto& rec1 = cluster.submit_now(0, Request::request(1));
  EXPECT_EQ(rec1.prefix.count(), 0u);
  EXPECT_TRUE(rec1.external_actions.empty());
  const auto& rec2 = cluster.submit_now(0, Request::move_up());
  ASSERT_EQ(rec2.prefix.count(), 1u);
  const auto pts = rec2.prefix.expand(cluster.prefix_resolver());
  ASSERT_EQ(pts.size(), 1u);
  EXPECT_EQ(pts[0], rec1.ts);
  ASSERT_EQ(rec2.external_actions.size(), 1u);
  EXPECT_EQ(rec2.external_actions[0].kind, "grant-seat");
  EXPECT_LT(rec1.ts, rec2.ts);
}

TEST(Cluster, PruneRepairStoreRejectsAmnesiaRecovery) {
  // Pruning discards wire messages every peer acknowledged; an amnesiac
  // restart relies on peers (and its own outbox) retaining everything, so
  // the combination is rejected at construction.
  auto bad = harness::crashy_node(3, 2.0, 4.0, sim::RecoveryMode::kAmnesia);
  bad.broadcast.prune_repair_store = true;
  EXPECT_THROW(shard::Cluster<Air>(bad.cluster_config<Air>(7)),
               std::invalid_argument);
  // Durable recovery keeps its log; pruning remains safe.
  auto ok = harness::crashy_node(3, 2.0, 4.0, sim::RecoveryMode::kDurable);
  ok.broadcast.prune_repair_store = true;
  EXPECT_NO_THROW(shard::Cluster<Air>(ok.cluster_config<Air>(7)));
}

TEST(Cluster, IsolatedNodeStillServesLocally) {
  // Availability: the isolated node keeps initiating transactions against
  // its own replica (stale but live), and reconciles afterwards.
  auto sc = harness::flaky_node(3, 1.0, 10.0);
  shard::Cluster<Air> cluster(sc.cluster_config<Air>(41));
  cluster.submit_at(2.0, 2, Request::request(1));
  cluster.submit_at(3.0, 2, Request::move_up());
  cluster.submit_at(4.0, 0, Request::request(2));
  cluster.run_until(5.0);
  // Node 2 processed its own, knows nothing of node 0's.
  EXPECT_EQ(cluster.node(2).originated().size(), 2u);
  EXPECT_EQ(cluster.node(2).updates_known(), 2u);
  EXPECT_EQ(cluster.node(0).updates_known(), 1u);
  cluster.settle();
  EXPECT_TRUE(cluster.converged());
  EXPECT_EQ(cluster.node(0).updates_known(), 3u);
}

TEST(Cluster, EngineStatsShowUndoRedoUnderReordering) {
  auto sc = harness::wan(4);
  shard::Cluster<Air> cluster(sc.cluster_config<Air>(51));
  auto w = small_workload();
  w.duration = 20.0;
  w.request_rate = 4.0;
  w.mover_rate = 4.0;
  harness::drive_airline(cluster, w, 52);
  cluster.run_until(20.0);
  cluster.settle();
  const auto stats = cluster.aggregate_engine_stats();
  EXPECT_GT(stats.decisions_run, 0u);
  EXPECT_GT(stats.mid_inserts, 0u);   // WAN delays reorder arrivals
  EXPECT_GT(stats.undone_updates, 0u);
  EXPECT_FALSE(stats.summary().empty());
}

TEST(Cluster, ExternalActionConflictsDetectable) {
  // Drive hard enough (capacity 20, many movers, partition) that some
  // passenger gets granted and rescinded — the thrashing the paper warns
  // about; the analysis counts it.
  auto sc = harness::partitioned_wan(4, 2.0, 18.0);
  shard::Cluster<Air> cluster(sc.cluster_config<Air>(61));
  harness::AirlineWorkload w;
  w.duration = 25.0;
  w.request_rate = 4.0;
  w.mover_rate = 6.0;
  w.move_down_fraction = 0.4;
  w.max_persons = 100;
  harness::drive_airline(cluster, w, 62);
  cluster.run_until(25.0);
  cluster.settle();
  const auto exec = cluster.execution();
  const auto thrash = analysis::count_external_oscillations(
      exec, "grant-seat", "rescind-seat");
  EXPECT_GT(thrash.external_actions, 0u);
  // Oscillations may or may not occur for a given seed; the metric must at
  // least be consistent.
  EXPECT_LE(thrash.subjects_affected, thrash.oscillations);
}

TEST(Cluster, SubmitToUnknownNodeThrows) {
  auto sc = harness::lan(2);
  shard::Cluster<Air> cluster(sc.cluster_config<Air>(71));
  EXPECT_THROW(cluster.submit_at(1.0, 9, Request::move_up()),
               std::out_of_range);
}

}  // namespace

// Log compaction — "Discarding Obsolete Information in a Replicated
// Database System" ([SL], cited by the paper). An entry is discardable
// once the cluster-wide stability point (min announced promise, with all
// announced-issued updates merged) passes it: no update with a smaller
// timestamp can ever arrive, so the prefix folds into a base state.
// Knowledge is preserved (prefix recording still names folded
// transactions); only update storage is reclaimed.
#include <gtest/gtest.h>

#include "analysis/execution_checker.hpp"
#include "apps/airline/airline.hpp"
#include "harness/scenario.hpp"
#include "harness/workload.hpp"
#include "shard/cluster.hpp"
#include "shard/update_log.hpp"

namespace {

namespace al = apps::airline;
using Air = al::BasicAirline<20, 900, 300>;
using SmallLog = shard::UpdateLog<al::SmallAirline>;

al::Update req(al::Person p) { return {al::Update::Kind::kRequest, p}; }

TEST(UpdateLogCompaction, FoldPreservesStateAndCountsStorage) {
  SmallLog log(4);
  for (std::uint64_t i = 1; i <= 10; ++i) {
    log.insert({core::Timestamp{i, 0}, req(static_cast<al::Person>(i))});
  }
  const auto state_before = log.state();
  const std::size_t folded = log.compact_before(core::Timestamp{6, 0});
  EXPECT_EQ(folded, 5u);
  EXPECT_EQ(log.size(), 5u);           // retained entries
  EXPECT_EQ(log.folded_count(), 5u);
  EXPECT_EQ(log.total_merged(), 10u);
  EXPECT_EQ(log.state(), state_before);  // folding is invisible to state
  EXPECT_EQ(log.state(), log.recompute_naive());
  EXPECT_EQ(log.stats().entries_folded, 5u);
}

TEST(UpdateLogCompaction, RepeatedAndNoopCompaction) {
  SmallLog log(0);  // also exercise the no-checkpoint path
  for (std::uint64_t i = 1; i <= 6; ++i) {
    log.insert({core::Timestamp{i, 0}, req(static_cast<al::Person>(i))});
  }
  EXPECT_EQ(log.compact_before(core::Timestamp{4, 0}), 3u);
  EXPECT_EQ(log.compact_before(core::Timestamp{4, 0}), 0u);  // idempotent
  EXPECT_EQ(log.compact_before(core::Timestamp{2, 0}), 0u);  // never backward
  EXPECT_EQ(log.compact_before(core::Timestamp{7, 0}), 3u);  // fold the rest
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.state(), log.recompute_naive());
  // Inserts above the cut still work.
  log.insert({core::Timestamp{8, 0}, req(9)});
  EXPECT_EQ(log.state(), log.recompute_naive());
}

TEST(UpdateLogCompaction, MidInsertAboveCutStillCorrect) {
  SmallLog log(2);
  for (std::uint64_t i = 1; i <= 8; ++i) {
    log.insert({core::Timestamp{2 * i, 0}, req(static_cast<al::Person>(i))});
  }
  log.compact_before(core::Timestamp{7, 0});  // folds ts 2,4,6
  // A late arrival between retained entries (above the cut).
  log.insert({core::Timestamp{9, 1}, al::Update{al::Update::Kind::kCancel, 4}});
  EXPECT_EQ(log.state(), log.recompute_naive());
  // state_before still works relative to the base.
  const auto s = log.state_before(core::Timestamp{10, 0});
  al::SmallAirline::State expect({}, {1, 2, 3});  // folded
  al::SmallAirline::apply(req(4), expect);
  al::SmallAirline::apply({al::Update::Kind::kCancel, 4}, expect);
  EXPECT_EQ(s, expect);
}

TEST(ClusterCompaction, StableQuiescentClusterFoldsEverything) {
  auto sc = harness::lan(3);
  sc.broadcast.anti_entropy_interval = 0.2;
  auto cfg = sc.cluster_config<Air>(1);
  cfg.compaction = true;
  shard::Cluster<Air> cluster(cfg);
  for (int i = 0; i < 30; ++i) {
    cluster.submit_at(0.1 * i, static_cast<core::NodeId>(i % 3),
                      al::Request::request(static_cast<al::Person>(i + 1)));
  }
  cluster.run_until(3.0);
  cluster.settle();
  // After quiescence plus a few announcement rounds, the stability point
  // passes every entry: logs shrink to (near) nothing while knowledge is
  // intact.
  cluster.run_until(cluster.scheduler().now() + 3.0);
  for (core::NodeId n = 0; n < 3; ++n) {
    EXPECT_EQ(cluster.node(n).updates_known(), 30u);
    EXPECT_LT(cluster.node(n).entries_retained(), 30u) << "node " << n;
    EXPECT_GT(cluster.node(n).engine_stats().entries_folded, 0u);
  }
  EXPECT_TRUE(cluster.converged());
}

TEST(ClusterCompaction, ExecutionTraceSurvivesCompaction) {
  // Prefix recording must still name folded transactions — the formal
  // trace and all its checks are unaffected by storage reclamation.
  auto sc = harness::wan(3);
  sc.broadcast.anti_entropy_interval = 0.2;
  auto cfg = sc.cluster_config<Air>(2);
  cfg.compaction = true;
  shard::Cluster<Air> cluster(cfg);
  harness::AirlineWorkload w;
  w.duration = 15.0;
  w.request_rate = 3.0;
  w.mover_rate = 3.0;
  harness::drive_airline(cluster, w, 3);
  cluster.run_until(w.duration);
  cluster.settle();
  cluster.run_until(cluster.scheduler().now() + 2.0);
  // Submit one more transaction whose prefix includes folded entries.
  cluster.submit_now(0, al::Request::move_up());
  cluster.settle();
  const auto exec = cluster.execution();
  const auto report = analysis::check_prefix_subsequence_condition(exec);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_TRUE(analysis::is_transitive(exec));
  // The last transaction saw everything (complete prefix), part via base.
  EXPECT_EQ(exec.missing_count(exec.size() - 1), 0u);
  // And compaction actually happened somewhere.
  std::uint64_t folded = 0;
  for (core::NodeId n = 0; n < 3; ++n) {
    folded += cluster.node(n).engine_stats().entries_folded;
  }
  EXPECT_GT(folded, 0u);
}

TEST(ClusterCompaction, PartitionBlocksCompactionUntilHeal) {
  // During a partition the far side's promises cannot advance here, so the
  // stability point freezes — nothing below safety is discarded.
  auto sc = harness::partitioned_wan(4, 1.0, 10.0);
  sc.broadcast.anti_entropy_interval = 0.2;
  auto cfg = sc.cluster_config<Air>(4);
  cfg.compaction = true;
  shard::Cluster<Air> cluster(cfg);
  for (int i = 0; i < 20; ++i) {
    cluster.submit_at(1.5 + 0.2 * i, static_cast<core::NodeId>(i % 4),
                      al::Request::request(static_cast<al::Person>(i + 1)));
  }
  cluster.run_until(9.0);
  // Mid-partition the stability point freezes at what pre-cut promises
  // covered — the far side's counters were still ~0 then, so at most the
  // very first timestamp(s) are foldable; everything submitted during the
  // cut stays retained.
  for (core::NodeId n = 0; n < 4; ++n) {
    EXPECT_LE(cluster.node(n).engine_stats().entries_folded, 1u)
        << "node " << n;
  }
  cluster.settle();
  cluster.run_until(cluster.scheduler().now() + 3.0);
  // After the heal, stability advances and folding resumes.
  std::uint64_t folded = 0;
  for (core::NodeId n = 0; n < 4; ++n) {
    folded += cluster.node(n).engine_stats().entries_folded;
  }
  EXPECT_GT(folded, 0u);
  EXPECT_TRUE(cluster.converged());
  EXPECT_EQ(cluster.node(0).state(), cluster.execution().final_state());
}

TEST(ClusterCompaction, SerializableReservationPinsStability) {
  // A pending reservation holds the node's own promise at its timestamp,
  // so no node can fold past it — compaction and mixed mode compose.
  auto sc = harness::partitioned_wan(4, 2.0, 8.0);
  sc.broadcast.anti_entropy_interval = 0.2;
  auto cfg = sc.cluster_config<Air>(5);
  cfg.compaction = true;
  shard::Cluster<Air> cluster(cfg);
  cluster.submit_at(0.5, 1, al::Request::request(1));
  // Bump node 0 then reserve during the cut (it must wait for the heal).
  cluster.submit_at(2.5, 0, al::Request::request(2));
  cluster.submit_serializable_at(3.0, 0, al::Request::move_up());
  cluster.submit_at(4.0, 2, al::Request::request(3));
  cluster.run_until(7.0);
  EXPECT_EQ(cluster.pending_serializable(), 1u);
  cluster.settle();
  cluster.run_until(cluster.scheduler().now() + 3.0);
  EXPECT_EQ(cluster.pending_serializable(), 0u);
  const auto exec = cluster.execution();
  EXPECT_TRUE(analysis::check_prefix_subsequence_condition(exec).ok());
  // The serializable tx still has a complete prefix.
  for (std::size_t i = 0; i < exec.size(); ++i) {
    for (const auto& rec : cluster.node(0).originated()) {
      if (rec.serializable && rec.ts == exec.tx(i).ts) {
        EXPECT_EQ(exec.missing_count(i), 0u);
      }
    }
  }
}

}  // namespace

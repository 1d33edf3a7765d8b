// Chaos suite: randomized partition schedules, crash/restart schedules,
// topologies, and workloads.
//
// Every run, whatever the failure pattern, must end with: converged
// replicas, a trace satisfying the section 3.1 conditions, transitivity
// (causal broadcast), Theorem 5 and Theorem 7 bounds, and the final state
// equal to the execution replay — the full guarantee stack under random
// fire. The crash tier adds node death and both recovery modes (durable /
// amnesia) on top of the link failures, and additionally demands that no
// decision ever re-ran (external actions fired exactly once).
#include <gtest/gtest.h>

#include "analysis/cost_bounds.hpp"
#include "analysis/execution_checker.hpp"
#include "apps/airline/airline.hpp"
#include "apps/banking/sharded.hpp"
#include "harness/scenario.hpp"
#include "harness/workload.hpp"
#include "shard/cluster.hpp"
#include "shard/partial.hpp"
#include "sim/fault_plan.hpp"
#include "sim/rng.hpp"

namespace {

namespace al = apps::airline;
using Air = al::BasicAirline<15, 900, 300>;

class Chaos : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Chaos, FullGuaranteeStackUnderRandomFailures) {
  sim::Rng rng(GetParam());
  const auto nodes = static_cast<std::size_t>(rng.uniform_int(2, 6));
  const double horizon = 25.0;

  harness::Scenario sc;
  sc.name = "chaos";
  sc.num_nodes = nodes;
  sc.network.delay = sim::Delay::exponential(rng.uniform(0.005, 0.05),
                                             rng.uniform(0.05, 0.3), 5.0);
  sc.network.drop_probability = rng.uniform(0.0, 0.3);
  sc.faults = sim::FaultPlan(GetParam() ^ 0x9afb);
  sc.faults.random_partitions(nodes, horizon,
                              static_cast<int>(rng.uniform_int(0, 3)));
  sc.broadcast.anti_entropy_interval = rng.uniform(0.2, 0.8);

  shard::Cluster<Air> cluster(sc.cluster_config<Air>(GetParam() ^ 0xc4a0));
  harness::AirlineWorkload w;
  w.duration = horizon;
  w.request_rate = rng.uniform(1.0, 5.0);
  w.mover_rate = rng.uniform(1.0, 6.0);
  w.move_down_fraction = rng.uniform(0.1, 0.5);
  w.cancel_fraction = rng.uniform(0.0, 0.3);
  w.max_persons = 200;
  harness::drive_airline(cluster, w, GetParam() ^ 0x5eed);

  cluster.run_until(horizon);
  cluster.settle();

  // 1. Mutual consistency.
  ASSERT_TRUE(cluster.converged());
  // 2. The trace is a valid §3.1 execution.
  const auto exec = cluster.execution();
  ASSERT_TRUE(analysis::check_prefix_subsequence_condition(exec).ok());
  // 3. Transitivity (causal broadcast).
  EXPECT_TRUE(analysis::is_transitive(exec));
  // 4. Replica state == formal replay.
  EXPECT_EQ(cluster.node(0).state(), exec.final_state());
  // 5. Cost-bound theorems.
  const auto preserves = [](const al::Request& r, int c) {
    return Air::Theory::preserves_cost(r, c);
  };
  const auto unsafe = [](const al::Request& r, int c) {
    return !Air::Theory::safe_for(r, c);
  };
  const auto f = [](int c, std::size_t k) {
    return Air::Theory::f_bound(c, k);
  };
  for (int c = 0; c < Air::kNumConstraints; ++c) {
    EXPECT_TRUE(analysis::check_theorem5(exec, c, preserves, f).ok());
  }
  EXPECT_TRUE(
      analysis::check_theorem7(exec, Air::kOverbooking, unsafe, f).ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, Chaos,
                         ::testing::Range<std::uint64_t>(1000, 1012));

/// The §3 guarantee stack an airline run must satisfy after any failure
/// pattern, plus the crash-specific demand: decisions ran exactly once
/// (zero re-fired external actions), which follows from every decision
/// producing exactly one recorded transaction.
void expect_full_stack(shard::Cluster<Air>& cluster) {
  ASSERT_TRUE(cluster.converged());
  const auto exec = cluster.execution();
  ASSERT_TRUE(analysis::check_prefix_subsequence_condition(exec).ok());
  EXPECT_TRUE(analysis::is_transitive(exec));
  EXPECT_EQ(cluster.node(0).state(), exec.final_state());
  EXPECT_EQ(cluster.aggregate_engine_stats().decisions_run, exec.size());
  const auto preserves = [](const al::Request& r, int c) {
    return Air::Theory::preserves_cost(r, c);
  };
  const auto unsafe = [](const al::Request& r, int c) {
    return !Air::Theory::safe_for(r, c);
  };
  const auto f = [](int c, std::size_t k) { return Air::Theory::f_bound(c, k); };
  for (int c = 0; c < Air::kNumConstraints; ++c) {
    EXPECT_TRUE(analysis::check_theorem5(exec, c, preserves, f).ok());
  }
  EXPECT_TRUE(analysis::check_theorem7(exec, Air::kOverbooking, unsafe, f).ok());
}

/// Crash-chaos tier: random crash/restart schedules (both recovery modes)
/// interleaved with random partition schedules and random drops; the full
/// checker stack must hold after every run.
class CrashChaos : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CrashChaos, FullGuaranteeStackUnderCrashesAndPartitions) {
  sim::Rng rng(GetParam());
  const auto nodes = static_cast<std::size_t>(rng.uniform_int(2, 6));
  const double horizon = 25.0;

  harness::Scenario sc;
  sc.name = "crash-chaos";
  sc.num_nodes = nodes;
  sc.network.delay = sim::Delay::exponential(rng.uniform(0.005, 0.05),
                                             rng.uniform(0.05, 0.3), 5.0);
  sc.network.drop_probability = rng.uniform(0.0, 0.25);
  sc.faults = sim::FaultPlan(GetParam() ^ 0x37c1);
  sc.faults.random_partitions(nodes, horizon,
                              static_cast<int>(rng.uniform_int(0, 3)));
  sc.faults.random_crashes(nodes, horizon,
                           static_cast<int>(rng.uniform_int(1, 4)),
                           /*min_down=*/1.0, /*max_down=*/6.0,
                           /*amnesia_probability=*/0.5);
  sc.broadcast.anti_entropy_interval = rng.uniform(0.2, 0.8);

  shard::Cluster<Air> cluster(sc.cluster_config<Air>(GetParam() ^ 0xc4a5));
  harness::AirlineWorkload w;
  w.duration = horizon;
  w.request_rate = rng.uniform(1.0, 5.0);
  w.mover_rate = rng.uniform(1.0, 6.0);
  w.move_down_fraction = rng.uniform(0.1, 0.5);
  w.cancel_fraction = rng.uniform(0.0, 0.3);
  w.max_persons = 200;
  harness::drive_airline(cluster, w, GetParam() ^ 0x5eed);

  cluster.run_until(horizon);
  cluster.settle();
  expect_full_stack(cluster);
  // Crashes really happened and every crashed node came back.
  const shard::EngineStats agg = cluster.aggregate_engine_stats();
  EXPECT_EQ(agg.crashes, sc.faults.crashes().size());
  EXPECT_EQ(agg.recoveries, agg.crashes);
  EXPECT_GT(agg.crashes, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashChaos,
                         ::testing::Range<std::uint64_t>(3000, 3012));

/// Acceptance pin: a run with >= 3 crash/restart events (both recovery
/// modes) and >= 2 partition windows ends converged, checker-clean, with
/// zero re-fired external actions and a nonzero catch-up.
TEST(CrashChaos, ThreeCrashesTwoPartitionsFullStack) {
  harness::Scenario sc = harness::wan(5);
  sc.faults.split_halves(5, 2, 4.0, 9.0)
      .isolate(4, 5, 12.0, 16.0)
      .crash(0, 3.0, 7.0, sim::RecoveryMode::kDurable)
      .crash(2, 6.0, 11.0, sim::RecoveryMode::kAmnesia)
      .crash(4, 14.0, 18.0, sim::RecoveryMode::kAmnesia);
  shard::Cluster<Air> cluster(sc.cluster_config<Air>(0xACCE));
  harness::AirlineWorkload w;
  w.duration = 22.0;
  w.request_rate = 4.0;
  w.mover_rate = 4.0;
  w.cancel_fraction = 0.15;
  harness::drive_airline(cluster, w, 0xACC5);
  cluster.run_until(w.duration);
  cluster.settle();
  expect_full_stack(cluster);
  const shard::EngineStats agg = cluster.aggregate_engine_stats();
  EXPECT_EQ(agg.crashes, 3u);
  EXPECT_EQ(agg.recoveries, 3u);
  EXPECT_GT(agg.catch_up_updates, 0u);
  EXPECT_GT(cluster.network().stats().dropped_crashed, 0u);
  EXPECT_GT(cluster.network().stats().dropped_partition, 0u);
}

class PartialChaos : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PartialChaos, ShardedBankingSurvivesRandomFailures) {
  namespace bk = apps::banking;
  sim::Rng rng(GetParam());
  const auto nodes = static_cast<std::size_t>(rng.uniform_int(3, 6));
  const auto groups = static_cast<std::size_t>(rng.uniform_int(4, 12));
  const auto r = static_cast<std::size_t>(
      rng.uniform_int(1, static_cast<std::int64_t>(nodes)));
  shard::PartialCluster<bk::ShardedBanking>::Config cfg;
  cfg.num_nodes = nodes;
  cfg.num_groups = groups;
  cfg.replication_factor = r;
  cfg.network.delay = sim::Delay::exponential(0.01, rng.uniform(0.02, 0.2), 3.0);
  cfg.network.drop_probability = rng.uniform(0.0, 0.25);
  cfg.faults = sim::FaultPlan(GetParam() ^ 0x9a28)
                   .random_partitions(nodes, 20.0,
                                      static_cast<int>(rng.uniform_int(0, 2)));
  cfg.anti_entropy_interval = 0.3;
  cfg.seed = GetParam() ^ 0x9a27;
  shard::PartialCluster<bk::ShardedBanking> cluster(cfg);
  for (int i = 0; i < 150; ++i) {
    const double t = rng.uniform(0.0, 20.0);
    const auto a = static_cast<bk::AccountId>(
        rng.uniform_int(0, static_cast<std::int64_t>(groups) - 1));
    const double roll = rng.uniform01();
    if (roll < 0.45) {
      cluster.submit_at(t, bk::ShardedRequest::deposit(a, rng.uniform_int(1, 80)));
    } else if (roll < 0.85) {
      cluster.submit_at(t, bk::ShardedRequest::withdraw(a, rng.uniform_int(1, 80)));
    } else {
      auto b = static_cast<bk::AccountId>(
          rng.uniform_int(0, static_cast<std::int64_t>(groups) - 1));
      if (b == a) b = static_cast<bk::AccountId>((b + 1) % groups);
      cluster.submit_at(t, bk::ShardedRequest::transfer(a, b, rng.uniform_int(1, 60)));
    }
  }
  cluster.run_until(20.0);
  cluster.settle();
  ASSERT_TRUE(cluster.converged());
  for (shard::GroupId g = 0; g < groups; ++g) {
    const auto exec = cluster.group_execution(g);
    ASSERT_EQ(exec.final_state(), cluster.group_state(g)) << "group " << g;
    for (std::size_t i = 1; i < exec.size(); ++i) {
      ASSERT_LT(exec.tx(i - 1).ts, exec.tx(i).ts);
    }
    // Expanded group prefixes (holes included under drops and cuts)
    // reference predecessors only, strictly increasing.
    for (std::size_t i = 0; i < exec.size(); ++i) {
      const auto& prefix = exec.tx(i).prefix;
      for (std::size_t j = 0; j < prefix.size(); ++j) {
        ASSERT_LT(prefix[j], i) << "group " << g << " tx " << i;
        if (j > 0) {
          ASSERT_LT(prefix[j - 1], prefix[j]) << "group " << g;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartialChaos,
                         ::testing::Range<std::uint64_t>(2000, 2008));

/// Rolling-restart tier (upgrade simulation): every node of a lossy WAN
/// cluster is restarted once, one at a time, while traffic keeps flowing.
/// Each node catches up on what it missed before the next goes down; the
/// full guarantee stack holds and every node crashed and recovered exactly
/// once.
class RollingRestartChaos : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RollingRestartChaos, EveryNodeRestartsOnceFullStack) {
  sim::Rng rng(GetParam());
  const auto nodes = static_cast<std::size_t>(rng.uniform_int(3, 6));
  const bool amnesia = rng.bernoulli(0.5);
  harness::Scenario sc = harness::rolling_restart(
      nodes, /*t0=*/4.0, /*down_for=*/rng.uniform(1.5, 3.0),
      /*gap=*/rng.uniform(0.5, 1.5),
      amnesia ? sim::RecoveryMode::kAmnesia : sim::RecoveryMode::kDurable);
  const double horizon = sc.faults.last_restart_time() + 4.0;

  shard::Cluster<Air> cluster(sc.cluster_config<Air>(GetParam() ^ 0x5c40));
  harness::AirlineWorkload w;
  w.duration = horizon;
  w.request_rate = rng.uniform(1.0, 4.0);
  w.mover_rate = rng.uniform(1.0, 5.0);
  w.cancel_fraction = rng.uniform(0.0, 0.3);
  w.max_persons = 200;
  harness::drive_airline(cluster, w, GetParam() ^ 0x5eed);

  cluster.run_until(horizon);
  cluster.settle();
  expect_full_stack(cluster);
  const shard::EngineStats agg = cluster.aggregate_engine_stats();
  EXPECT_EQ(agg.crashes, nodes);
  EXPECT_EQ(agg.recoveries, nodes);
  for (std::size_t n = 0; n < nodes; ++n) {
    EXPECT_EQ(cluster.node(n).engine_stats().crashes, 1u) << "node " << n;
    EXPECT_FALSE(cluster.node(n).down());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RollingRestartChaos,
                         ::testing::Range<std::uint64_t>(4000, 4008));

/// Correlated-fault tier: FaultPlan::chaos with rack power losses (a cut
/// whose smaller side also crashes for the window) and disk failures
/// (stale-checkpoint restarts) mixed into the random crash schedule. The
/// full stack must hold, and the crash count must match the plan exactly
/// (the generators never produce overlapping per-node windows).
class CorrelatedChaos : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CorrelatedChaos, RackLossesAndDiskFailuresFullStack) {
  sim::Rng rng(GetParam());
  const auto nodes = static_cast<std::size_t>(rng.uniform_int(3, 6));
  const double horizon = 25.0;

  sim::ChaosOptions opt;
  opt.partition_events = static_cast<int>(rng.uniform_int(1, 3));
  opt.crash_events = static_cast<int>(rng.uniform_int(1, 3));
  opt.rack_loss_probability = 0.6;
  opt.disk_failure_probability = 0.4;
  opt.amnesia_probability = 0.3;

  harness::Scenario sc;
  sc.name = "correlated-chaos";
  sc.num_nodes = nodes;
  sc.network.delay = sim::Delay::exponential(rng.uniform(0.005, 0.05),
                                             rng.uniform(0.05, 0.3), 5.0);
  sc.network.drop_probability = rng.uniform(0.0, 0.25);
  sc.faults = sim::FaultPlan::chaos(GetParam() ^ 0xc0fa, nodes, horizon, opt);
  sc.broadcast.anti_entropy_interval = rng.uniform(0.2, 0.8);

  shard::Cluster<Air> cluster(sc.cluster_config<Air>(GetParam() ^ 0xc4a7));
  harness::AirlineWorkload w;
  w.duration = horizon;
  w.request_rate = rng.uniform(1.0, 5.0);
  w.mover_rate = rng.uniform(1.0, 6.0);
  w.move_down_fraction = rng.uniform(0.1, 0.5);
  w.cancel_fraction = rng.uniform(0.0, 0.3);
  w.max_persons = 200;
  harness::drive_airline(cluster, w, GetParam() ^ 0x5eed);

  cluster.run_until(horizon);
  cluster.settle();
  expect_full_stack(cluster);
  const shard::EngineStats agg = cluster.aggregate_engine_stats();
  EXPECT_EQ(agg.crashes, sc.faults.crashes().size());
  EXPECT_EQ(agg.recoveries, agg.crashes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorrelatedChaos,
                         ::testing::Range<std::uint64_t>(5000, 5010));

TEST(ChaosEdge, TwoNodeTotalIsolationRecovers) {
  // The extreme: two nodes fully isolated for almost the whole run.
  harness::Scenario sc;
  sc.num_nodes = 2;
  sc.network.delay = sim::Delay::constant(0.01);
  sc.faults.split_halves(2, 1, 0.5, 30.0);
  sc.broadcast.anti_entropy_interval = 0.4;
  shard::Cluster<Air> cluster(sc.cluster_config<Air>(1));
  harness::AirlineWorkload w;
  w.duration = 28.0;
  w.request_rate = 2.0;
  w.mover_rate = 3.0;
  harness::drive_airline(cluster, w, 2);
  cluster.run_until(w.duration);
  cluster.settle();
  EXPECT_TRUE(cluster.converged());
  EXPECT_TRUE(analysis::check_prefix_subsequence_condition(
                  cluster.execution())
                  .ok());
}

TEST(ChaosEdge, SingleNodeClusterIsTriviallySerial) {
  harness::Scenario sc = harness::lan(1);
  shard::Cluster<Air> cluster(sc.cluster_config<Air>(3));
  harness::AirlineWorkload w;
  w.duration = 10.0;
  harness::drive_airline(cluster, w, 4);
  cluster.run_until(w.duration);
  cluster.settle();
  EXPECT_TRUE(cluster.converged());
  EXPECT_EQ(cluster.execution().max_missing(), 0u);
}

TEST(ChaosEdge, EmptyWorkloadIsFine) {
  harness::Scenario sc = harness::wan(3);
  shard::Cluster<Air> cluster(sc.cluster_config<Air>(5));
  cluster.run_until(5.0);
  cluster.settle();
  EXPECT_TRUE(cluster.converged());
  EXPECT_TRUE(cluster.execution().empty());
}

}  // namespace

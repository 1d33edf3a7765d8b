// Partial replication (paper section 6 extension): placement, routing,
// per-group convergence, cross-group transactions, the new unroutable
// failure mode, storage savings, and the key claim — every per-group
// projection is a SHARD execution satisfying the paper's conditions.
#include <gtest/gtest.h>

#include "apps/banking/sharded.hpp"
#include "apps/dictionary/sharded.hpp"
#include "harness/scenario.hpp"
#include "shard/partial.hpp"
#include "sim/fault_plan.hpp"
#include "sim/rng.hpp"

namespace {

namespace bk = apps::banking;
namespace dict = apps::dictionary;
using bk::ShardedBanking;
using bk::ShardedRequest;
using Dict8 = dict::ShardedDictionary<8>;

shard::PartialCluster<ShardedBanking>::Config bank_config(
    std::size_t nodes, std::size_t groups, std::size_t r,
    std::uint64_t seed) {
  shard::PartialCluster<ShardedBanking>::Config cfg;
  cfg.num_nodes = nodes;
  cfg.num_groups = groups;
  cfg.replication_factor = r;
  cfg.network.delay = sim::Delay::uniform(0.005, 0.05);
  cfg.anti_entropy_interval = 0.3;
  cfg.seed = seed;
  return cfg;
}

TEST(Partial, PlacementIsRoundRobinWithRequestedFactor) {
  shard::PartialCluster<ShardedBanking> cluster(bank_config(4, 8, 2, 1));
  for (shard::GroupId g = 0; g < 8; ++g) {
    const auto& reps = cluster.replicas_of(g);
    ASSERT_EQ(reps.size(), 2u);
    EXPECT_EQ(reps[0], g % 4);
    EXPECT_EQ(reps[1], (g + 1) % 4);
    for (core::NodeId n : reps) EXPECT_TRUE(cluster.hosts(n, g));
  }
  // Each node hosts 8 * 2 / 4 = 4 groups.
  for (core::NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(cluster.groups_hosted_at(n), 4u);
  }
}

TEST(Partial, InvalidReplicationFactorRejected) {
  EXPECT_THROW(shard::PartialCluster<ShardedBanking>(bank_config(4, 8, 0, 1)),
               std::invalid_argument);
  EXPECT_THROW(shard::PartialCluster<ShardedBanking>(bank_config(4, 8, 5, 1)),
               std::invalid_argument);
}

TEST(Partial, PlanWithFaultsItCannotExecuteRejected) {
  // A partial cluster executes the plan's cuts and nothing else; a crash,
  // a mid-broadcast crash or an armed adversary must not be dropped
  // silently.
  auto crashing = bank_config(4, 8, 2, 1);
  crashing.faults.crash(1, 1.0, 2.0);
  EXPECT_THROW(shard::PartialCluster<ShardedBanking>{crashing},
               std::invalid_argument);
  auto mid = bank_config(4, 8, 2, 1);
  mid.faults.crash_mid_broadcast(1, 3);
  EXPECT_THROW(shard::PartialCluster<ShardedBanking>{mid},
               std::invalid_argument);
  auto byzantine = bank_config(4, 8, 2, 1);
  byzantine.faults.byzantine_payload(0.5);
  EXPECT_THROW(shard::PartialCluster<ShardedBanking>{byzantine},
               std::invalid_argument);
  // Cuts alone are accepted.
  auto cut = bank_config(4, 8, 2, 1);
  cut.faults.split_halves(4, 2, 1.0, 2.0);
  EXPECT_NO_THROW(shard::PartialCluster<ShardedBanking>{cut});
}

TEST(Partial, SingleGroupRequestsRouteToHosts) {
  shard::PartialCluster<ShardedBanking> cluster(bank_config(4, 8, 2, 2));
  const auto node = cluster.route({3});
  ASSERT_TRUE(node.has_value());
  EXPECT_TRUE(cluster.hosts(*node, 3));
}

TEST(Partial, TransferNeedsCoHostedGroups) {
  // r=2, n=4: groups a and a+1 share node (a+1)%4; groups 0 and 2 share
  // nobody.
  shard::PartialCluster<ShardedBanking> cluster(bank_config(4, 8, 2, 3));
  EXPECT_TRUE(cluster.route({0, 1}).has_value());
  EXPECT_FALSE(cluster.route({0, 2}).has_value());
  // Full replication (r = n): everything routable.
  shard::PartialCluster<ShardedBanking> full(bank_config(4, 8, 4, 3));
  EXPECT_TRUE(full.route({0, 2}).has_value());
}

TEST(Partial, UnroutableRequestsCounted) {
  shard::PartialCluster<ShardedBanking> cluster(bank_config(4, 8, 2, 4));
  cluster.submit_at(0.1, ShardedRequest::deposit(0, 100));
  cluster.submit_at(0.2, ShardedRequest::transfer(0, 2, 10));  // unroutable
  cluster.run_until(1.0);
  EXPECT_EQ(cluster.stats().routed, 1u);
  EXPECT_EQ(cluster.stats().unroutable, 1u);
}

TEST(Partial, DepositWithdrawConvergePerGroup) {
  shard::PartialCluster<ShardedBanking> cluster(bank_config(4, 8, 3, 5));
  cluster.submit_at(0.1, ShardedRequest::deposit(2, 500));
  cluster.submit_at(0.5, ShardedRequest::withdraw(2, 200));
  cluster.run_until(1.0);
  cluster.settle();
  EXPECT_TRUE(cluster.converged());
  EXPECT_EQ(cluster.group_state(2).balance, 300);
}

TEST(Partial, TransferMovesMoneyAcrossGroups) {
  shard::PartialCluster<ShardedBanking> cluster(bank_config(4, 8, 2, 6));
  cluster.submit_at(0.1, ShardedRequest::deposit(1, 400));
  cluster.submit_at(1.0, ShardedRequest::transfer(1, 2, 150));
  cluster.run_until(2.0);
  cluster.settle();
  EXPECT_EQ(cluster.group_state(1).balance, 250);
  EXPECT_EQ(cluster.group_state(2).balance, 150);
}

TEST(Partial, StaleTransferCanOverdraftAndCoverCompensates) {
  // Two replicas of account 1 (nodes 1 and 2). Run two withdrawals at
  // different replicas before either propagates: both see the full
  // balance, both dispense — overdraft, exactly the full-replication
  // failure mode, now per group.
  auto cfg = bank_config(4, 8, 2, 7);
  cfg.network.delay = sim::Delay::constant(0.5);  // slow propagation
  shard::PartialCluster<ShardedBanking> cluster(cfg);
  cluster.submit_now_at(1, ShardedRequest::deposit(1, 100));
  cluster.settle();
  cluster.submit_now_at(1, ShardedRequest::withdraw(1, 80));
  cluster.submit_now_at(2, ShardedRequest::withdraw(1, 80));  // stale view
  cluster.settle();
  EXPECT_EQ(cluster.group_state(1).balance, -60);
  EXPECT_DOUBLE_EQ(ShardedBanking::cost(cluster.group_state(1), 0), 60.0);
  cluster.submit_now_at(1, ShardedRequest::cover(1));
  cluster.settle();
  EXPECT_EQ(cluster.group_state(1).balance, 0);
}

TEST(Partial, GroupExecutionSatisfiesStructuralConditions) {
  shard::PartialCluster<ShardedBanking> cluster(bank_config(4, 8, 2, 8));
  sim::Rng rng(9);
  for (int i = 0; i < 60; ++i) {
    const auto a = static_cast<bk::AccountId>(rng.uniform_int(0, 7));
    const double t = rng.uniform(0.0, 10.0);
    if (rng.bernoulli(0.6)) {
      cluster.submit_at(t, ShardedRequest::deposit(a, rng.uniform_int(1, 50)));
    } else {
      cluster.submit_at(t, ShardedRequest::withdraw(a, rng.uniform_int(1, 50)));
    }
  }
  cluster.run_until(10.0);
  cluster.settle();
  for (shard::GroupId g = 0; g < 8; ++g) {
    const auto exec = cluster.group_execution(g);
    // Structural §3.1 conditions: prefixes reference predecessors only,
    // strictly increasing; serial order = timestamp order; replaying the
    // execution reproduces the replicas' state.
    for (std::size_t i = 0; i < exec.size(); ++i) {
      const auto& prefix = exec.tx(i).prefix;
      for (std::size_t j = 0; j < prefix.size(); ++j) {
        EXPECT_LT(prefix[j], i);
        if (j > 0) {
          EXPECT_LT(prefix[j - 1], prefix[j]);
        }
      }
      if (i > 0) {
        EXPECT_LT(exec.tx(i - 1).ts, exec.tx(i).ts);
      }
    }
    EXPECT_EQ(exec.final_state(), cluster.group_state(g));
  }
}

TEST(Partial, GroupPrefixRecordsHoleAndExpandsAroundIt) {
  // Node 0's first deposit is lost to the cut and anti-entropy has not run
  // yet, so node 1 withdraws having merged only the second one: its
  // interned group prefix holds rank 0's seq 2 as an extra above an empty
  // contiguous prefix, and expands to exactly that deposit.
  shard::PartialCluster<ShardedBanking>::Config cfg;
  cfg.num_nodes = 2;
  cfg.num_groups = 1;
  cfg.replication_factor = 2;
  cfg.network.delay = sim::Delay::constant(0.01);
  cfg.faults.split_halves(2, 1, 1.0, 2.0);
  cfg.anti_entropy_interval = 5.0;
  shard::PartialCluster<ShardedBanking> cluster(cfg);
  cluster.run_until(1.5);
  cluster.submit_now_at(0, ShardedRequest::deposit(0, 100));
  cluster.run_until(2.5);
  cluster.submit_now_at(0, ShardedRequest::deposit(0, 100));
  cluster.run_until(3.0);
  const auto withdrawal =
      cluster.submit_now_at(1, ShardedRequest::withdraw(0, 50));
  const core::PrefixRef& prefix = withdrawal.group_prefixes.at(0);
  EXPECT_EQ(prefix.contiguous, (std::vector<std::uint64_t>{0, 0}));
  EXPECT_EQ(prefix.extras,
            (std::vector<std::pair<core::NodeId, std::uint64_t>>{{0, 2}}));

  cluster.settle();
  const auto exec = cluster.group_execution(0);
  ASSERT_EQ(exec.size(), 3u);
  EXPECT_EQ(exec.tx(2).ts, withdrawal.ts);
  EXPECT_EQ(exec.tx(2).prefix, (std::vector<std::size_t>{1}));
  EXPECT_EQ(exec.missing_count(2), 1u);
}

TEST(Partial, PerGroupOverdraftBoundHolds) {
  // The Corollary-8 analogue, group-wise: group overdraft <= sum of debit
  // amounts over that group's transactions with missing group-prefixes.
  auto cfg = bank_config(4, 8, 2, 10);
  cfg.network.delay = sim::Delay::exponential(0.05, 0.3, 3.0);
  shard::PartialCluster<ShardedBanking> cluster(cfg);
  sim::Rng rng(11);
  for (bk::AccountId a = 0; a < 8; ++a) {
    cluster.submit_at(0.1, ShardedRequest::deposit(a, 120));
  }
  for (int i = 0; i < 120; ++i) {
    const auto a = static_cast<bk::AccountId>(rng.uniform_int(0, 7));
    cluster.submit_at(rng.uniform(0.5, 12.0),
                      ShardedRequest::withdraw(a, rng.uniform_int(1, 60)));
  }
  cluster.run_until(12.0);
  cluster.settle();
  for (shard::GroupId g = 0; g < 8; ++g) {
    const auto exec = cluster.group_execution(g);
    double bound = 0.0;
    for (std::size_t i = 0; i < exec.size(); ++i) {
      if (exec.tx(i).update.kind == bk::ShardedUpdate::Kind::kDebit &&
          exec.missing_count(i) > 0) {
        bound += static_cast<double>(exec.tx(i).update.amount);
      }
    }
    for (const auto& s : exec.actual_states()) {
      EXPECT_LE(ShardedBanking::cost(s, 0), bound + 1e-9) << "group " << g;
    }
  }
}

TEST(Partial, DictionaryShardsConvergeUnderPartition) {
  shard::PartialCluster<Dict8>::Config cfg;
  cfg.num_nodes = 4;
  cfg.num_groups = 8;
  cfg.replication_factor = 2;
  cfg.network.delay = sim::Delay::uniform(0.01, 0.08);
  cfg.faults.split_halves(4, 2, 1.0, 6.0);
  cfg.anti_entropy_interval = 0.3;
  cfg.seed = 12;
  shard::PartialCluster<Dict8> cluster(cfg);
  sim::Rng rng(13);
  for (int i = 0; i < 80; ++i) {
    const auto key = static_cast<dict::Key>(rng.uniform_int(0, 40));
    cluster.submit_at(rng.uniform(0.0, 8.0),
                      dict::Request::insert(key, "v" + std::to_string(i)));
  }
  cluster.run_until(8.0);
  cluster.settle();
  EXPECT_TRUE(cluster.converged());
  EXPECT_GT(cluster.stats().routed, 0u);
  EXPECT_EQ(cluster.stats().unroutable, 0u);  // single-group requests
}

TEST(Partial, StorageScalesWithReplicationFactor) {
  const auto run = [](std::size_t r) {
    shard::PartialCluster<ShardedBanking> cluster(bank_config(4, 8, r, 14));
    for (int i = 0; i < 40; ++i) {
      cluster.submit_at(0.1 * i, ShardedRequest::deposit(
                                     static_cast<bk::AccountId>(i % 8), 10));
    }
    cluster.run_until(10.0);
    cluster.settle();
    std::size_t total = 0;
    for (core::NodeId n = 0; n < 4; ++n) total += cluster.storage_at(n);
    return total;
  };
  const auto s2 = run(2);
  const auto s4 = run(4);
  EXPECT_EQ(s2, 40u * 2u);
  EXPECT_EQ(s4, 40u * 4u);  // full replication doubles the storage
}

}  // namespace

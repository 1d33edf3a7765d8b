// Harness coverage: workload generators (determinism, routing policies,
// rate shapes, the unique-request property the witness theorems rely on)
// and scenario profiles.
#include <gtest/gtest.h>

#include <map>

#include "apps/airline/airline.hpp"
#include "harness/scenario.hpp"
#include "harness/workload.hpp"
#include "shard/cluster.hpp"

namespace {

namespace al = apps::airline;
using Air = al::BasicAirline<20, 900, 300>;

harness::AirlineWorkload base_workload() {
  harness::AirlineWorkload w;
  w.duration = 20.0;
  w.request_rate = 4.0;
  w.mover_rate = 3.0;
  w.cancel_fraction = 0.3;
  w.max_persons = 200;
  return w;
}

TEST(Workload, DeterministicScheduleForSameSeed) {
  const auto gen = [](std::uint64_t seed) {
    auto sc = harness::lan(3);
    shard::Cluster<Air> cluster(sc.cluster_config<Air>(1));
    return harness::drive_airline(cluster, base_workload(), seed);
  };
  const auto a = gen(42);
  const auto b = gen(42);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].time, b[i].time);
    EXPECT_EQ(a[i].node, b[i].node);
    EXPECT_EQ(a[i].request, b[i].request);
  }
}

TEST(Workload, AtMostOneRequestPerPersonByDefault) {
  // The property the section 5.3 witness machinery assumes (see
  // witness.hpp): with duplicate_request_fraction = 0, each person is
  // REQUESTed at most once (cancels are fine).
  auto sc = harness::lan(3);
  shard::Cluster<Air> cluster(sc.cluster_config<Air>(2));
  const auto schedule = harness::drive_airline(cluster, base_workload(), 7);
  std::map<al::Person, int> requests;
  for (const auto& sub : schedule) {
    if (sub.request.kind == al::Request::Kind::kRequest) {
      ++requests[sub.request.person];
    }
  }
  for (const auto& [p, n] : requests) EXPECT_EQ(n, 1) << "person " << p;
}

TEST(Workload, DuplicateFractionProducesDuplicates) {
  auto w = base_workload();
  w.duplicate_request_fraction = 0.5;
  auto sc = harness::lan(3);
  shard::Cluster<Air> cluster(sc.cluster_config<Air>(3));
  const auto schedule = harness::drive_airline(cluster, w, 8);
  std::map<al::Person, int> requests;
  for (const auto& sub : schedule) {
    if (sub.request.kind == al::Request::Kind::kRequest) {
      ++requests[sub.request.person];
    }
  }
  int dups = 0;
  for (const auto& [p, n] : requests) {
    if (n > 1) ++dups;
  }
  EXPECT_GT(dups, 0);
}

TEST(Workload, CentralizeMoversRoutesAllMoversToNode0) {
  auto w = base_workload();
  w.routing = harness::Routing::kCentralizeMovers;
  auto sc = harness::lan(4);
  shard::Cluster<Air> cluster(sc.cluster_config<Air>(4));
  const auto schedule = harness::drive_airline(cluster, w, 9);
  bool any_nonzero_nonmover = false;
  for (const auto& sub : schedule) {
    const bool mover = sub.request.kind == al::Request::Kind::kMoveUp ||
                       sub.request.kind == al::Request::Kind::kMoveDown;
    if (mover) {
      EXPECT_EQ(sub.node, 0u) << sub.request.to_string();
    } else if (sub.node != 0) {
      any_nonzero_nonmover = true;
    }
  }
  EXPECT_TRUE(any_nonzero_nonmover);  // the rest stays spread out
}

TEST(Workload, CentralizeAllPinsEverything) {
  auto w = base_workload();
  w.routing = harness::Routing::kCentralizeAll;
  auto sc = harness::lan(4);
  shard::Cluster<Air> cluster(sc.cluster_config<Air>(5));
  for (const auto& sub : harness::drive_airline(cluster, w, 10)) {
    EXPECT_EQ(sub.node, 0u);
  }
}

TEST(Workload, RatesApproximatelyHonored) {
  auto w = base_workload();
  w.duration = 100.0;
  w.request_rate = 3.0;
  w.mover_rate = 5.0;
  w.cancel_fraction = 0.0;
  w.max_persons = 10000;
  auto sc = harness::lan(3);
  shard::Cluster<Air> cluster(sc.cluster_config<Air>(6));
  const auto schedule = harness::drive_airline(cluster, w, 11);
  std::size_t requests = 0, movers = 0;
  for (const auto& sub : schedule) {
    if (sub.request.kind == al::Request::Kind::kRequest) ++requests;
    if (sub.request.kind == al::Request::Kind::kMoveUp ||
        sub.request.kind == al::Request::Kind::kMoveDown) {
      ++movers;
    }
  }
  // Poisson(rate * duration): within +-35% is a safe band.
  EXPECT_GT(requests, 195u);
  EXPECT_LT(requests, 405u);
  EXPECT_GT(movers, 325u);
  EXPECT_LT(movers, 675u);
}

TEST(Workload, CancelsComeAfterTheirRequests) {
  auto w = base_workload();
  w.cancel_fraction = 1.0;  // everyone cancels (if within duration)
  auto sc = harness::lan(3);
  shard::Cluster<Air> cluster(sc.cluster_config<Air>(7));
  const auto schedule = harness::drive_airline(cluster, w, 12);
  std::map<al::Person, double> request_time;
  for (const auto& sub : schedule) {
    if (sub.request.kind == al::Request::Kind::kRequest) {
      request_time[sub.request.person] = sub.time;
    }
  }
  for (const auto& sub : schedule) {
    if (sub.request.kind == al::Request::Kind::kCancel) {
      ASSERT_TRUE(request_time.contains(sub.request.person));
      EXPECT_GT(sub.time, request_time[sub.request.person]);
    }
  }
}

TEST(Scenario, ProfilesHaveExpectedShapes) {
  const auto lan = harness::lan(5);
  EXPECT_EQ(lan.num_nodes, 5u);
  EXPECT_DOUBLE_EQ(lan.network.drop_probability, 0.0);
  EXPECT_FALSE(lan.faults.partitioned_at(1.0));
  EXPECT_LE(lan.network.delay.upper_bound(), 0.01);

  const auto wan = harness::wan(4);
  EXPECT_GT(wan.network.drop_probability, 0.0);
  EXPECT_GT(wan.network.delay.upper_bound(), lan.network.delay.upper_bound());

  const auto part = harness::partitioned_wan(4, 2.0, 9.0);
  EXPECT_TRUE(part.faults.partitioned_at(5.0));
  EXPECT_FALSE(part.faults.partitioned_at(9.5));
  EXPECT_FALSE(part.faults.connected(0, 3, 5.0));
  EXPECT_TRUE(part.faults.connected(0, 1, 5.0));

  const auto flaky = harness::flaky_node(4, 1.0, 3.0);
  EXPECT_FALSE(flaky.faults.connected(3, 0, 2.0));
  EXPECT_TRUE(flaky.faults.connected(0, 1, 2.0));

  const auto roll = harness::rolling_restart(4, 1.0, 2.0, 0.5);
  EXPECT_EQ(roll.faults.crashes().size(), 4u);
  EXPECT_TRUE(roll.faults.down(0, 1.5));
  EXPECT_FALSE(roll.faults.down(1, 1.5));  // one node at a time
  EXPECT_DOUBLE_EQ(roll.faults.last_restart_time(), 1.0 + 3 * 2.5 + 2.0);
}

TEST(Scenario, ClusterConfigCarriesEverything) {
  // Every ClusterConfig field set on the scenario reaches the config; the
  // seed is cluster_config's argument, whatever the scenario holds.
  auto sc = harness::partitioned_wan(4, 1.0, 2.0);
  sc.seed = 5;
  sc.network.drop_probability = 0.125;
  sc.broadcast.flood = false;
  sc.broadcast.causal = false;
  sc.broadcast.anti_entropy_interval = 0.7;
  sc.broadcast.anti_entropy_jitter = 0.3;
  sc.broadcast.max_repairs_per_message = 3;
  sc.broadcast.prune_repair_store = true;
  sc.broadcast.max_batch = 8;
  sc.checkpoint_interval = 5;
  sc.max_checkpoints = 6;
  sc.compaction = true;
  sc.trace.enabled = true;
  sc.trace.ring_capacity = 123;
  sc.metrics_series = true;
  sc.faults.crash(2, 3.0, 4.0, sim::RecoveryMode::kAmnesia)
      .byzantine_payload(0.25, 0.5, 0.125, 1.0, 9.0);
  const auto cfg = sc.cluster_config<Air>(77);
  EXPECT_EQ(cfg.seed, 77u);
  EXPECT_EQ(cfg.num_nodes, 4u);
  EXPECT_EQ(cfg.network.delay.describe(), sc.network.delay.describe());
  EXPECT_DOUBLE_EQ(cfg.network.drop_probability, 0.125);
  EXPECT_FALSE(cfg.broadcast.flood);
  EXPECT_FALSE(cfg.broadcast.causal);
  EXPECT_DOUBLE_EQ(cfg.broadcast.anti_entropy_interval, 0.7);
  EXPECT_DOUBLE_EQ(cfg.broadcast.anti_entropy_jitter, 0.3);
  EXPECT_EQ(cfg.broadcast.max_repairs_per_message, 3u);
  EXPECT_TRUE(cfg.broadcast.prune_repair_store);
  EXPECT_EQ(cfg.broadcast.max_batch, 8u);
  EXPECT_EQ(cfg.checkpoint_interval, 5u);
  EXPECT_EQ(cfg.max_checkpoints, 6u);
  EXPECT_TRUE(cfg.compaction);
  EXPECT_TRUE(cfg.trace.enabled);
  EXPECT_EQ(cfg.trace.ring_capacity, 123u);
  EXPECT_TRUE(cfg.metrics_series);
  // The plan arrives whole: cut, crash window and armed adversary.
  EXPECT_EQ(cfg.faults.describe(), sc.faults.describe());
  EXPECT_TRUE(cfg.faults.partitioned_at(1.5));
  ASSERT_EQ(cfg.faults.crashes().size(), 1u);
  EXPECT_TRUE(cfg.faults.down(2, 3.5));
  EXPECT_EQ(cfg.faults.crashes()[0].mode, sim::RecoveryMode::kAmnesia);
  const sim::ByzantineOptions& byz = cfg.faults.byzantine();
  EXPECT_TRUE(byz.enabled);
  EXPECT_DOUBLE_EQ(byz.corrupt_probability, 0.25);
  EXPECT_DOUBLE_EQ(byz.duplicate_probability, 0.5);
  EXPECT_DOUBLE_EQ(byz.reorder_probability, 0.125);
  EXPECT_DOUBLE_EQ(byz.start, 1.0);
  EXPECT_DOUBLE_EQ(byz.end, 9.0);
  EXPECT_EQ(byz.seed, sc.faults.byzantine().seed);
}

TEST(Workload, BankingMixFollowsFractions) {
  auto sc = harness::lan(3);
  shard::Cluster<apps::banking::Banking> cluster(
      sc.cluster_config<apps::banking::Banking>(8));
  harness::BankingWorkload w;
  w.duration = 200.0;
  w.tx_rate = 5.0;
  const auto schedule = harness::drive_banking(cluster, w, 13);
  std::size_t deposits = 0, total = schedule.size();
  for (const auto& sub : schedule) {
    if (sub.request.kind == apps::banking::Request::Kind::kDeposit) {
      ++deposits;
    }
  }
  ASSERT_GT(total, 500u);
  const double frac = static_cast<double>(deposits) / total;
  EXPECT_NEAR(frac, w.deposit_fraction, 0.08);
}

TEST(Workload, InventoryStreamsAllKindsPresent) {
  auto sc = harness::lan(3);
  shard::Cluster<apps::inventory::Inventory> cluster(
      sc.cluster_config<apps::inventory::Inventory>(9));
  harness::InventoryWorkload w;
  w.duration = 60.0;
  const auto schedule = harness::drive_inventory(cluster, w, 14);
  std::map<apps::inventory::Request::Kind, int> kinds;
  for (const auto& sub : schedule) ++kinds[sub.request.kind];
  EXPECT_GT(kinds[apps::inventory::Request::Kind::kOrder], 0);
  EXPECT_GT(kinds[apps::inventory::Request::Kind::kFulfill], 0);
  EXPECT_GT(kinds[apps::inventory::Request::Kind::kRestock], 0);
  EXPECT_GT(kinds[apps::inventory::Request::Kind::kRelease], 0);
}

}  // namespace

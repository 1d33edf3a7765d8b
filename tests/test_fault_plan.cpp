// sim::FaultPlan — the unified fault-injection builder (fault-injection v2).
//
// These are unit tests of the plan itself: composition, validation, seeded
// determinism, the correlated builders (rack power loss, rolling restart,
// chaos), and the Byzantine payload adversary's config surface. End-to-end
// behavior of the fault modes lives in test_crash_recovery.cpp,
// test_chaos.cpp and test_checker_sensitivity.cpp.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "sim/fault_plan.hpp"

namespace {

TEST(FaultPlan, ComposesCrashesAndPartitionsFluently) {
  sim::FaultPlan plan;
  plan.crash(0, 1.0, 3.0)
      .split_halves(4, 2, 2.0, 6.0)
      .crash(1, 4.0, 5.0, sim::RecoveryMode::kAmnesia)
      .isolate(3, 4, 7.0, 9.0);
  EXPECT_EQ(plan.crashes().size(), 2u);
  EXPECT_EQ(plan.partitions().size(), 2u);
  EXPECT_TRUE(plan.down(0, 2.0));
  EXPECT_FALSE(plan.connected(0, 2, 3.0));
  EXPECT_FALSE(plan.connected(3, 0, 8.0));
  EXPECT_TRUE(plan.partitioned_at(8.0));
  EXPECT_FALSE(plan.partitioned_at(9.5));
  EXPECT_DOUBLE_EQ(plan.last_heal_time(), 9.0);
  EXPECT_DOUBLE_EQ(plan.last_restart_time(), 5.0);
  EXPECT_DOUBLE_EQ(plan.all_clear_time(), 9.0);
  EXPECT_FALSE(plan.empty());
}

TEST(FaultPlan, EmptyPlanDescribesItself) {
  sim::FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.describe(), "no faults");
}

TEST(FaultPlan, DescribeCoversEveryFaultClass) {
  sim::FaultPlan plan;
  plan.disk_failure(0, 1.0, 2.0, 0.5)
      .split_halves(3, 1, 1.0, 4.0)
      .crash_mid_broadcast(2, 3);
  const std::string d = plan.describe();
  EXPECT_NE(d.find("stale-disk"), std::string::npos);
  EXPECT_NE(d.find("keep=0.5"), std::string::npos);
  EXPECT_NE(d.find("partition"), std::string::npos);
  EXPECT_NE(d.find("mid-broadcast"), std::string::npos);
  EXPECT_NE(d.find("node 2@seq 3"), std::string::npos);
}

TEST(FaultPlan, RejectsInvalidWindowsAndFractions) {
  sim::FaultPlan plan;
  plan.crash(0, 1.0, 2.0);
  EXPECT_THROW(plan.crash(0, 1.5, 2.5), std::invalid_argument);  // overlap
  EXPECT_THROW(plan.crash(1, 2.0, 2.0), std::invalid_argument);  // empty
  EXPECT_THROW(plan.disk_failure(1, 1.0, 2.0, 1.5), std::invalid_argument);
  EXPECT_THROW(plan.disk_failure(1, 1.0, 2.0, -0.1), std::invalid_argument);
  EXPECT_THROW(plan.crash_mid_broadcast(0, 0), std::invalid_argument);
  EXPECT_THROW(plan.crash_mid_broadcast(0, 1, 0.0), std::invalid_argument);
  plan.crash_mid_broadcast(0, 1);
  EXPECT_THROW(plan.crash_mid_broadcast(0, 1), std::invalid_argument);
  EXPECT_NO_THROW(plan.crash_mid_broadcast(0, 2));
  EXPECT_NO_THROW(plan.crash_mid_broadcast(1, 1));
  EXPECT_THROW(plan.rack_power_loss({}, 4, 1.0, 2.0), std::invalid_argument);
  EXPECT_THROW(plan.rolling_restart(3, 0.0, 0.0), std::invalid_argument);
}

TEST(FaultPlan, DiskFailureDrawsSeededFraction) {
  sim::FaultPlan a(123), b(123), c(456);
  a.disk_failure(0, 1.0, 2.0);
  b.disk_failure(0, 1.0, 2.0);
  c.disk_failure(0, 1.0, 2.0);
  const auto frac = [](const sim::FaultPlan& p) {
    return p.crashes().front().keep_fraction;
  };
  // Same seed -> same draw; drawn fractions stay in the interesting band.
  EXPECT_DOUBLE_EQ(frac(a), frac(b));
  EXPECT_GE(frac(a), 0.1);
  EXPECT_LT(frac(a), 0.9);
  EXPECT_NE(frac(a), frac(c));
  EXPECT_EQ(static_cast<int>(a.crashes().front().mode),
            static_cast<int>(sim::RecoveryMode::kStaleDisk));
  // The explicit-fraction overload must not consume the plan's RNG: the
  // next seeded draw matches a plan that never made the explicit call.
  sim::FaultPlan d(123);
  d.disk_failure(9, 50.0, 51.0, 0.25).disk_failure(0, 1.0, 2.0);
  EXPECT_DOUBLE_EQ(d.crashes().back().keep_fraction, frac(a));
}

TEST(FaultPlan, RackPowerLossCorrelatesPartitionAndCrashes) {
  sim::FaultPlan plan;
  plan.rack_power_loss({1, 3}, 5, 2.0, 6.0, sim::RecoveryMode::kAmnesia);
  // One cut: {1,3} vs {0,2,4}.
  ASSERT_EQ(plan.partitions().size(), 1u);
  EXPECT_FALSE(plan.connected(1, 0, 3.0));
  EXPECT_TRUE(plan.connected(1, 3, 3.0));   // intra-rack link stays up
  EXPECT_TRUE(plan.connected(0, 4, 3.0));   // rest unaffected
  // Every rack node crashes for exactly the same window.
  ASSERT_EQ(plan.crashes().size(), 2u);
  for (const auto& ev : plan.crashes()) {
    EXPECT_TRUE(ev.node == 1 || ev.node == 3);
    EXPECT_DOUBLE_EQ(ev.start, 2.0);
    EXPECT_DOUBLE_EQ(ev.end, 6.0);
    EXPECT_EQ(static_cast<int>(ev.mode),
              static_cast<int>(sim::RecoveryMode::kAmnesia));
  }
  EXPECT_DOUBLE_EQ(plan.all_clear_time(), 6.0);
}

TEST(FaultPlan, RollingRestartStaggersNonOverlappingWindows) {
  sim::FaultPlan plan;
  plan.rolling_restart(4, 1.0, 2.0, 0.5);
  const auto& events = plan.crashes();
  ASSERT_EQ(events.size(), 4u);
  for (sim::NodeId i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].node, i);
    EXPECT_DOUBLE_EQ(events[i].start, 1.0 + 2.5 * i);
    EXPECT_DOUBLE_EQ(events[i].end, 3.0 + 2.5 * i);
  }
  // At most one node down at any instant (quorum stays live).
  for (double t = 0.0; t < 12.0; t += 0.1) {
    int down = 0;
    for (sim::NodeId n = 0; n < 4; ++n) down += plan.down(n, t) ? 1 : 0;
    EXPECT_LE(down, 1) << "t=" << t;
  }
  EXPECT_DOUBLE_EQ(plan.last_restart_time(), 10.5);
}

TEST(FaultPlan, RandomGenerationIsSeedDeterministic) {
  const auto build = [](std::uint64_t seed) {
    sim::FaultPlan plan(seed);
    plan.random_partitions(5, 30.0, 3);
    plan.random_crashes(5, 30.0, 4, 1.0, 4.0, 0.4, 0.3);
    return plan;
  };
  const sim::FaultPlan a = build(99), b = build(99);
  EXPECT_EQ(a.describe(), b.describe());
  ASSERT_EQ(a.crashes().size(), b.crashes().size());
  ASSERT_EQ(a.partitions().size(), b.partitions().size());
  EXPECT_NE(a.describe(), build(100).describe());
}

TEST(FaultPlan, ChaosProducesValidCorrelatedPlans) {
  sim::ChaosOptions opt;
  opt.partition_events = 3;
  opt.crash_events = 3;
  opt.rack_loss_probability = 1.0;  // every cut is a rack power loss
  opt.disk_failure_probability = 0.5;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const sim::FaultPlan plan = sim::FaultPlan::chaos(seed, 5, 20.0, opt);
    // Valid: per-node crash windows never overlap, nodes in range.
    const auto& events = plan.crashes();
    for (const auto& ev : events) {
      EXPECT_LT(ev.node, 5u);
      EXPECT_LT(ev.start, ev.end);
      if (ev.mode == sim::RecoveryMode::kStaleDisk) {
        EXPECT_GE(ev.keep_fraction, 0.1);
        EXPECT_LT(ev.keep_fraction, 0.9);
      }
      for (const auto& other : events) {
        if (&ev == &other || ev.node != other.node) continue;
        EXPECT_TRUE(ev.end <= other.start || other.end <= ev.start);
      }
    }
    EXPECT_FALSE(plan.partitions().empty());
    // Deterministic.
    EXPECT_EQ(plan.describe(),
              sim::FaultPlan::chaos(seed, 5, 20.0, opt).describe());
  }
}

TEST(FaultPlan, ByzantinePayloadValidatesAndDescribes) {
  sim::FaultPlan plan;
  EXPECT_FALSE(plan.byzantine().enabled);
  EXPECT_THROW(plan.byzantine_payload(1.5), std::invalid_argument);
  EXPECT_THROW(plan.byzantine_payload(0.1, -0.1), std::invalid_argument);
  EXPECT_THROW(plan.byzantine_payload(0.1, 0.0, 0.0, 5.0, 5.0),
               std::invalid_argument);
  EXPECT_FALSE(plan.byzantine().enabled);  // failed arming leaves it off
  EXPECT_TRUE(plan.empty());
  plan.byzantine_payload(0.2, 0.1, 0.05, 1.0, 9.0);
  EXPECT_TRUE(plan.byzantine().enabled);
  EXPECT_FALSE(plan.empty());
  EXPECT_DOUBLE_EQ(plan.byzantine().corrupt_probability, 0.2);
  EXPECT_DOUBLE_EQ(plan.byzantine().duplicate_probability, 0.1);
  EXPECT_DOUBLE_EQ(plan.byzantine().reorder_probability, 0.05);
  EXPECT_NE(plan.describe().find("byzantine"), std::string::npos);
  // The adversary seed is drawn from the plan's stream: same plan seed,
  // same adversary seed; different plan seed, different adversary.
  sim::FaultPlan a(7), b(7), c(8);
  a.byzantine_payload(0.2);
  b.byzantine_payload(0.2);
  c.byzantine_payload(0.2);
  EXPECT_EQ(a.byzantine().seed, b.byzantine().seed);
  EXPECT_NE(a.byzantine().seed, c.byzantine().seed);
}

TEST(FaultPlan, MidBroadcastCrashesAreNotPartOfAllClear) {
  sim::FaultPlan plan;
  plan.crash(0, 1.0, 2.0).crash_mid_broadcast(1, 5, /*down_for=*/50.0);
  ASSERT_EQ(plan.mid_broadcast_crashes().size(), 1u);
  EXPECT_EQ(plan.mid_broadcast_crashes()[0].node, 1u);
  EXPECT_EQ(plan.mid_broadcast_crashes()[0].broadcast_seq, 5u);
  // Dynamic faults fire only if the node reaches the seq — they have no
  // static schedule, so they don't extend the all-clear horizon.
  EXPECT_DOUBLE_EQ(plan.all_clear_time(), 2.0);
  EXPECT_FALSE(plan.empty());
}

}  // namespace

// Unit tests for the discrete-event simulator: scheduler ordering and
// cancellation, RNG determinism, delay models, partition schedules, and the
// network layer's delivery/drop behaviour.
#include <gtest/gtest.h>

#include <any>
#include <string>
#include <vector>

#include "sim/delay.hpp"
#include "sim/fault_plan.hpp"
#include "sim/network.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"

namespace {

TEST(Scheduler, ExecutesInTimeOrder) {
  sim::Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(3.0, [&] { order.push_back(3); });
  sched.schedule_at(1.0, [&] { order.push_back(1); });
  sched.schedule_at(2.0, [&] { order.push_back(2); });
  EXPECT_EQ(sched.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sched.now(), 3.0);
}

TEST(Scheduler, TiesBreakByInsertionOrder) {
  sim::Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sched.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  sched.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Scheduler, ScheduleAfterUsesCurrentTime) {
  sim::Scheduler sched;
  double fired_at = -1.0;
  sched.schedule_at(5.0, [&] {
    sched.schedule_after(2.5, [&] { fired_at = sched.now(); });
  });
  sched.run();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(Scheduler, CancelPreventsExecution) {
  sim::Scheduler sched;
  bool ran = false;
  const auto id = sched.schedule_at(1.0, [&] { ran = true; });
  sched.cancel(id);
  sched.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(sched.events_executed(), 0u);
}

TEST(Scheduler, RunUntilStopsAtBoundaryAndAdvancesClock) {
  sim::Scheduler sched;
  std::vector<double> fired;
  sched.schedule_at(1.0, [&] { fired.push_back(1.0); });
  sched.schedule_at(2.0, [&] { fired.push_back(2.0); });
  sched.schedule_at(3.0, [&] { fired.push_back(3.0); });
  sched.run_until(2.0);
  EXPECT_EQ(fired.size(), 2u);
  EXPECT_DOUBLE_EQ(sched.now(), 2.0);
  sched.run_until(10.0);
  EXPECT_EQ(fired.size(), 3u);
  EXPECT_DOUBLE_EQ(sched.now(), 10.0);  // idles forward to the target
}

TEST(Scheduler, RunUntilSkipsCancelledFrontEvent) {
  sim::Scheduler sched;
  bool late_ran = false;
  const auto id = sched.schedule_at(1.0, [] {});
  sched.schedule_at(5.0, [&] { late_ran = true; });
  sched.cancel(id);
  sched.run_until(2.0);
  EXPECT_FALSE(late_ran);  // the 5.0 event must not run early
  sched.run_until(5.0);
  EXPECT_TRUE(late_ran);
}

TEST(Scheduler, EventsScheduledDuringRunExecute) {
  sim::Scheduler sched;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sched.schedule_after(1.0, recurse);
  };
  sched.schedule_at(0.0, recurse);
  sched.run();
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(sched.now(), 4.0);
}

TEST(Rng, DeterministicForSameSeed) {
  sim::Rng a(12345), b(12345);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform01(), b.uniform01());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  sim::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, ForkSeedDecorrelates) {
  sim::Rng a(7);
  const auto s1 = a.fork_seed();
  const auto s2 = a.fork_seed();
  EXPECT_NE(s1, s2);
}

TEST(Rng, UniformIntInRange) {
  sim::Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
  }
}

TEST(Rng, BernoulliExtremes) {
  sim::Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Delay, ConstantAlwaysSame) {
  sim::Rng rng(1);
  const sim::Delay d = sim::Delay::constant(0.25);
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(d.sample(rng), 0.25);
  EXPECT_DOUBLE_EQ(d.upper_bound(), 0.25);
}

TEST(Delay, UniformWithinBounds) {
  sim::Rng rng(2);
  const sim::Delay d = sim::Delay::uniform(0.1, 0.2);
  for (int i = 0; i < 1000; ++i) {
    const double v = d.sample(rng);
    EXPECT_GE(v, 0.1);
    EXPECT_LE(v, 0.2);
  }
  EXPECT_DOUBLE_EQ(d.upper_bound(), 0.2);
}

TEST(Delay, ExponentialRespectsBaseAndCap) {
  sim::Rng rng(3);
  const sim::Delay d = sim::Delay::exponential(0.05, 0.1, 1.0);
  for (int i = 0; i < 1000; ++i) {
    const double v = d.sample(rng);
    EXPECT_GE(v, 0.05);
    EXPECT_LE(v, 1.0);
  }
  EXPECT_DOUBLE_EQ(d.upper_bound(), 1.0);
}

TEST(Delay, UncappedExponentialUnbounded) {
  const sim::Delay d = sim::Delay::exponential(0.0, 0.1);
  EXPECT_TRUE(std::isinf(d.upper_bound()));
}

TEST(Delay, BimodalMixes) {
  sim::Rng rng(4);
  const sim::Delay d = sim::Delay::bimodal(sim::Delay::constant(0.01),
                                           sim::Delay::constant(1.0), 0.5);
  int slow = 0;
  for (int i = 0; i < 1000; ++i) {
    if (d.sample(rng) > 0.5) ++slow;
  }
  EXPECT_GT(slow, 350);
  EXPECT_LT(slow, 650);
  EXPECT_DOUBLE_EQ(d.upper_bound(), 1.0);
}

TEST(Delay, DescribeMentionsModel) {
  EXPECT_NE(sim::Delay::lognormal(0.05, 1.0).describe().find("lognormal"),
            std::string::npos);
}

TEST(Partition, NoEventsMeansConnected) {
  sim::FaultPlan ps;
  EXPECT_TRUE(ps.connected(0, 1, 0.0));
  EXPECT_FALSE(ps.partitioned_at(5.0));
  EXPECT_DOUBLE_EQ(ps.last_heal_time(), 0.0);
}

TEST(Partition, SplitHalvesCutsAcrossOnly) {
  sim::FaultPlan ps;
  ps.split_halves(4, 2, 10.0, 20.0);
  // Before and after the window: all connected.
  EXPECT_TRUE(ps.connected(0, 3, 9.99));
  EXPECT_TRUE(ps.connected(0, 3, 20.0));
  // During: same half connected, across halves not.
  EXPECT_TRUE(ps.connected(0, 1, 15.0));
  EXPECT_TRUE(ps.connected(2, 3, 15.0));
  EXPECT_FALSE(ps.connected(0, 2, 15.0));
  EXPECT_FALSE(ps.connected(1, 3, 15.0));
  EXPECT_TRUE(ps.partitioned_at(15.0));
  EXPECT_DOUBLE_EQ(ps.last_heal_time(), 20.0);
}

TEST(Partition, IsolateSingleNode) {
  sim::FaultPlan ps;
  ps.isolate(2, 4, 0.0, 5.0);
  EXPECT_FALSE(ps.connected(2, 0, 1.0));
  EXPECT_FALSE(ps.connected(1, 2, 1.0));
  EXPECT_TRUE(ps.connected(0, 1, 1.0));
  EXPECT_TRUE(ps.connected(0, 3, 1.0));
  EXPECT_TRUE(ps.connected(2, 2, 1.0));  // self always connected
}

TEST(Partition, OverlappingEventsComposeConjunctively) {
  sim::FaultPlan ps;
  ps.split_halves(4, 2, 0.0, 10.0);  // {0,1} | {2,3}
  ps.isolate(1, 4, 5.0, 15.0);       // {1} | {0,2,3}
  EXPECT_TRUE(ps.connected(0, 1, 2.0));
  EXPECT_FALSE(ps.connected(0, 1, 7.0));   // isolation kicks in
  EXPECT_FALSE(ps.connected(0, 2, 7.0));   // halves still apply
  EXPECT_TRUE(ps.connected(0, 2, 12.0));   // halves healed
  EXPECT_FALSE(ps.connected(1, 3, 12.0));  // isolation persists
}

TEST(Partition, NodeAbsentFromAllGroupsIsIsolated) {
  sim::PartitionEvent ev;
  ev.start = 0.0;
  ev.end = 10.0;
  ev.groups = {{0, 1}};  // node 2 not listed anywhere
  sim::FaultPlan ps;
  ps.partition(ev);
  EXPECT_FALSE(ps.connected(0, 2, 5.0));
  EXPECT_FALSE(ps.connected(1, 2, 5.0));
  EXPECT_TRUE(ps.connected(0, 1, 5.0));
}

TEST(Partition, DescribeSummarizes) {
  sim::FaultPlan ps;
  EXPECT_EQ(ps.describe(), "no faults");
  ps.split_halves(4, 2, 1.0, 2.0);
  EXPECT_NE(ps.describe().find("1 partition event"), std::string::npos);
}

TEST(Network, DeliversAfterSampledDelay) {
  sim::Scheduler sched;
  sim::Network::Config cfg;
  cfg.delay = sim::Delay::constant(0.5);
  sim::Network net(sched, cfg, 1);
  double delivered_at = -1.0;
  net.register_node(0, [](const runtime::Message&) {});
  net.register_node(1, [&](const runtime::Message& m) {
    delivered_at = sched.now();
    EXPECT_EQ(std::any_cast<std::string>(m.payload), "hello");
  });
  net.send(0, 1, std::string("hello"));
  sched.run();
  EXPECT_DOUBLE_EQ(delivered_at, 0.5);
  EXPECT_EQ(net.stats().sent, 1u);
  EXPECT_EQ(net.stats().delivered, 1u);
}

TEST(Network, PartitionAtSendTimeDropsMessage) {
  sim::Scheduler sched;
  sim::Network net(sched, {}, 1,
                   sim::FaultPlan{}.split_halves(2, 1, 0.0, 10.0));
  int received = 0;
  net.register_node(0, [](const runtime::Message&) {});
  net.register_node(1, [&](const runtime::Message&) { ++received; });
  net.send(0, 1, std::string("lost"));
  sched.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(net.stats().dropped_partition, 1u);
  // After the heal, sends go through.
  sched.run_until(10.0);
  net.send(0, 1, std::string("found"));
  sched.run();
  EXPECT_EQ(received, 1);
}

TEST(Network, RandomDropRateRoughlyHonored) {
  sim::Scheduler sched;
  sim::Network::Config cfg;
  cfg.drop_probability = 0.3;
  sim::Network net(sched, cfg, 21);
  net.register_node(0, [](const runtime::Message&) {});
  int received = 0;
  net.register_node(1, [&](const runtime::Message&) { ++received; });
  for (int i = 0; i < 1000; ++i) net.send(0, 1, std::string("x"));
  sched.run();
  EXPECT_GT(received, 600);
  EXPECT_LT(received, 800);
  EXPECT_EQ(net.stats().dropped_random + net.stats().delivered, 1000u);
}

TEST(Network, SendToAllSkipsSelf) {
  sim::Scheduler sched;
  sim::Network net(sched, {}, 1);
  std::vector<int> got(3, 0);
  for (sim::NodeId i = 0; i < 3; ++i) {
    net.register_node(i, [&got, i](const runtime::Message&) { ++got[i]; });
  }
  EXPECT_EQ(net.send_to_all(1, std::string("b")), 2u);
  sched.run();
  EXPECT_EQ(got[0], 1);
  EXPECT_EQ(got[1], 0);
  EXPECT_EQ(got[2], 1);
}

}  // namespace

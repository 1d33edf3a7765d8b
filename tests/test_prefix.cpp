// Interned prefix references (core/prefix.hpp): the O(#nodes) PrefixRef a
// Record carries must denote EXACTLY the timestamp set the old explicit
// vectors recorded — every update merged at the origin at decision time,
// filtered to ts < cut for serializable decisions.
//
// The property tests verify this against an independent oracle rebuilt from
// the execution trace: kBroadcastDeliver events say precisely which
// (origin, seq) pairs each node had delivered at any point, kRestart events
// with amnesia recovery reset that knowledge, and the snapshot at each
// kBroadcastOriginate is the delivered set the decision saw. Expanding the
// interned reference must reproduce that snapshot across seeded chaos
// (partitions, drops, non-causal delivery), crash-chaos (durable and
// amnesia recovery), and compaction-enabled runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "apps/airline/airline.hpp"
#include "core/prefix.hpp"
#include "core/timestamp.hpp"
#include "harness/scenario.hpp"
#include "harness/workload.hpp"
#include "obs/tracer.hpp"
#include "shard/cluster.hpp"
#include "sim/fault_plan.hpp"
#include "sim/rng.hpp"

namespace {

namespace al = apps::airline;
using Air = al::BasicAirline<15, 900, 300>;
using core::PrefixRef;
using core::Timestamp;

/// Synthetic resolver: origin o's s-th broadcast carries ts (10s + o, o).
Timestamp fake_ts(core::NodeId o, std::uint64_t s) {
  return Timestamp{10 * s + o, o};
}

TEST(PrefixRef, CountSlotsAndExpand) {
  PrefixRef p;
  p.contiguous = {2, 1};
  p.extras = {{1, 3}};
  EXPECT_EQ(p.count(), 4u);
  EXPECT_EQ(p.slots(), 3u);
  const std::vector<Timestamp> got = p.expand(fake_ts);
  const std::vector<Timestamp> want = {
      Timestamp{10, 0}, Timestamp{11, 1}, Timestamp{20, 0}, Timestamp{31, 1}};
  EXPECT_EQ(got, want);
}

TEST(PrefixRef, CutFiltersStrictlyBelow) {
  PrefixRef p;
  p.contiguous = {2, 1};
  p.extras = {{1, 3}};
  p.cut = Timestamp{20, 0};
  // Only timestamps strictly below the cut survive expansion; count() still
  // reports the recorded (pre-cut) deliveries.
  const std::vector<Timestamp> want = {Timestamp{10, 0}, Timestamp{11, 1}};
  EXPECT_EQ(p.expand(fake_ts), want);
  EXPECT_EQ(p.count(), 4u);
}

TEST(PrefixRef, EqualityIsStructural) {
  PrefixRef a;
  a.contiguous = {1, 2};
  PrefixRef b = a;
  EXPECT_EQ(a, b);
  b.extras.emplace_back(0, 5);
  EXPECT_FALSE(a == b);
  b = a;
  b.cut = Timestamp{3, 0};
  EXPECT_FALSE(a == b);
}

/// The trace-based oracle: replay delivery/restart events into per-node
/// delivered sets, snapshot at each origination, and demand that expanding
/// the interned prefix reproduces the snapshot (cut applied). Also checks
/// the engine-state oracle on every node: the incrementally maintained
/// state equals a from-scratch replay.
void verify_interned_prefixes(shard::Cluster<Air>& cluster,
                              const obs::VectorSink& sink) {
  const auto amnesia =
      static_cast<std::uint64_t>(sim::RecoveryMode::kAmnesia);
  std::vector<std::set<std::pair<core::NodeId, std::uint64_t>>> have(
      cluster.num_nodes());
  std::map<Timestamp, std::vector<std::pair<core::NodeId, std::uint64_t>>>
      snapshot;
  for (const obs::Event& e : sink.events()) {
    switch (e.type) {
      case obs::EventType::kBroadcastDeliver:
        have[e.node].insert({static_cast<core::NodeId>(e.a), e.b});
        break;
      case obs::EventType::kRestart:
        // Amnesia loses the delivery vectors; the outbox replay and repair
        // re-deliveries that rebuild them are traced like any delivery.
        if (e.a == amnesia) have[e.node].clear();
        break;
      case obs::EventType::kBroadcastOriginate:
        snapshot.emplace(
            Timestamp{e.ts_logical, e.ts_node},
            std::vector<std::pair<core::NodeId, std::uint64_t>>(
                have[e.node].begin(), have[e.node].end()));
        break;
      default:
        break;
    }
  }

  const PrefixRef::Resolver resolve = cluster.prefix_resolver();
  std::size_t checked = 0;
  for (core::NodeId n = 0; n < cluster.num_nodes(); ++n) {
    for (const auto& rec : cluster.node(n).originated()) {
      const auto it = snapshot.find(rec.ts);
      ASSERT_NE(it, snapshot.end())
          << "no originate event for ts " << rec.ts.to_string();
      std::vector<Timestamp> expect;
      expect.reserve(it->second.size());
      for (const auto& [o, s] : it->second) {
        const Timestamp t = resolve(o, s);
        if (rec.prefix.cut && !(t < *rec.prefix.cut)) continue;
        expect.push_back(t);
      }
      std::sort(expect.begin(), expect.end());
      EXPECT_EQ(rec.prefix.expand(resolve), expect)
          << "node " << n << " ts " << rec.ts.to_string();
      ++checked;
    }
    EXPECT_EQ(cluster.node(n).state(),
              cluster.node(n).log().recompute_naive())
        << "node " << n;
  }
  EXPECT_GT(checked, 0u);
}

class PrefixChaos : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PrefixChaos, InternedPrefixMatchesTraceOracle) {
  sim::Rng rng(GetParam());
  const auto nodes = static_cast<std::size_t>(rng.uniform_int(2, 5));
  const double horizon = 20.0;

  harness::Scenario sc;
  sc.name = "prefix-chaos";
  sc.num_nodes = nodes;
  sc.network.delay = sim::Delay::exponential(rng.uniform(0.005, 0.05),
                                             rng.uniform(0.05, 0.3), 5.0);
  sc.network.drop_probability = rng.uniform(0.0, 0.25);
  sc.faults = sim::FaultPlan(GetParam() ^ 0x9afb);
  sc.faults.random_partitions(nodes, horizon,
                              static_cast<int>(rng.uniform_int(0, 3)));
  sc.broadcast.anti_entropy_interval = rng.uniform(0.2, 0.8);
  // Both delivery modes: non-causal runs exercise the out-of-order extras
  // path of PrefixRef; compaction runs prove folding never corrupts the
  // recorded knowledge; bounded repair must not change what is delivered.
  sc.broadcast.causal = rng.bernoulli(0.5);
  sc.compaction = rng.bernoulli(0.5);
  sc.broadcast.max_repairs_per_message = rng.bernoulli(0.5) ? 4 : 0;
  sc.trace.enabled = true;

  shard::Cluster<Air> cluster(sc.cluster_config<Air>(GetParam() ^ 0x9f17));
  obs::VectorSink sink;
  cluster.tracer()->add_sink(&sink);

  harness::AirlineWorkload w;
  w.duration = horizon;
  w.request_rate = rng.uniform(1.0, 4.0);
  w.mover_rate = rng.uniform(1.0, 5.0);
  w.cancel_fraction = rng.uniform(0.0, 0.3);
  w.max_persons = 120;
  harness::drive_airline(cluster, w, GetParam() ^ 0x5eed);
  if (sc.broadcast.causal) {
    // A few serializable submissions exercise the reserved-cut path. Node 0
    // originates them: its reserved (L, 0) position is covered by any
    // peer's (L, m > 0) promise, so the reservations stay live even if the
    // cluster goes quiescent right after (the node-id tiebreak would let a
    // lower-id peer's promise tie below a higher-id origin's reservation).
    for (int i = 0; i < 4; ++i) {
      cluster.submit_serializable_at(
          rng.uniform(1.0, horizon - 2.0), 0,
          al::Request::request(static_cast<al::Person>(100 + i)));
    }
  }

  cluster.run_until(horizon);
  cluster.settle();
  ASSERT_TRUE(cluster.converged());
  verify_interned_prefixes(cluster, sink);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrefixChaos,
                         ::testing::Range<std::uint64_t>(7000, 7010));

class PrefixCrashChaos : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PrefixCrashChaos, InternedPrefixSurvivesCrashRecovery) {
  sim::Rng rng(GetParam());
  const auto nodes = static_cast<std::size_t>(rng.uniform_int(3, 6));
  const double horizon = 20.0;

  harness::Scenario sc;
  sc.name = "prefix-crash-chaos";
  sc.num_nodes = nodes;
  sc.network.delay = sim::Delay::exponential(rng.uniform(0.005, 0.05),
                                             rng.uniform(0.05, 0.2), 5.0);
  sc.network.drop_probability = rng.uniform(0.0, 0.2);
  sc.faults = sim::FaultPlan(GetParam() ^ 0x37c1);
  sc.faults.random_crashes(nodes, horizon,
                           static_cast<int>(rng.uniform_int(1, 4)),
                           /*min_down=*/1.0, /*max_down=*/5.0,
                           /*amnesia_probability=*/0.5);
  sc.broadcast.anti_entropy_interval = rng.uniform(0.2, 0.6);
  sc.compaction = rng.bernoulli(0.5);
  sc.trace.enabled = true;

  shard::Cluster<Air> cluster(sc.cluster_config<Air>(GetParam() ^ 0xc4a7));
  obs::VectorSink sink;
  cluster.tracer()->add_sink(&sink);

  harness::AirlineWorkload w;
  w.duration = horizon;
  w.request_rate = rng.uniform(1.0, 4.0);
  w.mover_rate = rng.uniform(1.0, 5.0);
  w.cancel_fraction = rng.uniform(0.0, 0.3);
  w.max_persons = 120;
  harness::drive_airline(cluster, w, GetParam() ^ 0x5eed);

  cluster.run_until(horizon);
  cluster.settle();
  ASSERT_TRUE(cluster.converged());
  verify_interned_prefixes(cluster, sink);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrefixCrashChaos,
                         ::testing::Range<std::uint64_t>(8000, 8008));

TEST(Prefix, SerializableRecordsCarryTheReservedCut) {
  auto sc = harness::lan(3);
  sc.trace.enabled = true;
  shard::Cluster<Air> cluster(sc.cluster_config<Air>(61));
  obs::VectorSink sink;
  cluster.tracer()->add_sink(&sink);
  cluster.submit_at(0.5, 1, al::Request::request(1));
  cluster.submit_at(0.6, 2, al::Request::request(2));
  cluster.submit_serializable_at(1.0, 0, al::Request::request(3));
  cluster.run_until(5.0);
  cluster.settle();
  ASSERT_TRUE(cluster.converged());
  const auto& recs = cluster.node(0).originated();
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_TRUE(recs[0].serializable);
  ASSERT_TRUE(recs[0].prefix.cut.has_value());
  EXPECT_EQ(*recs[0].prefix.cut, recs[0].ts);
  // The complete prefix of the reserved position: both earlier requests.
  EXPECT_EQ(recs[0].prefix.expand(cluster.prefix_resolver()).size(), 2u);
  verify_interned_prefixes(cluster, sink);
}

TEST(Prefix, SlotsStayFlatWhileHistoryGrows) {
  // The tentpole claim in miniature: per-record retained slots are bounded
  // by #nodes (+ rare holes), independent of how much history the prefix
  // denotes.
  auto sc = harness::lan(3);
  shard::Cluster<Air> cluster(sc.cluster_config<Air>(62));
  for (int i = 0; i < 100; ++i) {
    cluster.submit_now(static_cast<core::NodeId>(i % 3),
                       al::Request::request(static_cast<al::Person>(i + 1)));
    cluster.run_until(cluster.scheduler().now() + 0.1);
  }
  cluster.settle();
  const auto& recs = cluster.node(0).originated();
  ASSERT_GT(recs.size(), 10u);
  // The last record's prefix denotes ~100 transactions but retains 3 slots.
  EXPECT_GT(recs.back().prefix.count(), 50u);
  EXPECT_EQ(recs.back().prefix.slots(), 3u);
}

}  // namespace

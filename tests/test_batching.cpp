// Batched floods and the group-commit outbox (net::BroadcastOptions::
// max_batch).
//
// Two claims under test. Equivalence: batching is a constant-factor
// transport optimization — under workloads whose submissions never share a
// scheduler dispatch, a batched config produces a byte-identical trace
// stream (and so identical delivery order, states, and checker verdicts) to
// the unbatched one, across the chaos and crash-chaos seed tiers; and under
// genuine bursts it still yields the same converged states and clean
// checker reports, just with fewer packets and outbox syncs. Boundary
// semantics: the write-ahead intention-log guarantee pinned by
// mid-broadcast crash injection holds per batch — records staged before the
// crash are durable and re-merge everywhere, never lost, never re-run.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/execution_checker.hpp"
#include "apps/airline/airline.hpp"
#include "harness/scenario.hpp"
#include "harness/workload.hpp"
#include "obs/tracer.hpp"
#include "shard/cluster.hpp"
#include "sim/fault_plan.hpp"
#include "sim/rng.hpp"

namespace {

namespace al = apps::airline;
using Air = al::BasicAirline<15, 900, 300>;

// ---------------------------------------------------------------------------
// Byte-identity across the chaos seed tiers
// ---------------------------------------------------------------------------

harness::Scenario chaos_scenario(std::uint64_t seed, bool with_crashes,
                                 std::size_t* nodes_out) {
  sim::Rng rng(seed);
  const auto nodes = static_cast<std::size_t>(rng.uniform_int(2, 6));
  const double horizon = 25.0;
  harness::Scenario sc;
  sc.num_nodes = nodes;
  sc.network.delay = sim::Delay::exponential(rng.uniform(0.005, 0.05),
                                             rng.uniform(0.05, 0.3), 5.0);
  sc.network.drop_probability = rng.uniform(0.0, 0.25);
  sc.faults = sim::FaultPlan(seed ^ 0x9afb);
  sc.faults.random_partitions(nodes, horizon,
                              static_cast<int>(rng.uniform_int(0, 3)));
  if (with_crashes) {
    sc.faults.random_crashes(nodes, horizon,
                             static_cast<int>(rng.uniform_int(1, 4)),
                             /*min_down=*/1.0, /*max_down=*/6.0,
                             /*amnesia_probability=*/0.5);
  }
  sc.broadcast.anti_entropy_interval = rng.uniform(0.2, 0.8);
  *nodes_out = nodes;
  return sc;
}

struct ChaosRun {
  std::string trace;
  std::vector<Air::State> states;
  bool checker_clean = false;
  std::uint64_t flood_batches = 0;
};

ChaosRun run_chaos(harness::Scenario sc, std::uint64_t seed,
                   std::size_t max_batch) {
  sc.trace.enabled = true;
  shard::ClusterConfig cfg = sc.cluster_config<Air>(seed);
  cfg.broadcast.max_batch = max_batch;
  shard::Cluster<Air> cluster(cfg);
  obs::VectorSink capture;
  cluster.tracer()->add_sink(&capture);
  harness::AirlineWorkload w;
  w.duration = 25.0;
  w.request_rate = 3.0;
  w.mover_rate = 2.0;
  w.cancel_fraction = 0.1;
  w.max_persons = 150;
  harness::drive_airline(cluster, w, seed ^ 0x5eed);
  cluster.run_until(25.0);
  cluster.settle();
  ChaosRun r;
  r.trace = obs::serialize(capture.events());
  for (std::size_t n = 0; n < cluster.num_nodes(); ++n) {
    r.states.push_back(cluster.node(static_cast<core::NodeId>(n)).state());
    r.flood_batches += cluster.node(static_cast<core::NodeId>(n))
                           .broadcast_stats()
                           .flood_batches;
  }
  const core::Execution<Air> exec = cluster.execution();
  r.checker_clean = analysis::check_prefix_subsequence_condition(exec).ok() &&
                    analysis::is_transitive(exec) && cluster.converged();
  return r;
}

void expect_batched_byte_identity(std::uint64_t seed, bool with_crashes) {
  std::size_t nodes = 0;
  const harness::Scenario sc = chaos_scenario(seed, with_crashes, &nodes);
  const ChaosRun unbatched = run_chaos(sc, seed ^ 0xba7c, 0);
  const ChaosRun batched = run_chaos(sc, seed ^ 0xba7c, 8);
  // Poisson arrivals land one submission per scheduler dispatch, so no
  // burst ever forms: the batched config must degrade to the EXACT legacy
  // behavior — packets, RNG draws, trace record order, byte for byte.
  EXPECT_EQ(batched.flood_batches, 0u) << "seed " << seed;
  ASSERT_EQ(batched.trace, unbatched.trace) << "seed " << seed;
  ASSERT_EQ(batched.states.size(), unbatched.states.size());
  for (std::size_t n = 0; n < batched.states.size(); ++n) {
    EXPECT_EQ(batched.states[n], unbatched.states[n]) << "seed " << seed;
  }
  EXPECT_TRUE(unbatched.checker_clean) << "seed " << seed;
  EXPECT_TRUE(batched.checker_clean) << "seed " << seed;
}

class BatchingChaosTier : public ::testing::TestWithParam<std::uint64_t> {};
class BatchingCrashChaosTier : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(BatchingChaosTier, ByteIdenticalToUnbatched) {
  expect_batched_byte_identity(GetParam(), /*with_crashes=*/false);
}

TEST_P(BatchingCrashChaosTier, ByteIdenticalToUnbatched) {
  expect_batched_byte_identity(GetParam(), /*with_crashes=*/true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchingChaosTier,
                         ::testing::Range<std::uint64_t>(1000, 1012));
INSTANTIATE_TEST_SUITE_P(Seeds, BatchingCrashChaosTier,
                         ::testing::Range<std::uint64_t>(3000, 3012));

// ---------------------------------------------------------------------------
// Coalescing and group commit under genuine bursts
// ---------------------------------------------------------------------------

shard::Cluster<Air> make_burst_cluster(std::size_t max_batch,
                                       bool traced = false) {
  harness::Scenario sc = harness::wan(4);
  sc.trace.enabled = traced;
  shard::ClusterConfig cfg = sc.cluster_config<Air>(0xb0b);
  cfg.broadcast.max_batch = max_batch;
  return shard::Cluster<Air>(cfg);
}

/// Submit `burst` requests inside ONE scheduler dispatch (the shape an
/// open-loop tick driver produces), once per simulated second.
template <class Cluster>
void drive_bursts(Cluster& cluster, std::size_t bursts, std::size_t burst) {
  for (std::size_t k = 0; k < bursts; ++k) {
    cluster.scheduler().schedule_at(
        0.5 + static_cast<double>(k), [&cluster, k, burst] {
          for (std::size_t i = 0; i < burst; ++i) {
            const auto p =
                static_cast<al::Person>(1 + (k * burst + i) % 200);
            cluster.node(static_cast<core::NodeId>(k % cluster.num_nodes()))
                .try_submit(al::Request::request(p), cluster.scheduler().now());
          }
        });
  }
  cluster.run_until(1.0 + static_cast<double>(bursts));
  cluster.settle();
}

TEST(Batching, BurstsCoalesceAndReducePackets) {
  const std::size_t bursts = 10, burst = 12;
  auto batched = make_burst_cluster(8, /*traced=*/true);
  obs::VectorSink batched_trace;
  batched.tracer()->add_sink(&batched_trace);
  drive_bursts(batched, bursts, burst);
  auto unbatched = make_burst_cluster(0, /*traced=*/true);
  obs::VectorSink unbatched_trace;
  unbatched.tracer()->add_sink(&unbatched_trace);
  drive_bursts(unbatched, bursts, burst);

  // Golden streams (event count and obs::digest), recorded while unbatched
  // broadcasts still had their own flood path and batches their own packet
  // shape. The chaos tiers never form bursts, so this is the tier-1 pin on
  // multi-wire floods. The unbatched stream was re-recorded when a mid-insert
  // that changes nothing where it lands stopped replaying the entries above
  // it; only its checkpoint.take and checkpoint.invalidate events moved.
  EXPECT_EQ(unbatched_trace.events().size(), 3796u);
  EXPECT_EQ(obs::digest(unbatched_trace.events()), 0x51793d42e3d79785ull);
  EXPECT_EQ(batched_trace.events().size(), 2764u);
  EXPECT_EQ(obs::digest(batched_trace.events()), 0xe289e064fc1de147ull);

  std::uint64_t flood_batches = 0, batched_wires = 0;
  for (std::size_t n = 0; n < batched.num_nodes(); ++n) {
    const net::BroadcastStats& s =
        batched.node(static_cast<core::NodeId>(n)).broadcast_stats();
    flood_batches += s.flood_batches;
    batched_wires += s.flood_batched_wires;
  }
  // A 12-submission burst with max_batch 8 floods as chunks of 8 + 4: two
  // batch packets per burst, all twelve wires coalesced.
  EXPECT_EQ(flood_batches, 2 * bursts);
  EXPECT_EQ(batched_wires, burst * bursts);
  // Fewer wire packets on the network than one-per-broadcast flooding.
  EXPECT_LT(batched.network().stats().sent, unbatched.network().stats().sent);

  // Same converged outcome either way.
  EXPECT_TRUE(batched.converged());
  EXPECT_TRUE(unbatched.converged());
  for (std::size_t n = 0; n < batched.num_nodes(); ++n) {
    EXPECT_EQ(batched.node(static_cast<core::NodeId>(n)).state(),
              unbatched.node(static_cast<core::NodeId>(n)).state());
  }
  const core::Execution<Air> exec = batched.execution();
  EXPECT_EQ(exec.size(), bursts * burst);
  EXPECT_TRUE(analysis::check_prefix_subsequence_condition(exec).ok());
  EXPECT_TRUE(analysis::is_transitive(exec));
}

TEST(Batching, GroupCommitAmortizesOutboxSyncs) {
  const std::size_t bursts = 8, burst = 10;
  auto batched = make_burst_cluster(8);
  drive_bursts(batched, bursts, burst);
  auto unbatched = make_burst_cluster(0);
  drive_bursts(unbatched, bursts, burst);

  const auto sum = [](auto& cluster, auto field) {
    std::uint64_t total = 0;
    for (std::size_t n = 0; n < cluster.num_nodes(); ++n) {
      total += cluster.node(static_cast<core::NodeId>(n)).broadcast_stats() .*
               field;
    }
    return total;
  };
  // Unbatched: one sync per record. Batched: one sync per burst — but every
  // record is still covered by a sync before its first flood send.
  EXPECT_EQ(sum(unbatched, &net::BroadcastStats::outbox_commits),
            bursts * burst);
  EXPECT_EQ(sum(batched, &net::BroadcastStats::outbox_commits), bursts);
  EXPECT_EQ(sum(batched, &net::BroadcastStats::outbox_records_synced),
            bursts * burst);
  EXPECT_EQ(sum(unbatched, &net::BroadcastStats::outbox_records_synced),
            bursts * burst);
}

// ---------------------------------------------------------------------------
// Mid-broadcast crash at the batch boundary
// ---------------------------------------------------------------------------

TEST(Batching, MidBroadcastCrashPreservesWriteAheadGuaranteePerBatch) {
  // Node 0 crashes at its 3rd broadcast — in batched mode that boundary now
  // sits inside a flush: records 1–2 flooded, record 3 (and the rest of the
  // staged burst) durable-but-unsent. All five staged records must survive,
  // merge everywhere exactly once, and never re-run their decisions.
  harness::Scenario sc = harness::wan(4);
  sc.faults.crash_mid_broadcast(/*node=*/0, /*broadcast_seq=*/3,
                                /*down_for=*/3.0,
                                sim::RecoveryMode::kDurable);
  shard::ClusterConfig cfg = sc.cluster_config<Air>(0x51u);
  cfg.broadcast.max_batch = 8;
  shard::Cluster<Air> cluster(cfg);
  const std::size_t burst = 5;
  cluster.scheduler().schedule_at(1.0, [&cluster, burst] {
    for (std::size_t i = 0; i < burst; ++i) {
      cluster.node(0).try_submit(al::Request::request(static_cast<al::Person>(i + 1)),
                                 cluster.scheduler().now());
    }
  });
  // Traffic elsewhere keeps anti-entropy busy while node 0 is down.
  for (std::size_t k = 0; k < 10; ++k) {
    cluster.submit_at(1.5 + 0.5 * static_cast<double>(k), 1 + (k % 3),
                      al::Request::request(static_cast<al::Person>(100 + k)));
  }
  cluster.run_until(8.0);
  cluster.settle();

  const net::BroadcastStats& s0 = cluster.node(0).broadcast_stats();
  EXPECT_EQ(s0.mid_broadcast_crashes, 1u);
  EXPECT_EQ(s0.originated, burst);
  // The whole staged burst was covered by its group commit before the
  // crash...
  EXPECT_EQ(s0.outbox_records_synced, burst);
  EXPECT_EQ(s0.outbox_commits, 1u);
  // ...so every record re-merged cluster-wide (write-ahead guarantee) and
  // the execution is exactly the 5 + 10 submitted transactions, each run
  // once.
  EXPECT_TRUE(cluster.converged());
  const core::Execution<Air> exec = cluster.execution();
  EXPECT_EQ(exec.size(), burst + 10);
  EXPECT_TRUE(analysis::check_prefix_subsequence_condition(exec).ok());
  EXPECT_EQ(cluster.aggregate_engine_stats().decisions_run, burst + 10);
}

}  // namespace

// Epoch segmentation, flame attribution, and sharded-tracer determinism.
//
// Three layers under test. EpochIndex: boundary detection from cut/crash
// control events, same-instant coalescing (rack power loss, back-to-back
// rolling-restart seams), and the absence of zero-length interior epochs.
// FlameProfile: exact stage weights on a hand-built chain, the replica
// cells and metrics export on a stream with an out-of-cluster node id, plus
// structural invariants and byte-determinism of the exporters under chaos.
// ShardedTracer: every chaos and crash-chaos seed reproduces its golden
// stream (event count and obs::digest), and the k-way (time, seq) ring
// merge must reconstruct the capture exactly.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "apps/airline/airline.hpp"
#include "harness/scenario.hpp"
#include "harness/workload.hpp"
#include "obs/causal.hpp"
#include "obs/epoch.hpp"
#include "obs/flame.hpp"
#include "obs/metrics.hpp"
#include "obs/sharded_tracer.hpp"
#include "obs/tracer.hpp"
#include "shard/cluster.hpp"
#include "sim/fault_plan.hpp"

namespace {

namespace al = apps::airline;
using Air = al::BasicAirline<15, 900, 300>;
using obs::EventType;

obs::Event ev(EventType type, double time, sim::NodeId node,
              std::uint64_t a = 0, std::uint64_t b = 0,
              std::uint64_t ts_logical = 0, sim::NodeId ts_node = 0) {
  return obs::Event{type, time, node, ts_logical, ts_node, a, b};
}

// ---------------------------------------------------------------------------
// EpochIndex unit tests
// ---------------------------------------------------------------------------

TEST(EpochIndex, EmptyStreamIsOneQuietEpoch) {
  const obs::EpochIndex idx = obs::EpochIndex::build({});
  ASSERT_EQ(idx.size(), 1u);
  EXPECT_TRUE(idx.epoch(0).quiet());
  EXPECT_EQ(idx.epoch(0).label(), "quiet");
  EXPECT_EQ(idx.transitions(), 0u);
  EXPECT_EQ(idx.epoch_at(42.0), 0u);
  EXPECT_EQ(idx.epoch_of_event(0), 0u);
}

TEST(EpochIndex, PartitionOpenHealSegments) {
  std::vector<obs::Event> events;
  events.push_back(ev(EventType::kSchedulerDispatch, 0.5, obs::kControlNode));
  events.push_back(ev(EventType::kPartitionOpen, 2.0, obs::kControlNode, 0));
  events.push_back(ev(EventType::kSchedulerDispatch, 3.0, obs::kControlNode));
  events.push_back(ev(EventType::kPartitionHeal, 5.0, obs::kControlNode, 0));
  events.push_back(ev(EventType::kSchedulerDispatch, 8.0, obs::kControlNode));

  const obs::EpochIndex idx = obs::EpochIndex::build(events);
  ASSERT_EQ(idx.size(), 3u);
  EXPECT_EQ(idx.transitions(), 2u);
  EXPECT_EQ(idx.coalesced(), 0u);

  EXPECT_EQ(idx.epoch(0).label(), "quiet");
  EXPECT_DOUBLE_EQ(idx.epoch(0).start, 0.5);
  EXPECT_DOUBLE_EQ(idx.epoch(0).end, 2.0);
  EXPECT_EQ(idx.epoch(1).label(), "cut{0}");
  ASSERT_EQ(idx.epoch(1).active_cuts.size(), 1u);
  EXPECT_DOUBLE_EQ(idx.epoch(1).start, 2.0);
  EXPECT_DOUBLE_EQ(idx.epoch(1).end, 5.0);
  EXPECT_EQ(idx.epoch(2).label(), "quiet");
  EXPECT_DOUBLE_EQ(idx.epoch(2).end, 8.0);

  // Event-index attribution: [begin_event, end_event) partitions the stream.
  EXPECT_EQ(idx.epoch_of_event(0), 0u);
  EXPECT_EQ(idx.epoch_of_event(1), 1u);  // the open itself: incoming epoch
  EXPECT_EQ(idx.epoch_of_event(2), 1u);
  EXPECT_EQ(idx.epoch_of_event(3), 2u);
  EXPECT_EQ(idx.epoch_of_event(4), 2u);
  for (std::size_t i = 0; i + 1 < idx.size(); ++i) {
    EXPECT_EQ(idx.epoch(i).end_event, idx.epoch(i + 1).begin_event);
  }

  // Time attribution: boundary instants belong to the incoming epoch.
  EXPECT_EQ(idx.epoch_at(0.0), 0u);
  EXPECT_EQ(idx.epoch_at(2.0), 1u);
  EXPECT_EQ(idx.epoch_at(4.9), 1u);
  EXPECT_EQ(idx.epoch_at(5.0), 2u);
}

TEST(EpochIndex, SameInstantTransitionsCoalesce) {
  // A rack power loss records one partition.open plus one crash per rack
  // node at the same instant: ONE epoch boundary, not three (which would
  // manufacture two zero-length epochs between the control events).
  std::vector<obs::Event> events;
  events.push_back(ev(EventType::kSchedulerDispatch, 0.0, obs::kControlNode));
  events.push_back(ev(EventType::kPartitionOpen, 3.0, obs::kControlNode, 0));
  events.push_back(ev(EventType::kCrash, 3.0, 1));
  events.push_back(ev(EventType::kCrash, 3.0, 2));
  events.push_back(ev(EventType::kSchedulerDispatch, 4.0, obs::kControlNode));

  const obs::EpochIndex idx = obs::EpochIndex::build(events);
  ASSERT_EQ(idx.size(), 2u);
  EXPECT_EQ(idx.transitions(), 3u);
  EXPECT_EQ(idx.coalesced(), 2u);
  EXPECT_EQ(idx.epoch(1).label(), "cut{0}+down{1,2}");
  EXPECT_DOUBLE_EQ(idx.epoch(1).start, 3.0);
}

TEST(EpochIndex, OverlappingCutsTrackActiveSets) {
  std::vector<obs::Event> events;
  events.push_back(ev(EventType::kSchedulerDispatch, 0.0, obs::kControlNode));
  events.push_back(ev(EventType::kPartitionOpen, 1.0, obs::kControlNode, 0));
  events.push_back(ev(EventType::kPartitionOpen, 2.0, obs::kControlNode, 1));
  events.push_back(ev(EventType::kPartitionHeal, 3.0, obs::kControlNode, 0));
  events.push_back(ev(EventType::kPartitionHeal, 4.0, obs::kControlNode, 1));
  events.push_back(ev(EventType::kSchedulerDispatch, 5.0, obs::kControlNode));

  const obs::EpochIndex idx = obs::EpochIndex::build(events);
  ASSERT_EQ(idx.size(), 5u);
  EXPECT_EQ(idx.epoch(0).label(), "quiet");
  EXPECT_EQ(idx.epoch(1).label(), "cut{0}");
  EXPECT_EQ(idx.epoch(2).label(), "cut{0,1}");
  EXPECT_EQ(idx.epoch(3).label(), "cut{1}");
  EXPECT_EQ(idx.epoch(4).label(), "quiet");
  // No zero-length interior epochs.
  for (std::size_t i = 1; i + 1 < idx.size(); ++i) {
    EXPECT_GT(idx.epoch(i).end, idx.epoch(i).start);
  }
}

TEST(EpochIndex, CrashRestartLifecycle) {
  std::vector<obs::Event> events;
  events.push_back(ev(EventType::kSchedulerDispatch, 0.0, obs::kControlNode));
  events.push_back(ev(EventType::kCrash, 1.0, 2));
  events.push_back(ev(EventType::kRestart, 4.0, 2));
  events.push_back(ev(EventType::kSchedulerDispatch, 6.0, obs::kControlNode));

  const obs::EpochIndex idx = obs::EpochIndex::build(events);
  ASSERT_EQ(idx.size(), 3u);
  EXPECT_EQ(idx.epoch(1).label(), "down{2}");
  ASSERT_EQ(idx.epoch(1).down_nodes.size(), 1u);
  EXPECT_EQ(idx.epoch(1).down_nodes[0], 2u);
  EXPECT_TRUE(idx.epoch(2).quiet());
}

TEST(EpochIndex, EpochAtOutsideControlSchedule) {
  // The edges the incident attribution leans on: a detection instant can
  // precede the first control event (streaming checker fires before any
  // fault) or trail the last heal (post-settle finalize) — both must map
  // to a valid epoch, never out of range.
  std::vector<obs::Event> events;
  events.push_back(ev(EventType::kSchedulerDispatch, 1.0, obs::kControlNode));
  events.push_back(ev(EventType::kPartitionOpen, 2.0, obs::kControlNode, 0));
  events.push_back(ev(EventType::kPartitionHeal, 5.0, obs::kControlNode, 0));
  events.push_back(ev(EventType::kCrash, 6.0, 1));
  events.push_back(ev(EventType::kRestart, 8.0, 1));
  events.push_back(ev(EventType::kSchedulerDispatch, 9.0, obs::kControlNode));

  const obs::EpochIndex idx = obs::EpochIndex::build(events);
  ASSERT_EQ(idx.size(), 5u);
  // Before the first control event — and before the stream starts at all.
  EXPECT_EQ(idx.epoch_at(-100.0), 0u);
  EXPECT_EQ(idx.epoch_at(0.0), 0u);
  EXPECT_EQ(idx.epoch_at(0.999), 0u);
  // The final restart opens the last quiet epoch; every later instant —
  // including times far past the recorded stream — belongs to it.
  EXPECT_EQ(idx.epoch_at(8.0), idx.size() - 1);
  EXPECT_TRUE(idx.epoch(idx.epoch_at(8.0)).quiet());
  EXPECT_EQ(idx.epoch_at(9.5), idx.size() - 1);
  EXPECT_EQ(idx.epoch_at(1e12), idx.size() - 1);
}

// ---------------------------------------------------------------------------
// FlameProfile unit tests
// ---------------------------------------------------------------------------

/// A complete two-replica chain with known times: originate at node 0
/// (t=1.0), flood send, deliver at node 1 (t=1.2) merged in-order at once,
/// deliver at node 2 (t=1.5) merged out-of-order at t=1.6.
std::vector<obs::Event> hand_built_chain() {
  std::vector<obs::Event> events;
  events.push_back(
      ev(EventType::kBroadcastOriginate, 1.0, 0, /*a=*/1, 0, /*ts=*/7, 0));
  events.push_back(ev(EventType::kBroadcastSend, 1.0, 0, /*a=*/1, /*b=*/2));
  events.push_back(
      ev(EventType::kMergeTailAppend, 1.0, 0, 0, 0, /*ts=*/7, 0));
  events.push_back(
      ev(EventType::kBroadcastDeliver, 1.2, 1, /*a=*/0, /*b=*/1));
  events.push_back(
      ev(EventType::kMergeTailAppend, 1.2, 1, 0, 0, /*ts=*/7, 0));
  events.push_back(
      ev(EventType::kBroadcastDeliver, 1.5, 2, /*a=*/0, /*b=*/1));
  events.push_back(
      ev(EventType::kMergeMidInsert, 1.6, 2, 0, 0, /*ts=*/7, 0));
  return events;
}

TEST(FlameProfile, HandBuiltChainAttribution) {
  const std::vector<obs::Event> events = hand_built_chain();
  const obs::EpochIndex epochs = obs::EpochIndex::build(events);
  const obs::CausalGraph graph = obs::CausalGraph::build(events);
  const obs::FlameProfile flame =
      obs::FlameProfile::build(events, graph, epochs);

  ASSERT_EQ(flame.timings().size(), 1u);
  const obs::UpdateTiming& ut = flame.timings()[0];
  EXPECT_EQ(ut.key.first, 7u);
  EXPECT_TRUE(ut.complete);
  EXPECT_EQ(ut.replicas, 2u);
  EXPECT_EQ(ut.critical_node, 2u);
  EXPECT_EQ(ut.crit_flood_us, 0);
  EXPECT_EQ(ut.crit_deliver_us, 500000);
  EXPECT_EQ(ut.crit_merge_us, 100000);
  EXPECT_EQ(ut.critical_us(), 600000);
  EXPECT_EQ(ut.dominant, "deliver");

  ASSERT_EQ(flame.epochs().size(), 1u);
  const obs::EpochProfile& ep = flame.epochs()[0];
  EXPECT_EQ(ep.updates, 1u);
  EXPECT_EQ(ep.incomplete, 0u);
  EXPECT_EQ(ep.critical_max_us, 600000);
  EXPECT_EQ(ep.dominant_counts.at("deliver"), 1u);

  // Exact stage weights: deliver;first = node 1 (200 ms), deliver;last =
  // node 2 (500 ms), merge split by kind (0 / 100 ms).
  const std::string folded = flame.folded();
  EXPECT_NE(folded.find("epoch0:quiet;deliver;first 200000\n"),
            std::string::npos);
  EXPECT_NE(folded.find("epoch0:quiet;deliver;last 500000\n"),
            std::string::npos);
  EXPECT_NE(folded.find("epoch0:quiet;merge;tail_append 0\n"),
            std::string::npos);
  EXPECT_NE(folded.find("epoch0:quiet;merge;mid_insert 100000\n"),
            std::string::npos);
  EXPECT_NE(folded.find("epoch0:quiet;flood_wait 0\n"), std::string::npos);

  const std::vector<obs::StageShare> top = flame.top_stages(0);
  ASSERT_FALSE(top.empty());
  EXPECT_EQ(top[0].stage, "deliver;last");
  EXPECT_EQ(top[0].us, 500000);
}

TEST(FlameProfile, ExportersAreByteDeterministic) {
  const std::vector<obs::Event> events = hand_built_chain();
  const obs::EpochIndex epochs = obs::EpochIndex::build(events);
  const obs::CausalGraph graph = obs::CausalGraph::build(events);
  const obs::FlameProfile a = obs::FlameProfile::build(events, graph, epochs);
  const obs::FlameProfile b = obs::FlameProfile::build(events, graph, epochs);
  EXPECT_EQ(a.folded(), b.folded());
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.perfetto_json(), b.perfetto_json());
}

TEST(FlameProfile, OutOfClusterNodeIdIsKeptAndSkippedByTheMetrics) {
  // A trace file may carry any 32-bit node id; read one back through the
  // parser, as flame_report does, with the deliver and merge at node 4e9.
  constexpr sim::NodeId kFar = 4000000000u;
  const std::vector<obs::Event> written = {
      ev(EventType::kBroadcastOriginate, 1.0, 0, /*a=*/1, 0, /*ts=*/1, 0),
      ev(EventType::kBroadcastDeliver, 1.5, kFar, /*a=*/0, /*b=*/1),
      ev(EventType::kMergeTailAppend, 1.7, kFar, 0, 0, /*ts=*/1, 0),
  };
  std::vector<obs::Event> events;
  ASSERT_TRUE(obs::deserialize(obs::serialize(written), events));
  ASSERT_EQ(events, written);

  const obs::EpochIndex epochs = obs::EpochIndex::build(events);
  const obs::FlameProfile flame =
      obs::FlameProfile::build(events, obs::CausalGraph::build(events), epochs);
  ASSERT_EQ(flame.timings().size(), 1u);
  const obs::UpdateTiming& ut = flame.timings()[0];
  ASSERT_EQ(ut.cells.size(), 1u);  // the cell is kept, keyed by its id
  EXPECT_EQ(ut.cells[0].node, kFar);
  EXPECT_DOUBLE_EQ(ut.cells[0].deliver, 1.5);
  EXPECT_DOUBLE_EQ(ut.cells[0].merge, 1.7);
  EXPECT_FALSE(ut.flooded);
  EXPECT_TRUE(ut.complete);

  // The metrics of a 3-node cluster skip it: nothing was delivered or
  // merged inside the cluster, so no latency sample exists.
  obs::MetricsRegistry reg;
  obs::export_replication_metrics(events, 3, reg);
  EXPECT_EQ(reg.counters().at("lifecycle.updates_originated"), 1u);
  EXPECT_EQ(reg.counters().at("lifecycle.updates_fully_replicated"), 0u);
  EXPECT_EQ(reg.counters().at("lifecycle.undo_churn_total"), 0u);
  EXPECT_EQ(reg.gauges().at("lifecycle.divergence_max_missing"), 0.0);
  for (const char* name :
       {"lifecycle.replication_latency", "lifecycle.undo_churn",
        "causal.deliver_latency", "causal.first_deliver_latency",
        "causal.last_deliver_latency", "causal.mid_insert_latency",
        "causal.fanout_degree"}) {
    EXPECT_EQ(reg.histograms().at(name).count(), 0u) << name;
  }
  EXPECT_EQ(reg.counters().at("epoch.updates_profiled"), 1u);

  const std::string provenance = ut.render_provenance(3);
  EXPECT_EQ(provenance.rfind("update 1:0 originated at t=1 on node 0", 0),
            0u);
  EXPECT_NE(provenance.find("  node 2: never delivered\n"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Epoch segmentation on real fault plans
// ---------------------------------------------------------------------------

struct ClusterRun {
  std::vector<obs::Event> capture;
  std::vector<obs::Event> merged;
  std::uint64_t evicted = 0;
};

ClusterRun run_scenario(harness::Scenario sc, std::uint64_t seed,
                        double horizon) {
  sc.trace.enabled = true;
  shard::Cluster<Air> cluster(sc.cluster_config<Air>(seed));
  obs::VectorSink capture;
  cluster.tracer()->add_sink(&capture);
  harness::AirlineWorkload w;
  w.duration = horizon;
  w.request_rate = 3.0;
  w.mover_rate = 2.0;
  w.cancel_fraction = 0.1;
  w.max_persons = 150;
  harness::drive_airline(cluster, w, seed ^ 0x5eed);
  cluster.run_until(horizon);
  cluster.settle();
  ClusterRun r;
  r.capture = capture.events();
  r.merged = cluster.tracer()->ring();
  r.evicted = cluster.tracer()->evicted();
  return r;
}

TEST(EpochIndex, RollingRestartWithZeroGapCoalescesSeams) {
  // gap = 0 lands node i's restart and node i+1's crash on the same
  // instant: each seam must coalesce into one boundary, never a
  // zero-length epoch.
  const std::size_t nodes = 4;
  harness::Scenario sc;
  sc.num_nodes = nodes;
  sc.faults.rolling_restart(nodes, /*start=*/4.0, /*down_for=*/2.0,
                            /*gap=*/0.0);
  const ClusterRun r = run_scenario(sc, 0x0117, 16.0);

  const obs::EpochIndex idx = obs::EpochIndex::build(r.capture);
  EXPECT_EQ(idx.transitions(), 2 * nodes);
  EXPECT_EQ(idx.coalesced(), nodes - 1);
  // N distinct boundary instants split the run into N + 1 epochs.
  ASSERT_EQ(idx.size(), 2 * nodes - idx.coalesced() + 1);
  EXPECT_TRUE(idx.epoch(0).quiet());
  EXPECT_TRUE(idx.epoch(idx.size() - 1).quiet());
  // One node down at a time, in order, and no zero-length interior epoch.
  for (std::size_t i = 1; i + 1 < idx.size(); ++i) {
    const obs::Epoch& e = idx.epoch(i);
    ASSERT_EQ(e.down_nodes.size(), 1u) << "epoch " << i;
    EXPECT_EQ(e.down_nodes[0], i - 1);
    EXPECT_GT(e.end, e.start);
  }
}

TEST(EpochIndex, RackPowerLossCoalescesCorrelatedBoundary) {
  const std::size_t nodes = 4;
  harness::Scenario sc;
  sc.num_nodes = nodes;
  sc.faults.rack_power_loss({0, 1}, nodes, /*start=*/5.0, /*end=*/9.0);
  const ClusterRun r = run_scenario(sc, 0xACDC, 16.0);

  const obs::EpochIndex idx = obs::EpochIndex::build(r.capture);
  // open + 2 crashes at t=5, heal + 2 restarts at t=9: 6 transitions, 2
  // boundaries.
  EXPECT_EQ(idx.transitions(), 6u);
  EXPECT_EQ(idx.coalesced(), 4u);
  ASSERT_EQ(idx.size(), 3u);
  const obs::Epoch& outage = idx.epoch(1);
  EXPECT_DOUBLE_EQ(outage.start, 5.0);
  EXPECT_DOUBLE_EQ(outage.end, 9.0);
  ASSERT_EQ(outage.active_cuts.size(), 1u);
  ASSERT_EQ(outage.down_nodes.size(), 2u);
  EXPECT_EQ(outage.down_nodes[0], 0u);
  EXPECT_EQ(outage.down_nodes[1], 1u);
  EXPECT_TRUE(idx.epoch(2).quiet());
}

// ---------------------------------------------------------------------------
// Golden streams, exact ring merge and flame invariants under chaos
// ---------------------------------------------------------------------------

/// One tier run's full stream: event count and obs::digest. Recorded when
/// a cluster could still trace through a single global ring instead of
/// per-node shards, and both tracers produced these streams byte for byte.
/// Re-recorded when a mid-insert that changes nothing where it lands
/// stopped invalidating and re-taking the snapshots above it: the streams
/// changed only in checkpoint.take and checkpoint.invalidate events.
struct StreamGolden {
  std::size_t events;
  std::uint64_t digest;
};

constexpr StreamGolden kChaosGoldens[] = {
    {3432, 0x10614b4e6ceb2112ull},  // 1000
    {11069, 0x78a61b91d78b24abull},  // 1001
    {11756, 0x0d76097d4e3fd26eull},  // 1002
    {7116, 0x3cc71e5290365d08ull},  // 1003
    {7035, 0x520790a1c6eef133ull},  // 1004
    {1852, 0x7d28b766accec3d1ull},  // 1005
    {11627, 0x513e80dda6d54530ull},  // 1006
    {3254, 0x24d421638aef580bull},  // 1007
    {8498, 0x26857278d43fdd7aull},  // 1008
    {5909, 0xcf6701997d97f6a0ull},  // 1009
    {5481, 0x135e4d22936ae96eull},  // 1010
    {6293, 0x0a51b6104f38948aull},  // 1011
};

constexpr StreamGolden kCrashChaosGoldens[] = {
    {9753, 0x4e6b75a3606e085aull},  // 3000
    {7406, 0xc71247ca1e29776bull},  // 3001
    {6061, 0xae2a525a265bab81ull},  // 3002
    {2312, 0xab23eda9c99cd40eull},  // 3003
    {5885, 0xeb536d1f0d7ccb72ull},  // 3004
    {6794, 0x3a02d1def0cf74b9ull},  // 3005
    {6437, 0xd70aa6ba5828b9caull},  // 3006
    {8132, 0x54042dd8af84180dull},  // 3007
    {5692, 0x2dcd888109500ffeull},  // 3008
    {5226, 0x0ec81729b0f908f9ull},  // 3009
    {6915, 0xddf50c7a7577a5c6ull},  // 3010
    {11679, 0xf0a3301e630477abull},  // 3011
};

harness::Scenario chaos_scenario(std::uint64_t seed, bool with_crashes) {
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
  return sc;
}

void expect_golden_stream_and_flame_invariants(std::uint64_t seed,
                                               bool with_crashes,
                                               const StreamGolden& golden) {
  const harness::Scenario sc = chaos_scenario(seed, with_crashes);
  const ClusterRun sharded = run_scenario(sc, seed ^ 0xc4a0, 25.0);

  // Same seed, same stream, byte for byte.
  EXPECT_EQ(sharded.capture.size(), golden.events);
  EXPECT_EQ(obs::digest(sharded.capture), golden.digest);
  // The k-way (time, seq) merge of the shard rings must reconstruct the
  // exact global record order (complete when nothing was evicted).
  if (sharded.evicted == 0) {
    ASSERT_EQ(obs::serialize(sharded.merged), obs::serialize(sharded.capture));
  } else {
    // Ring-truncated: still a subsequence of the capture, in order.
    std::size_t at = 0;
    for (const obs::Event& e : sharded.merged) {
      while (at < sharded.capture.size() && !(sharded.capture[at] == e)) ++at;
      ASSERT_LT(at, sharded.capture.size())
          << "merged ring event not found in capture order";
      ++at;
    }
  }

  // Flame structural invariants on the complete stream.
  const obs::EpochIndex epochs = obs::EpochIndex::build(sharded.capture);
  const obs::CausalGraph graph = obs::CausalGraph::build(sharded.capture);
  const obs::FlameProfile flame =
      obs::FlameProfile::build(sharded.capture, graph, epochs);
  ASSERT_EQ(flame.epochs().size(), epochs.size());
  std::uint64_t updates = 0, incomplete = 0;
  for (const obs::EpochProfile& ep : flame.epochs()) {
    updates += ep.updates;
    incomplete += ep.incomplete;
    EXPECT_GE(ep.root.total_us, 0);
    EXPECT_GE(ep.critical_max_us, 0);
  }
  EXPECT_EQ(updates, flame.timings().size());
  std::uint64_t complete = 0;
  for (const obs::UpdateTiming& ut : flame.timings()) {
    EXPECT_LT(ut.epoch, epochs.size());
    EXPECT_GE(ut.send, ut.originate);
    if (!ut.complete) continue;
    ++complete;
    EXPECT_GE(ut.crit_flood_us, 0);
    EXPECT_GE(ut.crit_deliver_us, 0);
    EXPECT_GE(ut.crit_merge_us, 0);
    EXPECT_FALSE(ut.dominant.empty());
  }
  EXPECT_EQ(complete + incomplete, updates);
}

class ShardedChaos : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShardedChaos, StreamMatchesGolden) {
  expect_golden_stream_and_flame_invariants(
      GetParam(), /*with_crashes=*/false, kChaosGoldens[GetParam() - 1000]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardedChaos,
                         ::testing::Range<std::uint64_t>(1000, 1012));

class ShardedCrashChaos : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShardedCrashChaos, StreamMatchesGolden) {
  expect_golden_stream_and_flame_invariants(
      GetParam(), /*with_crashes=*/true, kCrashChaosGoldens[GetParam() - 3000]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardedCrashChaos,
                         ::testing::Range<std::uint64_t>(3000, 3012));

// ---------------------------------------------------------------------------
// ShardedTracer mechanics
// ---------------------------------------------------------------------------

TEST(ShardedTracer, MergeReconstructsInterleavedRecordOrder) {
  obs::ShardedTracer st(/*num_nodes=*/3, /*ring_capacity=*/16);
  // Interleave records across shards with equal and distinct times; the
  // merge must return them in exact record order (seq breaks time ties).
  st.shard(1).record(ev(EventType::kNetSend, 1.0, 1));
  st.shard(0).record(ev(EventType::kNetDeliver, 1.0, 0));
  st.control_shard().record(
      ev(EventType::kSchedulerDispatch, 1.0, obs::kControlNode));
  st.shard(2).record(ev(EventType::kNetSend, 2.0, 2));
  st.shard(0).record(ev(EventType::kNetSend, 3.0, 0));

  EXPECT_EQ(st.recorded(), 5u);
  EXPECT_EQ(st.next_seq(), 5u);
  const std::vector<obs::Event> merged = st.ring();
  ASSERT_EQ(merged.size(), 5u);
  EXPECT_EQ(merged[0].node, 1u);
  EXPECT_EQ(merged[1].node, 0u);
  EXPECT_EQ(merged[2].node, obs::kControlNode);
  EXPECT_EQ(merged[3].node, 2u);
  EXPECT_EQ(merged[4].node, 0u);
}

TEST(ShardedTracer, ControlShardIsolatesControlTraffic) {
  obs::ShardedTracer st(/*num_nodes=*/2, /*ring_capacity=*/4);
  // A chatty node wraps its own ring; the control shard's history survives.
  st.control_shard().record(
      ev(EventType::kPartitionOpen, 0.5, obs::kControlNode, 0));
  for (int i = 0; i < 100; ++i) {
    st.shard(0).record(ev(EventType::kNetSend, 1.0 + i, 0));
  }
  EXPECT_GT(st.evicted(), 0u);
  const std::vector<obs::Event> merged = st.ring();
  ASSERT_FALSE(merged.empty());
  EXPECT_EQ(merged.front().type, EventType::kPartitionOpen);
  // kControlNode (and any out-of-range id) maps to the control shard.
  EXPECT_EQ(&st.shard(obs::kControlNode), &st.control_shard());
}

TEST(ShardedTracer, SinksObserveGlobalRecordOrder) {
  obs::ShardedTracer st(/*num_nodes=*/2, /*ring_capacity=*/8);
  obs::VectorSink sink;
  st.add_sink(&sink);
  st.shard(1).record(ev(EventType::kNetSend, 1.0, 1));
  st.shard(0).record(ev(EventType::kNetDeliver, 1.1, 0));
  st.shard(1).record(ev(EventType::kNetSend, 1.2, 1));
  ASSERT_EQ(sink.events().size(), 3u);
  EXPECT_EQ(obs::serialize(sink.events()), obs::serialize(st.ring()));
}

}  // namespace

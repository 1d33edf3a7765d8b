// Causal layer (obs/causal.hpp): happens-before graph construction, orphan
// and cycle detection, per-update chains, ancestry queries, the trace-diff
// bisector, and the exact serialize/deserialize round trip — unit-tested on
// hand-built streams, then property-tested over the same randomized chaos
// and crash-chaos seed ranges the guarantee-stack tiers use: on a COMPLETE
// stream from a converged run, the graph must be acyclic with zero orphans
// and every update must have a full originate→deliver→merge chain reaching
// every replica.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "apps/airline/airline.hpp"
#include "harness/scenario.hpp"
#include "harness/workload.hpp"
#include "obs/causal.hpp"
#include "obs/epoch.hpp"
#include "obs/flame.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "shard/cluster.hpp"
#include "sim/fault_plan.hpp"
#include "sim/rng.hpp"

namespace {

namespace al = apps::airline;
using Air = al::BasicAirline<15, 900, 300>;
using obs::Event;
using obs::EventType;

// ------------------------------------------------------------ unit tests --

TEST(CausalGraph, ProgramAndMessageEdges) {
  // Two sends from node 0, delivered at node 1 (delivery-side events are
  // recorded at the destination: node = dst, a = src, b = message id).
  const std::vector<Event> ev = {
      {EventType::kNetSend, 0.0, 0, 0, 0, 1, 5},
      {EventType::kNetSend, 0.1, 0, 0, 0, 1, 6},
      {EventType::kNetDeliver, 0.2, 1, 0, 0, 0, 5},
      {EventType::kNetDeliver, 0.3, 1, 0, 0, 0, 6},
  };
  const obs::CausalGraph g = obs::CausalGraph::build(ev);
  EXPECT_TRUE(g.validate().ok()) << g.validate().summary();
  // 0->1 and 2->3 (program), 0->2 and 1->3 (message).
  EXPECT_EQ(g.edges().size(), 4u);
  const std::vector<std::size_t> parents = g.parent_edges(3);
  ASSERT_EQ(parents.size(), 2u);
  bool program = false, message = false;
  for (const std::size_t k : parents) {
    const obs::CausalEdge& e = g.edges()[k];
    if (e.kind == obs::EdgeKind::kProgram) program = e.from == 2;
    if (e.kind == obs::EdgeKind::kMessage) message = e.from == 1;
  }
  EXPECT_TRUE(program);
  EXPECT_TRUE(message);
}

TEST(CausalGraph, DeliveryTimeCrashDropJoinsItsSend) {
  const std::vector<Event> ev = {
      {EventType::kNetSend, 0.0, 0, 0, 0, 1, 9},
      {EventType::kNetDropCrashed, 0.2, 1, 0, 0, 0, 9},
      // Send-time drop: no message existed (b = 0), so no edge and no
      // orphan either.
      {EventType::kNetDropCrashed, 0.3, 0, 0, 0, 1, 0},
  };
  const obs::CausalGraph g = obs::CausalGraph::build(ev);
  EXPECT_TRUE(g.validate().ok()) << g.validate().summary();
  bool found = false;
  for (const obs::CausalEdge& e : g.edges()) {
    if (e.kind == obs::EdgeKind::kMessage) {
      EXPECT_EQ(e.from, 0u);
      EXPECT_EQ(e.to, 1u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(CausalGraph, OrphanNetDeliverDetected) {
  const std::vector<Event> ev = {
      {EventType::kNetDeliver, 0.0, 1, 0, 0, 0, 7},
  };
  const obs::CausalGraph g = obs::CausalGraph::build(ev);
  EXPECT_FALSE(g.validate().ok());
  ASSERT_EQ(g.validate().orphan_net_delivers.size(), 1u);
  EXPECT_EQ(g.validate().orphan_net_delivers[0], 0u);
}

TEST(CausalGraph, UpdateChainJoinsOriginateDeliverMerge) {
  // Update 5:2, origin_seq 1 at node 2: local deliver+merge, then remote
  // deliver at node 1 whose mid-insert displaces 2 entries (undo + redo).
  const std::vector<Event> ev = {
      {EventType::kBroadcastOriginate, 1.0, 2, 5, 2, 1, 0},
      {EventType::kBroadcastSend, 1.0, 2, 0, 0, 1, 3},
      {EventType::kBroadcastDeliver, 1.0, 2, 0, 0, 2, 1},
      {EventType::kMergeTailAppend, 1.0, 2, 5, 2, 0, 0},
      {EventType::kBroadcastDeliver, 1.4, 1, 0, 0, 2, 1},
      {EventType::kMergeMidInsert, 1.4, 1, 5, 2, 2, 0},
      {EventType::kMergeUndo, 1.4, 1, 5, 2, 2, 0},
      {EventType::kMergeRedo, 1.4, 1, 5, 2, 2, 0},
  };
  const obs::CausalGraph g = obs::CausalGraph::build(ev);
  EXPECT_TRUE(g.validate().ok()) << g.validate().summary();

  const std::vector<std::size_t> chain = g.update_chain(5, 2);
  EXPECT_EQ(chain, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_TRUE(g.update_chain(9, 9).empty());

  // Replicate edges 0->2, 0->4; merge edges 2->3, 4->5.
  std::size_t replicate = 0, merge = 0;
  for (const obs::CausalEdge& e : g.edges()) {
    replicate += e.kind == obs::EdgeKind::kReplicate;
    merge += e.kind == obs::EdgeKind::kMerge;
  }
  EXPECT_EQ(replicate, 2u);
  EXPECT_EQ(merge, 2u);

  // Path to node 1: originate plus node-1 chain events.
  EXPECT_EQ(g.path_to_node(5, 2, 1),
            (std::vector<std::size_t>{0, 4, 5, 6, 7}));
  // Ancestry of the mid-insert: its deliver (4) and the originate (0).
  EXPECT_EQ(g.ancestry(5), (std::vector<std::size_t>{0, 4}));
}

TEST(CausalGraph, OrphanAndUnmergedDetection) {
  {
    // A merge with no originate and no deliver anywhere.
    const std::vector<Event> ev = {
        {EventType::kMergeTailAppend, 0.0, 1, 5, 2, 0, 0},
    };
    const auto issues = obs::CausalGraph::build(ev).validate();
    EXPECT_EQ(issues.orphan_merges.size(), 1u);
  }
  {
    // A broadcast deliver whose originate is missing.
    const std::vector<Event> ev = {
        {EventType::kBroadcastDeliver, 0.0, 1, 0, 0, 2, 1},
    };
    const auto issues = obs::CausalGraph::build(ev).validate();
    EXPECT_EQ(issues.orphan_broadcast_delivers.size(), 1u);
  }
  {
    // Delivered but never merged: the synchronous deliver->merge contract
    // was broken (or the stream is truncated).
    const std::vector<Event> ev = {
        {EventType::kBroadcastOriginate, 0.0, 2, 5, 2, 1, 0},
        {EventType::kBroadcastDeliver, 0.4, 1, 0, 0, 2, 1},
    };
    const auto issues = obs::CausalGraph::build(ev).validate();
    ASSERT_EQ(issues.unmerged_delivers.size(), 1u);
    EXPECT_EQ(issues.unmerged_delivers[0], 1u);
    EXPECT_NE(issues.summary().find("never merged"), std::string::npos);
  }
}

TEST(CausalGraph, AmnesiaRedeliveryReMergeIsNotAnOrphan) {
  // The same update delivered and merged twice at node 1 (stable-outbox
  // replay after an amnesia restart): the second deliver re-arms the merge
  // expectation, so the second merge is explained, not orphaned.
  const std::vector<Event> ev = {
      {EventType::kBroadcastOriginate, 0.0, 2, 5, 2, 1, 0},
      {EventType::kBroadcastDeliver, 0.4, 1, 0, 0, 2, 1},
      {EventType::kMergeTailAppend, 0.4, 1, 5, 2, 0, 0},
      {EventType::kBroadcastDeliver, 2.0, 1, 0, 0, 2, 1},
      {EventType::kMergeTailAppend, 2.0, 1, 5, 2, 0, 0},
  };
  const obs::CausalGraph g = obs::CausalGraph::build(ev);
  EXPECT_TRUE(g.validate().ok()) << g.validate().summary();
}

// ------------------------------------------------------------ trace diff --

TEST(TraceDiff, IdenticalStreamsDoNotDiverge) {
  const std::vector<Event> a = {
      {EventType::kNetSend, 0.0, 0, 0, 0, 1, 5},
      {EventType::kNetDeliver, 0.2, 1, 0, 0, 0, 5},
  };
  const obs::TraceDivergence d = obs::trace_diff(a, a);
  EXPECT_FALSE(d.diverged);
  EXPECT_NE(obs::divergence_report(d, a, a).find("streams identical"),
            std::string::npos);
}

TEST(TraceDiff, ReportsFirstDifferingIndexWithAncestry) {
  const std::vector<Event> a = {
      {EventType::kNetSend, 0.0, 0, 0, 0, 1, 5},
      {EventType::kNetDeliver, 0.2, 1, 0, 0, 0, 5},
  };
  std::vector<Event> b = a;
  b[1].time = 0.3;  // delivery happened later
  const obs::TraceDivergence d = obs::trace_diff(a, b);
  ASSERT_TRUE(d.diverged);
  EXPECT_EQ(d.index, 1u);
  const std::string report = obs::divergence_report(d, a, b);
  EXPECT_NE(report.find("first divergence at index 1"), std::string::npos);
  // The diverging deliver's causal ancestry includes its send.
  EXPECT_NE(report.find("causal ancestry"), std::string::npos);
  EXPECT_NE(report.find("net.send"), std::string::npos);
}

TEST(TraceDiff, StrictPrefixDivergesAtShorterLength) {
  const std::vector<Event> a = {
      {EventType::kNetSend, 0.0, 0, 0, 0, 1, 5},
      {EventType::kNetDeliver, 0.2, 1, 0, 0, 0, 5},
  };
  const std::vector<Event> b(a.begin(), a.begin() + 1);
  const obs::TraceDivergence d = obs::trace_diff(a, b);
  ASSERT_TRUE(d.diverged);
  EXPECT_EQ(d.index, 1u);
  EXPECT_NE(obs::divergence_report(d, a, b).find("(stream ended)"),
            std::string::npos);
}

// --------------------------------------------------- serialize round trip --

TEST(TraceSerialize, RoundTripIsExact) {
  // Doubles with no short decimal representation must survive exactly —
  // the whole point of shortest-round-trip formatting.
  std::vector<Event> events = {
      {EventType::kNetSend, 0.1 + 0.2, 3, 17, 2, 1, 42},
      {EventType::kMergeMidInsert, 1.0 / 3.0, 1, 9, 0, 3, 0},
      {EventType::kPartitionOpen, 1e-17, obs::kControlNode, 0, 0, 0, 0},
  };
  const std::string text = obs::serialize(events);
  std::vector<Event> back;
  ASSERT_TRUE(obs::deserialize(text, back));
  ASSERT_EQ(back.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(back[i], events[i]) << "event " << i;
  }
  // And the re-serialization is byte-identical.
  EXPECT_EQ(obs::serialize(back), text);
}

TEST(TraceSerialize, DeserializeRejectsMalformedLines) {
  std::vector<Event> out;
  std::size_t bad = 0;
  EXPECT_FALSE(obs::deserialize("nonsense t=0 n=0 ts=0:0 a=0 b=0\n", out,
                                &bad));
  EXPECT_EQ(bad, 0u);
  out.clear();
  EXPECT_FALSE(obs::deserialize(
      "net.send t=0 n=0 ts=0:0 a=0 b=0\nnet.send t=oops n=0 ts=0:0 a=0 b=0\n",
      out, &bad));
  EXPECT_EQ(bad, 1u);
  EXPECT_EQ(out.size(), 1u);  // the good line before the bad one survives
  out.clear();
  EXPECT_TRUE(obs::deserialize("", out));
  EXPECT_TRUE(out.empty());
}

// ------------------------------------------------ chaos property testing --

bool replication_metric(const std::string& name) {
  return name.rfind("lifecycle.", 0) == 0 || name.rfind("causal.", 0) == 0;
}

/// Canonical text of the lifecycle.* and causal.* entries of a registry:
/// every counter and gauge, and each histogram's count, min, max and
/// bucket counts. Histogram sums are left out; they are pinned apart.
std::string replication_fingerprint(const obs::MetricsRegistry& reg) {
  std::ostringstream os;
  os.precision(17);
  for (const auto& [name, v] : reg.counters()) {
    if (replication_metric(name)) os << name << '=' << v << '\n';
  }
  for (const auto& [name, v] : reg.gauges()) {
    if (replication_metric(name)) os << name << '=' << v << '\n';
  }
  for (const auto& [name, h] : reg.histograms()) {
    if (!replication_metric(name)) continue;
    os << name << " count=" << h.count() << " min=" << h.min()
       << " max=" << h.max() << " buckets=";
    for (const std::uint64_t c : h.bucket_counts()) os << c << ',';
    os << '\n';
  }
  return os.str();
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : text) {
    h = (h ^ c) * 0x100000001b3ull;
  }
  return h;
}

/// One seed's replication metrics, recorded from the lifecycle tracker
/// (a trace sink with its own join) before the flame timings became their
/// only derivation. `sums` are the histogram sums in registry order:
/// causal.{deliver, fanout_degree, first_deliver, last_deliver,
/// mid_insert}, lifecycle.{replication_latency, undo_churn}.
struct ReplicationPin {
  std::uint64_t originated;
  std::uint64_t fully_replicated;
  std::uint64_t undo_churn_total;
  std::uint64_t fingerprint;  ///< fnv1a(replication_fingerprint(...)).
  std::array<double, 7> sums;
};

constexpr ReplicationPin kChaosPins[] = {
    // 1000
    {162, 162, 379, 0xb7913bf9f9c92102ull,
     {219.8568972317949, 162, 219.8568972317949, 219.8568972317949,
      183.87368790168935, 219.8568972317949, 379}},
    // 1001
    {96, 96, 394, 0xf157ce67040b5c93ull,
     {205.6627725950604, 480, 11.872817572889916, 81.726602769254242,
      124.70993225585386, 81.726602769254242, 394}},
    // 1002
    {223, 223, 2889, 0xb083437c4db4e741ull,
     {991.78437996106777, 1115, 45.75032061848114, 370.17596798537443,
      874.48053883472869, 370.17596798537443, 2889}},
    // 1003
    {195, 195, 2749, 0x969f8118f9a5b95cull,
     {1044.2839725469803, 780, 69.660120886216305, 460.14432302953213,
      930.90756326681469, 460.14432302953213, 2749}},
    // 1004
    {101, 101, 412, 0x4e440bedb5732bfdull,
     {318.66306446891997, 404, 25.01886022145197, 156.10758737357261,
      211.96150180923686, 156.10758737357261, 412}},
    // 1005
    {151, 151, 1676, 0xdf3292ca1fc25ebbull,
     {813.66903948170193, 151, 813.66903948170193, 813.66903948170193,
      722.13009871510167, 813.66903948170193, 1676}},
    // 1006
    {114, 114, 1381, 0x424020d1b139594cull,
     {1134.024783700994, 570, 27.721080997382064, 397.52682904859523,
      954.48931149828218, 397.52682904859523, 1381}},
    // 1007
    {276, 276, 6658, 0x253d027d75d87b0eull,
     {1161.7143090622681, 552, 341.26315140826375, 820.45115765400328,
      1121.1858427369973, 820.45115765400328, 6658}},
    // 1008
    {173, 173, 2048, 0x3f9e9ba0a615d473ull,
     {921.94981787105439, 865, 34.976800880366241, 378.95491412836373,
      806.30703815959203, 378.95491412836373, 2048}},
    // 1009
    {247, 247, 1558, 0xa916138783d09ba0ull,
     {435.29516853782957, 741, 54.465438695121648, 254.66713929618055,
      382.09074959035604, 254.66713929618055, 1558}},
    // 1010
    {129, 129, 268, 0xd96f91d8c374f19eull,
     {121.66434218253652, 387, 10.248732064183253, 73.313947608199825,
      80.883622110694091, 73.313947608199825, 268}},
    // 1011
    {216, 216, 899, 0xd4ffcc471ecbaf18ull,
     {301.66797952220827, 648, 42.073270987093956, 166.92165672837808,
      225.72958101007777, 166.92165672837808, 899}},
};

constexpr ReplicationPin kCrashChaosPins[] = {
    // 3000
    {189, 189, 5403, 0x43bf30ce1f210cb2ull,
     {1921.1938120852199, 945, 103.53290185172543, 678.25399289067423,
      1762.6206888338243, 678.25399289067423, 5403}},
    // 3001
    {104, 104, 785, 0x488bccb7d8500e2dull,
     {418.67896949774661, 312, 64.549831088035262, 227.08490951849481,
      324.28286411906089, 227.08490951849481, 785}},
    // 3002
    {105, 105, 226, 0x4c2455f77a3a4d6eull,
     {148.71609579367646, 315, 14.07378144531237, 96.998076538634521,
      95.452362179678758, 96.998076538634521, 226}},
    // 3003
    {111, 111, 154, 0xcdb3d50d071307a0ull,
     {203.78473556644343, 111, 203.78473556644343, 203.78473556644343,
      64.452424734469147, 203.78473556644343, 154}},
    // 3004
    {186, 186, 1790, 0xa8c4f77c46ecb877ull,
     {792.17633561852756, 558, 91.376385394191487, 403.90311717908907,
      638.48283259812217, 403.90311717908907, 1790}},
    // 3005
    {90, 90, 378, 0x814215c27e4a0a48ull,
     {409.2847849343998, 270, 62.401826451669628, 212.68146057656719,
      273.74366492493454, 212.68146057656719, 378}},
    // 3006
    {71, 71, 260, 0xb0e076ff3cbc6de2ull,
     {267.29904013579767, 284, 16.536945753079973, 135.78494150594298,
      169.77333283251278, 135.78494150594298, 260}},
    // 3007
    {98, 98, 436, 0x17a7dcac731f99a2ull,
     {268.93522914474204, 294, 45.56966230696753, 145.34431708563318,
      234.55875511949944, 145.34431708563318, 436}},
    // 3008
    {229, 229, 7791, 0xe90c5d8e81c95a99ull,
     {1720.7409371538226, 916, 146.73665403184418, 814.18885232669754,
      1481.7473038104824, 814.18885232669754, 7791}},
    // 3009
    {197, 197, 777, 0x794314658e7c5206ull,
     {207.97887105451505, 591, 21.886003160380984, 122.63456271472316,
      87.984185954894258, 122.63456271472316, 777}},
    // 3010
    {157, 157, 2263, 0xbf279cd5347fb852ull,
     {656.70822789742226, 471, 121.90916088734589, 359.57403080786281,
      593.33575632808754, 359.57403080786281, 2263}},
    // 3011
    {154, 154, 2185, 0x1d5dcd50216903d1ull,
     {1001.6416761048446, 770, 48.431863646828944, 419.83760859388173,
      763.2572543580909, 419.83760859388173, 2185}},
};

void expect_replication_pin(const obs::MetricsRegistry& reg,
                            const ReplicationPin& pin) {
  const auto& counters = reg.counters();
  EXPECT_EQ(counters.at("lifecycle.updates_originated"), pin.originated);
  EXPECT_EQ(counters.at("lifecycle.updates_fully_replicated"),
            pin.fully_replicated);
  EXPECT_EQ(counters.at("lifecycle.undo_churn_total"), pin.undo_churn_total);
  const std::string text = replication_fingerprint(reg);
  EXPECT_EQ(fnv1a(text), pin.fingerprint) << text;
  std::size_t k = 0;
  for (const auto& [name, h] : reg.histograms()) {
    if (!replication_metric(name)) continue;
    ASSERT_LT(k, pin.sums.size()) << name;
    EXPECT_LE(std::abs(h.sum() - pin.sums[k]), 1e-12 * std::abs(pin.sums[k]))
        << name << " sum " << h.sum() << " vs pinned " << pin.sums[k];
    ++k;
  }
  EXPECT_EQ(k, pin.sums.size());
}

/// The causal invariants a COMPLETE stream from a converged run must
/// satisfy, cross-checked against the execution and the replication
/// metrics, which must equal the seed's pin.
void expect_causal_invariants(shard::Cluster<Air>& cluster,
                              const std::vector<Event>& stream,
                              std::size_t nodes, const ReplicationPin& pin) {
  ASSERT_TRUE(cluster.converged());
  const obs::CausalGraph g = obs::CausalGraph::build(stream);
  EXPECT_EQ(g.num_events(), stream.size());

  // Acyclic with zero orphans: every net.deliver has its send, every
  // broadcast.deliver its originate, every merge its deliver, and every
  // deliver its merge.
  EXPECT_TRUE(g.validate().ok()) << g.validate().summary();
  for (const obs::CausalEdge& e : g.edges()) {
    ASSERT_LT(e.from, e.to);  // record order is a topological witness
  }

  // Every recorded transaction has a complete chain reaching every node.
  const auto exec = cluster.execution();
  for (std::size_t i = 0; i < exec.size(); ++i) {
    const core::Timestamp& ts = exec.tx(i).ts;
    ASSERT_FALSE(g.update_chain(ts.logical, ts.node).empty())
        << "tx " << i << " has no causal chain";
    for (std::size_t n = 0; n < nodes; ++n) {
      ASSERT_FALSE(
          g.path_to_node(ts.logical, ts.node, static_cast<sim::NodeId>(n))
              .empty())
          << "tx " << i << " has no path to node " << n;
    }
  }

  // Replication metrics agree: every update delivered at and merged by
  // every replica, with the causal.* histograms fully populated.
  const obs::MetricsRegistry reg = cluster.metrics();
  const auto& counters = reg.counters();
  const auto& hist = reg.histograms();
  const std::uint64_t originated =
      counters.at("lifecycle.updates_originated");
  EXPECT_EQ(originated, exec.size());
  EXPECT_EQ(counters.at("lifecycle.updates_fully_replicated"), originated);
  EXPECT_EQ(hist.at("causal.deliver_latency").count(), nodes * originated);
  if (nodes > 1) {
    EXPECT_EQ(hist.at("causal.first_deliver_latency").count(), originated);
  }
  EXPECT_EQ(hist.at("causal.last_deliver_latency").count(), originated);
  EXPECT_TRUE(hist.count("causal.mid_insert_latency"));
  EXPECT_TRUE(hist.count("causal.fanout_degree"));

  // Per-update provenance: a timing row for every transaction, with one
  // cell per replica, delivered no earlier than originated and merged no
  // earlier than delivered.
  const obs::FlameProfile flame =
      obs::FlameProfile::build(stream, g, obs::EpochIndex::build(stream));
  for (std::size_t i = 0; i < exec.size(); ++i) {
    const core::Timestamp& ts = exec.tx(i).ts;
    const auto it = std::find_if(
        flame.timings().begin(), flame.timings().end(),
        [&](const obs::UpdateTiming& ut) {
          return ut.key == obs::CausalGraph::UpdateKey{ts.logical, ts.node};
        });
    ASSERT_NE(it, flame.timings().end()) << "tx " << i << " has no timing";
    EXPECT_GE(it->originate, 0.0);
    ASSERT_EQ(it->cells.size(), nodes);
    for (const obs::ReplicaCell& c : it->cells) {
      EXPECT_GE(c.deliver, it->originate);
      EXPECT_GE(c.merge, c.deliver);
    }
  }

  expect_replication_pin(reg, pin);
}

class CausalChaos : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CausalChaos, InvariantsHoldUnderRandomFailures) {
  sim::Rng rng(GetParam());
  const auto nodes = static_cast<std::size_t>(rng.uniform_int(2, 6));
  const double horizon = 25.0;

  harness::Scenario sc;
  sc.name = "causal-chaos";
  sc.num_nodes = nodes;
  sc.network.delay = sim::Delay::exponential(rng.uniform(0.005, 0.05),
                                             rng.uniform(0.05, 0.3), 5.0);
  sc.network.drop_probability = rng.uniform(0.0, 0.3);
  sc.faults = sim::FaultPlan(GetParam() ^ 0x9afb);
  sc.faults.random_partitions(nodes, horizon,
                              static_cast<int>(rng.uniform_int(0, 3)));
  sc.broadcast.anti_entropy_interval = rng.uniform(0.2, 0.8);
  sc.trace.enabled = true;

  shard::Cluster<Air> cluster(sc.cluster_config<Air>(GetParam() ^ 0xc4a0));
  obs::VectorSink capture;
  cluster.tracer()->add_sink(&capture);
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
  expect_causal_invariants(cluster, capture.events(), nodes,
                           kChaosPins[GetParam() - 1000]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CausalChaos,
                         ::testing::Range<std::uint64_t>(1000, 1012));

class CausalCrashChaos : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CausalCrashChaos, InvariantsHoldUnderCrashesAndPartitions) {
  sim::Rng rng(GetParam());
  const auto nodes = static_cast<std::size_t>(rng.uniform_int(2, 6));
  const double horizon = 25.0;

  harness::Scenario sc;
  sc.name = "causal-crash-chaos";
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
  sc.trace.enabled = true;

  shard::Cluster<Air> cluster(sc.cluster_config<Air>(GetParam() ^ 0xc4a5));
  obs::VectorSink capture;
  cluster.tracer()->add_sink(&capture);
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
  expect_causal_invariants(cluster, capture.events(), nodes,
                           kCrashChaosPins[GetParam() - 3000]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CausalCrashChaos,
                         ::testing::Range<std::uint64_t>(3000, 3012));

}  // namespace

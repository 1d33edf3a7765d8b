// Reliable-broadcast protocol tests: flooding, duplicate suppression,
// causal delivery, and anti-entropy recovery across partitions — the
// [GLBKSS] guarantee that "barring permanent communication failures, every
// node will eventually receive information about every transaction".
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "net/broadcast.hpp"
#include "runtime/api.hpp"
#include "sim/fault_plan.hpp"
#include "sim/network.hpp"
#include "sim/scheduler.hpp"

namespace {

using Payload = std::string;
using Rb = net::ReliableBroadcast<Payload>;

struct Harness {
  sim::Scheduler sched;
  std::unique_ptr<sim::Network> net;
  std::vector<std::unique_ptr<Rb>> nodes;
  std::vector<std::vector<Payload>> delivered;

  Harness(std::size_t n, sim::Network::Config cfg, net::BroadcastOptions opts,
          sim::FaultPlan faults = sim::FaultPlan{}) {
    net = std::make_unique<sim::Network>(sched, std::move(cfg), 7,
                                         std::move(faults));
    delivered.resize(n);
    // The scheduler and network are the runtime Executor and Transport.
    for (sim::NodeId i = 0; i < n; ++i) {
      nodes.push_back(std::make_unique<Rb>(
          sched, *net, i, n, opts, 100 + i,
          [this, i](const Rb::Wire& w) { delivered[i].push_back(w.payload); }));
    }
    for (auto& node : nodes) node->start();
  }
};

TEST(Broadcast, FloodReachesAllNodes) {
  net::BroadcastOptions opts;
  opts.anti_entropy_interval = 0.0;  // flood only
  Harness h(4, {}, opts);
  h.nodes[2]->broadcast("m1");
  h.sched.run();
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_EQ(h.delivered[i].size(), 1u) << "node " << i;
    EXPECT_EQ(h.delivered[i][0], "m1");
  }
}

TEST(Broadcast, LocalDeliveryIsSynchronous) {
  net::BroadcastOptions opts;
  opts.anti_entropy_interval = 0.0;
  Harness h(3, {}, opts);
  h.nodes[0]->broadcast("mine");
  // Before running the scheduler at all, the origin has delivered its own.
  EXPECT_EQ(h.delivered[0].size(), 1u);
  EXPECT_EQ(h.delivered[1].size(), 0u);
}

TEST(Broadcast, DuplicatesSuppressed) {
  // With flooding AND anti-entropy, nodes receive payloads repeatedly; each
  // must be delivered exactly once.
  net::BroadcastOptions opts;
  opts.anti_entropy_interval = 0.1;
  Harness h(3, {}, opts);
  h.nodes[0]->broadcast("a");
  h.nodes[1]->broadcast("b");
  h.sched.run_until(5.0);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(h.delivered[i].size(), 2u) << "node " << i;
  }
  EXPECT_GT(h.nodes[0]->stats().anti_entropy_rounds, 0u);
}

TEST(Broadcast, CausalDeliveryOrdersDependentMessages) {
  // Node 0 broadcasts m0; node 1 receives it, then broadcasts m1 (which
  // causally depends on m0). Node 2 is partitioned from node 0 but not from
  // node 1 — it receives m1 first on the wire, and must buffer it until m0
  // arrives via anti-entropy.
  sim::Network::Config cfg;
  cfg.delay = sim::Delay::constant(0.01);
  sim::FaultPlan faults;
  faults.cut({{0, 1}, {1, 2}}, 0.0, 1.0);  // 0-2 cut; both can talk to 1
  net::BroadcastOptions opts;
  opts.causal = true;
  opts.anti_entropy_interval = 0.3;
  Harness h(3, cfg, opts, faults);
  h.nodes[0]->broadcast("m0");
  h.sched.run_until(0.05);  // node 1 has m0 now
  ASSERT_EQ(h.delivered[1].size(), 1u);
  h.nodes[1]->broadcast("m1");
  h.sched.run_until(0.2);
  // Node 2 got m1's wire message but must not deliver before m0.
  EXPECT_TRUE(h.delivered[2].empty() ||
              (h.delivered[2].size() == 2 && h.delivered[2][0] == "m0"));
  h.sched.run_until(5.0);  // anti-entropy brings m0 over via node 1
  ASSERT_EQ(h.delivered[2].size(), 2u);
  EXPECT_EQ(h.delivered[2][0], "m0");
  EXPECT_EQ(h.delivered[2][1], "m1");
  EXPECT_GT(h.nodes[2]->stats().causally_buffered, 0u);
}

TEST(Broadcast, NonCausalModeDeliversInArrivalOrder) {
  sim::FaultPlan faults;
  faults.cut({{0, 1}, {1, 2}}, 0.0, 1.0);
  net::BroadcastOptions opts;
  opts.causal = false;
  opts.anti_entropy_interval = 0.3;
  Harness h(3, {}, opts, faults);
  h.nodes[0]->broadcast("m0");
  h.sched.run_until(0.05);
  h.nodes[1]->broadcast("m1");
  h.sched.run_until(0.2);
  // m1 arrives at node 2 before m0 and is delivered immediately.
  ASSERT_EQ(h.delivered[2].size(), 1u);
  EXPECT_EQ(h.delivered[2][0], "m1");
  h.sched.run_until(5.0);
  ASSERT_EQ(h.delivered[2].size(), 2u);
  EXPECT_EQ(h.delivered[2][1], "m0");
}

TEST(Broadcast, AntiEntropyRecoversFromFullPartition) {
  net::BroadcastOptions opts;
  opts.anti_entropy_interval = 0.5;
  Harness h(4, {}, opts, sim::FaultPlan{}.split_halves(4, 2, 0.0, 10.0));
  // Both sides broadcast during the partition.
  h.nodes[0]->broadcast("left");
  h.nodes[3]->broadcast("right");
  h.sched.run_until(9.0);
  EXPECT_EQ(h.delivered[0].size(), 1u);
  EXPECT_EQ(h.delivered[3].size(), 1u);
  // After the heal, anti-entropy spreads everything everywhere.
  h.sched.run_until(30.0);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(h.delivered[i].size(), 2u) << "node " << i;
  }
}

TEST(Broadcast, SurvivesHeavyRandomLoss) {
  sim::Network::Config cfg;
  cfg.drop_probability = 0.5;
  net::BroadcastOptions opts;
  opts.anti_entropy_interval = 0.2;
  Harness h(3, cfg, opts);
  for (int i = 0; i < 20; ++i) {
    h.nodes[static_cast<std::size_t>(i % 3)]->broadcast("m" +
                                                        std::to_string(i));
  }
  h.sched.run_until(60.0);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(h.delivered[i].size(), 20u) << "node " << i;
  }
}

TEST(Broadcast, GossipOnlyModePropagatesWithoutFlood) {
  net::BroadcastOptions opts;
  opts.flood = false;
  opts.anti_entropy_interval = 0.2;
  Harness h(3, {}, opts);
  h.nodes[0]->broadcast("g");
  h.sched.run_until(0.05);
  // Without flooding, nothing has crossed the wire yet.
  EXPECT_EQ(h.delivered[1].size() + h.delivered[2].size(), 0u);
  h.sched.run_until(20.0);
  EXPECT_EQ(h.delivered[1].size(), 1u);
  EXPECT_EQ(h.delivered[2].size(), 1u);
  EXPECT_GT(h.nodes[0]->stats().anti_entropy_repairs +
                h.nodes[1]->stats().anti_entropy_repairs +
                h.nodes[2]->stats().anti_entropy_repairs,
            0u);
}

TEST(Broadcast, BoundedRepairConvergesViaContinuationDigests) {
  // A long partition accumulates 30 missing payloads on each side; with a
  // cap of 3 per repair reply, recovery proceeds as a chain of truncated
  // batches and immediate continuation digests instead of one giant burst.
  net::BroadcastOptions opts;
  opts.anti_entropy_interval = 0.5;
  opts.max_repairs_per_message = 3;
  Harness h(4, {}, opts, sim::FaultPlan{}.split_halves(4, 2, 0.0, 10.0));
  for (int i = 0; i < 30; ++i) {
    h.nodes[static_cast<std::size_t>(i % 2)]->broadcast("L" +
                                                        std::to_string(i));
    h.nodes[static_cast<std::size_t>(2 + i % 2)]->broadcast(
        "R" + std::to_string(i));
  }
  h.sched.run_until(60.0);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(h.delivered[i].size(), 60u) << "node " << i;
  }
  std::uint64_t truncated = 0, continuations = 0;
  for (const auto& n : h.nodes) {
    truncated += n->stats().repairs_truncated;
    continuations += n->stats().continuation_digests;
  }
  EXPECT_GT(truncated, 0u);
  EXPECT_GT(continuations, 0u);
}

TEST(Broadcast, RepairStorePruningTracksTheWindow) {
  // Without pruning every node retains every wire message forever (the
  // store IS the history); with pruning, messages every peer has digested
  // are discarded, so at quiescence the store is (nearly) empty.
  const auto run = [](bool prune) {
    net::BroadcastOptions opts;
    opts.anti_entropy_interval = 0.2;
    opts.prune_repair_store = prune;
    Harness h(3, {}, opts);
    for (int i = 0; i < 40; ++i) {
      h.nodes[static_cast<std::size_t>(i % 3)]->broadcast(
          "m" + std::to_string(i));
    }
    h.sched.run_until(30.0);
    std::size_t retained = 0;
    std::uint64_t pruned = 0;
    for (const auto& n : h.nodes) {
      EXPECT_EQ(n->total_delivered(), 40u);
      retained += n->store_retained();
      pruned += n->stats().store_pruned;
    }
    return std::make_pair(retained, pruned);
  };
  const auto [retained_off, pruned_off] = run(false);
  EXPECT_EQ(retained_off, 3 * 40u);
  EXPECT_EQ(pruned_off, 0u);
  const auto [retained_on, pruned_on] = run(true);
  EXPECT_LT(retained_on, 3 * 40u);
  EXPECT_GT(pruned_on, 0u);
}

TEST(Broadcast, PrunedStoreStillRepairsAPartitionedPeer) {
  // Pruning keys off received digests, so a partitioned peer (which cannot
  // digest) implicitly pins the store: after the heal everything it lacks
  // is still repairable.
  net::BroadcastOptions opts;
  opts.anti_entropy_interval = 0.3;
  opts.prune_repair_store = true;
  Harness h(3, {}, opts,
            sim::FaultPlan{}.split_halves(3, 1, 0.0, 8.0));  // {0} vs {1, 2}
  for (int i = 0; i < 12; ++i) {
    h.nodes[static_cast<std::size_t>(1 + i % 2)]->broadcast(
        "p" + std::to_string(i));
  }
  h.sched.run_until(40.0);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(h.delivered[i].size(), 12u) << "node " << i;
  }
}

/// Transport the test drives by hand: datagrams for `held` are captured
/// (to be fed to it later in any order); all others queue until pump().
class ManualTransport final : public runtime::Transport {
 public:
  explicit ManualTransport(sim::NodeId held) : held_(held) {}

  void register_node(sim::NodeId node, Handler handler) override {
    if (handlers_.size() <= node) handlers_.resize(node + 1);
    handlers_[node] = std::move(handler);
  }
  std::size_t node_count() const override { return handlers_.size(); }
  std::uint64_t send(sim::NodeId src, sim::NodeId dst,
                     std::any payload) override {
    runtime::Message m{src, dst, ++next_id_, std::move(payload)};
    (dst == held_ ? captured : queue_).push_back(std::move(m));
    return next_id_;
  }
  std::size_t send_to_all(sim::NodeId src, const std::any& payload) override {
    std::size_t sent = 0;
    for (sim::NodeId dst = 0; dst < handlers_.size(); ++dst) {
      if (dst == src) continue;
      send(src, dst, payload);
      ++sent;
    }
    return sent;
  }
  void set_node_down(sim::NodeId, bool) override {}
  bool node_down(sim::NodeId) const override { return false; }

  /// Deliver every queued datagram (and whatever those deliveries send).
  void pump() {
    while (!queue_.empty()) {
      const runtime::Message m = std::move(queue_.front());
      queue_.pop_front();
      handlers_[m.dst](m);
    }
  }
  void feed(const runtime::Message& m) { handlers_[m.dst](m); }

  std::deque<runtime::Message> captured;

 private:
  sim::NodeId held_;
  std::vector<Handler> handlers_;
  std::deque<runtime::Message> queue_;
  std::uint64_t next_id_ = 0;
};

TEST(Broadcast, CausalDrainOrderMatchesGolden) {
  // Origins 0-2 broadcast a 36-wire causal run, seeing each other's wires
  // at irregular points (so deps cross origins); node 3 receives the run
  // out of order. When a gap fills, several wires from different origins
  // become ready at once, and the drain releases them in arrival order.
  // Every 5th delivery at node 3 also broadcasts from inside the delivery
  // callback — a re-entrant accept() — as a released serializable
  // transaction does. The golden sequence pins that tie-break.
  sim::Scheduler sched;
  ManualTransport transport(3);
  net::BroadcastOptions opts;
  opts.anti_entropy_interval = 0.0;
  std::vector<std::unique_ptr<Rb>> nodes;
  std::vector<std::pair<sim::NodeId, std::uint64_t>> order;
  // issued_at[k]: deliveries made before node 3's broadcast k + 1.
  // own_overtaken: own wires delivered after an older ready wire.
  std::vector<std::size_t> issued_at;
  std::size_t own_overtaken = 0;
  for (sim::NodeId i = 0; i < 4; ++i) {
    nodes.push_back(std::make_unique<Rb>(
        sched, transport, i, 4, opts, 100 + i,
        [&nodes, &order, &issued_at, &own_overtaken, i](const Rb::Wire& w) {
          if (i != 3) return;
          order.emplace_back(w.origin, w.origin_seq);
          if (w.origin == 3 && order.size() > issued_at[w.origin_seq - 1] + 1) {
            ++own_overtaken;
          }
          if (order.size() % 5 == 0) {
            issued_at.push_back(order.size());
            nodes[3]->broadcast("reentrant");
          }
        }));
  }
  // A fixed LCG rather than sim::Rng: the golden must not depend on the
  // standard library's distribution implementation.
  std::uint64_t lcg = 0x5eed;
  const auto next = [&lcg](std::uint64_t bound) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return (lcg >> 33) % bound;
  };
  for (int k = 0; k < 36; ++k) {
    nodes[next(3)]->broadcast("w" + std::to_string(k));
    if (next(3) == 0) transport.pump();
  }
  std::vector<runtime::Message> run(transport.captured.begin(),
                                transport.captured.end());
  transport.captured.clear();
  ASSERT_EQ(run.size(), 36u);
  // Window-bounded shuffle: each wire moves at most 6 places, so gaps
  // open and fill many times instead of the whole run waiting on one.
  for (std::size_t i = run.size(); i-- > 1;) {
    const std::size_t lo = i > 6 ? i - 6 : 0;
    std::swap(run[i], run[lo + next(i - lo + 1)]);
  }
  std::size_t multi_origin_releases = 0;
  for (const runtime::Message& m : run) {
    const std::size_t before = order.size();
    transport.feed(m);
    std::set<sim::NodeId> origins;
    for (std::size_t j = before; j < order.size(); ++j) {
      if (order[j].first != 3) origins.insert(order[j].first);
    }
    if (origins.size() > 1) ++multi_origin_releases;
  }
  EXPECT_GE(multi_origin_releases, 3u);
  EXPECT_GE(own_overtaken, 1u);
  EXPECT_EQ(nodes[3]->total_delivered(), 36u + nodes[3]->own_issued());
  std::string got;
  for (const auto& [origin, seq] : order) {
    got += std::to_string(origin) + "." + std::to_string(seq) + " ";
  }
  const std::string golden =
      "1.1 1.2 1.3 1.4 0.1 3.1 1.5 1.6 2.1 1.7 3.2 2.2 2.3 2.4 1.8 3.3 0.2 "
      "1.9 0.3 0.4 3.4 2.5 2.6 0.5 1.10 3.5 1.11 1.12 2.7 0.6 1.13 3.6 1.14 "
      "2.8 1.15 3.7 2.9 2.10 2.11 0.7 3.8 2.12 1.16 1.17 ";
  EXPECT_EQ(got, golden);
}

TEST(Broadcast, DeliveredVectorTracksPerOriginCounts) {
  net::BroadcastOptions opts;
  opts.anti_entropy_interval = 0.0;
  Harness h(3, {}, opts);
  h.nodes[0]->broadcast("a0");
  h.nodes[0]->broadcast("a1");
  h.nodes[2]->broadcast("c0");
  h.sched.run();
  const auto& v = h.nodes[1]->delivered_vector();
  EXPECT_EQ(v[0], 2u);
  EXPECT_EQ(v[1], 0u);
  EXPECT_EQ(v[2], 1u);
  EXPECT_EQ(h.nodes[1]->total_delivered(), 3u);
}

}  // namespace

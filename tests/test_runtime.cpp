// The runtime execution API (src/runtime/): both backends behind
// runtime::Executor / runtime::Transport.
//
// Four claims under test:
//
//   * Simulator trace invariance — the scheduler and network implement the
//     runtime API directly: the same (scenario, seed) yields byte-identical
//     merged trace streams across repeated runs over the chaos and
//     crash-chaos seed tiers, and nodes wired by hand to a scheduler and
//     network reproduce a golden trace.
//   * Hooks — SimBackend::set_hooks installs one registration on the
//     scheduler and network: a fixed run's dispatch and fate sequence
//     matches a golden, and attaching a stream observer leaves a caller's
//     hooks in place.
//   * ThreadedBackend — real threads, real clocks: the bus keeps the
//     Transport contract, seeded runs converge, the full oracle stack
//     (prefix-subsequence condition, transitivity, state == replay) holds
//     on the assembled execution, and the merged per-node trace shards
//     satisfy the send/fate shutdown contract.
//   * Shutdown drain — drain_and_stop refuses new sends before tracing
//     them and delivers everything already on the bus, so no kNetSend is
//     ever orphaned (runtime::validate_message_fates), even when shutdown
//     races a full-throttle workload or crash/restart churn.
#include <gtest/gtest.h>

#include <any>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "analysis/execution_checker.hpp"
#include "analysis/streaming.hpp"
#include "apps/airline/airline.hpp"
#include "apps/dictionary/dictionary.hpp"
#include "harness/scenario.hpp"
#include "harness/workload.hpp"
#include "obs/tracer.hpp"
#include "runtime/realtime_cluster.hpp"
#include "runtime/sim_backend.hpp"
#include "runtime/threaded_backend.hpp"
#include "runtime/validate.hpp"
#include "shard/cluster.hpp"
#include "sim/fault_plan.hpp"
#include "sim/rng.hpp"

namespace {

namespace al = apps::airline;
using Air = al::BasicAirline<15, 900, 300>;
using Dict = apps::dictionary::Dictionary;
using DictRequest = apps::dictionary::Request;

// ---------------------------------------------------------------------------
// Simulator tier: runs on the runtime API are trace-invariant
// ---------------------------------------------------------------------------

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

struct ChaosRun {
  std::string trace;
  std::vector<Air::State> states;
  bool checker_clean = false;
};

ChaosRun run_chaos(harness::Scenario sc, std::uint64_t seed) {
  sc.trace.enabled = true;
  shard::Cluster<Air> cluster(sc.cluster_config<Air>(seed));
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
  }
  const core::Execution<Air> exec = cluster.execution();
  r.checker_clean = analysis::check_prefix_subsequence_condition(exec).ok() &&
                    analysis::is_transitive(exec) && cluster.converged();
  // No fate validation here: a settled simulator run stops at an arbitrary
  // instant with deliveries still scheduled, so open sends are legitimate.
  // The every-send-resolves contract belongs to the threaded backend's
  // drain (tested below).
  return r;
}

void expect_trace_invariant(std::uint64_t seed, bool with_crashes) {
  const harness::Scenario sc = chaos_scenario(seed, with_crashes);
  const ChaosRun a = run_chaos(sc, seed ^ 0x17a7);
  const ChaosRun b = run_chaos(sc, seed ^ 0x17a7);
  ASSERT_EQ(a.trace, b.trace) << "seed " << seed;
  ASSERT_EQ(a.states.size(), b.states.size());
  for (std::size_t n = 0; n < a.states.size(); ++n) {
    EXPECT_EQ(a.states[n], b.states[n]) << "seed " << seed;
  }
  EXPECT_TRUE(a.checker_clean) << "seed " << seed;
}

class RuntimeChaosTier : public ::testing::TestWithParam<std::uint64_t> {};
class RuntimeCrashChaosTier : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(RuntimeChaosTier, PortIsTraceInvariant) {
  expect_trace_invariant(GetParam(), /*with_crashes=*/false);
}
TEST_P(RuntimeCrashChaosTier, PortIsTraceInvariant) {
  expect_trace_invariant(GetParam(), /*with_crashes=*/true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RuntimeChaosTier,
                         ::testing::Range<std::uint64_t>(1000, 1012));
INSTANTIATE_TEST_SUITE_P(Seeds, RuntimeCrashChaosTier,
                         ::testing::Range<std::uint64_t>(3000, 3012));

// ---------------------------------------------------------------------------
// Hand-wired nodes: golden trace
// ---------------------------------------------------------------------------

TEST(RuntimeGolden, HandWiredNodesReproduceGoldenTrace) {
  // Three dictionary nodes constructed directly on a scheduler and network,
  // outside any Cluster. The golden was recorded when nodes could also be
  // wired through sim::Network& adapters and both wirings produced this
  // stream.
  sim::Scheduler sched;
  sim::Network net(sched, {}, /*seed=*/7);
  obs::Tracer tracer(1 << 14);
  constexpr std::size_t kNodes = 3;
  net::BroadcastOptions opts;
  opts.anti_entropy_interval = 0.3;
  std::vector<std::unique_ptr<shard::Node<Dict>>> nodes;
  for (std::size_t i = 0; i < kNodes; ++i) {
    nodes.push_back(std::make_unique<shard::Node<Dict>>(
        static_cast<core::NodeId>(i), sched, net, kNodes, opts,
        /*checkpoint_interval=*/8, /*seed=*/100 + i, false, &tracer));
  }
  for (auto& n : nodes) n->start();
  sim::Rng rng(42);
  for (int k = 0; k < 30; ++k) {
    const auto who = static_cast<std::size_t>(rng.uniform_int(0, kNodes - 1));
    const double at = rng.uniform(0.0, 5.0);
    sched.schedule_at(at, [&, who, k] {
      nodes[who]->submit(
          DictRequest::insert(static_cast<apps::dictionary::Key>(k % 7),
                              "v" + std::to_string(k)),
          sched.now());
    });
  }
  sched.run_until(20.0);
  for (std::size_t i = 1; i < kNodes; ++i) {
    EXPECT_EQ(nodes[i]->state(), nodes[0]->state()) << "node " << i;
  }
  ASSERT_EQ(tracer.evicted(), 0u);
  const std::vector<obs::Event> trace = tracer.ring();
  EXPECT_EQ(trace.size(), 428u);
  EXPECT_EQ(obs::digest(trace), 0xabf05eae63b0c2f6ull);
}

// ---------------------------------------------------------------------------
// Hooks: one registration on the scheduler and network
// ---------------------------------------------------------------------------

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(RuntimeHooks, DispatchAndFateSequenceMatchesGolden) {
  // Three lossy broadcast endpoints observed through SimBackend::set_hooks.
  // The golden was recorded when the scheduler and network still had their
  // own observer surfaces, and both routes saw this sequence.
  sim::Network::Config ncfg;
  ncfg.drop_probability = 0.2;
  runtime::SimBackend backend(ncfg, /*seed=*/7);
  constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;
  std::size_t dispatches = 0, fates = 0;
  std::uint64_t dispatch_digest = kFnvBasis, fate_digest = kFnvBasis;
  std::size_t by_fate[5] = {};
  runtime::Hooks hooks;
  hooks.on_dispatch = [&](runtime::NodeId worker, sim::Time t,
                          std::uint64_t id) {
    EXPECT_EQ(worker, runtime::kNoWorker);
    std::uint64_t bits = 0;
    std::memcpy(&bits, &t, sizeof bits);
    dispatch_digest = fnv_mix(fnv_mix(dispatch_digest, bits), id);
    ++dispatches;
  };
  hooks.on_message_fate = [&](runtime::NodeId src, runtime::NodeId dst,
                              std::uint64_t id, runtime::MessageFate fate) {
    const auto f = static_cast<std::uint64_t>(fate);
    fate_digest =
        fnv_mix(fnv_mix(fnv_mix(fnv_mix(fate_digest, src), dst), id), f);
    ++by_fate[f];
    ++fates;
  };
  backend.set_hooks(std::move(hooks));
  using Rb = net::ReliableBroadcast<std::string>;
  std::vector<std::unique_ptr<Rb>> ends;
  net::BroadcastOptions opts;
  opts.anti_entropy_interval = 0.2;
  for (sim::NodeId i = 0; i < 3; ++i) {
    ends.push_back(std::make_unique<Rb>(backend.scheduler(), backend.network(),
                                        i, 3, opts, 100 + i,
                                        [](const Rb::Wire&) {}));
  }
  for (auto& e : ends) e->start();
  ends[0]->broadcast("x");
  ends[2]->broadcast("y");
  backend.scheduler().run_until(3.0);
  EXPECT_EQ(dispatches, 63u);
  EXPECT_EQ(dispatch_digest, 0xa87bf5466d7b5f38ull);
  EXPECT_EQ(fates, 68u);
  EXPECT_EQ(fate_digest, 0xb37d5f95af146e44ull);
  using F = runtime::MessageFate;
  EXPECT_EQ(by_fate[static_cast<int>(F::kSent)], 30u);
  EXPECT_EQ(by_fate[static_cast<int>(F::kDelivered)], 30u);
  EXPECT_EQ(by_fate[static_cast<int>(F::kDroppedRandom)], 8u);
}

TEST(RuntimeHooks, CallerHooksSurviveStreamObserver) {
  // Attaching a stream observer is node-level and leaves the backend's
  // hooks alone: hooks a caller installed first still see every dispatch.
  shard::ClusterConfig cfg;
  cfg.num_nodes = 3;
  shard::Cluster<Dict> cluster(cfg);
  std::size_t dispatches = 0, fates = 0;
  runtime::Hooks hooks;
  hooks.on_dispatch = [&](runtime::NodeId, sim::Time, std::uint64_t) {
    ++dispatches;
  };
  hooks.on_message_fate = [&](runtime::NodeId, runtime::NodeId, std::uint64_t,
                              runtime::MessageFate) { ++fates; };
  cluster.backend().set_hooks(std::move(hooks));
  analysis::StreamingChecker<Dict> checker(cfg.num_nodes);
  cluster.set_stream_observer(&checker);
  for (int k = 0; k < 6; ++k) {
    cluster.submit_at(0.1 * k, static_cast<core::NodeId>(k % 3),
                      DictRequest::insert(
                          static_cast<apps::dictionary::Key>(k), "v"));
  }
  cluster.run_until(2.0);
  EXPECT_GT(cluster.metrics().counters().at("checker.deliveries"), 0u);
  EXPECT_GT(cluster.scheduler().events_executed(), 0u);
  EXPECT_EQ(dispatches, cluster.scheduler().events_executed());
  EXPECT_GT(fates, 0u);
}

// ---------------------------------------------------------------------------
// ThreadedBackend: primitives
// ---------------------------------------------------------------------------

TEST(ThreadedBackend, TimersFireAndCancelWorks) {
  runtime::ThreadedBackend backend(/*num_nodes=*/1, /*seed=*/1);
  backend.start();
  std::atomic<int> fired{0};
  runtime::Executor& ex = backend.executor(0);
  const auto far = ex.schedule_after(60.0, [&] { fired += 1000; });
  ex.schedule_after(0.005, [&] { fired += 1; });
  EXPECT_TRUE(ex.cancel(far));
  EXPECT_FALSE(ex.cancel(far));  // double-cancel reports failure
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  backend.drain_and_stop();
  EXPECT_EQ(fired.load(), 1);
}

TEST(ThreadedBackend, BusKeepsTransportContract) {
  runtime::ThreadedBackend backend(/*num_nodes=*/2, /*seed=*/1);
  std::vector<std::tuple<runtime::NodeId, runtime::NodeId, std::uint64_t,
                         runtime::MessageFate>>
      fates;
  runtime::Hooks hooks;
  hooks.on_message_fate = [&fates](runtime::NodeId src, runtime::NodeId dst,
                                   std::uint64_t id, runtime::MessageFate f) {
    fates.emplace_back(src, dst, id, f);
  };
  backend.set_hooks(std::move(hooks));
  runtime::Transport& bus = backend.transport();
  const auto ignore = [](const runtime::Message&) {};
  // Node 2 has no worker.
  EXPECT_THROW(bus.register_node(2, ignore), std::out_of_range);
  EXPECT_THROW(bus.set_node_down(2, true), std::out_of_range);
  EXPECT_THROW(static_cast<void>(bus.node_down(2)), std::out_of_range);
  EXPECT_THROW(bus.send(0, 2, std::any{}), std::out_of_range);
  bus.register_node(0, ignore);
  bus.register_node(1, ignore);
  EXPECT_EQ(bus.node_count(), 2u);
  EXPECT_FALSE(bus.node_down(1));
  bus.set_node_down(1, true);
  EXPECT_TRUE(bus.node_down(1));
  EXPECT_FALSE(bus.node_down(0));
  // A down source sends nothing: the drop happens before an id exists.
  EXPECT_EQ(bus.send(1, 0, std::any{}), 0u);
  ASSERT_EQ(fates.size(), 1u);
  EXPECT_EQ(std::get<0>(fates[0]), 1u);
  EXPECT_EQ(std::get<1>(fates[0]), 0u);
  EXPECT_EQ(std::get<2>(fates[0]), 0u);
  EXPECT_EQ(std::get<3>(fates[0]), runtime::MessageFate::kDroppedCrashed);
  bus.set_node_down(1, false);
  EXPECT_FALSE(bus.node_down(1));
  backend.start();
  EXPECT_THROW(bus.register_node(0, ignore), std::logic_error);
  backend.drain_and_stop();
}

TEST(ThreadedBackend, DeferRunsAfterCurrentTaskOnOwnWorker) {
  runtime::ThreadedBackend backend(/*num_nodes=*/1, /*seed=*/1);
  backend.start();
  std::vector<int> order;
  std::atomic<bool> done{false};
  backend.post(0, [&] {
    backend.executor(0).defer([&] {
      order.push_back(2);
      done = true;
    });
    order.push_back(1);
  });
  while (!done) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  backend.drain_and_stop();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// ---------------------------------------------------------------------------
// ThreadedBackend: convergence + checker-clean property tier
// ---------------------------------------------------------------------------

class ThreadedSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ThreadedSeeds, ConvergesAndPassesFullOracleStack) {
  const std::uint64_t seed = GetParam();
  runtime::RealtimeConfig cfg;
  cfg.num_nodes = 3;
  cfg.seed = seed;
  cfg.broadcast.anti_entropy_interval = 0.02;
  cfg.broadcast.anti_entropy_jitter = 0.005;
  cfg.bus.min_delay = 0.0002;
  cfg.bus.max_delay = 0.002;
  cfg.bus.drop_probability = 0.05;
  runtime::RealtimeCluster<Dict> rc(cfg);
  sim::Rng rng(seed);
  constexpr std::uint64_t kRequests = 40;
  for (std::uint64_t k = 0; k < kRequests; ++k) {
    const auto node = static_cast<core::NodeId>(rng.uniform_int(0, 2));
    rc.submit(node, DictRequest::insert(
                        static_cast<apps::dictionary::Key>(k % 11),
                        "s" + std::to_string(seed) + "-" + std::to_string(k)));
  }
  ASSERT_TRUE(rc.await_convergence(/*timeout_s=*/60.0, kRequests))
      << "seed " << seed;
  rc.shutdown();
  // Post hoc, on joined state: the full oracle stack.
  EXPECT_TRUE(rc.converged()) << "seed " << seed;
  EXPECT_EQ(rc.total_originated(), kRequests) << "seed " << seed;
  const core::Execution<Dict> exec = rc.execution();
  EXPECT_TRUE(analysis::check_prefix_subsequence_condition(exec).ok())
      << "seed " << seed;
  EXPECT_TRUE(analysis::is_transitive(exec)) << "seed " << seed;
  EXPECT_EQ(rc.node(0).state(), exec.final_state()) << "seed " << seed;
  const runtime::FateValidation fates = rc.validate_fates();
  EXPECT_TRUE(fates.ok()) << "seed " << seed << ": " << fates.orphaned.size()
                          << " orphaned, " << fates.unmatched.size()
                          << " unmatched";
  EXPECT_GT(fates.sends, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ThreadedSeeds,
                         ::testing::Range<std::uint64_t>(7000, 7008));

// ---------------------------------------------------------------------------
// Shutdown drain: the send/fate contract under racing shutdown + crashes
// ---------------------------------------------------------------------------

TEST(ThreadedRuntime, ImmediateShutdownNeverOrphansASend) {
  // Fire a burst and shut down while the bus is still busy: drain must
  // refuse new sends before tracing them and deliver what's in flight.
  runtime::RealtimeConfig cfg;
  cfg.num_nodes = 4;
  cfg.seed = 99;
  cfg.broadcast.anti_entropy_interval = 0.01;
  cfg.bus.min_delay = 0.001;
  cfg.bus.max_delay = 0.005;
  runtime::RealtimeCluster<Dict> rc(cfg);
  for (std::uint64_t k = 0; k < 60; ++k) {
    rc.submit(static_cast<core::NodeId>(k % 4),
              DictRequest::insert(static_cast<apps::dictionary::Key>(k), "x"));
  }
  // Let the burst get airborne (delays are 1–5 ms, so plenty is still in
  // flight), then shut down mid-traffic.
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  rc.shutdown();
  const runtime::FateValidation fates = rc.validate_fates();
  EXPECT_TRUE(fates.ok()) << fates.orphaned.size() << " orphaned, "
                          << fates.unmatched.size() << " unmatched";
  EXPECT_GT(fates.sends, 0u);
  EXPECT_EQ(fates.resolved, fates.sends);
}

TEST(ThreadedRuntime, CrashRestartChurnStaysCheckerClean) {
  runtime::RealtimeConfig cfg;
  cfg.num_nodes = 3;
  cfg.seed = 1234;
  cfg.broadcast.anti_entropy_interval = 0.02;
  cfg.bus.min_delay = 0.0002;
  cfg.bus.max_delay = 0.002;
  cfg.bus.drop_probability = 0.1;
  runtime::RealtimeCluster<Dict> rc(cfg);
  std::uint64_t submitted = 0;
  for (std::uint64_t k = 0; k < 20; ++k) {
    rc.submit(static_cast<core::NodeId>(k % 2),  // node 2 will crash
              DictRequest::insert(static_cast<apps::dictionary::Key>(k), "a"));
    ++submitted;
  }
  rc.crash(2);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  for (std::uint64_t k = 0; k < 20; ++k) {
    rc.submit(static_cast<core::NodeId>(k % 2),
              DictRequest::insert(static_cast<apps::dictionary::Key>(100 + k),
                                  "b"));
    ++submitted;
  }
  rc.restart(2);
  // Node 2 was down for every submission, so all `submitted` landed on
  // live nodes; after restart, anti-entropy must catch node 2 up.
  ASSERT_TRUE(rc.await_convergence(/*timeout_s=*/60.0, submitted));
  rc.shutdown();
  EXPECT_TRUE(rc.converged());
  const core::Execution<Dict> exec = rc.execution();
  EXPECT_TRUE(analysis::check_prefix_subsequence_condition(exec).ok());
  EXPECT_TRUE(analysis::is_transitive(exec));
  EXPECT_EQ(rc.node(2).state(), exec.final_state());
  EXPECT_TRUE(rc.validate_fates().ok());
  EXPECT_GT(rc.node(2).engine_stats().crashes, 0u);
}

}  // namespace

// Differential suite: streaming online checkers vs the post-hoc oracles.
//
// The streaming checkers (analysis/streaming.hpp) watch the node pipeline
// live and claim to emit the SAME violations — byte-identical messages,
// same transaction indices — that the post-hoc oracles produce from the
// assembled execution. This suite holds them to it: every chaos,
// crash-chaos and correlated-fault seed from the existing tiers is
// replayed with a streaming checker attached, and the violation sets are
// compared report by report. The comparison is as sets, not sequences —
// the oracles emit condition (4) messages in a second pass over the
// actual states while the streaming checker interleaves them per
// finalized transaction.
//
// The Byzantine tier then arms the payload adversary
// (sim::FaultPlan::byzantine_payload) on the same seeds: corrupted
// replicas stop converging, decisions made on poisoned states draw real
// condition-(3) violations, and streaming and post-hoc must STILL agree
// byte for byte — the oracles replay the true originated records, the
// streaming checker shadows them live, and both see the same poisoned
// decisions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/cost_bounds.hpp"
#include "analysis/execution_checker.hpp"
#include "analysis/incident.hpp"
#include "analysis/streaming.hpp"
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
using Checker = analysis::StreamingChecker<Air>;

// The streaming checker cannot measure the run's max missing count before
// the run ends, so theorem 7 runs in the hypothesis-verifying mode with an
// explicit k on both sides of the comparison.
constexpr std::size_t kTheorem7K = 2;

bool air_preserves(const al::Request& r, int c) {
  return Air::Theory::preserves_cost(r, c);
}
bool air_unsafe(const al::Request& r, int c) {
  return !Air::Theory::safe_for(r, c);
}
double air_f(int c, std::size_t k) { return Air::Theory::f_bound(c, k); }

Checker::Options full_options(obs::TraceSource* tracer = nullptr,
                              bool bounded = false) {
  Checker::Options o;
  for (int c = 0; c < Air::kNumConstraints; ++c) {
    o.theorem5.push_back({c, air_preserves, air_f});
  }
  o.theorem7.push_back({Air::kOverbooking, air_unsafe, air_f, kTheorem7K});
  o.bounded_memory = bounded;
  o.tracer = tracer;
  return o;
}

std::vector<std::string> sorted(std::vector<std::string> v) {
  std::sort(v.begin(), v.end());
  return v;
}

/// The differential heart: every oracle report and its streaming
/// counterpart agree as violation multisets (byte-identical messages) and
/// on the violating transaction indices. The streaming-only divergence
/// report is deliberately excluded — the oracles never see replica states,
/// so it has no post-hoc analogue.
void expect_matches_oracles(shard::Cluster<Air>& cluster, const Checker& ck) {
  const auto exec = cluster.execution();
  ASSERT_EQ(ck.txs_finalized(), exec.size());
  EXPECT_EQ(ck.order_violations(), 0u);

  const analysis::CheckReport oracle =
      analysis::check_prefix_subsequence_condition(exec);
  EXPECT_EQ(oracle.title(), ck.prefix_report().title());
  EXPECT_EQ(sorted(oracle.violations()),
            sorted(ck.prefix_report().violations()));
  EXPECT_EQ(oracle.violating_txs(), ck.prefix_report().violating_txs());

  ASSERT_EQ(ck.theorem5_reports().size(),
            static_cast<std::size_t>(Air::kNumConstraints));
  for (int c = 0; c < Air::kNumConstraints; ++c) {
    const analysis::CheckReport t5 =
        analysis::check_theorem5(exec, c, air_preserves, air_f);
    EXPECT_EQ(sorted(t5.violations()),
              sorted(ck.theorem5_reports()[static_cast<std::size_t>(c)]
                         .violations()))
        << "theorem 5, constraint " << c;
  }
  const analysis::CheckReport t7 = analysis::check_theorem7(
      exec, Air::kOverbooking, air_unsafe, air_f, kTheorem7K);
  ASSERT_EQ(ck.theorem7_reports().size(), 1u);
  EXPECT_EQ(sorted(t7.violations()),
            sorted(ck.theorem7_reports()[0].violations()));
}

// --- Clean tiers: the chaos seeds, replayed with the checker attached ----
//
// The scenario recipes below are copied verbatim from test_chaos.cpp (same
// seeds, same rng draw order) so the executions are the exact ones the
// chaos tiers already certify — the streaming checker must reproduce the
// oracles' clean bill of health on each, and its per-delivery divergence
// check must never fire without an adversary.

class StreamingChaos : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StreamingChaos, MatchesOraclesUnderRandomFailures) {
  sim::Rng rng(GetParam());
  const auto nodes = static_cast<std::size_t>(rng.uniform_int(2, 6));
  const double horizon = 25.0;

  harness::Scenario sc;
  sc.name = "streaming-chaos";
  sc.num_nodes = nodes;
  sc.network.delay = sim::Delay::exponential(rng.uniform(0.005, 0.05),
                                             rng.uniform(0.05, 0.3), 5.0);
  sc.network.drop_probability = rng.uniform(0.0, 0.3);
  sc.faults = sim::FaultPlan(GetParam() ^ 0x9afb);
  sc.faults.random_partitions(nodes, horizon,
                              static_cast<int>(rng.uniform_int(0, 3)));
  sc.broadcast.anti_entropy_interval = rng.uniform(0.2, 0.8);

  shard::Cluster<Air> cluster(sc.cluster_config<Air>(GetParam() ^ 0xc4a0));
  Checker ck(nodes, full_options());
  cluster.set_stream_observer(&ck);

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
  ck.finish(cluster.scheduler().now());

  EXPECT_EQ(ck.divergence_events(), 0u);
  expect_matches_oracles(cluster, ck);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamingChaos,
                         ::testing::Range<std::uint64_t>(1000, 1012));

class StreamingCrashChaos : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StreamingCrashChaos, MatchesOraclesUnderCrashesAndPartitions) {
  sim::Rng rng(GetParam());
  const auto nodes = static_cast<std::size_t>(rng.uniform_int(2, 6));
  const double horizon = 25.0;

  harness::Scenario sc;
  sc.name = "streaming-crash-chaos";
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

  shard::Cluster<Air> cluster(sc.cluster_config<Air>(GetParam() ^ 0xc4a5));
  Checker ck(nodes, full_options());
  cluster.set_stream_observer(&ck);

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
  ck.finish(cluster.scheduler().now());

  // Amnesia restarts rewind shadows and re-deliver history; the checker
  // must track the rewind, not mistake replays for divergence.
  EXPECT_EQ(ck.divergence_events(), 0u);
  expect_matches_oracles(cluster, ck);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamingCrashChaos,
                         ::testing::Range<std::uint64_t>(3000, 3012));

class StreamingCorrelatedChaos
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StreamingCorrelatedChaos, MatchesOraclesUnderCorrelatedFaults) {
  sim::Rng rng(GetParam());
  const auto nodes = static_cast<std::size_t>(rng.uniform_int(3, 6));
  const double horizon = 25.0;

  sim::ChaosOptions opt;
  opt.partition_events = static_cast<int>(rng.uniform_int(1, 3));
  opt.crash_events = static_cast<int>(rng.uniform_int(1, 3));
  opt.rack_loss_probability = 0.6;
  opt.disk_failure_probability = 0.4;
  opt.amnesia_probability = 0.3;

  harness::Scenario sc;
  sc.name = "streaming-correlated-chaos";
  sc.num_nodes = nodes;
  sc.network.delay = sim::Delay::exponential(rng.uniform(0.005, 0.05),
                                             rng.uniform(0.05, 0.3), 5.0);
  sc.network.drop_probability = rng.uniform(0.0, 0.25);
  sc.faults = sim::FaultPlan::chaos(GetParam() ^ 0xc0fa, nodes, horizon, opt);
  sc.broadcast.anti_entropy_interval = rng.uniform(0.2, 0.8);

  shard::Cluster<Air> cluster(sc.cluster_config<Air>(GetParam() ^ 0xc4a7));
  Checker ck(nodes, full_options());
  cluster.set_stream_observer(&ck);

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
  ck.finish(cluster.scheduler().now());

  // Stale-disk restarts truncate shadows; replays must not read as
  // divergence here either.
  EXPECT_EQ(ck.divergence_events(), 0u);
  expect_matches_oracles(cluster, ck);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamingCorrelatedChaos,
                         ::testing::Range<std::uint64_t>(5000, 5010));

// --- Serializable mixed mode ---------------------------------------------
//
// Serializable submissions reserve a timestamp before deciding, which is
// the one case where the finalization watermark must stall on a
// reservation rather than on observed traffic. Mix both modes and demand
// oracle identity.
TEST(StreamingSerializable, MixedModeMatchesOracles) {
  harness::Scenario sc = harness::lan(3);
  shard::Cluster<Air> cluster(sc.cluster_config<Air>(0x5e41));
  Checker ck(3, full_options());
  cluster.set_stream_observer(&ck);

  sim::Rng rng(0x5e42);
  for (int i = 0; i < 80; ++i) {
    const double t = rng.uniform(0.0, 15.0);
    const auto node = static_cast<core::NodeId>(rng.uniform_int(0, 2));
    const auto person = static_cast<al::Person>(rng.uniform_int(1, 60));
    al::Request req = al::Request::request(person);
    const double roll = rng.uniform01();
    if (roll < 0.25) {
      req = al::Request::move_up();
    } else if (roll < 0.4) {
      req = al::Request::move_down();
    } else if (roll < 0.5) {
      req = al::Request::cancel(person);
    }
    if (rng.bernoulli(0.3)) {
      cluster.submit_serializable_at(t, node, req);
    } else {
      cluster.submit_at(t, node, req);
    }
  }
  cluster.run_until(15.0);
  cluster.settle();
  ck.finish(cluster.scheduler().now());

  EXPECT_EQ(ck.divergence_events(), 0u);
  expect_matches_oracles(cluster, ck);
}

// --- Byzantine tier -------------------------------------------------------

class StreamingByzantine : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StreamingByzantine, MatchesOraclesUnderPayloadCorruption) {
  sim::Rng rng(GetParam());
  const auto nodes = static_cast<std::size_t>(rng.uniform_int(2, 6));
  const double horizon = 25.0;

  harness::Scenario sc;
  sc.name = "streaming-byzantine";
  sc.num_nodes = nodes;
  sc.network.delay = sim::Delay::exponential(rng.uniform(0.005, 0.05),
                                             rng.uniform(0.05, 0.3), 5.0);
  sc.network.drop_probability = rng.uniform(0.0, 0.3);
  sc.faults = sim::FaultPlan(GetParam() ^ 0x9afb);
  sc.faults.random_partitions(nodes, horizon,
                              static_cast<int>(rng.uniform_int(0, 3)));
  sc.faults.byzantine_payload(/*corrupt=*/0.08, /*duplicate=*/0.05,
                              /*reorder=*/0.05, /*start=*/0.0,
                              /*end=*/horizon);
  sc.broadcast.anti_entropy_interval = rng.uniform(0.2, 0.8);

  shard::Cluster<Air> cluster(sc.cluster_config<Air>(GetParam() ^ 0xc4a0));
  Checker ck(nodes, full_options());
  cluster.set_stream_observer(&ck);

  harness::AirlineWorkload w;
  w.duration = horizon;
  w.request_rate = rng.uniform(1.0, 5.0);
  w.mover_rate = rng.uniform(1.0, 6.0);
  w.move_down_fraction = rng.uniform(0.1, 0.5);
  w.cancel_fraction = rng.uniform(0.0, 0.3);
  w.max_persons = 200;
  harness::drive_airline(cluster, w, GetParam() ^ 0x5eed);

  // No settle(): corrupted replicas never converge. Run the horizon, then
  // a drain window so in-flight wires land.
  cluster.run_until(horizon);
  cluster.run_until(horizon + 20.0);
  ck.finish(cluster.scheduler().now());

  // Streaming and post-hoc agree even on poisoned executions.
  expect_matches_oracles(cluster, ck);

  // An applied corruption changes some replica's merged state; the
  // untrusting per-delivery check must see it the moment it lands.
  const obs::MetricsRegistry reg = cluster.metrics();
  const std::uint64_t corrupted = reg.counters().at("broadcast.byz_corrupted");
  if (corrupted > 0) {
    EXPECT_GT(ck.divergence_events(), 0u) << "silent corruption";
  }

  RecordProperty("byz_corrupted", static_cast<int>(corrupted));
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamingByzantine,
                         ::testing::Range<std::uint64_t>(1000, 1012));

// Across the Byzantine seed sweep the adversary must actually land hits
// and the checkers must actually report: a sweep where nothing fired
// would make the differential identity above vacuous.
TEST(StreamingByzantine, AdversaryAndDetectorBothFireAcrossSweep) {
  std::uint64_t total_corrupted = 0;
  std::uint64_t total_divergence = 0;
  std::size_t total_violations = 0;
  for (std::uint64_t seed = 1000; seed < 1012; ++seed) {
    sim::Rng rng(seed);
    const auto nodes = static_cast<std::size_t>(rng.uniform_int(2, 6));
    const double horizon = 25.0;

    harness::Scenario sc;
    sc.num_nodes = nodes;
    sc.network.delay = sim::Delay::exponential(rng.uniform(0.005, 0.05),
                                               rng.uniform(0.05, 0.3), 5.0);
    sc.network.drop_probability = rng.uniform(0.0, 0.3);
    sc.faults = sim::FaultPlan(seed ^ 0x9afb);
    sc.faults.random_partitions(nodes, horizon,
                                static_cast<int>(rng.uniform_int(0, 3)));
    sc.faults.byzantine_payload(0.08, 0.05, 0.05, 0.0, horizon);
    sc.broadcast.anti_entropy_interval = rng.uniform(0.2, 0.8);

    shard::Cluster<Air> cluster(sc.cluster_config<Air>(seed ^ 0xc4a0));
    Checker ck(nodes, full_options());
    cluster.set_stream_observer(&ck);

    harness::AirlineWorkload w;
    w.duration = horizon;
    w.request_rate = rng.uniform(1.0, 5.0);
    w.mover_rate = rng.uniform(1.0, 6.0);
    w.move_down_fraction = rng.uniform(0.1, 0.5);
    w.cancel_fraction = rng.uniform(0.0, 0.3);
    w.max_persons = 200;
    harness::drive_airline(cluster, w, seed ^ 0x5eed);

    cluster.run_until(horizon);
    cluster.run_until(horizon + 20.0);
    ck.finish(cluster.scheduler().now());

    const obs::MetricsRegistry reg = cluster.metrics();
    total_corrupted += reg.counters().at("broadcast.byz_corrupted");
    total_divergence += ck.divergence_events();
    total_violations += ck.violation_count();
  }
  EXPECT_GT(total_corrupted, 0u);
  EXPECT_GT(total_divergence, 0u);
  EXPECT_GT(total_violations, 0u);
}

// --- Bounded memory -------------------------------------------------------
//
// With Options::bounded_memory on a rewind-free plan, the checker's
// retained footprint (pending + ledgers + shadows) tracks the delivery
// window, not the history: pruning must neither change any report nor
// leave more than a window's worth of entries once the cluster settles.
TEST(StreamingBoundedMemory, RetainedFootprintIsWindowSized) {
  harness::Scenario sc = harness::wan(4);
  shard::Cluster<Air> cluster(sc.cluster_config<Air>(0xb0b0));
  Checker ck(4, full_options(nullptr, /*bounded=*/true));
  cluster.set_stream_observer(&ck);

  harness::AirlineWorkload w;
  w.duration = 40.0;
  w.request_rate = 5.0;
  w.mover_rate = 4.0;
  harness::drive_airline(cluster, w, 0xb0b1);

  cluster.run_until(w.duration);
  cluster.settle();
  ck.finish(cluster.scheduler().now());

  // Pruning is an optimization, never a semantic change.
  EXPECT_EQ(ck.divergence_events(), 0u);
  expect_matches_oracles(cluster, ck);

  const std::size_t history = cluster.execution().size();
  ASSERT_GT(history, 150u) << "run too small to distinguish window from history";
  // Once settled, every update is globally delivered: ledgers prune to
  // empty, shadows fold, pending drains.
  EXPECT_LT(ck.retained_entries(), 64u);
  // And the running peaks stayed window-sized too — the unbounded
  // footprint would be ~nodes * history for the shadows alone.
  const obs::MetricsRegistry reg = cluster.metrics();
  EXPECT_LT(reg.counters().at("checker.peak_ledger_entries"), history);
  EXPECT_LT(reg.counters().at("checker.peak_shadow_entries"), 4 * history / 2);
  EXPECT_EQ(reg.counters().at("checker.txs_finalized"), history);
}

// --- Trace pinning --------------------------------------------------------

// The latent flaw this guards against: by the time a post-run rendering
// asks the ring for a violation's context, a busy run has wrapped the ring
// past the offending update and the window silently comes back empty.
// Windows pinned at detection time must survive the wrap.
TEST(StreamingTracePinning, PinnedWindowsSurviveRingWrap) {
  harness::Scenario sc = harness::lan(3);
  sc.trace.enabled = true;
  sc.trace.ring_capacity = 64;  // tiny: guarantee eviction
  sc.faults.byzantine_payload(/*corrupt=*/1.0, 0.0, 0.0, 0.0, 1e18);

  shard::Cluster<Air> cluster(sc.cluster_config<Air>(0x71a5));
  Checker ck(3, full_options(cluster.tracer()));
  cluster.set_stream_observer(&ck);

  harness::AirlineWorkload w;
  w.duration = 20.0;
  w.request_rate = 4.0;
  w.mover_rate = 4.0;
  harness::drive_airline(cluster, w, 0x71a6);

  cluster.run_until(w.duration);
  cluster.run_until(w.duration + 10.0);
  ck.finish(cluster.scheduler().now());

  ASSERT_GT(ck.divergence_events(), 0u);
  ASSERT_FALSE(ck.pinned_windows().empty());
  ASSERT_GT(cluster.tracer()->evicted(), 0u);

  // At least one pinned window captured context that the live ring has
  // since wrapped past — exactly the case the pre-pinning dump lost.
  bool survived_wrap = false;
  for (const obs::PinnedWindow& pw : ck.pinned_windows()) {
    if (!pw.events.empty() &&
        cluster.tracer()->slice_around(pw.ts_logical, pw.ts_node).empty()) {
      survived_wrap = true;
      break;
    }
  }
  EXPECT_TRUE(survived_wrap);
}

// An incident bundle renders from pins, not from the live ring: with no
// stream at all, a report whose tx has a pinned window prints exactly that
// window; one without says so instead of coming back empty.
TEST(StreamingTracePinning, IncidentRenderUsesPinnedWindows) {
  harness::Scenario sc = harness::lan(2);
  sc.trace.enabled = true;
  shard::Cluster<Air> cluster(sc.cluster_config<Air>(0x71b0));
  cluster.submit_at(0.1, 0, al::Request::request(1));
  cluster.submit_at(0.2, 1, al::Request::request(2));
  cluster.run_until(1.0);
  cluster.settle();
  const auto exec = cluster.execution();
  ASSERT_EQ(exec.size(), 2u);

  analysis::CheckReport report("pinning self-test");
  report.add_violation("synthetic violation at tx 0", 0);
  report.add_violation("synthetic violation at tx 1", 1);

  std::vector<obs::PinnedWindow> pinned;
  obs::PinnedWindow pw;
  pw.ts_logical = exec.tx(0).ts.logical;
  pw.ts_node = exec.tx(0).ts.node;
  pw.events = cluster.tracer()->slice_around(pw.ts_logical, pw.ts_node, 4);
  ASSERT_FALSE(pw.events.empty());
  pinned.push_back(pw);

  const obs::IncidentReport bundle =
      analysis::build_incident_report(report, exec, {}, pinned);
  ASSERT_EQ(bundle.incidents().size(), 2u);
  EXPECT_EQ(obs::serialize(bundle.incidents()[0].window),
            obs::serialize(pw.events));
  const std::string dump = bundle.render();
  EXPECT_NE(dump.find("pinning self-test"), std::string::npos);
  EXPECT_NE(dump.find("   trace window (" + std::to_string(pw.events.size()) +
                      " events):\n"),
            std::string::npos);
  EXPECT_NE(dump.find("(no trace window available)"),
            std::string::npos);  // tx 1 has no pin
}

}  // namespace

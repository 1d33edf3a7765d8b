// Crash/recovery fault injection (sim/fault_plan.hpp + Node::crash/restart).
//
// The paper's availability claim (section 1.2) is continued operation
// "barring permanent communication failures" — a crashed node is a
// transient communication failure plus (in amnesia mode) loss of volatile
// state. These tests exercise both recovery modes end-to-end and verify the
// section 3 guarantee stack survives: replicas converge, executions satisfy
// the prefix-subsequence condition, decisions are never re-run, external
// actions never re-fire, and runs stay bit-for-bit deterministic.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <stdexcept>
#include <string>

#include "analysis/execution_checker.hpp"
#include "apps/airline/airline.hpp"
#include "harness/scenario.hpp"
#include "harness/workload.hpp"
#include "obs/tracer.hpp"
#include "shard/cluster.hpp"
#include "sim/fault_plan.hpp"

namespace {

namespace al = apps::airline;
using Air = al::BasicAirline<15, 900, 300>;
using Cluster = shard::Cluster<Air>;

/// Canonical byte serialization of an execution trace, for the determinism
/// regression: two runs agree iff these strings are identical.
template <class App>
std::string trace_bytes(const core::Execution<App>& exec) {
  std::ostringstream os;
  for (std::size_t i = 0; i < exec.size(); ++i) {
    const auto& tx = exec.tx(i);
    os << tx.ts.logical << ':' << tx.ts.node << " origin=" << tx.origin
       << " t=" << tx.real_time << " prefix[";
    for (std::size_t j : tx.prefix) os << j << ',';
    os << "] ext[";
    for (const auto& a : tx.external_actions) {
      os << a.kind << '=' << a.subject << ',';
    }
    os << "]\n";
  }
  return os.str();
}

/// The full section 3 stack every crash-recovery run must pass.
void expect_guarantees(Cluster& cluster) {
  ASSERT_TRUE(cluster.converged());
  const auto exec = cluster.execution();
  EXPECT_TRUE(analysis::check_prefix_subsequence_condition(exec).ok());
  EXPECT_TRUE(analysis::is_transitive(exec));
  EXPECT_EQ(cluster.node(0).state(), exec.final_state());
  // Decisions ran exactly once each: every decision produced exactly one
  // recorded transaction, and no crash/recovery path re-ran any.
  EXPECT_EQ(cluster.aggregate_engine_stats().decisions_run, exec.size());
}

TEST(FaultPlanCrashes, DownWindowsAndQueries) {
  sim::FaultPlan plan;
  plan.crash(1, 2.0, 5.0).crash(0, 4.0, 6.0, sim::RecoveryMode::kAmnesia);
  EXPECT_FALSE(plan.down(1, 1.9));
  EXPECT_TRUE(plan.down(1, 2.0));
  EXPECT_TRUE(plan.down(1, 4.9));
  EXPECT_FALSE(plan.down(1, 5.0));
  EXPECT_TRUE(plan.down(0, 4.5));
  EXPECT_FALSE(plan.down(2, 4.5));
  EXPECT_DOUBLE_EQ(plan.last_restart_time(), 6.0);
  EXPECT_DOUBLE_EQ(plan.total_downtime(), 5.0);
  EXPECT_NE(plan.describe().find("2 crash event(s)"), std::string::npos);
}

TEST(FaultPlanCrashes, RejectsEmptyAndOverlappingWindows) {
  sim::FaultPlan plan;
  plan.crash(0, 1.0, 2.0);
  EXPECT_THROW(plan.crash(0, 1.5, 3.0), std::invalid_argument);
  EXPECT_THROW(plan.crash(1, 2.0, 2.0), std::invalid_argument);
  // A different node may overlap in time.
  EXPECT_NO_THROW(plan.crash(1, 1.5, 3.0));
}

TEST(FaultPlanCrashes, RandomGeneratorProducesValidSchedules) {
  sim::FaultPlan plan(7);
  plan.random_crashes(4, 30.0, 12, 1.0, 4.0, 0.5);
  const auto& events = plan.crashes();
  for (const auto& ev : events) {
    EXPECT_LT(ev.node, 4u);
    EXPECT_LT(ev.start, ev.end);
    for (const auto& other : events) {
      if (&ev == &other || ev.node != other.node) continue;
      EXPECT_TRUE(ev.end <= other.start || other.end <= ev.start)
          << "overlapping windows for node " << ev.node;
    }
  }
  // Determinism of the generator itself: same plan seed, same schedule.
  sim::FaultPlan plan2(7);
  plan2.random_crashes(4, 30.0, 12, 1.0, 4.0, 0.5);
  const auto& events2 = plan2.crashes();
  ASSERT_EQ(events.size(), events2.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].node, events2[i].node);
    EXPECT_DOUBLE_EQ(events[i].start, events2[i].start);
    EXPECT_EQ(static_cast<int>(events[i].mode),
              static_cast<int>(events2[i].mode));
  }
}

/// Node 2 crashes mid-run and recovers durably: its log survives, it only
/// catches up on what it missed, and the whole stack still holds.
TEST(CrashRecovery, DurableRecoveryConvergesAndCatchesUp) {
  harness::Scenario sc = harness::lan(3);
  sc.faults.crash(2, 5.0, 10.0, sim::RecoveryMode::kDurable);
  Cluster cluster(sc.cluster_config<Air>(42));
  harness::AirlineWorkload w;
  w.duration = 15.0;
  w.request_rate = 4.0;
  w.mover_rate = 2.0;
  harness::drive_airline(cluster, w, 43);
  cluster.run_until(w.duration);
  cluster.settle();
  expect_guarantees(cluster);

  const shard::EngineStats& s2 = cluster.node(2).engine_stats();
  EXPECT_EQ(s2.crashes, 1u);
  EXPECT_EQ(s2.recoveries, 1u);
  EXPECT_DOUBLE_EQ(s2.downtime, 5.0);
  EXPECT_GT(s2.catch_up_updates, 0u);  // it missed traffic while down
  EXPECT_GE(s2.recovery_lag, 0.0);
  EXPECT_FALSE(cluster.node(2).down());
  EXPECT_FALSE(cluster.node(2).catching_up());
  // Down-node message loss was actually exercised.
  EXPECT_GT(cluster.network().stats().dropped_crashed, 0u);
  // Durable recovery keeps the pre-crash log: no amnesia machinery ran.
  EXPECT_EQ(cluster.node(2).broadcast_stats().amnesia_resets, 0u);
}

/// Node 2 loses everything (amnesia) and resynchronizes from its stable
/// outbox plus peer repair.
TEST(CrashRecovery, AmnesiaRecoveryConverges) {
  harness::Scenario sc = harness::lan(3);
  sc.faults.crash(2, 5.0, 8.0, sim::RecoveryMode::kAmnesia);
  Cluster cluster(sc.cluster_config<Air>(42));
  // Ensure node 2 originated transactions before the crash, so the stable
  // outbox replay has something to do.
  for (double t : {0.5, 1.0, 1.5, 2.0}) {
    cluster.submit_at(t, 2, al::Request::move_up());
  }
  harness::AirlineWorkload w;
  w.duration = 15.0;
  w.request_rate = 4.0;
  harness::drive_airline(cluster, w, 43);
  cluster.run_until(w.duration);
  cluster.settle();
  expect_guarantees(cluster);

  const shard::EngineStats& s2 = cluster.node(2).engine_stats();
  EXPECT_EQ(s2.crashes, 1u);
  EXPECT_EQ(s2.recoveries, 1u);
  EXPECT_GT(s2.catch_up_updates, 0u);
  const net::BroadcastStats& b2 = cluster.node(2).broadcast_stats();
  EXPECT_EQ(b2.amnesia_resets, 1u);
  EXPECT_GE(b2.outbox_replays, 4u);  // its own pre-crash transactions
}

/// With identical seed/workload and no post-crash submissions at the
/// crashed node, durable and amnesia recovery must reach the identical
/// final state: recovery mode changes how node 2 rebuilds, never what the
/// cluster decided.
TEST(CrashRecovery, DurableAndAmnesiaReachIdenticalFinalState) {
  const auto run = [](sim::RecoveryMode mode) {
    harness::Scenario sc = harness::lan(3);
    sc.faults.crash(2, 4.0, 9.0, mode);
    Cluster cluster(sc.cluster_config<Air>(77));
    // Node 2 participates before its crash...
    for (double t : {0.5, 1.5, 2.5}) {
      cluster.submit_at(t, 2, al::Request::move_up());
    }
    // ...but all later traffic goes to the survivors, so both modes accept
    // exactly the same transactions.
    sim::Rng rng(78);
    for (int i = 1; i <= 40; ++i) {
      const double t = 0.25 * i;
      const auto node = static_cast<core::NodeId>(rng.uniform_int(0, 1));
      cluster.submit_at(t, node, al::Request::request(
                                     static_cast<al::Person>(i)));
    }
    cluster.run_until(12.0);
    cluster.settle();
    expect_guarantees(cluster);
    return trace_bytes(cluster.execution());
  };
  EXPECT_EQ(run(sim::RecoveryMode::kDurable),
            run(sim::RecoveryMode::kAmnesia));
}

/// A node crashes while a partition is open; both failures must heal
/// independently and the run still converges checker-clean.
TEST(CrashRecovery, CrashDuringOpenPartitionHealsAfterBothEnd) {
  harness::Scenario sc = harness::lan(4);
  sc.faults.split_halves(4, 2, 3.0, 12.0)  // {0,1} | {2,3}
      .crash(1, 5.0, 9.0, sim::RecoveryMode::kAmnesia);  // inside the cut
  Cluster cluster(sc.cluster_config<Air>(11));
  harness::AirlineWorkload w;
  w.duration = 15.0;
  w.request_rate = 3.0;
  w.mover_rate = 2.0;
  harness::drive_airline(cluster, w, 12);
  cluster.run_until(w.duration);
  cluster.settle();
  expect_guarantees(cluster);
  EXPECT_EQ(cluster.node(1).engine_stats().crashes, 1u);
  EXPECT_GT(cluster.network().stats().dropped_partition, 0u);
  EXPECT_GT(cluster.network().stats().dropped_crashed, 0u);
}

/// Submissions reaching a down origin are rejected and counted — never
/// silently executed, never resurrected after the restart.
TEST(CrashRecovery, DownNodeRejectsSubmissionsNeverExecutesThem) {
  harness::Scenario sc = harness::lan(3);
  sc.faults.crash(0, 5.0, 10.0);
  Cluster cluster(sc.cluster_config<Air>(5));
  // Three accepted before the crash, four rejected during, two after.
  for (double t : {1.0, 2.0, 3.0}) {
    cluster.submit_at(t, 0, al::Request::move_up());
  }
  for (double t : {6.0, 7.0, 8.0, 9.0}) {
    cluster.submit_at(t, 0, al::Request::move_up());
  }
  for (double t : {11.0, 12.0}) {
    cluster.submit_at(t, 0, al::Request::move_up());
  }
  cluster.run_until(13.0);
  cluster.settle();
  expect_guarantees(cluster);
  EXPECT_EQ(cluster.scheduled_submissions(), 9u);
  EXPECT_EQ(cluster.node(0).engine_stats().rejected_submissions, 4u);
  EXPECT_EQ(cluster.execution().size(), 5u);
  EXPECT_EQ(cluster.node(0).originated().size(), 5u);
}

/// A crash kills pending serializable reservations: the client observes
/// unavailability (counted as a rejection) and the waiting protocol stays
/// live for transactions submitted after the restart.
TEST(CrashRecovery, CrashDropsPendingSerializableReservations) {
  harness::Scenario sc = harness::lan(3);
  Cluster cluster(sc.cluster_config<Air>(9));
  cluster.submit_serializable_at(0.05, 0, al::Request::move_up());
  cluster.run_until(0.06);  // reservation made, promises not yet gathered
  ASSERT_EQ(cluster.pending_serializable(), 1u);
  cluster.node(0).crash(0.06);
  EXPECT_EQ(cluster.pending_serializable(), 0u);
  EXPECT_EQ(cluster.node(0).engine_stats().rejected_submissions, 1u);
  cluster.node(0).restart(sim::RecoveryMode::kDurable, 0.5);
  // Post-restart serializable work completes normally.
  cluster.submit_serializable_at(1.0, 0, al::Request::move_up());
  cluster.run_until(1.0);
  cluster.settle();
  expect_guarantees(cluster);
  EXPECT_EQ(cluster.execution().size(), 1u);
}

/// External actions fire exactly once per decision, even when the origin
/// subsequently loses all volatile state and replays its outbox.
TEST(CrashRecovery, ExternalActionsFireExactlyOnceAcrossCrash) {
  harness::Scenario sc = harness::lan(3);
  sc.faults.crash(0, 4.0, 7.0, sim::RecoveryMode::kAmnesia);
  Cluster cluster(sc.cluster_config<Air>(21));
  // All MOVE-UPs centralized at node 0 — the node that later loses all
  // volatile state. Sequential grants at one origin touch each person at
  // most once, so any decision re-fired by the outbox replay would show as
  // a duplicate grant-seat action.
  for (int i = 1; i <= 8; ++i) {
    cluster.submit_at(0.2 * i, 0,
                      al::Request::request(static_cast<al::Person>(i)));
  }
  for (double t : {2.0, 2.2, 2.4}) {          // grants before the crash
    cluster.submit_at(t, 0, al::Request::move_up());
  }
  for (double t : {8.0, 8.2, 8.4}) {          // grants after amnesia restart
    cluster.submit_at(t, 0, al::Request::move_up());
  }
  cluster.run_until(10.0);
  cluster.settle();
  expect_guarantees(cluster);
  const auto exec = cluster.execution();
  std::map<std::string, int> grants;
  for (std::size_t i = 0; i < exec.size(); ++i) {
    for (const auto& a : exec.tx(i).external_actions) {
      if (a.kind == "grant-seat") ++grants[a.subject];
    }
  }
  EXPECT_EQ(grants.size(), 6u);  // three grants each side of the crash
  for (const auto& [subject, count] : grants) {
    EXPECT_EQ(count, 1) << "duplicate grant for " << subject;
  }
}

/// Manual crash()/restart() are idempotent, and direct submission on a
/// down node is an error (scheduled submissions are rejected instead).
TEST(CrashRecovery, CrashAndRestartAreIdempotent) {
  harness::Scenario sc = harness::lan(2);
  Cluster cluster(sc.cluster_config<Air>(3));
  auto& node = cluster.node(0);
  node.crash(1.0);
  node.crash(2.0);  // no-op
  EXPECT_EQ(node.engine_stats().crashes, 1u);
  EXPECT_THROW(node.submit(al::Request::move_up(), 2.5), std::logic_error);
  EXPECT_FALSE(node.try_submit(al::Request::move_up(), 2.5).has_value());
  EXPECT_EQ(node.engine_stats().rejected_submissions, 1u);
  node.restart(sim::RecoveryMode::kDurable, 3.0);
  node.restart(sim::RecoveryMode::kAmnesia, 4.0);  // no-op
  EXPECT_EQ(node.engine_stats().recoveries, 1u);
  EXPECT_EQ(node.broadcast_stats().amnesia_resets, 0u);
  EXPECT_DOUBLE_EQ(node.engine_stats().downtime, 2.0);
  EXPECT_TRUE(node.try_submit(al::Request::move_up(), 4.5).has_value());
}

/// Determinism regression: with crashes (both modes), a partition, and
/// random drops all enabled, the same Cluster::Config::seed must produce a
/// byte-identical execution trace across two fresh runs.
TEST(CrashRecovery, SameSeedWithCrashesIsByteIdentical) {
  const auto run = [] {
    harness::Scenario sc = harness::wan(4);
    sc.faults.split_halves(4, 2, 6.0, 10.0)
        .crash(1, 3.0, 6.5, sim::RecoveryMode::kDurable)
        .crash(3, 8.0, 11.0, sim::RecoveryMode::kAmnesia);
    // Tracing on: the serialized event stream (every scheduler dispatch,
    // message fate, merge, crash...) joins the compared bytes, so any
    // nondeterminism anywhere in the stack fails this test — and any
    // behavior change *caused by* enabling tracing would show up as a
    // diff in the execution trace the other tiers capture untraced.
    sc.trace.enabled = true;
    Cluster cluster(sc.cluster_config<Air>(0xD37E));
    obs::VectorSink events;
    cluster.tracer()->add_sink(&events);
    harness::AirlineWorkload w;
    w.duration = 14.0;
    w.request_rate = 5.0;
    w.mover_rate = 3.0;
    w.cancel_fraction = 0.2;
    harness::drive_airline(cluster, w, 0x5EED);
    cluster.run_until(w.duration);
    cluster.settle();
    std::ostringstream os;
    os << trace_bytes(cluster.execution());
    os << cluster.aggregate_engine_stats().summary() << '\n';
    for (std::size_t n = 0; n < cluster.num_nodes(); ++n) {
      os << cluster.node(n).broadcast_stats().summary() << '\n';
    }
    os << obs::serialize(events.events());
    os << cluster.metrics().to_json() << '\n';
    return os.str();
  };
  const std::string a = run();
  const std::string b = run();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("crashes=2"), std::string::npos);
  EXPECT_NE(a.find("node.crash"), std::string::npos);
  EXPECT_NE(a.find("node.restart"), std::string::npos);
}

/// Disk failure (stale-disk recovery): node 2 restarts from a checkpoint
/// that lost the most recent 60% of its merged log. The truncated suffix
/// is re-merged through undo/redo plus anti-entropy repair, and the full
/// guarantee stack holds afterwards.
TEST(StaleCheckpointRecovery, RecoversFromTruncatedLog) {
  harness::Scenario sc = harness::lan(3);
  sc.faults.disk_failure(2, 8.0, 12.0, /*keep_fraction=*/0.4);
  Cluster cluster(sc.cluster_config<Air>(42));
  // Node 2 originates before the failure so its own outbox tail is part of
  // what the stale restart must re-accept.
  for (double t : {0.5, 1.0, 1.5, 2.0}) {
    cluster.submit_at(t, 2, al::Request::move_up());
  }
  harness::AirlineWorkload w;
  w.duration = 16.0;
  w.request_rate = 4.0;
  w.mover_rate = 2.0;
  harness::drive_airline(cluster, w, 43);
  cluster.run_until(w.duration);
  cluster.settle();
  expect_guarantees(cluster);

  const shard::EngineStats& s2 = cluster.node(2).engine_stats();
  EXPECT_EQ(s2.crashes, 1u);
  EXPECT_EQ(s2.recoveries, 1u);
  EXPECT_GT(s2.catch_up_updates, 0u);  // the lost suffix plus downtime traffic
  const net::BroadcastStats& b2 = cluster.node(2).broadcast_stats();
  EXPECT_EQ(b2.stale_resets, 1u);
  EXPECT_EQ(b2.amnesia_resets, 0u);
  EXPECT_GE(b2.outbox_replays, 0u);
  EXPECT_FALSE(cluster.node(2).down());
}

/// keep_fraction edge cases: 1.0 degenerates to a durable restart (nothing
/// truncated), 0.0 is a full rewind — strictly worse than amnesia's stable
/// log, yet still recoverable from peers.
TEST(StaleCheckpointRecovery, KeepFractionEdgeCases) {
  for (const double keep : {1.0, 0.0}) {
    harness::Scenario sc = harness::lan(3);
    sc.faults.disk_failure(1, 6.0, 9.0, keep);
    Cluster cluster(sc.cluster_config<Air>(7));
    harness::AirlineWorkload w;
    w.duration = 12.0;
    w.request_rate = 3.0;
    w.mover_rate = 2.0;
    harness::drive_airline(cluster, w, 8);
    cluster.run_until(w.duration);
    cluster.settle();
    expect_guarantees(cluster);
    EXPECT_EQ(cluster.node(1).broadcast_stats().stale_resets, 1u)
        << "keep=" << keep;
  }
}

/// Determinism regression for the new fault modes: a run mixing stale-disk
/// recovery, a rack power loss, and a mid-broadcast crash must be
/// byte-identical across two fresh runs with the same seed — execution
/// trace, stats, serialized event stream, and metrics alike.
TEST(StaleCheckpointRecovery, SameSeedIsByteIdentical) {
  const auto run = [] {
    harness::Scenario sc = harness::wan(4);
    sc.faults = sim::FaultPlan(0xFA17);
    sc.faults.disk_failure(1, 3.0, 6.5)  // seeded keep_fraction draw
        .rack_power_loss({2, 3}, 4, 8.0, 11.0)
        .crash_mid_broadcast(0, 3, /*down_for=*/2.0);
    sc.trace.enabled = true;
    Cluster cluster(sc.cluster_config<Air>(0xD37E));
    obs::VectorSink events;
    cluster.tracer()->add_sink(&events);
    harness::AirlineWorkload w;
    w.duration = 14.0;
    w.request_rate = 5.0;
    w.mover_rate = 3.0;
    w.cancel_fraction = 0.2;
    harness::drive_airline(cluster, w, 0x5EED);
    cluster.run_until(w.duration);
    cluster.settle();
    std::ostringstream os;
    os << trace_bytes(cluster.execution());
    os << cluster.aggregate_engine_stats().summary() << '\n';
    for (std::size_t n = 0; n < cluster.num_nodes(); ++n) {
      os << cluster.node(n).broadcast_stats().summary() << '\n';
    }
    os << obs::serialize(events.events());
    os << cluster.metrics().to_json() << '\n';
    return os.str();
  };
  const std::string a = run();
  const std::string b = run();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("stale_resets=1"), std::string::npos);
  EXPECT_NE(a.find("mid_broadcast_crashes=1"), std::string::npos);
}

/// The write-ahead intention-log boundary: node 0 crashes after appending
/// its 3rd originated update to the stable outbox but before the first
/// flood send. The decision has run and its external actions have fired,
/// so the update must eventually merge everywhere, exactly once — it is
/// either never visible anywhere or visible everywhere; no third outcome.
TEST(MidBroadcastCrash, DurableButUnsentUpdateMergesExactlyOnce) {
  harness::Scenario sc = harness::lan(3);
  sc.faults.crash_mid_broadcast(0, 3, /*down_for=*/3.0);
  Cluster cluster(sc.cluster_config<Air>(17));
  // Five sequential requests at node 0; the third trips the armed crash
  // (the interrupted update is durable but unsent), and the remaining two
  // arrive while the node is down, so they are rejected. The grants are
  // submitted after the restart.
  for (int i = 1; i <= 5; ++i) {
    cluster.submit_at(0.2 * i, 0,
                      al::Request::request(static_cast<al::Person>(i)));
  }
  for (double t : {4.5, 5.0, 5.5}) {
    cluster.submit_at(t, 0, al::Request::move_up());
  }
  cluster.run_until(10.0);
  cluster.settle();
  expect_guarantees(cluster);

  EXPECT_EQ(cluster.node(0).broadcast_stats().mid_broadcast_crashes, 1u);
  EXPECT_EQ(cluster.node(0).engine_stats().crashes, 1u);
  EXPECT_EQ(cluster.node(0).engine_stats().recoveries, 1u);
  // The interrupted update is visible at every replica exactly once: all
  // replicas converged (checked above) and the trace holds each decision
  // exactly once, so it suffices that node 0's origin log made it into the
  // shared execution — and no grant fired twice.
  const auto exec = cluster.execution();
  std::map<std::string, int> grants;
  for (std::size_t i = 0; i < exec.size(); ++i) {
    for (const auto& a : exec.tx(i).external_actions) {
      if (a.kind == "grant-seat") ++grants[a.subject];
    }
  }
  EXPECT_EQ(grants.size(), 3u);
  for (const auto& [subject, count] : grants) {
    EXPECT_EQ(count, 1) << "duplicate grant for " << subject;
  }
  // 3 requests (the interrupted third included) + 3 grants; the two
  // requests that reached a down node were rejected, not deferred.
  EXPECT_EQ(cluster.node(0).originated().size(), 6u);
  EXPECT_EQ(cluster.node(0).engine_stats().rejected_submissions, 2u);
}

/// A mid-broadcast crash whose trigger never happens (the node never
/// reaches that origin seq) is a no-op: no crash, clean run.
TEST(MidBroadcastCrash, UnreachedTriggerNeverFires) {
  harness::Scenario sc = harness::lan(3);
  sc.faults.crash_mid_broadcast(1, 1000);
  Cluster cluster(sc.cluster_config<Air>(23));
  harness::AirlineWorkload w;
  w.duration = 6.0;
  w.request_rate = 2.0;
  harness::drive_airline(cluster, w, 24);
  cluster.run_until(w.duration);
  cluster.settle();
  expect_guarantees(cluster);
  EXPECT_EQ(cluster.aggregate_engine_stats().crashes, 0u);
  EXPECT_EQ(cluster.node(1).broadcast_stats().mid_broadcast_crashes, 0u);
}

/// Mid-broadcast crash followed by amnesia recovery: the stable outbox
/// (which already holds the interrupted record) is replayed, and the
/// update still merges exactly once everywhere.
TEST(MidBroadcastCrash, AmnesiaRestartReplaysInterruptedRecord) {
  harness::Scenario sc = harness::lan(3);
  sc.faults.crash_mid_broadcast(0, 2, /*down_for=*/2.0,
                                sim::RecoveryMode::kAmnesia);
  Cluster cluster(sc.cluster_config<Air>(29));
  for (double t : {0.5, 1.0}) {
    cluster.submit_at(t, 0, al::Request::move_up());
  }
  harness::AirlineWorkload w;
  w.duration = 8.0;
  w.request_rate = 2.0;
  harness::drive_airline(cluster, w, 30);
  cluster.run_until(w.duration);
  cluster.settle();
  expect_guarantees(cluster);
  const net::BroadcastStats& b0 = cluster.node(0).broadcast_stats();
  EXPECT_EQ(b0.mid_broadcast_crashes, 1u);
  EXPECT_EQ(b0.amnesia_resets, 1u);
  EXPECT_GE(b0.outbox_replays, 2u);  // both pre-crash records, incl. the
                                     // interrupted one
}

}  // namespace

// Mixed-mode serializability (the paper's section 6 extension, using the
// section 3.3 waiting protocol): "It should be possible to build an
// application system in which certain critical transactions run
// serializably, while the others run in a highly available manner."
//
// A serializable submission reserves a timestamp position, waits for every
// peer to promise "I will issue no more transactions with timestamp earlier
// than yours" (Lamport-counter announcements on the anti-entropy schedule),
// and then decides against exactly the entries with smaller timestamps —
// a provably complete prefix.
#include <gtest/gtest.h>

#include "analysis/execution_checker.hpp"
#include "apps/airline/airline.hpp"
#include "apps/banking/banking.hpp"
#include "harness/scenario.hpp"
#include "harness/workload.hpp"
#include "shard/cluster.hpp"

namespace {

namespace al = apps::airline;
namespace bk = apps::banking;
using Air = al::BasicAirline<20, 900, 300>;

TEST(MixedMode, SerializableTxRunsWithCompletePrefix) {
  auto sc = harness::wan(4);
  shard::Cluster<Air> cluster(sc.cluster_config<Air>(1));
  harness::AirlineWorkload w;
  w.duration = 10.0;
  w.request_rate = 4.0;
  w.mover_rate = 3.0;
  harness::drive_airline(cluster, w, 2);
  cluster.submit_serializable_at(5.0, 1, al::Request::move_up());
  cluster.run_until(w.duration);
  cluster.settle();
  const auto exec = cluster.execution();
  // Find the serializable transaction in the assembled trace and check it
  // saw EVERY predecessor.
  std::size_t serial_count = 0;
  for (std::size_t i = 0; i < exec.size(); ++i) {
    // Identify via the node record (the Execution doesn't carry the flag;
    // match by origin + the recorded serializable flag).
    for (const auto& rec : cluster.node(1).originated()) {
      if (rec.serializable && rec.ts == exec.tx(i).ts) {
        ++serial_count;
        EXPECT_EQ(exec.missing_count(i), 0u)
            << "serializable tx at index " << i << " missed predecessors";
      }
    }
  }
  EXPECT_EQ(serial_count, 1u);
  EXPECT_TRUE(analysis::check_prefix_subsequence_condition(exec).ok());
}

TEST(MixedMode, WaitsThroughPartitionThenRuns) {
  // A serializable tx submitted DURING a partition cannot obtain promises
  // from the other side; it must wait until after the heal.
  auto sc = harness::partitioned_wan(4, 2.0, 12.0);
  shard::Cluster<Air> cluster(sc.cluster_config<Air>(3));
  cluster.submit_at(1.0, 2, al::Request::request(1));
  // Bump node 0's clock during the cut so the reservation's timestamp lies
  // ABOVE anything the far side promised before the partition started —
  // otherwise pre-cut promises already cover it and no waiting is needed.
  for (int i = 0; i < 4; ++i) {
    cluster.submit_at(2.5 + 0.1 * i, 0,
                      al::Request::request(static_cast<al::Person>(10 + i)));
  }
  cluster.submit_serializable_at(5.0, 0, al::Request::move_up());
  cluster.submit_at(6.0, 3, al::Request::request(2));  // far side, during cut
  cluster.run_until(11.0);
  // Still pending: node 0 cannot have promises covering its reservation
  // from the far side.
  EXPECT_EQ(cluster.pending_serializable(), 1u);
  cluster.settle();
  EXPECT_EQ(cluster.pending_serializable(), 0u);
  const auto exec = cluster.execution();
  ASSERT_EQ(exec.size(), 7u);
  // The serializable MOVE-UP has a COMPLETE prefix at its reserved
  // position: request(P2) from the far side carries a LARGER timestamp
  // (reservation order is serial order), so nothing before the
  // reservation is missed even though it ran long after.
  for (std::size_t i = 0; i < exec.size(); ++i) {
    for (const auto& rec : cluster.node(0).originated()) {
      if (rec.serializable && rec.ts == exec.tx(i).ts) {
        EXPECT_EQ(exec.missing_count(i), 0u);
        EXPECT_GE(rec.decided_time, 12.0);     // ran only after the heal
        EXPECT_DOUBLE_EQ(rec.real_time, 5.0);  // initiated mid-partition
      }
    }
  }
  EXPECT_TRUE(cluster.converged());
}

TEST(MixedMode, CompletePrefixDecisionIgnoresLaterTimestamps) {
  // Normal transactions submitted after the reservation (and therefore
  // with larger timestamps) must NOT be visible to the serializable
  // decision, even if they were merged before it ran.
  auto sc = harness::lan(2);
  sc.broadcast.anti_entropy_interval = 0.3;
  shard::Cluster<Air> cluster(sc.cluster_config<Air>(4));
  cluster.submit_at(0.5, 1, al::Request::request(1));
  // Reservation at t=1.0; its promise round-trip takes ~an anti-entropy
  // period, during which node 0 submits another request locally.
  cluster.submit_serializable_at(1.0, 0, al::Request::move_up());
  cluster.submit_at(1.01, 0, al::Request::request(2));
  cluster.run_until(5.0);
  cluster.settle();
  const auto exec = cluster.execution();
  // Serial order: request(P1) < serializable MOVE-UP < request(P2)
  // (reservation order). The MOVE-UP's prefix is exactly {request(P1)}.
  ASSERT_EQ(exec.size(), 3u);
  EXPECT_EQ(exec.tx(1).update, (al::Update{al::Update::Kind::kMoveUp, 1}));
  EXPECT_EQ(exec.tx(1).prefix, (std::vector<std::size_t>{0}));
  EXPECT_TRUE(analysis::check_prefix_subsequence_condition(exec).ok());
}

TEST(MixedMode, MultipleSerializableRunInReservationOrder) {
  auto sc = harness::wan(3);
  shard::Cluster<Air> cluster(sc.cluster_config<Air>(5));
  cluster.submit_at(0.5, 1, al::Request::request(1));
  cluster.submit_at(0.6, 2, al::Request::request(2));
  cluster.submit_serializable_at(1.0, 0, al::Request::move_up());
  cluster.submit_serializable_at(1.1, 0, al::Request::move_up());
  cluster.run_until(2.0);
  cluster.settle();
  const auto exec = cluster.execution();
  ASSERT_EQ(exec.size(), 4u);
  // Both seats granted, in order, each with complete prefix.
  EXPECT_EQ(exec.tx(2).update.kind, al::Update::Kind::kMoveUp);
  EXPECT_EQ(exec.tx(3).update.kind, al::Update::Kind::kMoveUp);
  EXPECT_NE(exec.tx(2).update.person, exec.tx(3).update.person);
  EXPECT_EQ(exec.missing_count(2), 0u);
  EXPECT_EQ(exec.missing_count(3), 0u);
}

TEST(MixedMode, SerializableAuditReportsTrueTotalMidstream) {
  // The section 3.2 motivation: "it might be desirable for audits to see
  // the effects of all the preceding deposit, withdrawal and transfer
  // transactions." A serializable AUDIT does, even submitted mid-workload.
  auto sc = harness::wan(4);
  shard::Cluster<bk::Banking> cluster(sc.cluster_config<bk::Banking>(6));
  harness::BankingWorkload w;
  w.duration = 12.0;
  w.tx_rate = 5.0;
  harness::drive_banking(cluster, w, 7);
  cluster.submit_serializable_at(6.0, 2, bk::Request::audit());
  cluster.run_until(w.duration);
  cluster.settle();
  const auto exec = cluster.execution();
  bool found = false;
  for (std::size_t i = 0; i < exec.size(); ++i) {
    if (exec.tx(i).request.kind != bk::Request::Kind::kAudit) continue;
    for (const auto& rec : cluster.node(2).originated()) {
      if (!rec.serializable || !(rec.ts == exec.tx(i).ts)) continue;
      found = true;
      EXPECT_EQ(exec.missing_count(i), 0u);
      // Its report equals the total of the actual state at its position.
      const auto s = exec.actual_state_before(i);
      EXPECT_EQ(exec.tx(i).external_actions[0].subject,
                std::to_string(s.total()));
    }
  }
  EXPECT_TRUE(found);
}

TEST(MixedMode, NormalTransactionsUnaffectedByPendingSerial) {
  // Availability of the rest of the system is untouched: while a
  // serializable tx waits out a partition, normal transactions at the SAME
  // node keep running immediately.
  auto sc = harness::partitioned_wan(4, 2.0, 12.0);
  shard::Cluster<Air> cluster(sc.cluster_config<Air>(8));
  // Clock bump during the cut (see WaitsThroughPartitionThenRuns).
  cluster.submit_at(2.5, 0, al::Request::request(9));
  cluster.submit_serializable_at(3.0, 0, al::Request::move_up());
  cluster.submit_at(4.0, 0, al::Request::request(5));
  cluster.run_until(5.0);
  EXPECT_EQ(cluster.pending_serializable(), 1u);
  EXPECT_EQ(cluster.node(0).originated().size(), 2u);  // normal ones ran
  EXPECT_TRUE(cluster.node(0).state().is_waiting(5));
  cluster.settle();
  EXPECT_EQ(cluster.pending_serializable(), 0u);
}

TEST(MixedMode, SerialOrderIsReservationOrderNotExecutionOrder) {
  // The reserved timestamp positions the transaction where it was
  // SUBMITTED in the serial order, even though it executes later — so
  // later normal transactions (larger timestamps) appear after it.
  auto sc = harness::partitioned_wan(2, 1.0, 6.0);
  sc.num_nodes = 2;
  shard::Cluster<Air> cluster(sc.cluster_config<Air>(9));
  cluster.submit_at(0.5, 0, al::Request::request(1));
  cluster.run_until(0.9);  // replicate before the cut
  cluster.submit_serializable_at(2.0, 0, al::Request::move_up());
  cluster.submit_at(3.0, 1, al::Request::cancel(1));  // far side
  cluster.run_until(5.9);
  cluster.settle();
  const auto exec = cluster.execution();
  ASSERT_EQ(exec.size(), 3u);
  // Reservation at t=2 precedes the cancel's timestamp? Both Lamport
  // counters were equal (=1) after the replicated request; the reservation
  // ticked node 0's clock to 2, the cancel ticked node 1's to 2: tie on
  // logical, node id breaks it — MOVE-UP (node 0) before CANCEL (node 1).
  EXPECT_EQ(exec.tx(1).update.kind, al::Update::Kind::kMoveUp);
  EXPECT_EQ(exec.tx(2).update.kind, al::Update::Kind::kCancel);
  // Complete prefix = {request}: the cancel is NOT a predecessor.
  EXPECT_EQ(exec.tx(1).prefix, (std::vector<std::size_t>{0}));
  EXPECT_EQ(exec.missing_count(1), 0u);
  // Final state: the cancel (later in serial order) undoes the seat.
  EXPECT_FALSE(exec.final_state().is_known(1));
}

}  // namespace

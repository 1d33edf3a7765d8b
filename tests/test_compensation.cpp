// Compensating-transaction results: Lemma 1 (iterating a compensator drives
// the apparent cost to zero), Corollary 2, Lemma 12 / Corollary 13 (atomic
// compensation suffixes restore the f(k) bound on the ACTUAL state).
#include <gtest/gtest.h>

#include "analysis/compensation.hpp"
#include "apps/airline/airline.hpp"
#include "core/scripted.hpp"
#include "harness/scenario.hpp"
#include "harness/state_samples.hpp"
#include "harness/workload.hpp"
#include "shard/cluster.hpp"

namespace {

namespace al = apps::airline;
using al::Request;
using Air = al::SmallAirline;  // capacity 5

class Lemma1Property : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Lemma1Property, MoveDownIterationZeroesOverbooking) {
  // Lemma 1: "either cost(s,i) = 0, or there is some integer k > 0 such
  // that T(s,s) = s1, ..., T(s_{k-1}, s_{k-1}) = s_k and cost(s_k, i) = 0."
  const auto states =
      harness::random_airline_states<Air>(GetParam(), 300, 9, 40);
  for (const auto& s : states) {
    const auto run = analysis::iterate_compensator<Air>(
        s, Request::move_down(), Air::kOverbooking);
    EXPECT_TRUE(run.reached_zero);
    EXPECT_DOUBLE_EQ(Air::cost(run.final_state, Air::kOverbooking), 0.0);
    // Steps needed = excess passengers (each MOVE-DOWN removes one).
    const auto excess = static_cast<std::size_t>(
        core::monus<std::int64_t>(s.al(), Air::kCapacity));
    EXPECT_EQ(run.updates.size(), excess);
  }
}

TEST_P(Lemma1Property, MoveUpIterationZeroesUnderbooking) {
  const auto states =
      harness::random_airline_states<Air>(GetParam(), 300, 9, 40);
  for (const auto& s : states) {
    const auto run = analysis::iterate_compensator<Air>(
        s, Request::move_up(), Air::kUnderbooking);
    EXPECT_TRUE(run.reached_zero);
    EXPECT_DOUBLE_EQ(Air::cost(run.final_state, Air::kUnderbooking), 0.0);
  }
}

TEST_P(Lemma1Property, IntermingledMoversZeroBothConstraints) {
  // Section 4.1 example: "from any well-formed state, any atomic sequence
  // of intermingled MOVE-UP and MOVE-DOWN transactions which contain
  // sufficiently many of each will eventually reach an apparent cost of 0
  // for both integrity constraints."
  const auto states =
      harness::random_airline_states<Air>(GetParam(), 100, 9, 40);
  for (auto s : states) {
    // First zero overbooking, then underbooking; neither compensator can
    // re-raise the constraint the other fixed (MOVE-UP only fires when
    // AL < capacity; MOVE-DOWN only when AL > capacity).
    const auto r1 = analysis::iterate_compensator<Air>(
        s, Request::move_down(), Air::kOverbooking);
    const auto r2 = analysis::iterate_compensator<Air>(
        r1.final_state, Request::move_up(), Air::kUnderbooking);
    EXPECT_DOUBLE_EQ(Air::cost(r2.final_state, Air::kOverbooking), 0.0);
    EXPECT_DOUBLE_EQ(Air::cost(r2.final_state, Air::kUnderbooking), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lemma1Property,
                         ::testing::Values(41u, 42u, 43u));

TEST(Compensation, AlreadyZeroCostNeedsNoSteps) {
  const auto run = analysis::iterate_compensator<Air>(
      Air::initial(), Request::move_down(), Air::kOverbooking);
  EXPECT_TRUE(run.reached_zero);
  EXPECT_TRUE(run.updates.empty());
}

TEST(Compensation, StepCapReportsFailureHonestly) {
  // A deliberately wrong compensator (REQUEST never reduces underbooking):
  // the iteration must stop at the cap and report not-zero.
  const al::State s({}, {1, 2, 3});
  const auto run = analysis::iterate_compensator<Air>(
      s, Request::request(99), Air::kUnderbooking, /*max_steps=*/10);
  EXPECT_FALSE(run.reached_zero);
  EXPECT_EQ(run.updates.size(), 10u);
}

class Lemma12OnCluster : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Lemma12OnCluster, AtomicSuffixRestoresFkBound) {
  using BigAir = al::BasicAirline<20, 900, 300>;
  auto sc = harness::partitioned_wan(4, 5.0, 20.0);
  shard::Cluster<BigAir> cluster(sc.cluster_config<BigAir>(GetParam()));
  harness::AirlineWorkload w;
  w.duration = 25.0;
  w.request_rate = 2.0;
  w.mover_rate = 3.0;
  w.max_persons = 60;
  harness::drive_airline(cluster, w, GetParam() ^ 0xbeef);
  cluster.run_until(w.duration);
  cluster.settle();
  const auto exec = cluster.execution();
  // Several different "seen" subsequences, including aggressive ones.
  for (const std::size_t drop_mod : {3u, 5u, 11u}) {
    std::vector<std::size_t> seen;
    for (std::size_t i = 0; i < exec.size(); ++i) {
      if (i % drop_mod != 0) seen.push_back(i);
    }
    const auto f = [](int c, std::size_t k) {
      return BigAir::Theory::f_bound(c, k);
    };
    const auto r1 = analysis::check_lemma12(
        exec, seen, Request::move_down(), BigAir::kOverbooking, f);
    EXPECT_TRUE(r1.ok()) << "drop_mod " << drop_mod << ": " << r1.to_string();
    const auto r2 = analysis::check_lemma12(
        exec, seen, Request::move_up(), BigAir::kUnderbooking, f);
    EXPECT_TRUE(r2.ok()) << "drop_mod " << drop_mod << ": " << r2.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lemma12OnCluster,
                         ::testing::Values(51u, 52u, 53u));

TEST(Corollary2, AtomicSuffixReachesApparentZero) {
  // Corollary 2 via run_atomic_compensation: the apparent state after the
  // suffix has cost 0 (with any subsequence as the shared prefix).
  core::ScriptedExecution<Air> sx;
  for (al::Person p = 1; p <= 8; ++p) {
    sx.run_complete(Request::request(p));
  }
  const auto& exec = sx.execution();
  const std::vector<std::size_t> seen = {0, 2, 4, 6};
  const auto res = analysis::run_atomic_compensation<Air>(
      exec, seen, Request::move_up(), Air::kUnderbooking);
  EXPECT_TRUE(res.apparent_zero);
  EXPECT_DOUBLE_EQ(Air::cost(res.apparent_final, Air::kUnderbooking), 0.0);
  EXPECT_EQ(res.k, 4u);
}

}  // namespace

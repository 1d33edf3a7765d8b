// The formal execution object (section 3.1) and the section 3.2 condition
// checkers, exercised on small hand-built executions where every apparent
// and actual state can be verified by hand.
#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>

#include "analysis/execution_checker.hpp"
#include "apps/airline/airline.hpp"
#include "core/cost.hpp"
#include "core/scripted.hpp"

namespace {

namespace al = apps::airline;
using al::Request;
using al::SmallAirline;  // capacity 5
using al::Update;
using core::ScriptedExecution;

TEST(Execution, AppendRejectsForwardReferences) {
  core::Execution<SmallAirline> exec;
  core::TxInstance<SmallAirline> tx;
  tx.prefix = {0};  // no transaction 0 exists yet
  EXPECT_THROW(exec.append(tx), std::invalid_argument);
}

TEST(Execution, AppendSortsAndDedupsPrefix) {
  ScriptedExecution<SmallAirline> sx;
  sx.run(Request::request(1), {});
  sx.run(Request::request(2), {});
  core::Execution<SmallAirline> exec = sx.execution();
  core::TxInstance<SmallAirline> tx;
  tx.request = Request::move_up();
  tx.prefix = {1, 0, 1};
  tx.update = Update{Update::Kind::kMoveUp, 1};
  exec.append(tx);
  EXPECT_EQ(exec.tx(2).prefix, (std::vector<std::size_t>{0, 1}));
}

TEST(Execution, ApparentVsActualStates) {
  // tx0: REQUEST(P1); tx1: REQUEST(P2); tx2: MOVE-UP seeing only tx1.
  ScriptedExecution<SmallAirline> sx;
  sx.run(Request::request(1), {});
  sx.run(Request::request(2), {});
  sx.run(Request::move_up(), {1});  // sees P2 only -> moves P2 up
  const auto& exec = sx.execution();
  // Apparent state before tx2: only request(P2) applied.
  const auto t = exec.apparent_state_before(2);
  EXPECT_EQ(t, al::State({}, {2}));
  EXPECT_EQ(exec.tx(2).update, (Update{Update::Kind::kMoveUp, 2}));
  // Apparent state after tx2: P2 assigned, nothing else visible.
  const auto t_after = exec.apparent_state_after(2);
  EXPECT_EQ(t_after, al::State({2}, {}));
  // Actual state after tx2: P1 still waiting, P2 assigned.
  const auto s_after = exec.actual_state_after(2);
  EXPECT_EQ(s_after, al::State({2}, {1}));
  // actual_states() agrees with per-index queries.
  const auto all = exec.actual_states();
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all[3], s_after);
  EXPECT_EQ(all[0], SmallAirline::initial());
  EXPECT_EQ(exec.final_state(), s_after);
}

TEST(Execution, StateOfSubsequenceAppliesInAscendingOrder) {
  ScriptedExecution<SmallAirline> sx;
  sx.run(Request::request(1), {});
  sx.run_complete(Request::move_up());
  sx.run_complete(Request::cancel(1));
  const auto& exec = sx.execution();
  // Subsequence {0, 2}: request then cancel -> empty.
  const auto s = exec.state_of_subsequence({0, 2});
  EXPECT_EQ(s, SmallAirline::initial());
  // Subsequence {0, 1}: request then move-up -> assigned.
  const auto s2 = exec.state_of_subsequence({0, 1});
  EXPECT_EQ(s2, al::State({1}, {}));
}

TEST(Execution, PrefixExecutionTruncates) {
  ScriptedExecution<SmallAirline> sx;
  sx.run(Request::request(1), {});
  sx.run_complete(Request::move_up());
  const auto trunc = sx.execution().prefix_execution(1);
  EXPECT_EQ(trunc.size(), 1u);
  EXPECT_EQ(trunc.final_state(), al::State({}, {1}));
}

TEST(CheckerConditions, DetectsCondition3Violation) {
  // Tamper with a recorded update: the checker must notice that the
  // decision re-run does not reproduce it.
  ScriptedExecution<SmallAirline> sx;
  sx.run(Request::request(1), {});
  sx.run_complete(Request::move_up());
  auto txs = sx.execution().transactions();
  txs[1].update = Update{Update::Kind::kMoveUp, 9};  // forged
  const core::Execution<SmallAirline> forged(std::move(txs));
  const auto report = analysis::check_prefix_subsequence_condition(forged);
  EXPECT_FALSE(report.ok());
}

TEST(CheckerConditions, DetectsForgedExternalActions) {
  ScriptedExecution<SmallAirline> sx;
  sx.run(Request::request(1), {});
  sx.run_complete(Request::move_up());
  auto txs = sx.execution().transactions();
  txs[1].external_actions.clear();  // decision informed P1; record says not
  const core::Execution<SmallAirline> forged(std::move(txs));
  EXPECT_FALSE(analysis::check_prefix_subsequence_condition(forged).ok());
}

TEST(Atomicity, ConsecutiveRunWithSharedBaseIsAtomic) {
  // Three MOVE-UPs each seeing base {0,1} plus the earlier suffix members.
  ScriptedExecution<SmallAirline> sx;
  sx.run(Request::request(1), {});
  sx.run(Request::request(2), {});
  const auto m0 = sx.run(Request::move_up(), {0, 1});
  const auto m1 = sx.run(Request::move_up(), {0, 1, m0});
  sx.run(Request::move_up(), {0, 1, m0, m1});
  EXPECT_TRUE(analysis::is_atomic(sx.execution(), 2, 4));
}

TEST(Atomicity, DifferentBasesBreakAtomicity) {
  ScriptedExecution<SmallAirline> sx;
  sx.run(Request::request(1), {});
  sx.run(Request::request(2), {});
  const auto m0 = sx.run(Request::move_up(), {0, 1});
  sx.run(Request::move_up(), {0, m0});  // base {0} != {0,1}
  EXPECT_FALSE(analysis::is_atomic(sx.execution(), 2, 3));
}

TEST(Atomicity, MissingInRangeMemberBreaksAtomicity) {
  ScriptedExecution<SmallAirline> sx;
  sx.run(Request::request(1), {});
  sx.run(Request::request(2), {});
  sx.run(Request::move_up(), {0, 1});
  sx.run(Request::move_up(), {0, 1});  // does not see tx 2
  EXPECT_FALSE(analysis::is_atomic(sx.execution(), 2, 3));
}

TEST(Centralization, DetectsCentralizedAndNot) {
  ScriptedExecution<SmallAirline> sx;
  sx.run(Request::request(1), {});
  const auto m0 = sx.run(Request::move_up(), {0});
  sx.run(Request::request(2), {});
  sx.run(Request::move_up(), {0, m0, 2});  // sees prior mover
  const auto is_mover = [](const Request& r) {
    return r.kind == Request::Kind::kMoveUp;
  };
  EXPECT_TRUE(analysis::is_centralized<SmallAirline>(sx.execution(), is_mover));

  ScriptedExecution<SmallAirline> sy;
  sy.run(Request::request(1), {});
  sy.run(Request::move_up(), {0});
  sy.run(Request::request(2), {});
  sy.run(Request::move_up(), {2});  // misses the prior mover
  EXPECT_FALSE(analysis::is_centralized<SmallAirline>(sy.execution(), is_mover));
}

TEST(TimedExecution, OrderlyAndBoundedDelay) {
  ScriptedExecution<SmallAirline> sx;
  sx.run(Request::request(1), {}, 0, /*real_time=*/0.0);
  sx.run(Request::request(2), {0}, 0, 1.0);
  sx.run(Request::move_up(), {0, 1}, 0, 2.0);
  EXPECT_TRUE(analysis::is_orderly(sx.execution()));
  EXPECT_TRUE(analysis::has_t_bounded_delay(sx.execution(), 0.5));
  EXPECT_DOUBLE_EQ(analysis::min_bounded_delay(sx.execution()), 0.0);
}

TEST(TimedExecution, BoundedDelayViolationMeasured) {
  ScriptedExecution<SmallAirline> sx;
  sx.run(Request::request(1), {}, 0, 0.0);
  sx.run(Request::request(2), {}, 0, 5.0);  // misses tx0, 5s older
  const auto& exec = sx.execution();
  EXPECT_TRUE(analysis::has_t_bounded_delay(exec, 6.0));
  EXPECT_FALSE(analysis::has_t_bounded_delay(exec, 5.0));
  EXPECT_DOUBLE_EQ(analysis::min_bounded_delay(exec), 5.0);
}

TEST(TimedExecution, NotOrderlyWhenRealTimesInvert) {
  ScriptedExecution<SmallAirline> sx;
  sx.run(Request::request(1), {}, 0, 3.0);
  sx.run(Request::request(2), {}, 0, 1.0);
  EXPECT_FALSE(analysis::is_orderly(sx.execution()));
}

TEST(MissingCounts, VectorMatchesPerIndexQueries) {
  ScriptedExecution<SmallAirline> sx;
  sx.run(Request::request(1), {});
  sx.run(Request::request(2), {});
  sx.run(Request::request(3), {1});
  const auto mc = analysis::missing_counts(sx.execution());
  EXPECT_EQ(mc, (std::vector<std::size_t>{0, 1, 1}));
}

TEST(CostStats, TracksMaxMeanFinalOverExecution) {
  ScriptedExecution<SmallAirline> sx;  // capacity 5
  for (al::Person p = 1; p <= 3; ++p) sx.run_complete(Request::request(p));
  const auto stats = core::cost_stats_of_execution(sx.execution());
  // Underbooking cost rises 300, 600, 900 across the three states.
  EXPECT_DOUBLE_EQ(stats.max_cost(SmallAirline::kUnderbooking), 900.0);
  EXPECT_DOUBLE_EQ(stats.final_cost(SmallAirline::kUnderbooking), 900.0);
  EXPECT_DOUBLE_EQ(stats.max_cost(SmallAirline::kOverbooking), 0.0);
  EXPECT_EQ(stats.states_observed(), 4u);  // s0..s3
  EXPECT_NEAR(stats.mean_cost(SmallAirline::kUnderbooking),
              (0.0 + 300.0 + 600.0 + 900.0) / 4.0, 1e-9);
}

TEST(CostStats, SummaryMentionsConstraints) {
  core::CostStats stats(2);
  stats.observe({1.0, 0.0});
  EXPECT_NE(stats.summary().find("c0"), std::string::npos);
  EXPECT_THROW(stats.observe({1.0}), std::invalid_argument);
}

}  // namespace

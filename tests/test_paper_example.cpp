// Literal reproduction of the paper's worked executions:
//  * the section 3.1 overbooking example (206 transactions),
//  * its section 3.2 transitivity repair,
//  * the section 5.4 counterexample (duplicate requests defeat Theorem 23's
//    weakening).
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "analysis/airline_theorems.hpp"
#include "analysis/execution_checker.hpp"
#include "apps/airline/airline.hpp"
#include "core/scripted.hpp"

namespace {

namespace al = apps::airline;
using al::Airline;
using al::Request;
using al::Update;
using core::ScriptedExecution;

/// Build the section 3.1 execution. 0-based indices; the paper's
/// transaction #n is index n-1.
///
///   REQUEST(P1), MOVE-UP, REQUEST(P2), MOVE-UP, ..., REQUEST(P102),
///   MOVE-UP, MOVE-DOWN, CANCEL(P1)
///
/// "all the requests, the first 100 MOVE-UP transactions, and the
/// cancellation operate seeing complete prefixes. The next two MOVE-UP
/// transactions operate with incomplete prefixes. The first sees the
/// results of the first 99 REQUESTs and MOVE-UPs, plus the REQUEST for
/// P101, while the second sees the results of the first 99 REQUESTs and
/// MOVE-UPs, plus the REQUEST for P102. ... the MOVE-DOWN ... sees the
/// results of the first 202 transactions only."
ScriptedExecution<Airline> build_section31_example() {
  ScriptedExecution<Airline> sx;
  // First 100 pairs: complete prefixes.
  for (al::Person p = 1; p <= 100; ++p) {
    sx.run_complete(Request::request(p));
    sx.run_complete(Request::move_up());
  }
  // Pair 101: REQUEST complete; MOVE-UP sees txs 0..197 + REQUEST(P101).
  const std::size_t req101 = sx.run_complete(Request::request(101));
  {
    std::vector<std::size_t> prefix(198);
    std::iota(prefix.begin(), prefix.end(), 0);
    prefix.push_back(req101);
    sx.run(Request::move_up(), std::move(prefix));
  }
  // Pair 102: likewise with REQUEST(P102).
  const std::size_t req102 = sx.run_complete(Request::request(102));
  {
    std::vector<std::size_t> prefix(198);
    std::iota(prefix.begin(), prefix.end(), 0);
    prefix.push_back(req102);
    sx.run(Request::move_up(), std::move(prefix));
  }
  // MOVE-DOWN sees the first 202 transactions only.
  {
    std::vector<std::size_t> prefix(202);
    std::iota(prefix.begin(), prefix.end(), 0);
    sx.run(Request::move_down(), std::move(prefix));
  }
  // CANCEL(P1) with complete prefix.
  sx.run_complete(Request::cancel(1));
  return sx;
}

TEST(PaperExample31, GeneratedUpdatesMatchThePapersTable) {
  const auto sx = build_section31_example();
  const auto& exec = sx.execution();
  ASSERT_EQ(exec.size(), 206u);
  // Spot-check the right-hand column of the paper's table.
  EXPECT_EQ(exec.tx(0).update, (Update{Update::Kind::kRequest, 1}));
  EXPECT_EQ(exec.tx(1).update, (Update{Update::Kind::kMoveUp, 1}));
  EXPECT_EQ(exec.tx(2).update, (Update{Update::Kind::kRequest, 2}));
  EXPECT_EQ(exec.tx(3).update, (Update{Update::Kind::kMoveUp, 2}));
  EXPECT_EQ(exec.tx(202).update, (Update{Update::Kind::kRequest, 102}));
  EXPECT_EQ(exec.tx(203).update, (Update{Update::Kind::kMoveUp, 102}));
  // "it sees the assigned list with 101 people, and moves P101, the person
  // it observes to be last, down."
  EXPECT_EQ(exec.tx(204).update, (Update{Update::Kind::kMoveDown, 101}));
  EXPECT_EQ(exec.tx(205).update, (Update{Update::Kind::kCancel, 1}));
}

TEST(PaperExample31, SatisfiesPrefixSubsequenceCondition) {
  const auto sx = build_section31_example();
  const auto report =
      analysis::check_prefix_subsequence_condition(sx.execution());
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(PaperExample31, State204HasOverbookingCost1800) {
  // "The state after the first 204 transactions, s204, has 102 people on
  // the assigned list in numerical order, and no one on the waiting list."
  const auto sx = build_section31_example();
  const auto s204 = sx.execution().actual_state_before(204);
  ASSERT_EQ(s204.assigned().size(), 102u);
  for (al::Person p = 1; p <= 102; ++p) {
    EXPECT_EQ(s204.assigned()[p - 1], p);
  }
  EXPECT_TRUE(s204.waiting().empty());
  // "there is a reachable state (s204) for which the overbooking cost is
  // nonzero" — two over capacity at $900.
  EXPECT_DOUBLE_EQ(Airline::cost(s204, Airline::kOverbooking), 1800.0);
}

TEST(PaperExample31, MoveDownLeavesP101Waiting) {
  // "After the MOVE-DOWN, s205 has P101 on the waiting list and
  // P1, P2, ..., P100, P102 in order on the assigned list."
  const auto sx = build_section31_example();
  const auto s205 = sx.execution().actual_state_before(205);
  ASSERT_EQ(s205.waiting().size(), 1u);
  EXPECT_EQ(s205.waiting()[0], 101u);
  ASSERT_EQ(s205.assigned().size(), 101u);
  for (al::Person p = 1; p <= 100; ++p) EXPECT_EQ(s205.assigned()[p - 1], p);
  EXPECT_EQ(s205.assigned()[100], 102u);
}

TEST(PaperExample31, FinalStateHasExactly100Passengers) {
  // "The final cancellation then leaves the assigned list with exactly 100
  // passengers: P2, ..., P100, P102."
  const auto sx = build_section31_example();
  const auto final = sx.execution().final_state();
  ASSERT_EQ(final.assigned().size(), 100u);
  EXPECT_EQ(final.assigned().front(), 2u);
  EXPECT_EQ(final.assigned()[98], 100u);
  EXPECT_EQ(final.assigned().back(), 102u);
  ASSERT_EQ(final.waiting().size(), 1u);
  EXPECT_EQ(final.waiting()[0], 101u);
  EXPECT_DOUBLE_EQ(Airline::cost(final, Airline::kOverbooking), 0.0);
}

TEST(PaperExample31, UnfairToP101) {
  // "the execution is not entirely 'fair' in that P102 requests a seat
  // after P101 ... but P102 is allowed to remain on the assigned list while
  // P101 is moved down."
  const auto sx = build_section31_example();
  const auto final = sx.execution().final_state();
  EXPECT_TRUE(final.is_assigned(102));
  EXPECT_FALSE(final.is_assigned(101));
}

TEST(PaperExample31, ExternalActionsFiredOnceIncludingConflicts) {
  // P101 was granted a seat (by the incomplete MOVE-UP) and later
  // rescinded — the irreversible external-action conflict that motivates
  // the decision/update split.
  const auto sx = build_section31_example();
  const auto& exec = sx.execution();
  int grants_p101 = 0, rescinds_p101 = 0;
  for (std::size_t i = 0; i < exec.size(); ++i) {
    for (const auto& a : exec.tx(i).external_actions) {
      if (a.subject == "P101") {
        if (a.kind == "grant-seat") ++grants_p101;
        if (a.kind == "rescind-seat") ++rescinds_p101;
      }
    }
  }
  EXPECT_EQ(grants_p101, 1);
  EXPECT_EQ(rescinds_p101, 1);
}

TEST(PaperExample32, NaiveVersionNotTransitiveButRepairable) {
  // Section 3.2 example: "The execution in the previous example fails to be
  // transitive, but for a trivial reason ... we can modify the execution
  // slightly, assigning each of REQUEST(P101) and REQUEST(P102) the prefix
  // subsequence consisting of the first 198 transactions, without changing
  // the updates generated. The resulting modified execution is transitive."
  auto sx = build_section31_example();
  EXPECT_FALSE(analysis::is_transitive(sx.execution()));
  std::vector<std::size_t> first198(198);
  std::iota(first198.begin(), first198.end(), 0);
  sx.reassign_prefix(200, first198);  // REQUEST(P101)
  sx.reassign_prefix(202, first198);  // REQUEST(P102)
  EXPECT_TRUE(analysis::is_transitive(sx.execution()));
  // Updates unchanged and condition (3) still holds (REQUEST decisions are
  // prefix-independent).
  const auto report =
      analysis::check_prefix_subsequence_condition(sx.execution());
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(sx.execution().tx(200).update,
            (Update{Update::Kind::kRequest, 101}));
}

TEST(PaperExample31, MeasuredMissingCounts) {
  // The two incomplete MOVE-UPs miss (201-199)=2 and (203-199)=4 of their
  // predecessors; the MOVE-DOWN misses 2.
  const auto sx = build_section31_example();
  const auto& exec = sx.execution();
  EXPECT_EQ(exec.missing_count(201), 201u - 199u);
  EXPECT_EQ(exec.missing_count(203), 203u - 199u);
  EXPECT_EQ(exec.missing_count(204), 204u - 202u);
  EXPECT_EQ(exec.missing_count(0), 0u);
  EXPECT_EQ(exec.missing_count(205), 0u);
  EXPECT_EQ(exec.max_missing(), 4u);
}

/// The section 5.4 counterexample: blocks of REQUEST(Pi), CANCEL(Pi),
/// REQUEST(Pi), MOVE-UP for i = 1..101. MOVE-UPs are centralized and the
/// execution is transitive, yet the final state is overbooked — showing
/// Theorem 22's per-person hypothesis (or Theorem 23's unique-request
/// hypothesis) cannot be dropped.
ScriptedExecution<Airline> build_section54_counterexample() {
  ScriptedExecution<Airline> sx;
  std::vector<std::size_t> prior_moveups;
  std::vector<std::size_t> seen_first_requests;
  std::vector<std::size_t> all_cancels;
  std::vector<std::size_t> all_first_requests;
  for (al::Person p = 1; p <= 101; ++p) {
    const std::size_t r1 = sx.run(Request::request(p), {});
    const std::size_t c = sx.run(Request::cancel(p), {});
    const std::size_t r2 = sx.run(Request::request(p), {});
    all_first_requests.push_back(r1);
    all_cancels.push_back(c);
    if (p <= 100) {
      // "each of the first 100 MOVE-UP transactions sees the first request
      // in the same block, but not the cancel or the second request"
      // (plus, for transitivity/centralization, the earlier MOVE-UPs and
      // what they saw).
      std::vector<std::size_t> prefix = prior_moveups;
      prefix.insert(prefix.end(), seen_first_requests.begin(),
                    seen_first_requests.end());
      prefix.push_back(r1);
      const std::size_t m = sx.run(Request::move_up(), std::move(prefix));
      prior_moveups.push_back(m);
      seen_first_requests.push_back(r1);
    } else {
      // "The last MOVE-UP sees all the previous MOVE-UPs and the requests
      // that they see, plus the cancels" — and P101's second request, so
      // it observes P101 waiting and an empty assigned list.
      std::vector<std::size_t> prefix = prior_moveups;
      prefix.insert(prefix.end(), seen_first_requests.begin(),
                    seen_first_requests.end());
      prefix.insert(prefix.end(), all_cancels.begin(), all_cancels.end());
      prefix.push_back(r1);
      prefix.push_back(r2);
      sx.run(Request::move_up(), std::move(prefix));
    }
  }
  return sx;
}

TEST(PaperExample54, CounterexampleIsTransitiveWithCentralizedMoveUps) {
  const auto sx = build_section54_counterexample();
  const auto& exec = sx.execution();
  ASSERT_EQ(exec.size(), 101u * 4u);
  EXPECT_TRUE(analysis::is_transitive(exec));
  EXPECT_TRUE(analysis::is_centralized<Airline>(
      exec, [](const Request& r) { return r.kind == Request::Kind::kMoveUp; }));
  const auto report = analysis::check_prefix_subsequence_condition(exec);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(PaperExample54, SuccessiveMoveUpsPickSuccessivePersons) {
  // "The successive MOVE-UP transactions produce updates move-up(P1), ...,
  // move-up(P101)."
  const auto sx = build_section54_counterexample();
  const auto& exec = sx.execution();
  for (al::Person p = 1; p <= 101; ++p) {
    const std::size_t idx = (p - 1) * 4 + 3;
    EXPECT_EQ(exec.tx(idx).update, (Update{Update::Kind::kMoveUp, p}))
        << "block " << p;
  }
}

TEST(PaperExample54, FinalCostNonzeroDespiteCentralization) {
  // "The cost after this execution is non zero."
  const auto sx = build_section54_counterexample();
  const auto final = sx.execution().final_state();
  EXPECT_EQ(final.assigned().size(), 101u);
  EXPECT_DOUBLE_EQ(Airline::cost(final, Airline::kOverbooking), 900.0);
}

TEST(PaperExample54, Theorem22And23CheckersFlagTheFailedHypotheses) {
  const auto sx = build_section54_counterexample();
  // Theorem 22's checker must report that per-person centralization fails
  // (NOT that the theorem itself is violated).
  const auto r22 = analysis::check_theorem22(sx.execution());
  EXPECT_FALSE(r22.ok());
  bool hypothesis_flagged = false;
  for (const auto& v : r22.violations()) {
    if (v.find("hypothesis fails") != std::string::npos) {
      hypothesis_flagged = true;
    }
  }
  EXPECT_TRUE(hypothesis_flagged);
  // Theorem 23's checker likewise reports the duplicate REQUESTs.
  const auto r23 = analysis::check_theorem23(sx.execution());
  EXPECT_FALSE(r23.ok());
}

}  // namespace

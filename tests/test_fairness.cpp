// Fairness (sections 4.2 and 5.5): priority preservation per transaction
// (with the paper's MOVE-UP strong-preservation counterexample), Theorem 25
// priority freezing, Lemma 26, Theorem 27 with t-bounded delay, and the
// section 5.5 anomaly + its timestamped-redesign fix.
#include <gtest/gtest.h>

#include "analysis/execution_checker.hpp"
#include "analysis/fairness.hpp"
#include "apps/airline/airline.hpp"
#include "apps/airline/timestamped.hpp"
#include "core/scripted.hpp"
#include "harness/state_samples.hpp"

namespace {

namespace al = apps::airline;
using al::Request;
using Air = al::SmallAirline;
using core::ScriptedExecution;

class PriorityProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  std::vector<Air::State> states =
      harness::random_airline_states<Air>(GetParam(), 150, 7, 25);
};

TEST_P(PriorityProperty, AllFourTransactionsPreservePriority) {
  // Section 4.2: "all of the transactions preserve priority."
  for (const Request& r : {Request::request(3), Request::cancel(3),
                           Request::move_up(), Request::move_down()}) {
    const auto report = analysis::check_preserves_priority<Air>(states, r);
    EXPECT_TRUE(report.ok()) << r.to_string() << ": " << report.to_string();
  }
}

TEST_P(PriorityProperty, RequestAndCancelStronglyPreservePriority) {
  // Section 4.2: "the REQUEST and CANCEL transactions strongly preserve
  // priority."
  for (const Request& r : {Request::request(3), Request::cancel(3)}) {
    const auto report =
        analysis::check_strongly_preserves_priority<Air>(states, states, r);
    EXPECT_TRUE(report.ok()) << r.to_string() << ": " << report.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PriorityProperty,
                         ::testing::Values(61u, 62u, 63u));

TEST(PriorityCounterexample, MoveUpDoesNotStronglyPreservePriority) {
  // The paper's exact section 4.2 counterexample: "Assume that in state s,
  // person P is first on the WAIT-LIST, and ... generates a move-up(P)
  // update. In state s', P is on the WAIT-LIST but is not the first person:
  // person Q is first. Then the move-up(P) action still moves P to the end
  // of the ASSIGNED-LIST, in this case moving it ahead of Q."
  const al::State s({}, {1, 2});        // decision state: P=1 first
  const al::State s_prime({}, {2, 1});  // application state: Q=2 first
  const auto decision = Air::decide(Request::move_up(), s);
  EXPECT_EQ(decision.update, (al::Update{al::Update::Kind::kMoveUp, 1}));
  al::State s_dprime = s_prime;
  Air::apply(decision.update, s_dprime);
  // Q < P in s' but P < Q in s'': strong preservation violated.
  EXPECT_TRUE(Air::Priority::precedes(s_prime, 2, 1));
  EXPECT_TRUE(Air::Priority::precedes(s_dprime, 1, 2));
  const auto report = analysis::check_strongly_preserves_priority<Air>(
      {s}, {s_prime}, Request::move_up());
  EXPECT_FALSE(report.ok());
}

TEST(PriorityCounterexample, MoveDownDoesNotStronglyPreservePriority) {
  // "Similar remarks hold for the MOVE-DOWN transaction."
  // Overbooked; decision picks last assigned = P6.
  const al::State s({1, 2, 3, 4, 5, 6}, {});
  // But elsewhere P6 is FIRST assigned.
  const al::State s_prime({6, 1, 2, 3, 4, 5}, {});
  const auto decision = Air::decide(Request::move_down(), s);
  EXPECT_EQ(decision.update, (al::Update{al::Update::Kind::kMoveDown, 6}));
  al::State s_dprime = s_prime;
  Air::apply(decision.update, s_dprime);
  // In s', P6 < P1 (both assigned, P6 first). In s'', P6 is waiting while
  // P1 is assigned, so P1 < P6: inverted.
  EXPECT_TRUE(Air::Priority::precedes(s_prime, 6, 1));
  EXPECT_TRUE(Air::Priority::precedes(s_dprime, 1, 6));
}

/// A centralized-mover scripted execution for the Theorem 25 family: all
/// movers run at a conceptual agent that sees all prior movers.
struct AgentScript {
  ScriptedExecution<Air> sx;
  std::vector<std::size_t> agent_known;  // prefix the agent accumulates

  std::size_t request(al::Person p, std::vector<std::size_t> prefix = {},
                      double t = -1.0) {
    return sx.run(Request::request(p), std::move(prefix), 1, t);
  }
  /// Agent learns about transactions (they join every later mover prefix).
  void agent_learns(std::initializer_list<std::size_t> idxs) {
    agent_known.insert(agent_known.end(), idxs);
  }
  std::size_t mover(const Request& r, double t = -1.0) {
    const std::size_t idx = sx.run(r, agent_known, 0, t);
    agent_known.push_back(idx);
    return idx;
  }
};

TEST(Theorem25, PriorityFrozenOnceAgentSeesBothRequests) {
  // P1 requests before P2; the agent hears about P2 FIRST, moves P2 up,
  // then learns of P1. From the moment a mover saw both, their relative
  // order never changes in actual states — even though it contradicts
  // request order.
  AgentScript a;
  const auto r1 = a.request(1);
  const auto r2 = a.request(2);
  a.agent_learns({r2});
  a.mover(Request::move_up());  // moves P2 up (only P2 visible)
  a.agent_learns({r1});
  a.mover(Request::move_up());   // now sees both; P2 assigned, P1 waiting
  a.mover(Request::move_down()); // no-op (not overbooked)
  const auto& exec = a.sx.execution();
  EXPECT_TRUE(analysis::is_transitive(exec));
  const analysis::AirlineClassify cls;
  const auto report = analysis::check_theorem25(exec, cls);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(Theorem25, Section55AnomalyOrderFixedAtAgentLearnTime) {
  // A simplified section 5.5 shape: REQUEST(P) precedes REQUEST(Q), but the
  // agent hears about Q first and assigns it. Once a mover has seen both
  // requests with Q ahead, Theorem 25 freezes Q < P for the rest of the
  // execution — "even though there is sufficient information in the system
  // to allow for Q to be placed ... after P."
  constexpr al::Person P = 1, Q = 2;
  AgentScript a;
  const auto rp = a.request(P);
  const auto rq = a.request(Q);
  a.agent_learns({rq});
  a.mover(Request::move_up());  // move-up(Q): Q assigned first
  a.agent_learns({rp});
  a.mover(Request::move_up());  // sees both; assigns P after Q
  const auto& exec = a.sx.execution();
  EXPECT_TRUE(analysis::is_transitive(exec));
  const analysis::AirlineClassify cls;
  const auto report = analysis::check_theorem25(exec, cls);
  EXPECT_TRUE(report.ok()) << report.to_string();
  // The anomaly itself: Q ended ahead of P despite requesting later.
  const auto final = exec.final_state();
  EXPECT_TRUE(Air::Priority::precedes(final, Q, P));
  EXPECT_EQ(analysis::final_order_inversions(exec, cls), 1u);
}

/// Build the full section 5.5 anomaly for either airline variant:
/// REQUEST(P) first (stamp 100) but never seen by the assigning agent A;
/// A assigns P10..P13 and Q (stamp 200); a second, uncoordinated agent B
/// assigns Y — actual overbooking. A then learns everything and runs
/// MOVE-DOWN, which demotes Q. Where does Q land relative to P on the
/// wait list?
template <class Anyline, class MakeReq>
typename Anyline::State run_section55(MakeReq make_req) {
  using Req = typename Anyline::Request;
  core::ScriptedExecution<Anyline> sx;
  std::vector<std::size_t> agent_a;
  const auto rp = sx.run(make_req(1, 100), {});        // P, earliest
  (void)rp;  // P's request stays invisible to agent A by design
  std::vector<std::size_t> fillers;
  for (al::Person x = 10; x <= 13; ++x) {
    fillers.push_back(sx.run(make_req(x, 110 + x - 10), {}));
  }
  const auto rq = sx.run(make_req(2, 200), {});        // Q, latest
  const auto ry = sx.run(make_req(3, 150), {});        // Y, via agent B
  // Agent B (different node): assigns Y knowing only Y's request.
  sx.run(Req::move_up(), {ry}, /*origin=*/2);
  // Agent A: knows the fillers and Q (NOT P, NOT B's work); fills the
  // plane — 4 fillers then Q.
  agent_a = fillers;
  agent_a.push_back(rq);
  for (int i = 0; i < 5; ++i) {
    agent_a.push_back(sx.run(Req::move_up(), agent_a, /*origin=*/0));
  }
  // Agent A learns everything (including rp and B's move-up) and reacts to
  // the overbooking: MOVE-DOWN demotes the "last" assignee — Q in both
  // variants (list-last in the basic app, latest-stamped in the
  // timestamped app).
  std::vector<std::size_t> all(sx.size());
  std::iota(all.begin(), all.end(), 0);
  sx.run(Req::move_down(), all, /*origin=*/0);
  return sx.execution().final_state();
}

TEST(Section55, BasicAirlinePutsDemotedQAheadOfEarlierP) {
  // Basic app: move-down inserts at the head of the wait list, so Q (who
  // requested AFTER P) ends up ahead of P — the unfair outcome the paper
  // narrates.
  const auto final = run_section55<Air>(
      [](al::Person p, std::uint64_t) { return Request::request(p); });
  ASSERT_TRUE(final.is_waiting(1));
  ASSERT_TRUE(final.is_waiting(2));
  EXPECT_TRUE(Air::Priority::precedes(final, 2, 1));  // Q < P: anomaly
}

TEST(Section55, TimestampedRedesignInsertsQAfterP) {
  // Redesign: "when the move-down(Q) is run from a state in which P is on
  // the waiting list, Q is not placed at the head of the waiting list, but
  // rather is inserted in timestamp order, after P."
  using TsAir = al::SmallTimestampedAirline;
  const auto final = run_section55<TsAir>([](al::Person p, std::uint64_t s) {
    return al::TsRequest::request(p, s);
  });
  ASSERT_NE(final.find_waiting(1), nullptr);
  ASSERT_NE(final.find_waiting(2), nullptr);
  EXPECT_TRUE(TsAir::Priority::precedes(final, 1, 2));  // P < Q: fixed
  // Both lists are stamp-sorted.
  for (std::size_t i = 1; i < final.waiting.size(); ++i) {
    EXPECT_LT(final.waiting[i - 1].stamp, final.waiting[i].stamp);
  }
  for (std::size_t i = 1; i < final.assigned.size(); ++i) {
    EXPECT_LT(final.assigned[i - 1].stamp, final.assigned[i].stamp);
  }
}

TEST(Lemma26, RequestOrderKeptWhenMoversSeeInOrder) {
  AgentScript a;
  const auto r1 = a.request(1, {}, 0.0);
  a.agent_learns({r1});
  a.mover(Request::move_up(), 1.0);
  const auto r2 = a.request(2, {}, 2.0);
  a.agent_learns({r2});
  a.mover(Request::move_up(), 3.0);
  const auto& exec = a.sx.execution();
  const analysis::AirlineClassify cls;
  const auto report = analysis::check_lemma26(exec, cls);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(Theorem27, TBoundedDelayImpliesRequestOrderFairness) {
  // Orderly execution, delay bound t=1.5: requests >= 1.5s apart keep
  // order.
  AgentScript a;
  const auto r1 = a.request(1, {}, 0.0);
  a.agent_learns({r1});
  const auto m1 = a.mover(Request::move_up(), 2.0);
  const auto r2 = a.request(2, {r1, m1}, 3.0);
  a.agent_learns({r2});
  a.mover(Request::move_up(), 5.0);
  const auto& exec = a.sx.execution();
  EXPECT_TRUE(analysis::is_orderly(exec));
  EXPECT_TRUE(analysis::has_t_bounded_delay(exec, 1.5));
  const analysis::AirlineClassify cls;
  const auto report = analysis::check_theorem27(exec, cls, 1.5);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(Section55Redesign, TimestampedListsRespectRequestOrder) {
  // The same anomaly sequence on the timestamped app: Q's move-down inserts
  // it in stamp order, AFTER P — the redesign of section 5.5.
  using TsAir = al::SmallTimestampedAirline;
  using TsReq = al::TsRequest;
  core::ScriptedExecution<TsAir> sx;
  const auto rp = sx.run(TsReq::request(1, /*stamp=*/100), {});
  const auto rq = sx.run(TsReq::request(2, /*stamp=*/200), {});
  (void)rp;
  // Agent sees only Q's request; moves Q up.
  const auto m1 = sx.run(TsReq::move_up(), {rq});
  // Later, a move-down of Q (scripted: agent believes overbooking via a
  // stale view is unnecessary — apply the update path directly by an
  // explicit request stream): six fresh stamped requesters fill the plane
  // in the agent's view, then move-down fires.
  std::vector<std::size_t> known = {rq, m1};
  for (al::Person x = 10; x < 15; ++x) {
    const auto r =
        sx.run(TsReq::request(x, /*stamp=*/300 + x), {});
    known.push_back(r);
    known.push_back(sx.run(TsReq::move_up(), known));
  }
  const auto r6 = sx.run(TsReq::request(20, /*stamp=*/400), {});
  known.push_back(r6);
  known.push_back(sx.run(TsReq::move_up(), known));  // 6th assignment
  known.push_back(sx.run(TsReq::move_down(), known));  // AL=6>5: demote
  const auto& exec = sx.execution();
  // The demoted person is the LATEST-stamped assignee (P20, stamp 400) —
  // and crucially, in the ACTUAL state, every wait-list insertion is in
  // stamp order, so P (stamp 100) precedes Q (stamp 200) whenever both
  // wait, and P20 lands after both.
  const auto final = exec.final_state();
  const auto* p1 = final.find_waiting(1);
  ASSERT_NE(p1, nullptr);  // P never seen by agent: still waiting
  for (const auto& e : final.waiting) {
    if (e.person != 1) {
      EXPECT_GT(e.stamp, 100u);  // nothing with a later stamp precedes P1
    }
  }
  // Wait list is stamp-sorted.
  for (std::size_t i = 1; i < final.waiting.size(); ++i) {
    EXPECT_LT(final.waiting[i - 1].stamp, final.waiting[i].stamp);
  }
}

}  // namespace

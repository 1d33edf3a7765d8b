// Property tests for the section 4.1 transaction conditions, mechanically
// re-verifying the paper's hand-proved classification of the airline
// transactions (sections 4.1 and 5.2) over random well-formed states, plus
// negative tests showing the checkers can actually detect violations.
#include <gtest/gtest.h>

#include "analysis/tx_conditions.hpp"
#include "apps/airline/airline.hpp"
#include "harness/state_samples.hpp"

namespace {

namespace al = apps::airline;
using al::Request;
using al::SmallAirline;
using al::Update;
using Air = SmallAirline;  // capacity 5: violations reachable quickly

std::vector<Air::State> sample_states(std::uint64_t seed) {
  return harness::random_airline_states<Air>(seed, /*count=*/400,
                                             /*persons=*/9, /*walk_len=*/30);
}

class TxConditions : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  std::vector<Air::State> states = sample_states(GetParam());
};

// --- increasing / nonincreasing updates (section 4.1 first example) ---

TEST_P(TxConditions, RequestIncreasingForUnderbookingOnly) {
  // "the request(P) update is nonincreasing for the overbooking constraint,
  // but is increasing for the underbooking constraint."
  const Update u{Update::Kind::kRequest, 1};
  EXPECT_FALSE(
      analysis::increasing_witness<Air>(states, u, Air::kOverbooking)
          .has_value());
  EXPECT_TRUE(
      analysis::increasing_witness<Air>(states, u, Air::kUnderbooking)
          .has_value());
}

TEST_P(TxConditions, CancelIncreasingForUnderbookingOnly) {
  const Update u{Update::Kind::kCancel, 1};
  EXPECT_FALSE(
      analysis::increasing_witness<Air>(states, u, Air::kOverbooking)
          .has_value());
  EXPECT_TRUE(
      analysis::increasing_witness<Air>(states, u, Air::kUnderbooking)
          .has_value());
}

TEST_P(TxConditions, MoveUpIncreasingForOverbookingOnly) {
  // "the move-up(P) update is increasing for the overbooking constraint ...
  // However, it is nonincreasing for the underbooking constraint."
  const Update u{Update::Kind::kMoveUp, 1};
  EXPECT_TRUE(analysis::increasing_witness<Air>(states, u, Air::kOverbooking)
                  .has_value());
  EXPECT_FALSE(
      analysis::increasing_witness<Air>(states, u, Air::kUnderbooking)
          .has_value());
}

TEST_P(TxConditions, MoveDownIncreasingForUnderbookingOnly) {
  const Update u{Update::Kind::kMoveDown, 1};
  EXPECT_FALSE(
      analysis::increasing_witness<Air>(states, u, Air::kOverbooking)
          .has_value());
  EXPECT_TRUE(
      analysis::increasing_witness<Air>(states, u, Air::kUnderbooking)
          .has_value());
}

TEST_P(TxConditions, NoopNeverIncreasing) {
  for (int c = 0; c < Air::kNumConstraints; ++c) {
    EXPECT_FALSE(
        analysis::increasing_witness<Air>(states, Update{}, c).has_value());
  }
}

// --- safe / unsafe (section 4.1 second example) ---

TEST_P(TxConditions, SafetyClassificationMatchesTheory) {
  // "the other transactions are all safe for the overbooking constraint.
  // However, the MOVE-UP transaction is unsafe ... MOVE-UP is safe for the
  // underbooking constraint, but the other three are all unsafe."
  //
  // The unsafe side of each claim is an existence statement, so the search
  // sample is augmented with a few adversarial states (full plane with a
  // specific person waiting / assigned) that witness the increases; the
  // safe side must survive the full randomized sample.
  std::vector<Air::State> search = states;
  for (al::Person p = 1; p <= 9; ++p) {
    std::vector<al::Person> full;  // the plane exactly full
    for (al::Person q = 20; q < 20 + Air::kCapacity; ++q) full.push_back(q);
    // p waits while the plane is exactly full.
    search.emplace_back(full, std::vector<al::Person>{p});
    // p assigned, others wait.
    std::vector<al::Person> with_p(full.begin() + 1, full.end());
    with_p.push_back(p);
    search.emplace_back(with_p, std::vector<al::Person>{30, 31});
    // p is the LAST assignee, AL > 5.
    full.push_back(p);
    search.emplace_back(full, std::vector<al::Person>{});
  }
  const std::vector<Request> reqs = {Request::request(1), Request::cancel(1),
                                     Request::move_up(),
                                     Request::move_down()};
  for (const Request& r : reqs) {
    for (int c = 0; c < Air::kNumConstraints; ++c) {
      const auto report = analysis::check_safe_for<Air>(search, search, r, c);
      if (Air::Theory::safe_for(r, c)) {
        EXPECT_TRUE(report.ok())
            << r.to_string() << " constraint " << c << ": "
            << report.to_string();
      } else {
        EXPECT_FALSE(report.ok())
            << r.to_string() << " constraint " << c
            << " claimed unsafe but no counterexample found in sample";
      }
    }
  }
}

// --- preserves-cost (section 4.1 third example) ---

TEST_P(TxConditions, AllTransactionsPreserveOverbookingCost) {
  // "We show that all transactions preserve the cost of the overbooking
  // constraint."
  for (const Request& r : {Request::request(1), Request::cancel(1),
                           Request::move_up(), Request::move_down()}) {
    const auto report =
        analysis::check_preserves_cost<Air>(states, states, r,
                                            Air::kOverbooking);
    EXPECT_TRUE(report.ok()) << r.to_string() << ": " << report.to_string();
  }
}

TEST_P(TxConditions, MoversPreserveUnderbookingCost) {
  for (const Request& r : {Request::move_up(), Request::move_down()}) {
    const auto report =
        analysis::check_preserves_cost<Air>(states, states, r,
                                            Air::kUnderbooking);
    EXPECT_TRUE(report.ok()) << r.to_string() << ": " << report.to_string();
  }
}

TEST_P(TxConditions, RequestAndCancelDoNotPreserveUnderbookingCost) {
  // "it is easy to see that REQUEST(P) and CANCEL(P) transactions do not
  // preserve the cost of the underbooking constraint."
  // REQUEST(P) for a fresh person P (not in any sampled state).
  const auto report_req = analysis::check_preserves_cost<Air>(
      states, states, Request::request(999), Air::kUnderbooking);
  EXPECT_FALSE(report_req.ok());
  const auto report_cancel = analysis::check_preserves_cost<Air>(
      states, states, Request::cancel(1), Air::kUnderbooking);
  EXPECT_FALSE(report_cancel.ok());
}

// --- compensating transactions (section 4.1 / Lemma 1 example) ---

TEST_P(TxConditions, MoveDownCompensatesForOverbooking) {
  const auto report = analysis::check_compensates<Air>(
      states, Request::move_down(), Air::kOverbooking);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST_P(TxConditions, MoveUpCompensatesForUnderbooking) {
  const auto report = analysis::check_compensates<Air>(
      states, Request::move_up(), Air::kUnderbooking);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST_P(TxConditions, RequestDoesNotCompensateForUnderbooking) {
  // Sanity: the checker rejects a non-compensating transaction.
  const auto report = analysis::check_compensates<Air>(
      states, Request::request(999), Air::kUnderbooking);
  EXPECT_FALSE(report.ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TxConditions,
                         ::testing::Values(21u, 22u, 23u));

// --- f bounds the cost increase (section 4.1 last example) ---

class FBoundProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FBoundProperty, PaperBoundsHoldOnRandomSubsequences) {
  // "900k bounds the cost increase for the overbooking constraint, while
  // 300k bounds the cost increase for the underbooking constraint."
  sim::Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    // Random full update sequence.
    std::vector<Update> seq;
    for (int i = 0; i < 40; ++i) {
      const auto p = static_cast<al::Person>(rng.uniform_int(1, 8));
      switch (rng.uniform_int(0, 3)) {
        case 0: seq.push_back({Update::Kind::kRequest, p}); break;
        case 1: seq.push_back({Update::Kind::kCancel, p}); break;
        case 2: seq.push_back({Update::Kind::kMoveUp, p}); break;
        default: seq.push_back({Update::Kind::kMoveDown, p}); break;
      }
    }
    // Random dropped positions.
    std::vector<std::size_t> dropped;
    for (std::size_t i = 0; i < seq.size(); ++i) {
      if (rng.bernoulli(0.15)) dropped.push_back(i);
    }
    for (int c = 0; c < Air::kNumConstraints; ++c) {
      const auto report = analysis::check_f_bounds_cost_increase<Air>(
          seq, dropped, c,
          [](int constraint, std::size_t k) {
            return Air::Theory::f_bound(constraint, k);
          });
      EXPECT_TRUE(report.ok())
          << "trial " << trial << " constraint " << c << ": "
          << report.to_string();
    }
  }
}

TEST(FBoundNegative, TooSmallBoundIsRejected) {
  // With f == 0 and a dropped move-up, the overbooking claim must fail for
  // a sequence that overbooks.
  std::vector<Update> seq;
  for (al::Person p = 1; p <= 6; ++p) {
    seq.push_back({Update::Kind::kRequest, p});
    seq.push_back({Update::Kind::kMoveUp, p});
  }
  // Drop one cancel-free move-up from the "seen" side: t has 5 assigned
  // (cost 0), s has 6 (cost 900) -> needs f(1) >= 900.
  const std::vector<std::size_t> dropped = {11};
  const auto bad = analysis::check_f_bounds_cost_increase<Air>(
      seq, dropped, Air::kOverbooking,
      [](int, std::size_t) { return 0.0; });
  EXPECT_FALSE(bad.ok());
  const auto good = analysis::check_f_bounds_cost_increase<Air>(
      seq, dropped, Air::kOverbooking,
      [](int, std::size_t k) { return 900.0 * static_cast<double>(k); });
  EXPECT_TRUE(good.ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FBoundProperty,
                         ::testing::Values(31u, 32u, 33u, 34u));

}  // namespace

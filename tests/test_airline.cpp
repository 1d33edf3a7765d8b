// Fly-by-Night airline semantics (paper section 2): the four transaction
// programs, the section 5.1 policy decisions, the cost functions with the
// paper's exact dollar figures, well-formedness, and the monus operator.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <ostream>
#include <string>
#include <vector>

#include "apps/airline/airline.hpp"
#include "core/model.hpp"
#include "core/monus.hpp"
#include "sim/rng.hpp"

namespace apps::airline {
// Failed state comparisons print the lists.
void PrintTo(const State& s, std::ostream* os) { *os << s.to_string(); }
}  // namespace apps::airline

namespace {

namespace al = apps::airline;
using al::Airline;
using al::Request;
using al::SmallAirline;
using al::Update;
using State = al::State;

TEST(Monus, TruncatedSubtraction) {
  EXPECT_EQ(core::monus<std::int64_t>(5, 3), 2);
  EXPECT_EQ(core::monus<std::int64_t>(3, 5), 0);
  EXPECT_EQ(core::monus<std::int64_t>(4, 4), 0);
  EXPECT_DOUBLE_EQ(core::monus(2.5, 1.0), 1.5);
  EXPECT_DOUBLE_EQ(core::monus(1.0, 2.5), 0.0);
}

TEST(AirlineState, InitialIsEmptyAndWellFormed) {
  const State s = Airline::initial();
  EXPECT_TRUE(s.assigned().empty());
  EXPECT_TRUE(s.waiting().empty());
  EXPECT_TRUE(Airline::well_formed(s));
  EXPECT_DOUBLE_EQ(core::total_cost<Airline>(s), 0.0);  // initially zero cost
}

TEST(AirlineState, WellFormednessRejectsOverlapAndDuplicates) {
  EXPECT_FALSE(Airline::well_formed(State({1}, {1})));
  EXPECT_FALSE(Airline::well_formed(State({1, 1}, {})));
  EXPECT_FALSE(Airline::well_formed(State({}, {2, 2})));
  EXPECT_TRUE(Airline::well_formed(State({1, 2}, {3, 4})));
}

// --- request(P) update semantics ---

TEST(AirlineUpdate, RequestAddsToEndOfWaitList) {
  State s({}, {1});
  Airline::apply({Update::Kind::kRequest, 2}, s);
  EXPECT_EQ(s, State({}, {1, 2}));
}

TEST(AirlineUpdate, DuplicateRequestIsNoopWhileWaiting) {
  // Section 5.1 policy: "if a person P is already on the WAIT-LIST or
  // ASSIGNED-LIST, and makes a duplicate request, the new request does not
  // change P's original priority."
  State s({}, {1, 2});
  Airline::apply({Update::Kind::kRequest, 1}, s);
  EXPECT_EQ(s, State({}, {1, 2}));
}

TEST(AirlineUpdate, DuplicateRequestIsNoopWhileAssigned) {
  State s({1}, {2});
  Airline::apply({Update::Kind::kRequest, 1}, s);
  EXPECT_EQ(s, State({1}, {2}));
}

// --- cancel(P) update semantics ---

TEST(AirlineUpdate, CancelRemovesFromEitherList) {
  State s({1, 2}, {3});
  Airline::apply({Update::Kind::kCancel, 1}, s);
  EXPECT_EQ(s, State({2}, {3}));
  Airline::apply({Update::Kind::kCancel, 3}, s);
  EXPECT_EQ(s, State({2}, {}));
}

TEST(AirlineUpdate, CancelOfUnknownPersonIsNoop) {
  State s({1}, {2});
  const State before = s;
  Airline::apply({Update::Kind::kCancel, 9}, s);
  EXPECT_EQ(s, before);
}

// --- move-up(P) update semantics ---

TEST(AirlineUpdate, MoveUpMovesWaiterToEndOfAssigned) {
  State s({1}, {2, 3});
  Airline::apply({Update::Kind::kMoveUp, 2}, s);
  EXPECT_EQ(s, State({1, 2}, {3}));
}

TEST(AirlineUpdate, MoveUpOfAssignedPersonIsNoop) {
  // Section 5.1 policy: "if a person P is already on the ASSIGNED-LIST, a
  // new attempt to assign him a seat does not alter P's previous priority."
  State s({1, 2}, {3});
  const State before = s;
  Airline::apply({Update::Kind::kMoveUp, 1}, s);
  EXPECT_EQ(s, before);
}

TEST(AirlineUpdate, MoveUpOfUnknownPersonIsNoop) {
  State s({1}, {2});
  const State before = s;
  Airline::apply({Update::Kind::kMoveUp, 9}, s);
  EXPECT_EQ(s, before);
}

// --- move-down(P) update semantics ---

TEST(AirlineUpdate, MoveDownMovesAssignedToFrontOfWaitList) {
  // Front insertion: the displaced passenger outranks every waiter (see
  // the priority-preservation requirement of section 4.2 and the section
  // 5.5 example "Q gets put at the head of the WAIT-LIST").
  State s({1, 2}, {3});
  Airline::apply({Update::Kind::kMoveDown, 2}, s);
  EXPECT_EQ(s, State({1}, {2, 3}));
}

TEST(AirlineUpdate, MoveDownOfNonAssignedIsNoop) {
  State s({1}, {2});
  const State before = s;
  Airline::apply({Update::Kind::kMoveDown, 2}, s);  // waiting, not assigned
  EXPECT_EQ(s, before);
  Airline::apply({Update::Kind::kMoveDown, 9}, s);  // unknown
  EXPECT_EQ(s, before);
}

TEST(AirlineUpdate, NoopLeavesStateUnchanged) {
  State s({1}, {2});
  const State before = s;
  Airline::apply(Update{}, s);
  EXPECT_EQ(s, before);
}

TEST(AirlineUpdate, AllUpdatesPreserveWellFormedness) {
  // Required of every update by the model (section 2.3).
  for (const auto kind :
       {Update::Kind::kRequest, Update::Kind::kCancel, Update::Kind::kMoveUp,
        Update::Kind::kMoveDown, Update::Kind::kNoop}) {
    State s({1, 2, 3}, {4, 5});
    for (al::Person p : {1u, 4u, 9u}) {
      State t = s;
      Airline::apply({kind, p}, t);
      EXPECT_TRUE(Airline::well_formed(t));
    }
  }
}

// --- decision parts ---

TEST(AirlineDecision, RequestAlwaysSameUpdateNoExternal) {
  // "Decision: TRUE" — the decision part does not depend on the state.
  const auto d1 = Airline::decide(Request::request(7), Airline::initial());
  const auto d2 = Airline::decide(Request::request(7),
                                  State({1, 2}, {7, 9}));
  EXPECT_EQ(d1.update, (Update{Update::Kind::kRequest, 7}));
  EXPECT_EQ(d1.update, d2.update);
  EXPECT_TRUE(d1.external_actions.empty());
  EXPECT_TRUE(d2.external_actions.empty());
}

TEST(AirlineDecision, CancelAlwaysSameUpdateNoExternal) {
  const auto d = Airline::decide(Request::cancel(7), State({7}, {}));
  EXPECT_EQ(d.update, (Update{Update::Kind::kCancel, 7}));
  EXPECT_TRUE(d.external_actions.empty());
}

TEST(AirlineDecision, MoveUpPicksFirstWaiterAndInformsThem) {
  const auto d =
      Airline::decide(Request::move_up(), State({1}, {5, 6}));
  EXPECT_EQ(d.update, (Update{Update::Kind::kMoveUp, 5}));
  ASSERT_EQ(d.external_actions.size(), 1u);
  EXPECT_EQ(d.external_actions[0].kind, "grant-seat");
  EXPECT_EQ(d.external_actions[0].subject, "P5");
}

TEST(AirlineDecision, MoveUpNoopWhenFlightFull) {
  std::vector<al::Person> full;
  for (al::Person p = 1; p <= 100; ++p) full.push_back(p);
  const auto d =
      Airline::decide(Request::move_up(), State(full, {200}));
  EXPECT_EQ(d.update, Update{});
  EXPECT_TRUE(d.external_actions.empty());
}

TEST(AirlineDecision, MoveUpNoopWhenNobodyWaiting) {
  const auto d = Airline::decide(Request::move_up(), State({1}, {}));
  EXPECT_EQ(d.update, Update{});
  EXPECT_TRUE(d.external_actions.empty());
}

TEST(AirlineDecision, MoveDownPicksLastAssignedWhenOverbooked) {
  std::vector<al::Person> over;
  for (al::Person p = 1; p <= 101; ++p) over.push_back(p);
  const auto d = Airline::decide(Request::move_down(), State(over, {}));
  EXPECT_EQ(d.update, (Update{Update::Kind::kMoveDown, 101}));
  ASSERT_EQ(d.external_actions.size(), 1u);
  EXPECT_EQ(d.external_actions[0].kind, "rescind-seat");
  EXPECT_EQ(d.external_actions[0].subject, "P101");
}

TEST(AirlineDecision, MoveDownNoopWhenAtOrUnderCapacity) {
  std::vector<al::Person> exactly;
  for (al::Person p = 1; p <= 100; ++p) exactly.push_back(p);
  EXPECT_EQ(Airline::decide(Request::move_down(), State(exactly, {}))
                .update,
            Update{});
  EXPECT_EQ(
      Airline::decide(Request::move_down(), State({1, 2}, {3})).update,
      Update{});
}

// --- costs: the paper's exact figures ---

TEST(AirlineCost, OverbookingIs900PerExcessPassenger) {
  std::vector<al::Person> people;
  for (al::Person p = 1; p <= 103; ++p) people.push_back(p);
  const State s(people, {});
  EXPECT_DOUBLE_EQ(Airline::cost(s, Airline::kOverbooking), 3 * 900.0);
  EXPECT_DOUBLE_EQ(Airline::cost(s, Airline::kUnderbooking), 0.0);
}

TEST(AirlineCost, UnderbookingIs300PerFillableSeat) {
  // 98 assigned, 5 waiting: min(100-98, 5) = 2 fillable seats.
  std::vector<al::Person> assigned;
  for (al::Person p = 1; p <= 98; ++p) assigned.push_back(p);
  const State s(assigned, {200, 201, 202, 203, 204});
  EXPECT_DOUBLE_EQ(Airline::cost(s, Airline::kUnderbooking), 2 * 300.0);
  EXPECT_DOUBLE_EQ(Airline::cost(s, Airline::kOverbooking), 0.0);
}

TEST(AirlineCost, UnderbookingLimitedByWaiters) {
  const State s({1}, {2});  // 99 free seats, 1 waiter
  EXPECT_DOUBLE_EQ(Airline::cost(s, Airline::kUnderbooking), 300.0);
}

TEST(AirlineCost, ZeroWhenFullAndNobodyWaiting) {
  std::vector<al::Person> full;
  for (al::Person p = 1; p <= 100; ++p) full.push_back(p);
  EXPECT_DOUBLE_EQ(core::total_cost<Airline>(State(full, {})), 0.0);
}

TEST(AirlineCost, AtMostOneConstraintNonzero) {
  // "every well-formed state has either cost(s,1) = 0 or cost(s,2) = 0"
  // (used by Corollary 11). Spot-check across the AL range.
  for (int al_count : {0, 50, 99, 100, 101, 150}) {
    std::vector<al::Person> assigned;
    for (int p = 1; p <= al_count; ++p)
      assigned.push_back(static_cast<al::Person>(p));
    const State s(assigned, {1000, 1001});
    EXPECT_TRUE(Airline::cost(s, 0) == 0.0 || Airline::cost(s, 1) == 0.0);
  }
}

// --- priority relation (section 4.2) ---

TEST(AirlinePriority, WaitListOrder) {
  const State s({}, {1, 2});
  EXPECT_TRUE(Airline::Priority::precedes(s, 1, 2));
  EXPECT_FALSE(Airline::Priority::precedes(s, 2, 1));
}

TEST(AirlinePriority, AssignedListOrder) {
  const State s({1, 2}, {});
  EXPECT_TRUE(Airline::Priority::precedes(s, 1, 2));
  EXPECT_FALSE(Airline::Priority::precedes(s, 2, 1));
}

TEST(AirlinePriority, AssignedOutranksWaiting) {
  const State s({2}, {1});
  EXPECT_TRUE(Airline::Priority::precedes(s, 2, 1));
  EXPECT_FALSE(Airline::Priority::precedes(s, 1, 2));
}

TEST(AirlinePriority, KnownListsBothLists) {
  const State s({3, 1}, {2});
  const auto known = Airline::Priority::known(s);
  EXPECT_EQ(known, (std::vector<al::Person>{3, 1, 2}));
  EXPECT_TRUE(s.is_known(1));
  EXPECT_FALSE(s.is_known(9));
}

TEST(AirlineStrings, HumanReadable) {
  EXPECT_EQ(al::person_name(42), "P42");
  EXPECT_EQ((Update{Update::Kind::kMoveUp, 3}).to_string(), "move-up(P3)");
  EXPECT_EQ(Request::move_down().to_string(), "MOVE-DOWN");
  EXPECT_EQ(State({1}, {2}).to_string(), "AL=[P1] WL=[P2]");
}

TEST(SmallAirline, CapacityParameterHonored) {
  // The 5-seat instance used by property tests.
  const State s({1, 2, 3, 4, 5, 6}, {});
  EXPECT_DOUBLE_EQ(SmallAirline::cost(s, SmallAirline::kOverbooking), 900.0);
  const auto d = SmallAirline::decide(Request::move_down(), s);
  EXPECT_EQ(d.update, (Update{Update::Kind::kMoveDown, 6}));
}

// --- the membership index against the list-scan programs ---

/// The airline state as two bare lists, with list-scan membership tests and
/// the section 2.3 update programs written directly on the lists: the
/// differential reference for State's membership index.
struct ListState {
  std::vector<al::Person> assigned;
  std::vector<al::Person> waiting;

  friend bool operator==(const ListState&, const ListState&) = default;

  bool is_assigned(al::Person p) const {
    return std::find(assigned.begin(), assigned.end(), p) != assigned.end();
  }
  bool is_waiting(al::Person p) const {
    return std::find(waiting.begin(), waiting.end(), p) != waiting.end();
  }
  bool is_known(al::Person p) const { return is_assigned(p) || is_waiting(p); }
};

bool list_well_formed(const ListState& s) {
  for (al::Person p : s.assigned) {
    if (std::count(s.assigned.begin(), s.assigned.end(), p) != 1) return false;
    if (s.is_waiting(p)) return false;
  }
  for (al::Person p : s.waiting) {
    if (std::count(s.waiting.begin(), s.waiting.end(), p) != 1) return false;
  }
  return true;
}

void list_apply(const Update& u, ListState& s) {
  switch (u.kind) {
    case Update::Kind::kNoop:
      break;
    case Update::Kind::kRequest:
      if (!s.is_known(u.person)) s.waiting.push_back(u.person);
      break;
    case Update::Kind::kCancel:
      std::erase(s.waiting, u.person);
      std::erase(s.assigned, u.person);
      break;
    case Update::Kind::kMoveUp:
      if (s.is_waiting(u.person)) {
        std::erase(s.waiting, u.person);
        s.assigned.push_back(u.person);
      }
      break;
    case Update::Kind::kMoveDown:
      if (s.is_assigned(u.person)) {
        std::erase(s.assigned, u.person);
        s.waiting.insert(s.waiting.begin(), u.person);
      }
      break;
  }
}

/// Ids 1-64, plus sparse ones up to the largest id the repository uses
/// (10,000), on both sides of index-word boundaries.
constexpr std::array<al::Person, 7> kSparse = {65, 511, 512, 1000,
                                               4096, 9999, 10000};

/// Every id a sequence can touch, and two it never does.
std::vector<al::Person> probed_ids() {
  std::vector<al::Person> ids;
  for (al::Person p = 0; p <= 65; ++p) ids.push_back(p);
  ids.insert(ids.end(), kSparse.begin(), kSparse.end());
  ids.push_back(10001);
  return ids;
}

::testing::AssertionResult agrees(const State& s, const ListState& ref,
                                  const std::vector<al::Person>& ids) {
  if (!std::ranges::equal(s.assigned(), ref.assigned) ||
      !std::ranges::equal(s.waiting(), ref.waiting)) {
    return ::testing::AssertionFailure() << "lists differ: " << s.to_string();
  }
  for (al::Person p : ids) {
    if (s.is_assigned(p) != ref.is_assigned(p) ||
        s.is_waiting(p) != ref.is_waiting(p) ||
        s.is_known(p) != ref.is_known(p)) {
      return ::testing::AssertionFailure()
             << "membership of " << al::person_name(p) << " differs in "
             << s.to_string();
    }
  }
  if (Airline::well_formed(s) != list_well_formed(ref)) {
    return ::testing::AssertionFailure() << "well_formed differs";
  }
  // Equal lists, different index history: the State rebuilt from the lists
  // has room only for the ids the lists hold.
  if (!(s == State(ref.assigned, ref.waiting))) {
    return ::testing::AssertionFailure() << "not equal to its own lists";
  }
  return ::testing::AssertionSuccess();
}

TEST(AirlineIndex, AgreesWithTheListScanPrograms) {
  sim::Rng rng(26);
  const std::vector<al::Person> ids = probed_ids();
  const auto any_person = [&rng] {
    if (rng.bernoulli(0.8)) {
      return static_cast<al::Person>(rng.uniform_int(1, 64));
    }
    return kSparse[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(kSparse.size()) - 1))];
  };
  const auto pick = [&rng](const std::vector<al::Person>& v) {
    return v[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(v.size()) - 1))];
  };
  for (int trial = 0; trial < 240; ++trial) {
    // A well-formed start: distinct persons, split between the lists.
    ListState ref;
    const auto n = rng.uniform_int(0, 14);
    std::vector<al::Person> people;
    while (static_cast<std::int64_t>(people.size()) < n) {
      const al::Person p = any_person();
      if (std::ranges::find(people, p) == people.end()) people.push_back(p);
    }
    const auto split = rng.uniform_int(0, n);
    ref.assigned.assign(people.begin(), people.begin() + split);
    ref.waiting.assign(people.begin() + split, people.end());
    // Every third start has a duplicate inside one list, every third a
    // person on both lists.
    if (!people.empty() && trial % 3 != 0) {
      const al::Person p = pick(people);
      const bool duplicate = trial % 3 == 1;
      auto& into = ref.is_assigned(p) == duplicate ? ref.assigned : ref.waiting;
      const auto at =
          rng.uniform_int(0, static_cast<std::int64_t>(into.size()));
      into.insert(into.begin() + at, p);
    }
    State s(ref.assigned, ref.waiting);
    ASSERT_TRUE(agrees(s, ref, ids)) << "trial " << trial << " start";
    for (int step = 0; step < 60; ++step) {
      const State prev = s;
      const ListState prev_ref = ref;
      Update u;
      u.kind = static_cast<Update::Kind>(rng.uniform_int(0, 4));
      // Half the updates name someone on a list, so removals happen.
      const std::vector<al::Person> known = Airline::Priority::known(s);
      u.person = !known.empty() && rng.bernoulli(0.5) ? pick(known)
                                                      : any_person();
      Airline::apply(u, s);
      list_apply(u, ref);
      ASSERT_TRUE(agrees(s, ref, ids))
          << "trial " << trial << " step " << step << ": " << u.to_string()
          << " on " << prev.to_string();
      ASSERT_EQ(s == prev, ref == prev_ref)
          << "trial " << trial << " step " << step << ": " << u.to_string();
    }
  }
}

TEST(AirlineIndex, EqualListsAreEqualStatesWhateverTheIndexHistory) {
  // Person 10,000 requested then cancelled, against never seen.
  State seen({1}, {2});
  Airline::apply({Update::Kind::kRequest, 10000}, seen);
  Airline::apply({Update::Kind::kCancel, 10000}, seen);
  const State never({1}, {2});
  EXPECT_EQ(seen, never);
  EXPECT_FALSE(seen.is_known(10000));
  // A copy-assigned State that reuses a larger buffer.
  State reused({3, 4, 5, 6}, {7, 8, 9999});
  reused = never;
  EXPECT_EQ(reused, never);
  EXPECT_FALSE(reused.is_known(9999));
  EXPECT_FALSE(reused.is_known(3));
  // Equal states stay equal under every apply.
  for (const State& a : {seen, reused}) {
    for (int kind = 0; kind <= 4; ++kind) {
      for (al::Person p : {1u, 2u, 3u, 9999u, 10000u}) {
        const Update u{static_cast<Update::Kind>(kind), p};
        State x = a;
        State y = never;
        Airline::apply(u, x);
        Airline::apply(u, y);
        EXPECT_EQ(x, y) << u.to_string();
      }
    }
  }
}

}  // namespace

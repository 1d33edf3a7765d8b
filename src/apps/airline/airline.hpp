// The Fly-by-Night airline reservation system (paper section 2, examples).
//
// "Fly-by-Night Airlines is a little-known airline company which has exactly
// one scheduled flight, Flight 1 ... will take its lucky 100 passengers from
// Boston to an idyllic resort in the Caribbean."
//
// A database state consists of ASSIGNED-LIST (people notified they have
// seats) and WAIT-LIST (people who requested seats but have none); the
// well-formedness condition is that the two lists are disjoint. State also
// keeps a per-person membership index derived from the lists, so "is P
// known?" costs O(1) and only a real removal scans a list; equality
// compares the lists alone (see State). There are four transactions —
// REQUEST(P), CANCEL(P), MOVE-UP, MOVE-DOWN — each split into a decision
// part and an update exactly as in the paper, and two integrity
// constraints:
//
//   constraint 0 (overbooking):  AL <= Capacity,
//       cost(s,0) = OverCost * (AL(s) -. Capacity)          [paper: $900]
//   constraint 1 (underbooking): AL >= Capacity or WL == 0,
//       cost(s,1) = UnderCost * min(Capacity -. AL(s), WL(s)) [paper: $300]
//
// One deliberate interpretation note: the OCR of the MOVE-DOWN program reads
// "add P to end of WAIT-LIST", but the paper's own section 4.2 claim that
// *all* transactions preserve priority, and the section 5.5 example ("our
// definitions say that Q gets put at the head of the WAIT-LIST"), both
// require the moved-down person to be inserted at the FRONT of the wait
// list (they outrank every waiter: they were assigned, waiters were not).
// We implement front-insertion; tests/test_priority.cpp demonstrates that
// end-insertion would falsify the paper's preserves-priority example.
#pragma once

#include <algorithm>
#include <cassert>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "core/monus.hpp"

namespace apps::airline {

/// Passengers are dense integer ids; person_name(p) renders the paper's
/// "P1", "P2", ... labels.
using Person = std::uint32_t;

std::string person_name(Person p);

/// What a transaction update does, as broadcast between nodes. A
/// default-constructed update is a no-op (required by core::Application).
struct Update {
  enum class Kind : std::uint8_t {
    kNoop = 0,
    kRequest,   ///< request(P):  P -> end of WAIT-LIST if on neither list
    kCancel,    ///< cancel(P):   remove P from whichever list holds it
    kMoveUp,    ///< move-up(P):  P from WAIT-LIST -> end of ASSIGNED-LIST
    kMoveDown,  ///< move-down(P):P from ASSIGNED-LIST -> front of WAIT-LIST
  };
  Kind kind = Kind::kNoop;
  Person person = 0;

  friend auto operator<=>(const Update&, const Update&) = default;
  std::string to_string() const;
};

/// What clients submit. MOVE-UP / MOVE-DOWN carry no person — their decision
/// parts *select* the person from the observed state (paper section 2.3).
struct Request {
  enum class Kind : std::uint8_t { kRequest, kCancel, kMoveUp, kMoveDown };
  Kind kind = Kind::kRequest;
  Person person = 0;  ///< Meaningful for kRequest / kCancel only.

  static Request request(Person p) { return {Kind::kRequest, p}; }
  static Request cancel(Person p) { return {Kind::kCancel, p}; }
  static Request move_up() { return {Kind::kMoveUp, 0}; }
  static Request move_down() { return {Kind::kMoveDown, 0}; }

  friend auto operator<=>(const Request&, const Request&) = default;
  std::string to_string() const;
};

template <int Capacity, int OverbookCost, int UnderbookCost>
struct BasicAirline;

/// Database state: the two ordered lists of section 2.1, plus a membership
/// index derived from them. The index holds an "on ASSIGNED-LIST" and an "on
/// WAIT-LIST" bit per person id, and each bit is set iff the person occurs
/// at least once in that list; only BasicAirline::apply and the
/// constructors change a State, and they keep it so. Equality compares the
/// lists alone: two States with equal lists are equal whatever ids their
/// indexes have room for, which is the exact equality core::Replicable
/// asks for.
///
/// One buffer holds both lists, ASSIGNED-LIST first, and a second the index,
/// so a copy makes at most two heap allocations; the merge engine copies a
/// State for every snapshot. The index has two bits for every id up to the
/// largest one ever added to a list (ids are dense, see Person), in every
/// copy.
///
/// Beside the index the State counts its surplus occurrences: copies of a
/// person beyond the first inside one list. The count is derived from the
/// lists, so it stays out of equality. While it is zero every person occurs
/// at most once in each list, and a removal stops at the one occurrence,
/// searched for from both ends of the list at once: the paper's programs
/// remove list ends (MOVE-UP the head of WAIT-LIST, MOVE-DOWN the tail of
/// ASSIGNED-LIST), and a CANCEL anywhere costs no more than a forward scan.
class State {
 public:
  /// The initial state: both lists empty.
  State() = default;
  /// A state holding exactly these lists, in order. Nothing is checked:
  /// tests build ill-formed states (overlap, duplicates) this way.
  State(const std::vector<Person>& assigned,
        const std::vector<Person>& waiting) {
    for (Person p : assigned) push_assigned(p);
    for (Person p : waiting) push_waiting(p);
  }

  /// ASSIGNED-LIST, in notification order.
  std::span<const Person> assigned() const {
    return std::span<const Person>(lists_).first(split_);
  }
  /// WAIT-LIST, in priority order.
  std::span<const Person> waiting() const {
    return std::span<const Person>(lists_).subspan(split_);
  }

  bool is_assigned(Person p) const { return (bits(p) & kAssigned) != 0; }
  bool is_waiting(Person p) const { return (bits(p) & kWaiting) != 0; }
  /// "A person is known in a given state s if he is either in
  /// ASSIGNED-LIST(s) or WAIT-LIST(s)."
  bool is_known(Person p) const { return bits(p) != 0; }

  /// AL(s) and WL(s) shorthands of section 2.1.
  std::int64_t al() const { return static_cast<std::int64_t>(split_); }
  std::int64_t wl() const {
    return static_cast<std::int64_t>(lists_.size() - split_);
  }

  friend bool operator==(const State& a, const State& b) {
    return a.split_ == b.split_ && a.lists_ == b.lists_;
  }

  std::string to_string() const;

 private:
  template <int, int, int>
  friend struct BasicAirline;

  static constexpr std::uint64_t kAssigned = 1;
  static constexpr std::uint64_t kWaiting = 2;
  static constexpr std::size_t kIdsPerWord = 32;  // two bits per id

  static unsigned shift(Person p) { return 2 * (p % kIdsPerWord); }

  std::uint64_t bits(Person p) const {
    const std::size_t w = p / kIdsPerWord;
    return w < index_.size() ? (index_[w] >> shift(p)) & 3u : 0u;
  }

  /// Sets P's bit; returns 1 if it was set already (P is then a surplus
  /// occurrence in that list), 0 if not.
  std::size_t set(Person p, std::uint64_t bit) {
    const std::size_t w = p / kIdsPerWord;
    if (w >= index_.size()) index_.resize(w + 1);
    const std::uint64_t mask = bit << shift(p);
    const std::size_t had = (index_[w] & mask) != 0;
    index_[w] |= mask;
    return had;
  }
  void clear(Person p, std::uint64_t bit) {
    index_[p / kIdsPerWord] &= ~(bit << shift(p));
  }

  std::vector<Person>::iterator at(std::size_t i) {
    return lists_.begin() + static_cast<std::ptrdiff_t>(i);
  }

  /// P to the end of ASSIGNED-LIST.
  void push_assigned(Person p) {
    surplus_ += set(p, kAssigned);
    lists_.insert(at(split_), p);
    ++split_;
  }
  /// P to the end of WAIT-LIST.
  void push_waiting(Person p) {
    surplus_ += set(p, kWaiting);
    lists_.push_back(p);
  }
  /// P to the front of WAIT-LIST.
  void push_waiting_front(Person p) {
    surplus_ += set(p, kWaiting);
    lists_.insert(at(split_), p);
  }

  /// Remove every occurrence of P from ASSIGNED-LIST.
  void erase_assigned(Person p) {
    if (!is_assigned(p)) return;
    clear(p, kAssigned);
    split_ -= erase_all(lists_.begin(), at(split_), p);
  }
  /// Remove every occurrence of P from WAIT-LIST.
  void erase_waiting(Person p) {
    if (!is_waiting(p)) return;
    clear(p, kWaiting);
    erase_all(at(split_), lists_.end(), p);
  }

  /// Remove every occurrence of P from [first, last), a list that holds P
  /// at least once, and return how many there were. With no surplus P
  /// occurs once: step inward from both ends until one of them reaches it.
  std::size_t erase_all(std::vector<Person>::iterator first,
                        std::vector<Person>::iterator last, Person p) {
    if (surplus_ == 0) {
      for (auto back = last - 1;; ++first, --back) {
        assert(first <= back);
        if (*first == p) break;
        if (*back == p) {
          first = back;
          break;
        }
      }
      lists_.erase(first);
      return 1;
    }
    const auto kept = std::remove(first, last, p);
    const auto removed = static_cast<std::size_t>(last - kept);
    lists_.erase(kept, last);
    surplus_ -= removed - 1;
    return removed;
  }

  std::vector<Person> lists_;         ///< ASSIGNED-LIST, then WAIT-LIST
  std::size_t split_ = 0;             ///< where WAIT-LIST starts in lists_
  std::vector<std::uint64_t> index_;  ///< two bits per id
  std::size_t surplus_ = 0;           ///< copies beyond a person's first,
                                      ///< summed over both lists
};

/// The application, parameterized so experiments can shrink the flight.
/// `Airline` below is the paper's instance (100 seats, $900 / $300).
template <int Capacity = 100, int OverbookCost = 900, int UnderbookCost = 300>
struct BasicAirline {
  using State = airline::State;
  using Update = airline::Update;
  using Request = airline::Request;

  static constexpr int kCapacity = Capacity;
  static constexpr int kOverbookCost = OverbookCost;
  static constexpr int kUnderbookCost = UnderbookCost;
  static constexpr int kNumConstraints = 2;
  static constexpr int kOverbooking = 0;
  static constexpr int kUnderbooking = 1;

  static std::string name() {
    return "fly-by-night(" + std::to_string(Capacity) + ")";
  }

  /// "The initial state has both lists empty."
  static State initial() { return State{}; }

  /// "ASSIGNED-LIST and WAIT-LIST must contain disjoint sets of people."
  /// (We additionally require each list to be duplicate-free, which every
  /// update preserves.) Judged from the lists, not the index.
  static bool well_formed(const State& s) {
    const auto assigned = s.assigned();
    const auto waiting = s.waiting();
    for (Person p : assigned) {
      if (std::ranges::count(assigned, p) != 1) return false;
      if (std::ranges::find(waiting, p) != waiting.end()) return false;
    }
    for (Person p : waiting) {
      if (std::ranges::count(waiting, p) != 1) return false;
    }
    return true;
  }

  /// The update semantics of the four transaction programs (section 2.3).
  /// Membership is read from the index; a removal takes every occurrence,
  /// so even an ill-formed state changes as the list programs say.
  static void apply(const Update& u, State& s) {
    switch (u.kind) {
      case Update::Kind::kNoop:
        break;
      case Update::Kind::kRequest:
        // "adding P to the WAIT-LIST provided that P is not already on
        // either the WAIT-LIST or the ASSIGNED-LIST ... In case P is on
        // either list, A does nothing." (Policy of section 5.1: a duplicate
        // request does not change P's original priority.)
        if (!s.is_known(u.person)) s.push_waiting(u.person);
        break;
      case Update::Kind::kCancel:
        // "removes P from any list on which it happens to appear."
        s.erase_waiting(u.person);
        s.erase_assigned(u.person);
        break;
      case Update::Kind::kMoveUp:
        // "moves P from the waiting list to the end of the assigned list,
        // provided that P is actually on the waiting list in s'. Otherwise
        // (i.e. if P is already on the assigned list, or P is on neither
        // list), no change occurs." (Section 5.1 policy: a duplicate
        // move-up does not alter P's previous priority.)
        if (s.is_waiting(u.person)) {
          s.erase_waiting(u.person);
          s.push_assigned(u.person);
        }
        break;
      case Update::Kind::kMoveDown:
        // Symmetric; front-insertion into the wait list (see file header).
        if (s.is_assigned(u.person)) {
          s.erase_assigned(u.person);
          s.push_waiting_front(u.person);
        }
        break;
    }
  }

  /// The decision parts (section 2.3). Decisions observe the state, may
  /// trigger external actions, and select the update — but never write.
  static core::DecisionResult<Update> decide(const Request& req,
                                             const State& s) {
    core::DecisionResult<Update> out;
    switch (req.kind) {
      case Request::Kind::kRequest:
        // "Decision: TRUE" — always the same update, no external actions.
        out.update = Update{Update::Kind::kRequest, req.person};
        break;
      case Request::Kind::kCancel:
        out.update = Update{Update::Kind::kCancel, req.person};
        break;
      case Request::Kind::kMoveUp:
        // "Decision: AL < 100 and WL > 0 and P is the first person on
        //  WAIT-LIST. External event: inform P that P is now assigned."
        if (s.al() < Capacity && s.wl() > 0) {
          const Person p = s.waiting().front();
          out.update = Update{Update::Kind::kMoveUp, p};
          out.external_actions.push_back({"grant-seat", person_name(p)});
        }
        break;
      case Request::Kind::kMoveDown:
        // "Decision: AL > 100 and P is the last person on ASSIGNED-LIST.
        //  External event: inform P that P is now waitlisted."
        if (s.al() > Capacity) {
          const Person p = s.assigned().back();
          out.update = Update{Update::Kind::kMoveDown, p};
          out.external_actions.push_back({"rescind-seat", person_name(p)});
        }
        break;
    }
    return out;
  }

  /// Integrity-constraint costs (section 2.2).
  static double cost(const State& s, int constraint) {
    switch (constraint) {
      case kOverbooking:
        return static_cast<double>(OverbookCost) *
               static_cast<double>(core::monus<std::int64_t>(s.al(), Capacity));
      case kUnderbooking:
        return static_cast<double>(UnderbookCost) *
               static_cast<double>(
                   std::min(core::monus<std::int64_t>(Capacity, s.al()),
                            s.wl()));
      default:
        return 0.0;
    }
  }

  /// Paper-proved classification of the transactions (sections 4.1, 5.2),
  /// consumed by the generic theorem checkers in analysis/. Property tests
  /// independently re-verify these claims on random states.
  struct Theory {
    /// Section 4.1 examples: "the other transactions are all safe for the
    /// overbooking constraint. However, the MOVE-UP transaction is unsafe
    /// ... the MOVE-UP transaction is safe for the underbooking constraint,
    /// but the other three transactions are all unsafe."
    static bool safe_for(const Request& r, int constraint) {
      if (constraint == kOverbooking) return r.kind != Request::Kind::kMoveUp;
      return r.kind == Request::Kind::kMoveUp;
    }

    /// Section 4.1: "all transactions preserve the cost of the overbooking
    /// constraint ... The MOVE-UP transaction ... and the MOVE-DOWN
    /// transaction preserve the cost of the underbooking constraint";
    /// REQUEST and CANCEL do not preserve underbooking.
    static bool preserves_cost(const Request& r, int constraint) {
      if (constraint == kOverbooking) return true;
      return r.kind == Request::Kind::kMoveUp ||
             r.kind == Request::Kind::kMoveDown;
    }

    /// Section 4.1: "900k bounds the cost increase for the overbooking
    /// constraint, while 300k bounds the cost increase for the
    /// underbooking constraint."
    static double f_bound(int constraint, std::size_t k) {
      const double unit = constraint == kOverbooking
                              ? static_cast<double>(OverbookCost)
                              : static_cast<double>(UnderbookCost);
      return unit * static_cast<double>(k);
    }

    /// Section 4.1: "the MOVE-UP transaction compensates for the
    /// underbooking constraint and the MOVE-DOWN transaction compensates
    /// for the overbooking constraint."
    static Request compensator(int constraint) {
      return constraint == kOverbooking ? Request::move_down()
                                        : Request::move_up();
    }
  };

  /// Fairness model (section 4.2): the competing entities are people; the
  /// known people in s are those on either list; priority P < Q iff P
  /// precedes Q on the WAIT-LIST, or P precedes Q on the ASSIGNED-LIST, or
  /// P is assigned and Q is waiting.
  struct Priority {
    using Entity = Person;

    static std::vector<Entity> known(const State& s) {
      std::vector<Entity> out(s.assigned().begin(), s.assigned().end());
      out.insert(out.end(), s.waiting().begin(), s.waiting().end());
      return out;
    }

    static bool precedes(const State& s, Person p, Person q) {
      const auto pos = [](std::span<const Person> v, Person x) {
        return std::ranges::find(v, x) - v.begin();
      };
      const bool p_assigned = s.is_assigned(p);
      const bool q_assigned = s.is_assigned(q);
      if (p_assigned && q_assigned) {
        return pos(s.assigned(), p) < pos(s.assigned(), q);
      }
      if (!p_assigned && !q_assigned && s.is_waiting(p) && s.is_waiting(q)) {
        return pos(s.waiting(), p) < pos(s.waiting(), q);
      }
      return p_assigned && s.is_waiting(q);
    }
  };
};

/// The paper's instance: 100 seats, $900 per overbooked passenger, $300 per
/// avoidable empty seat.
using Airline = BasicAirline<100, 900, 300>;

/// A small instance used by randomized property tests and fast benches so
/// interesting (over/under-booked) states are reached quickly.
using SmallAirline = BasicAirline<5, 900, 300>;

}  // namespace apps::airline

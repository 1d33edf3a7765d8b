// The database / transaction model of paper section 2.
//
// A database is a set S of states with a distinguished well-formed initial
// state s0. A transaction T consists of a *decision part* D_T — a mapping
// from states to (update, set of external actions) — and the *update* it
// selects: a well-formedness-preserving mapping S -> S. The decision part
// runs exactly once, at the transaction's origin, against whatever state the
// origin node has merged so far; the update is broadcast and may be undone
// and redone many times against other states.
//
// An Application packages a concrete instance of this model (states,
// requests, decisions, updates, integrity-constraint costs) behind a static
// interface checked by the `Application` concept below. The SHARD engine,
// the execution model, and every analysis pass are generic over it.
#pragma once

#include <compare>
#include <concepts>
#include <string>
#include <vector>

namespace core {

/// An effect on the external world (paper section 1.2: e.g. "inform a
/// passenger that he has been assigned a seat"). External actions are
/// triggered only by decision parts, exactly once, at the origin node; they
/// can never be undone — which is the entire reason the decision/update
/// split exists.
struct ExternalAction {
  /// Action verb, e.g. "grant-seat", "rescind-seat", "overdraft-notice".
  std::string kind;
  /// Affected external entity, e.g. the passenger name.
  std::string subject;

  friend auto operator<=>(const ExternalAction&,
                          const ExternalAction&) = default;
};

/// What a decision part returns: the update to broadcast plus the external
/// actions triggered right now. A default-constructed Update must be a
/// no-op; decisions that "take no action" return exactly that.
template <class Update>
struct DecisionResult {
  Update update{};
  std::vector<ExternalAction> external_actions;
};

/// The state-machine core of an application: what the replication engine
/// (UpdateLog) and the execution model need. `Application` below refines
/// this with decisions and costs; the partial-replication extension uses
/// per-group state machines that satisfy only this part. `apply` must
/// depend only on (update, state), and State equality must be exact: equal
/// states stay equal under every `apply`. The merge engine relies on it —
/// an out-of-order update that leaves the state where it lands equal to
/// what it was cannot change any later state, so nothing above it is
/// replayed.
template <class A>
concept Replicable = requires(const typename A::State& s,
                              typename A::State& mutable_state,
                              const typename A::Update& u) {
  typename A::State;
  typename A::Update;
  typename A::Request;
  { A::initial() } -> std::same_as<typename A::State>;
  { A::well_formed(s) } -> std::convertible_to<bool>;
  { A::apply(u, mutable_state) } -> std::same_as<void>;
  requires std::equality_comparable<typename A::State>;
  requires std::default_initializable<typename A::Update>;
};

/// Compile-time contract for applications plugged into the framework.
///
/// Requirements beyond the syntactic ones below:
///  - `apply` must preserve well-formedness (paper: "an update is any mapping
///    from S to S which preserves well-formedness");
///  - `apply` must be deterministic and depend only on (update, state);
///  - `decide` must not mutate anything (decisions read, never write);
///  - `cost(s, i)` must be nonnegative, zero iff constraint i holds in s;
///  - State must be a regular type; equality is used by the convergence
///    checks (mutual consistency) and the analysis passes, and must be
///    exact: equal states stay equal under every `apply` (the merge engine
///    skips the replay above an update that leaves the state unchanged).
template <class A>
concept Application = requires(const typename A::State& s,
                               typename A::State& mutable_state,
                               const typename A::Update& u,
                               const typename A::Request& req) {
  typename A::State;
  typename A::Update;
  typename A::Request;
  { A::name() } -> std::convertible_to<std::string>;
  { A::initial() } -> std::same_as<typename A::State>;
  { A::well_formed(s) } -> std::convertible_to<bool>;
  { A::apply(u, mutable_state) } -> std::same_as<void>;
  { A::decide(req, s) } -> std::same_as<DecisionResult<typename A::Update>>;
  { A::kNumConstraints } -> std::convertible_to<int>;
  { A::cost(s, int{}) } -> std::convertible_to<double>;
  requires std::equality_comparable<typename A::State>;
  requires std::default_initializable<typename A::Update>;
};

/// Total cost of a state: sum over all constraints (paper section 2.2,
/// cost(s) = sum_i cost(s, i)).
template <Application App>
double total_cost(const typename App::State& s) {
  double sum = 0.0;
  for (int i = 0; i < App::kNumConstraints; ++i) sum += App::cost(s, i);
  return sum;
}

/// Apply a sequence of updates to a copy of `base` and return the result.
template <Application App>
typename App::State replay(const typename App::State& base,
                           const std::vector<typename App::Update>& updates) {
  typename App::State s = base;
  for (const auto& u : updates) App::apply(u, s);
  return s;
}

}  // namespace core

// Airline-specific theorem checkers: the refined witness bounds (Theorems
// 20 and 21, paper section 5.3) and the centralization results (Theorems 22
// and 23, section 5.4).
//
// The refined bounds replace the blunt "missed k of ALL preceding
// transactions" hypothesis with per-person witness information: what
// matters for the overbooking step of a MOVE-UP is only whether it can see
// an *assignment witness* for each person actually assigned, and for a
// MOVE-DOWN whether it can see the *last cancel / last move-down* of each
// person actually absent. The witness-k measured here is typically much
// smaller than the raw missing count (experiment E4 quantifies the gap).
#pragma once

#include <algorithm>
#include <cstddef>
#include <map>
#include <optional>
#include <sstream>
#include <vector>

#include "analysis/compensation.hpp"
#include "analysis/execution_checker.hpp"
#include "analysis/report.hpp"
#include "apps/airline/airline.hpp"
#include "apps/airline/witness.hpp"
#include "core/execution.hpp"

namespace analysis {

namespace detail {

/// Updates of all transactions with index < i (the full sequence 𝒜 of
/// section 5.3).
template <class Air>
std::vector<apps::airline::Update> full_updates_before(
    const core::Execution<Air>& exec, std::size_t i) {
  std::vector<apps::airline::Update> out;
  out.reserve(i);
  for (std::size_t j = 0; j < i; ++j) out.push_back(exec.tx(j).update);
  return out;
}

/// Updates at the given ascending index subsequence (the 𝒮 of section 5.3).
template <class Air>
std::vector<apps::airline::Update> updates_at(
    const core::Execution<Air>& exec, const std::vector<std::size_t>& idxs) {
  std::vector<apps::airline::Update> out;
  out.reserve(idxs.size());
  for (std::size_t j : idxs) out.push_back(exec.tx(j).update);
  return out;
}

}  // namespace detail

/// Theorem 20.1 hypothesis size for transaction i: the number of persons P
/// in ASSIGNED-LIST(actual state before i) for which i's prefix subsequence
/// fails to include an assignment witness.
template <class Air>
std::size_t witness_k_overbooking(const core::Execution<Air>& exec,
                                  std::size_t i) {
  namespace al = apps::airline;
  const typename Air::State s = exec.actual_state_before(i);
  const std::vector<al::Update> seen =
      detail::updates_at(exec, exec.tx(i).prefix);
  std::size_t k = 0;
  for (al::Person p : s.assigned()) {
    if (!al::find_assignment_witness(seen, p).has_value()) ++k;
  }
  return k;
}

/// Theorem 20.2 hypothesis size for transaction i: persons P mentioned in
/// the full preceding sequence, NOT in ASSIGNED-LIST(actual before i), for
/// which i's prefix fails to include the last cancel(P) or the last
/// move-down(P) of the full sequence.
template <class Air>
std::size_t witness_k_underbooking(const core::Execution<Air>& exec,
                                   std::size_t i) {
  namespace al = apps::airline;
  const typename Air::State s = exec.actual_state_before(i);
  const std::vector<al::Update> full = detail::full_updates_before(exec, i);
  const auto& prefix = exec.tx(i).prefix;
  const auto prefix_has = [&prefix](std::size_t idx) {
    return std::binary_search(prefix.begin(), prefix.end(), idx);
  };
  std::size_t k = 0;
  for (al::Person p : al::persons_mentioned(full)) {
    if (s.is_assigned(p)) continue;
    const auto last_cancel = al::last_index_of(full, al::Update::Kind::kCancel, p);
    const auto last_down = al::last_index_of(full, al::Update::Kind::kMoveDown, p);
    const bool misses_cancel =
        last_cancel.has_value() && !prefix_has(*last_cancel);
    const bool misses_down = last_down.has_value() && !prefix_has(*last_down);
    if (misses_cancel || misses_down) ++k;
  }
  return k;
}

/// Theorem 20: per-transaction step bounds with witness-based k.
///   (1) any T: cost(s',1) <= cost(s,1) or <= OverCost * k_witness;
///   (2) mover T: cost(s',2) <= cost(s,2) or <= UnderCost * k_witness'.
template <class Air>
CheckReport check_theorem20(const core::Execution<Air>& exec) {
  namespace al = apps::airline;
  CheckReport report("theorem 20 refined step bounds");
  const auto states = exec.actual_states();
  for (std::size_t i = 0; i < exec.size(); ++i) {
    const double over_before = Air::cost(states[i], Air::kOverbooking);
    const double over_after = Air::cost(states[i + 1], Air::kOverbooking);
    if (over_after > over_before + 1e-9) {
      const std::size_t kw = witness_k_overbooking(exec, i);
      const double bound = static_cast<double>(Air::kOverbookCost) *
                           static_cast<double>(kw);
      if (over_after > bound + 1e-9) {
        std::ostringstream os;
        os << "tx " << i << ": overbooking cost " << over_after
           << " exceeds witness bound " << bound << " (k_w=" << kw << ")";
        report.add_violation(os.str());
      }
    }
    const auto kind = exec.tx(i).request.kind;
    if (kind == al::Request::Kind::kMoveUp ||
        kind == al::Request::Kind::kMoveDown) {
      const double under_before = Air::cost(states[i], Air::kUnderbooking);
      const double under_after = Air::cost(states[i + 1], Air::kUnderbooking);
      if (under_after > under_before + 1e-9) {
        const std::size_t kw = witness_k_underbooking(exec, i);
        const double bound = static_cast<double>(Air::kUnderbookCost) *
                             static_cast<double>(kw);
        if (under_after > bound + 1e-9) {
          std::ostringstream os;
          os << "tx " << i << ": underbooking cost " << under_after
             << " exceeds witness bound " << bound << " (k_w=" << kw << ")";
          report.add_violation(os.str());
        }
      }
    }
  }
  return report;
}

/// Theorem 21.1: with `seen` a subsequence of the execution's indices, let
/// k = #persons assigned in the final actual state without an assignment
/// witness in `seen`. Then either cost(s,1) <= OverCost*k already, or after
/// an atomic suffix of MOVE-DOWNs (prefix subsequence = seen) the actual
/// overbooking cost is <= OverCost*k.
template <class Air>
CheckReport check_theorem21_overbooking(const core::Execution<Air>& exec,
                                        const std::vector<std::size_t>& seen) {
  namespace al = apps::airline;
  CheckReport report("theorem 21.1 witness compensation bound");
  const typename Air::State s = exec.final_state();
  const std::vector<al::Update> seen_updates = detail::updates_at(exec, seen);
  std::size_t k = 0;
  for (al::Person p : s.assigned()) {
    if (!al::find_assignment_witness(seen_updates, p).has_value()) ++k;
  }
  const double bound =
      static_cast<double>(Air::kOverbookCost) * static_cast<double>(k);
  if (Air::cost(s, Air::kOverbooking) <= bound + 1e-9) return report;
  const auto res = run_atomic_compensation<Air>(
      exec, seen, al::Request::move_down(), Air::kOverbooking);
  const double final_cost = Air::cost(res.actual_final, Air::kOverbooking);
  if (final_cost > bound + 1e-9) {
    std::ostringstream os;
    os << "after MOVE-DOWN suffix (" << res.suffix_length
       << " steps), overbooking cost " << final_cost << " > witness bound "
       << bound << " (k=" << k << ")";
    report.add_violation(os.str());
  }
  return report;
}

/// Theorem 21.2 (underbooking analogue): k counts waiting persons without a
/// waiting witness in `seen` plus non-assigned persons whose last cancel /
/// move-down `seen` misses; the suffix consists of MOVE-UPs.
template <class Air>
CheckReport check_theorem21_underbooking(
    const core::Execution<Air>& exec, const std::vector<std::size_t>& seen) {
  namespace al = apps::airline;
  CheckReport report("theorem 21.2 witness compensation bound");
  const typename Air::State s = exec.final_state();
  const std::vector<al::Update> seen_updates = detail::updates_at(exec, seen);
  const std::vector<al::Update> full =
      detail::full_updates_before(exec, exec.size());
  std::size_t k1 = 0;
  for (al::Person p : s.waiting()) {
    if (!al::find_waiting_witness(seen_updates, p).has_value()) ++k1;
  }
  std::size_t k2 = 0;
  const auto seen_has = [&seen](std::size_t idx) {
    return std::binary_search(seen.begin(), seen.end(), idx);
  };
  for (al::Person p : al::persons_mentioned(full)) {
    if (s.is_assigned(p)) continue;
    const auto last_cancel = al::last_index_of(full, al::Update::Kind::kCancel, p);
    const auto last_down = al::last_index_of(full, al::Update::Kind::kMoveDown, p);
    if ((last_cancel.has_value() && !seen_has(*last_cancel)) ||
        (last_down.has_value() && !seen_has(*last_down))) {
      ++k2;
    }
  }
  const std::size_t k = std::max(k1, k2);
  const double bound =
      static_cast<double>(Air::kUnderbookCost) * static_cast<double>(k);
  if (Air::cost(s, Air::kUnderbooking) <= bound + 1e-9) return report;
  const auto res = run_atomic_compensation<Air>(
      exec, seen, al::Request::move_up(), Air::kUnderbooking);
  const double final_cost = Air::cost(res.actual_final, Air::kUnderbooking);
  if (final_cost > bound + 1e-9) {
    std::ostringstream os;
    os << "after MOVE-UP suffix (" << res.suffix_length
       << " steps), underbooking cost " << final_cost << " > witness bound "
       << bound << " (k=" << k << ")";
    report.add_violation(os.str());
  }
  return report;
}

/// Theorem 22: "Let e be a transitive execution. Assume that the MOVE-UP
/// transactions are centralized. Assume that for each P the transactions
/// that generate updates involving P are centralized. Then cost(s,1) = 0
/// for every reachable s." The checker verifies each hypothesis (reporting
/// which fails) and then the conclusion.
template <class Air>
CheckReport check_theorem22(const core::Execution<Air>& exec) {
  namespace al = apps::airline;
  CheckReport report("theorem 22 centralized zero overbooking");
  if (!is_transitive(exec)) {
    report.add_violation("hypothesis fails: execution not transitive");
  }
  if (!is_centralized<Air>(exec, [](const al::Request& r) {
        return r.kind == al::Request::Kind::kMoveUp;
      })) {
    report.add_violation("hypothesis fails: MOVE-UPs not centralized");
  }
  // Per-person centralization over *generated updates*.
  std::vector<al::Person> persons;
  for (std::size_t i = 0; i < exec.size(); ++i) {
    const auto& u = exec.tx(i).update;
    if (u.kind != al::Update::Kind::kNoop) persons.push_back(u.person);
  }
  std::sort(persons.begin(), persons.end());
  persons.erase(std::unique(persons.begin(), persons.end()), persons.end());
  for (al::Person p : persons) {
    // Group membership by generated update; expressed over indices.
    std::vector<std::size_t> group;
    for (std::size_t i = 0; i < exec.size(); ++i) {
      const auto& u = exec.tx(i).update;
      if (u.kind != al::Update::Kind::kNoop && u.person == p) {
        group.push_back(i);
      }
    }
    for (std::size_t gi = 1; gi < group.size(); ++gi) {
      const auto& prefix = exec.tx(group[gi]).prefix;
      for (std::size_t gj = 0; gj < gi; ++gj) {
        if (!std::binary_search(prefix.begin(), prefix.end(), group[gj])) {
          std::ostringstream os;
          os << "hypothesis fails: person " << al::person_name(p)
             << " transactions not centralized (tx " << group[gi]
             << " misses tx " << group[gj] << ")";
          report.add_violation(os.str());
        }
      }
    }
  }
  if (!report.ok()) return report;
  const auto states = exec.actual_states();
  for (std::size_t si = 0; si < states.size(); ++si) {
    if (Air::cost(states[si], Air::kOverbooking) != 0.0) {
      std::ostringstream os;
      os << "reachable state " << si << " is overbooked: "
         << Air::cost(states[si], Air::kOverbooking);
      report.add_violation(os.str());
    }
  }
  return report;
}

/// Theorem 23: the variant with "at most one REQUEST(P) per person" in
/// place of per-person centralization.
template <class Air>
CheckReport check_theorem23(const core::Execution<Air>& exec) {
  namespace al = apps::airline;
  CheckReport report("theorem 23 centralized zero overbooking (unique requests)");
  if (!is_transitive(exec)) {
    report.add_violation("hypothesis fails: execution not transitive");
  }
  if (!is_centralized<Air>(exec, [](const al::Request& r) {
        return r.kind == al::Request::Kind::kMoveUp;
      })) {
    report.add_violation("hypothesis fails: MOVE-UPs not centralized");
  }
  std::map<al::Person, std::size_t> request_count;
  for (std::size_t i = 0; i < exec.size(); ++i) {
    const auto& r = exec.tx(i).request;
    if (r.kind == al::Request::Kind::kRequest) ++request_count[r.person];
  }
  for (const auto& [p, n] : request_count) {
    if (n > 1) {
      std::ostringstream os;
      os << "hypothesis fails: " << al::person_name(p) << " has " << n
         << " REQUESTs";
      report.add_violation(os.str());
    }
  }
  if (!report.ok()) return report;
  const auto states = exec.actual_states();
  for (std::size_t si = 0; si < states.size(); ++si) {
    if (Air::cost(states[si], Air::kOverbooking) != 0.0) {
      std::ostringstream os;
      os << "reachable state " << si << " is overbooked: "
         << Air::cost(states[si], Air::kOverbooking);
      report.add_violation(os.str());
    }
  }
  return report;
}

}  // namespace analysis

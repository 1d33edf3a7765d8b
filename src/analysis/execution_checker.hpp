// Checkers for the system-side conditions of paper section 3.
//
// These validate that a concrete execution (usually assembled from a
// Cluster run) really satisfies the properties the system claims to
// guarantee: the prefix subsequence condition of section 3.1 and the
// refinements of section 3.2 (transitivity, k-completeness, atomicity,
// centralization, orderliness, t-bounded delay). They are the
// "Jepsen-style" half of the reproduction: nothing here trusts the engine —
// every condition is re-derived from the recorded trace by replaying
// updates.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <sstream>
#include <vector>

#include "analysis/messages.hpp"
#include "analysis/report.hpp"
#include "core/execution.hpp"

namespace analysis {

/// Conditions (1)–(4) of section 3.1, plus condition (3)'s determinism: for
/// every transaction instance, re-running its decision part against the
/// reconstructed apparent state must reproduce exactly the update and
/// external actions the original run recorded.
template <core::Application App>
CheckReport check_prefix_subsequence_condition(
    const core::Execution<App>& exec) {
  CheckReport report(msg::kPrefixSubsequenceTitle);
  for (std::size_t i = 0; i < exec.size(); ++i) {
    const auto& tx = exec.tx(i);
    // (1): I_i is a subsequence of {0..i-1}, strictly increasing.
    for (std::size_t j = 0; j < tx.prefix.size(); ++j) {
      if (tx.prefix[j] >= i) {
        report.add_violation(msg::prefix_non_preceding(i, tx.prefix[j]), i);
      }
      if (j > 0 && tx.prefix[j] <= tx.prefix[j - 1]) {
        report.add_violation(msg::prefix_not_increasing(i, j), i);
      }
    }
    // (2)+(3): the recorded update/external actions must equal what the
    // decision part yields on the apparent state t = result of the prefix
    // subsequence applied to s0.
    const typename App::State apparent = exec.apparent_state_before(i);
    if (!App::well_formed(apparent)) {
      report.add_violation(msg::apparent_ill_formed(i), i);
    }
    const core::DecisionResult<typename App::Update> redo =
        App::decide(tx.request, apparent);
    if (!(redo.update == tx.update)) {
      report.add_violation(msg::update_mismatch(i), i);
    }
    if (redo.external_actions != tx.external_actions) {
      report.add_violation(msg::actions_mismatch(i), i);
    }
  }
  // (4): actual states must be well-formed (updates preserve
  // well-formedness; s0 is well-formed).
  typename App::State s = App::initial();
  if (!App::well_formed(s)) report.add_violation(msg::initial_ill_formed());
  for (std::size_t i = 0; i < exec.size(); ++i) {
    App::apply(exec.tx(i).update, s);
    if (!App::well_formed(s)) {
      report.add_violation(msg::actual_ill_formed(i), i);
    }
  }
  return report;
}

/// Section 3.2 transitivity: "If T'' is in the prefix subsequence of T' and
/// T' is in the prefix subsequence of T, then T'' is in the prefix
/// subsequence of T." Checked as prefix-closure: prefix(j) ⊆ prefix(i) for
/// every j ∈ prefix(i).
template <core::Application App>
bool is_transitive(const core::Execution<App>& exec) {
  for (std::size_t i = 0; i < exec.size(); ++i) {
    const auto& pi = exec.tx(i).prefix;  // sorted
    for (std::size_t j : pi) {
      for (std::size_t jj : exec.tx(j).prefix) {
        if (!std::binary_search(pi.begin(), pi.end(), jj)) return false;
      }
    }
  }
  return true;
}

/// First (i, j, jj) triple violating transitivity, for diagnostics.
template <core::Application App>
CheckReport check_transitive(const core::Execution<App>& exec) {
  CheckReport report("transitivity (§3.2)");
  for (std::size_t i = 0; i < exec.size(); ++i) {
    const auto& pi = exec.tx(i).prefix;
    for (std::size_t j : pi) {
      for (std::size_t jj : exec.tx(j).prefix) {
        if (!std::binary_search(pi.begin(), pi.end(), jj)) {
          std::ostringstream os;
          os << "tx " << i << " sees tx " << j << " which sees tx " << jj
             << ", but " << jj << " is not in tx " << i << "'s prefix";
          report.add_violation(os.str(), i);
        }
      }
    }
  }
  return report;
}

/// Section 3.1 atomicity of a consecutive index range [first, last]:
/// "(a) each U_j includes each of the other U_k, k < j, in its prefix
/// subsequence, and (b) all U_j have the same subset of the transactions
/// with indices less than `first` in their prefix subsequences."
template <core::Application App>
bool is_atomic(const core::Execution<App>& exec, std::size_t first,
               std::size_t last) {
  if (first > last || last >= exec.size()) return false;
  std::vector<std::size_t> base;  // prefix of `first` restricted to < first
  for (std::size_t idx : exec.tx(first).prefix) {
    if (idx < first) base.push_back(idx);
  }
  for (std::size_t j = first; j <= last; ++j) {
    const auto& pj = exec.tx(j).prefix;
    // (a): must contain first..j-1 exactly as the in-range part.
    for (std::size_t kk = first; kk < j; ++kk) {
      if (!std::binary_search(pj.begin(), pj.end(), kk)) return false;
    }
    // (b): the part below `first` must equal base.
    std::vector<std::size_t> below;
    for (std::size_t idx : pj) {
      if (idx < first) below.push_back(idx);
    }
    if (below != base) return false;
  }
  return true;
}

/// Section 3.2 centralization: "each of the transactions in G includes in
/// its prefix subsequence all the others from G which precede it."
/// `in_group` classifies transactions by their request.
template <core::Application App>
bool is_centralized(
    const core::Execution<App>& exec,
    const std::function<bool(const typename App::Request&)>& in_group) {
  std::vector<std::size_t> group_members;
  for (std::size_t i = 0; i < exec.size(); ++i) {
    if (!in_group(exec.tx(i).request)) continue;
    const auto& pi = exec.tx(i).prefix;
    for (std::size_t g : group_members) {
      if (!std::binary_search(pi.begin(), pi.end(), g)) return false;
    }
    group_members.push_back(i);
  }
  return true;
}

/// Section 3.2: "if the order of real times is monotonic, we say that the
/// timed execution is orderly."
template <core::Application App>
bool is_orderly(const core::Execution<App>& exec) {
  for (std::size_t i = 1; i < exec.size(); ++i) {
    if (exec.tx(i).real_time < exec.tx(i - 1).real_time) return false;
  }
  return true;
}

/// Section 3.2 t-bounded delay: "the prefix subsequence of each transaction
/// T includes every transaction in the prefix whose real time is at least t
/// smaller than T's real time."
template <core::Application App>
bool has_t_bounded_delay(const core::Execution<App>& exec, double t) {
  for (std::size_t i = 0; i < exec.size(); ++i) {
    const auto& tx = exec.tx(i);
    const auto& pi = tx.prefix;
    for (std::size_t j = 0; j < i; ++j) {
      if (exec.tx(j).real_time <= tx.real_time - t &&
          !std::binary_search(pi.begin(), pi.end(), j)) {
        return false;
      }
    }
  }
  return true;
}

/// Smallest t for which the execution has t-bounded delay (the empirical
/// "information staleness" of a run; swept in experiment E7).
template <core::Application App>
double min_bounded_delay(const core::Execution<App>& exec) {
  double t = 0.0;
  for (std::size_t i = 0; i < exec.size(); ++i) {
    const auto& tx = exec.tx(i);
    const auto& pi = tx.prefix;
    for (std::size_t j = 0; j < i; ++j) {
      if (!std::binary_search(pi.begin(), pi.end(), j)) {
        t = std::max(t, tx.real_time - exec.tx(j).real_time);
      }
    }
  }
  return t;
}

/// Histogram of missing-prefix sizes: result[i] = missing_count(i). The raw
/// material for the section 1.3 "probability that transactions are
/// k-complete" analysis (experiment E9).
template <core::Application App>
std::vector<std::size_t> missing_counts(const core::Execution<App>& exec) {
  std::vector<std::size_t> out(exec.size());
  for (std::size_t i = 0; i < exec.size(); ++i) out[i] = exec.missing_count(i);
  return out;
}

}  // namespace analysis

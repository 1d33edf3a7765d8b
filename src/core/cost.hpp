// Integrity-constraint cost accounting (paper section 2.2).
//
// Integrity constraints are indexed; each has a nonnegative real cost
// measure over states, zero exactly when the constraint holds. "One goal of
// SHARD is to minimize the cost of states that arise during an execution."
// This header provides per-state cost vectors and a running accumulator used
// by the analysis passes and bench tables.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/model.hpp"

namespace core {

/// Per-constraint costs of a single state.
using CostVector = std::vector<double>;

template <Application App>
CostVector cost_vector(const typename App::State& s) {
  CostVector v(static_cast<std::size_t>(App::kNumConstraints));
  for (int i = 0; i < App::kNumConstraints; ++i)
    v[static_cast<std::size_t>(i)] = App::cost(s, i);
  return v;
}

/// Running summary of costs over a sequence of states (e.g. all actual
/// states of an execution): per-constraint maximum, final value, and the
/// time-integral style sum used to compare runs in the bench tables.
class CostStats {
 public:
  explicit CostStats(std::size_t num_constraints)
      : max_(num_constraints, 0.0),
        last_(num_constraints, 0.0),
        sum_(num_constraints, 0.0) {}

  void observe(const CostVector& costs);

  std::size_t num_constraints() const { return max_.size(); }
  std::size_t states_observed() const { return count_; }

  double max_cost(std::size_t i) const { return max_.at(i); }
  double final_cost(std::size_t i) const { return last_.at(i); }
  /// Mean over observed states (a discrete "area under the cost curve").
  double mean_cost(std::size_t i) const;

  std::string summary() const;

 private:
  CostVector max_;
  CostVector last_;
  CostVector sum_;
  std::size_t count_ = 0;
};

}  // namespace core

#include "core/execution.hpp"

namespace core {

template <Application App>
CostStats cost_stats_of_execution(const Execution<App>& exec) {
  CostStats stats(static_cast<std::size_t>(App::kNumConstraints));
  typename App::State s = App::initial();
  stats.observe(cost_vector<App>(s));
  for (const auto& tx : exec.transactions()) {
    App::apply(tx.update, s);
    stats.observe(cost_vector<App>(s));
  }
  return stats;
}

}  // namespace core

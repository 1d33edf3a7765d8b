#include "core/cost.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace core {

void CostStats::observe(const CostVector& costs) {
  if (costs.size() != max_.size()) {
    throw std::invalid_argument("CostStats: constraint count mismatch");
  }
  for (std::size_t i = 0; i < costs.size(); ++i) {
    max_[i] = std::max(max_[i], costs[i]);
    sum_[i] += costs[i];
    last_[i] = costs[i];
  }
  ++count_;
}

double CostStats::mean_cost(std::size_t i) const {
  return count_ == 0 ? 0.0 : sum_.at(i) / static_cast<double>(count_);
}

std::string CostStats::summary() const {
  std::ostringstream os;
  os << "costs over " << count_ << " states:";
  for (std::size_t i = 0; i < max_.size(); ++i) {
    os << " c" << i << "[max=" << max_[i] << ",mean=" << mean_cost(i)
       << ",final=" << last_[i] << "]";
  }
  return os.str();
}

}  // namespace core

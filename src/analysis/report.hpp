// Shared result type for all analysis passes.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace analysis {

/// Outcome of a condition/theorem check over an execution: either clean, or
/// a list of human-readable violations (each naming the transaction index
/// and the quantity that broke the bound).
class CheckReport {
 public:
  CheckReport() = default;
  explicit CheckReport(std::string title) : title_(std::move(title)) {}

  /// Sentinel for a violation with no attributed transaction.
  static constexpr std::size_t kNoTx = static_cast<std::size_t>(-1);

  bool ok() const { return violations_.empty(); }
  void add_violation(std::string v) {
    violations_.push_back(std::move(v));
    tx_of_.push_back(kNoTx);
  }
  /// Violation attributed to transaction index `tx` in the checked
  /// execution — lets the incident bundle (analysis/incident.hpp) find the
  /// offending update and render the trace around it.
  void add_violation(std::string v, std::size_t tx) {
    violations_.push_back(std::move(v));
    tx_of_.push_back(tx);
  }
  const std::vector<std::string>& violations() const { return violations_; }
  /// The transaction attributed to violations()[i], kNoTx when none —
  /// the message<->tx pairing incident bundles are seeded from.
  std::size_t violation_tx(std::size_t i) const { return tx_of_[i]; }
  /// Transaction indices named by violations, sorted and deduplicated
  /// (violations without an attributed index contribute nothing).
  std::vector<std::size_t> violating_txs() const;
  const std::string& title() const { return title_; }

  /// Merge another report's violations into this one.
  void absorb(const CheckReport& other);

  std::string to_string() const;

 private:
  std::string title_;
  std::vector<std::string> violations_;
  std::vector<std::size_t> tx_of_;  ///< Parallel to violations_ (kNoTx gaps).
};

}  // namespace analysis

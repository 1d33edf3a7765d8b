// Globally unique timestamps and Lamport clocks.
//
// Paper section 1.2: "Transactions are totally ordered by a globally-unique
// timestamp assignment (such as one based on local timestamps with node
// identifiers used for tiebreaking), and each node uses this total ordering
// to determine how to merge information about different transactions."
//
// We implement exactly that: a Lamport logical clock per node, with the node
// id as tiebreak. A node advances its clock past every timestamp it merges,
// so a transaction's timestamp is strictly greater than the timestamp of
// every transaction in its prefix subsequence — which is what makes the
// prefix a subsequence of the *preceding* transactions (section 3.1,
// condition (1)).
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <string>

#include "sim/delay.hpp"

namespace core {

using sim::NodeId;

/// A globally unique, totally ordered transaction timestamp.
struct Timestamp {
  std::uint64_t logical = 0;  ///< Lamport counter value.
  NodeId node = 0;            ///< Origin node; tiebreak for global uniqueness.

  friend auto operator<=>(const Timestamp&, const Timestamp&) = default;

  /// Hot-path total-order compare. The defaulted <=> above lowers to two
  /// dependent branches (compare logical, then maybe node); merge-position
  /// binary searches run this comparison O(log window) times per insert, so
  /// it is written branch-lean — both legs evaluate and combine with
  /// bitwise ops, which the compiler turns into straight-line cmp/setcc.
  /// Exact same order as the defaulted <=> ((logical, node) lexicographic);
  /// the other relational operators and == still come from <=>.
  friend constexpr bool operator<(const Timestamp& a,
                                  const Timestamp& b) noexcept {
    return static_cast<bool>(
        static_cast<unsigned>(a.logical < b.logical) |
        (static_cast<unsigned>(a.logical == b.logical) &
         static_cast<unsigned>(a.node < b.node)));
  }

  std::string to_string() const;
};

/// Per-node Lamport clock.
class LamportClock {
 public:
  explicit LamportClock(NodeId node) : node_(node) {}

  /// Advance and return a fresh timestamp for a locally initiated
  /// transaction. Strictly greater than every timestamp previously returned
  /// by or observed through this clock.
  Timestamp tick() {
    ++counter_;
    return Timestamp{counter_, node_};
  }

  /// Fold in a remote timestamp so future local timestamps exceed it.
  void observe(const Timestamp& ts) {
    if (ts.logical > counter_) counter_ = ts.logical;
  }

  NodeId node() const { return node_; }
  std::uint64_t counter() const { return counter_; }

 private:
  std::uint64_t counter_ = 0;
  NodeId node_;
};

}  // namespace core

template <>
struct std::hash<core::Timestamp> {
  std::size_t operator()(const core::Timestamp& ts) const noexcept {
    return std::hash<std::uint64_t>{}(ts.logical * 1000003ULL + ts.node);
  }
};

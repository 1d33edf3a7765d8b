#include "sim/fault_plan.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace sim {

const char* to_string(RecoveryMode mode) {
  switch (mode) {
    case RecoveryMode::kDurable:
      return "durable";
    case RecoveryMode::kAmnesia:
      return "amnesia";
    case RecoveryMode::kStaleDisk:
      return "stale-disk";
  }
  return "unknown";
}

FaultPlan::FaultPlan(std::uint64_t seed) : rng_(seed) {}

bool FaultPlan::overlaps_crash(const CrashEvent& ev) const {
  return std::any_of(crashes_.begin(), crashes_.end(),
                     [&ev](const CrashEvent& prior) {
                       return prior.node == ev.node && ev.start < prior.end &&
                              prior.start < ev.end;
                     });
}

void FaultPlan::add_crash(CrashEvent event) {
  if (!(event.start < event.end)) {
    throw std::invalid_argument("FaultPlan: empty down-window");
  }
  if (overlaps_crash(event)) {
    throw std::invalid_argument(
        "FaultPlan: overlapping down-windows for one node");
  }
  crashes_.push_back(event);
}

FaultPlan& FaultPlan::crash(NodeId node, Time start, Time end,
                            RecoveryMode mode) {
  add_crash(CrashEvent{node, start, end, mode, 1.0});
  return *this;
}

FaultPlan& FaultPlan::disk_failure(NodeId node, Time start, Time end) {
  // Draw the surviving fraction from the plan's stream: [0.1, 0.9) keeps
  // the failure interesting — some log survives, some is lost.
  return disk_failure(node, start, end, rng_.uniform(0.1, 0.9));
}

FaultPlan& FaultPlan::disk_failure(NodeId node, Time start, Time end,
                                   double keep_fraction) {
  if (keep_fraction < 0.0 || keep_fraction > 1.0) {
    throw std::invalid_argument("FaultPlan: keep_fraction outside [0, 1]");
  }
  add_crash(
      CrashEvent{node, start, end, RecoveryMode::kStaleDisk, keep_fraction});
  return *this;
}

FaultPlan& FaultPlan::crash_mid_broadcast(NodeId node,
                                          std::uint64_t broadcast_seq,
                                          Time down_for, RecoveryMode mode,
                                          double keep_fraction) {
  if (broadcast_seq == 0) {
    throw std::invalid_argument("FaultPlan: broadcast_seq is 1-based");
  }
  if (!(down_for > 0.0)) {
    throw std::invalid_argument("FaultPlan: mid-broadcast down_for <= 0");
  }
  if (keep_fraction < 0.0 || keep_fraction > 1.0) {
    throw std::invalid_argument("FaultPlan: keep_fraction outside [0, 1]");
  }
  for (const MidBroadcastCrash& mb : mid_) {
    if (mb.node == node && mb.broadcast_seq == broadcast_seq) {
      throw std::invalid_argument(
          "FaultPlan: duplicate mid-broadcast crash for one (node, seq)");
    }
  }
  mid_.push_back(
      MidBroadcastCrash{node, broadcast_seq, down_for, mode, keep_fraction});
  return *this;
}

FaultPlan& FaultPlan::partition(PartitionEvent event) {
  partitions_.push_back(std::move(event));
  return *this;
}

FaultPlan& FaultPlan::cut(std::vector<std::vector<NodeId>> groups, Time start,
                          Time end) {
  PartitionEvent ev;
  ev.start = start;
  ev.end = end;
  ev.groups = std::move(groups);
  return partition(std::move(ev));
}

FaultPlan& FaultPlan::split_halves(NodeId n, NodeId m, Time start, Time end) {
  std::vector<NodeId> left, right;
  for (NodeId i = 0; i < m; ++i) left.push_back(i);
  for (NodeId i = m; i < n; ++i) right.push_back(i);
  return cut({std::move(left), std::move(right)}, start, end);
}

FaultPlan& FaultPlan::isolate(NodeId node, NodeId cluster_size, Time start,
                              Time end) {
  std::vector<NodeId> rest;
  for (NodeId i = 0; i < cluster_size; ++i) {
    if (i != node) rest.push_back(i);
  }
  return cut({{node}, std::move(rest)}, start, end);
}

FaultPlan& FaultPlan::rack_power_loss(const std::vector<NodeId>& rack,
                                      NodeId cluster_size, Time start,
                                      Time end, RecoveryMode mode) {
  if (rack.empty()) {
    throw std::invalid_argument("FaultPlan: empty rack");
  }
  std::vector<NodeId> rest;
  for (NodeId i = 0; i < cluster_size; ++i) {
    if (std::find(rack.begin(), rack.end(), i) == rack.end()) {
      rest.push_back(i);
    }
  }
  cut({rack, std::move(rest)}, start, end);
  for (NodeId node : rack) {
    add_crash(CrashEvent{node, start, end, mode, 1.0});
  }
  return *this;
}

FaultPlan& FaultPlan::rolling_restart(NodeId cluster_size, Time start,
                                      Time down_for, Time gap,
                                      RecoveryMode mode) {
  if (!(down_for > 0.0) || gap < 0.0) {
    throw std::invalid_argument("FaultPlan: bad rolling-restart window");
  }
  for (NodeId i = 0; i < cluster_size; ++i) {
    const Time s = start + static_cast<Time>(i) * (down_for + gap);
    add_crash(CrashEvent{i, s, s + down_for, mode, 1.0});
  }
  return *this;
}

FaultPlan& FaultPlan::random_partitions(std::size_t nodes, Time horizon,
                                        int events) {
  for (int e = 0; e < events; ++e) {
    const Time start = rng_.uniform(0.0, horizon);
    const Time len = rng_.uniform(horizon / 10.0, horizon / 3.0);
    // A random nonempty proper subset vs the rest.
    std::vector<NodeId> left, right;
    for (NodeId n = 0; n < static_cast<NodeId>(nodes); ++n) {
      (rng_.bernoulli(0.5) ? left : right).push_back(n);
    }
    if (left.empty()) left.push_back(right.back()), right.pop_back();
    if (right.empty()) right.push_back(left.back()), left.pop_back();
    cut({std::move(left), std::move(right)}, start, start + len);
  }
  return *this;
}

FaultPlan& FaultPlan::random_crashes(std::size_t nodes, Time horizon,
                                     int events, Time min_down, Time max_down,
                                     double amnesia_probability,
                                     double disk_failure_probability) {
  for (int e = 0; e < events; ++e) {
    CrashEvent ev;
    ev.node = static_cast<NodeId>(
        rng_.uniform_int(0, static_cast<std::int64_t>(nodes) - 1));
    ev.start = rng_.uniform(0.0, horizon);
    ev.end = ev.start + rng_.uniform(min_down, max_down);
    // Fixed draw count per event regardless of the mode chosen, so the
    // stream stays aligned across parameterizations.
    const bool disk = rng_.bernoulli(disk_failure_probability);
    const bool amnesia = rng_.bernoulli(amnesia_probability);
    const double keep = rng_.uniform(0.1, 0.9);
    if (disk) {
      ev.mode = RecoveryMode::kStaleDisk;
      ev.keep_fraction = keep;
    } else {
      ev.mode = amnesia ? RecoveryMode::kAmnesia : RecoveryMode::kDurable;
    }
    if (!overlaps_crash(ev)) add_crash(ev);
  }
  return *this;
}

FaultPlan FaultPlan::chaos(std::uint64_t seed, std::size_t nodes, Time horizon,
                           const ChaosOptions& opt) {
  FaultPlan plan(seed);
  // Partitions first; some become correlated rack losses: every node of the
  // cut's smaller side also loses power for the window (skipped if one of
  // those nodes already has an overlapping crash window).
  for (int e = 0; e < opt.partition_events; ++e) {
    plan.random_partitions(nodes, horizon, 1);
    if (!plan.rng_.bernoulli(opt.rack_loss_probability)) continue;
    const PartitionEvent& cut = plan.partitions_.back();
    const std::vector<NodeId>& rack = cut.groups[0].size() <=
                                              cut.groups[1].size()
                                          ? cut.groups[0]
                                          : cut.groups[1];
    const bool overlaps = std::any_of(
        plan.crashes_.begin(), plan.crashes_.end(), [&](const CrashEvent& ev) {
          return cut.start < ev.end && ev.start < cut.end &&
                 std::find(rack.begin(), rack.end(), ev.node) != rack.end();
        });
    if (overlaps) continue;
    for (NodeId node : rack) {
      plan.add_crash(
          CrashEvent{node, cut.start, cut.end, RecoveryMode::kDurable, 1.0});
    }
  }
  plan.random_crashes(nodes, horizon, opt.crash_events, opt.min_down,
                      opt.max_down, opt.amnesia_probability,
                      opt.disk_failure_probability);
  return plan;
}

FaultPlan& FaultPlan::byzantine_payload(double corrupt_probability,
                                        double duplicate_probability,
                                        double reorder_probability,
                                        Time start, Time end) {
  for (const double p :
       {corrupt_probability, duplicate_probability, reorder_probability}) {
    if (p < 0.0 || p > 1.0) {
      throw std::invalid_argument(
          "FaultPlan: byzantine probability outside [0, 1]");
    }
  }
  if (!(start < end)) {
    throw std::invalid_argument("FaultPlan: empty byzantine window");
  }
  byzantine_.enabled = true;
  byzantine_.corrupt_probability = corrupt_probability;
  byzantine_.duplicate_probability = duplicate_probability;
  byzantine_.reorder_probability = reorder_probability;
  byzantine_.start = start;
  byzantine_.end = end;
  // The adversary's seed comes from the plan's stream: same plan seed and
  // call sequence -> identical tampering, different plan seeds -> different.
  byzantine_.seed = rng_.next_u64();
  return *this;
}

bool FaultPlan::down(NodeId node, Time t) const {
  return std::any_of(crashes_.begin(), crashes_.end(),
                     [node, t](const CrashEvent& ev) {
                       return ev.node == node && t >= ev.start && t < ev.end;
                     });
}

bool FaultPlan::connected(NodeId a, NodeId b, Time t) const {
  if (a == b) return true;
  for (const PartitionEvent& ev : partitions_) {
    if (t < ev.start || t >= ev.end) continue;
    bool together = false;
    for (const auto& group : ev.groups) {
      const bool has_a =
          std::find(group.begin(), group.end(), a) != group.end();
      const bool has_b =
          std::find(group.begin(), group.end(), b) != group.end();
      if (has_a && has_b) {
        together = true;
        break;
      }
    }
    if (!together) return false;
  }
  return true;
}

bool FaultPlan::partitioned_at(Time t) const {
  return std::any_of(partitions_.begin(), partitions_.end(),
                     [t](const PartitionEvent& ev) {
                       return t >= ev.start && t < ev.end;
                     });
}

Time FaultPlan::last_heal_time() const {
  Time latest = 0.0;
  for (const PartitionEvent& ev : partitions_) {
    latest = std::max(latest, ev.end);
  }
  return latest;
}

Time FaultPlan::last_restart_time() const {
  Time latest = 0.0;
  for (const CrashEvent& ev : crashes_) latest = std::max(latest, ev.end);
  return latest;
}

Time FaultPlan::all_clear_time() const {
  return std::max(last_heal_time(), last_restart_time());
}

Time FaultPlan::total_downtime() const {
  Time total = 0.0;
  for (const CrashEvent& ev : crashes_) total += ev.end - ev.start;
  return total;
}

bool FaultPlan::empty() const {
  return crashes_.empty() && partitions_.empty() && mid_.empty() &&
         !byzantine_.enabled;
}

std::string FaultPlan::describe() const {
  if (empty()) return "no faults";
  std::ostringstream os;
  if (crashes_.empty()) {
    os << "no crashes";
  } else {
    os << crashes_.size() << " crash event(s): ";
    for (std::size_t i = 0; i < crashes_.size(); ++i) {
      const CrashEvent& ev = crashes_[i];
      if (i > 0) os << "; ";
      os << "node " << ev.node << " down [" << ev.start << "," << ev.end
         << ") " << to_string(ev.mode);
      if (ev.mode == RecoveryMode::kStaleDisk) {
        os << " keep=" << ev.keep_fraction;
      }
    }
  }
  os << "; ";
  if (partitions_.empty()) {
    os << "no partitions";
  } else {
    os << partitions_.size() << " partition event(s): ";
    for (std::size_t i = 0; i < partitions_.size(); ++i) {
      const PartitionEvent& ev = partitions_[i];
      if (i > 0) os << "; ";
      os << "[" << ev.start << "," << ev.end << ")x" << ev.groups.size()
         << " groups";
    }
  }
  if (!mid_.empty()) {
    os << "; " << mid_.size() << " mid-broadcast crash(es):";
    for (const MidBroadcastCrash& mb : mid_) {
      os << " node " << mb.node << "@seq " << mb.broadcast_seq << " ("
         << to_string(mb.mode) << ")";
    }
  }
  if (byzantine_.enabled) {
    os << "; byzantine payload adversary (corrupt="
       << byzantine_.corrupt_probability
       << ", dup=" << byzantine_.duplicate_probability
       << ", reorder=" << byzantine_.reorder_probability << ") over ["
       << byzantine_.start << "," << byzantine_.end << ")";
  }
  return os.str();
}

}  // namespace sim

// Partial replication (the paper's first section 6 extension).
//
// "The inessential full replication assumption needs to be removed. Even
// with only partial replication, it should be possible to continue to
// maintain the correctness conditions we describe in this paper, by
// judicious assignment of data and transactions to nodes (i.e. in such a
// way that each transaction will have copies of all the data it requires)."
//
// Model: the database is partitioned into *groups* of objects (accounts,
// key shards, flights); each group is replicated on `replication_factor`
// of the nodes. A request names the group(s) it reads and writes; the
// router sends it to a node hosting ALL of them — the paper's "judicious
// assignment". The decision part reads the local replicas of those groups
// and emits one update per written group; each group's updates are
// broadcast only to that group's replica set and merged in global
// timestamp order per group. Every per-group projection of the run is a
// SHARD execution in the full paper sense, so all the correctness
// conditions apply group-wise (checked in tests/test_partial.cpp).
//
// What partial replication costs, and what the experiments measure
// (bench/e13_partial_replication): a request whose group set no single
// node hosts is *unroutable* (a new failure mode full replication never
// has), and smaller replica sets mean less storage and fewer messages but
// fewer places any given transaction can run.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "core/execution.hpp"
#include "core/model.hpp"
#include "core/prefix.hpp"
#include "core/timestamp.hpp"
#include "net/broadcast.hpp"
#include "shard/update_log.hpp"
#include "sim/fault_plan.hpp"
#include "sim/network.hpp"
#include "sim/scheduler.hpp"

namespace shard {

using GroupId = std::uint32_t;

/// One group-scoped write produced by a decision.
template <class A>
struct GroupWrite {
  GroupId group = 0;
  typename A::Update update;
};

/// What a partial-application decision returns.
template <class A>
struct PartialDecision {
  std::vector<GroupWrite<A>> writes;
  std::vector<core::ExternalAction> external_actions;
};

/// Read access to the local replicas of the groups a request declared.
template <class A>
using GroupView =
    std::function<const typename A::GroupState&(GroupId)>;

/// Contract for partially replicated applications.
///
/// Requirements beyond the syntactic ones:
///  - `groups_of(request)` must list every group the decision reads or the
///    updates write (the router relies on it);
///  - `decide` must only call the view on those groups;
///  - each write's group must be in `groups_of(request)`;
///  - `apply` must preserve group well-formedness.
template <class A>
concept PartialApplication =
    requires(const typename A::GroupState& gs,
             typename A::GroupState& mutable_gs,
             const typename A::Update& u, const typename A::Request& req,
             const GroupView<A>& view) {
      typename A::GroupState;
      typename A::Update;
      typename A::Request;
      { A::name() } -> std::convertible_to<std::string>;
      { A::group_initial() } -> std::same_as<typename A::GroupState>;
      { A::group_well_formed(gs) } -> std::convertible_to<bool>;
      { A::apply(u, mutable_gs) } -> std::same_as<void>;
      { A::groups_of(req) } -> std::convertible_to<std::vector<GroupId>>;
      { A::decide(req, view) } -> std::same_as<PartialDecision<A>>;
      { A::kNumConstraints } -> std::convertible_to<int>;
      { A::cost(gs, int{}) } -> std::convertible_to<double>;
      requires std::equality_comparable<typename A::GroupState>;
      requires std::default_initializable<typename A::Update>;
    };

/// Adapter exposing one group of a PartialApplication as a Replicable
/// state machine, so UpdateLog and Execution can be reused verbatim.
template <PartialApplication A>
struct GroupStateMachine {
  using State = typename A::GroupState;
  using Update = typename A::Update;
  using Request = typename A::Request;
  static State initial() { return A::group_initial(); }
  static bool well_formed(const State& s) { return A::group_well_formed(s); }
  static void apply(const Update& u, State& s) { A::apply(u, s); }
};

/// A partially replicated SHARD cluster.
///
/// Each group's replica set runs the one broadcast protocol,
/// net::ReliableBroadcast, in non-causal mode (arrival order, at most once):
/// group g's replicas are ranks 0..r-1 of their own sim::Network on the
/// shared scheduler, so a write reaches only the nodes hosting its group,
/// and dedup, repair and anti-entropy are the full-replication code. The
/// fault plan's cuts reach each group's network restricted to its replicas;
/// a partial cluster has no crash or adversary path, so a plan holding
/// either is rejected at construction.
template <PartialApplication A>
class PartialCluster {
 public:
  using GroupLog = UpdateLog<GroupStateMachine<A>>;
  using Request = typename A::Request;
  using Update = typename A::Update;

  struct Config {
    std::size_t num_nodes = 4;
    std::size_t num_groups = 8;
    std::size_t replication_factor = 2;
    sim::Network::Config network;
    /// Partition cuts only (see the class comment).
    sim::FaultPlan faults;
    sim::Time anti_entropy_interval = 0.5;
    std::uint64_t seed = 1;
  };

  /// What the origin records about one transaction (for per-group
  /// execution assembly).
  struct Record {
    core::Timestamp ts;
    core::NodeId origin = 0;
    sim::Time real_time = 0.0;
    Request request;
    std::vector<GroupWrite<A>> writes;
    std::vector<core::ExternalAction> external_actions;
    /// Per written group: the updates merged in that group's local log at
    /// decision time — the group-wise prefix subsequence, interned over
    /// the group's replica ranks (see group_execution).
    std::map<GroupId, core::PrefixRef> group_prefixes;
  };

  struct Stats {
    std::uint64_t routed = 0;
    std::uint64_t unroutable = 0;  ///< no node hosts all required groups
    std::uint64_t wires_sent = 0;  ///< flood sends, one per write per peer
  };

  explicit PartialCluster(Config config)
      : config_(config), rng_(config.seed) {
    if (config_.replication_factor == 0 ||
        config_.replication_factor > config_.num_nodes) {
      throw std::invalid_argument("replication factor out of range");
    }
    if (!config_.faults.crashes().empty() ||
        !config_.faults.mid_broadcast_crashes().empty() ||
        config_.faults.byzantine().enabled) {
      throw std::invalid_argument(
          "PartialCluster executes partition cuts only: no crash windows, "
          "mid-broadcast crashes or Byzantine adversary");
    }
    for (core::NodeId n = 0; n < config_.num_nodes; ++n) {
      nodes_.push_back(std::make_unique<NodeState>(n));
    }
    net::BroadcastOptions options;
    options.causal = false;
    options.anti_entropy_interval = config_.anti_entropy_interval;
    replicas_.resize(config_.num_groups);
    for (GroupId g = 0; g < config_.num_groups; ++g) {
      // Placement: group g lives on r consecutive nodes starting at g mod n.
      for (std::size_t j = 0; j < config_.replication_factor; ++j) {
        replicas_[g].push_back(static_cast<core::NodeId>(
            (g + j) % config_.num_nodes));
      }
      networks_.push_back(std::make_unique<sim::Network>(
          scheduler_, config_.network, rng_.fork_seed(), group_faults(g)));
      const std::size_t r = replicas_[g].size();
      for (core::NodeId rank = 0; rank < r; ++rank) {
        NodeState& node = *nodes_[replicas_[g][rank]];
        Replica& rep = node.groups[g];
        rep.endpoint = std::make_unique<Broadcast>(
            scheduler_, *networks_.back(), rank, r, options, rng_.fork_seed(),
            [&node, &log = rep.log](const typename Broadcast::Wire& w) {
              node.clock.observe(w.payload.ts);
              log.insert(w.payload);
            });
        rep.endpoint->start();
      }
    }
  }

  /// Nodes hosting group g.
  const std::vector<core::NodeId>& replicas_of(GroupId g) const {
    return replicas_.at(g);
  }

  bool hosts(core::NodeId n, GroupId g) const {
    return nodes_.at(n)->groups.contains(g);
  }

  /// A node hosting every group in `groups`, or nullopt — the "judicious
  /// assignment" requirement that each transaction has copies of all the
  /// data it requires.
  std::optional<core::NodeId> route(const std::vector<GroupId>& groups) {
    std::vector<core::NodeId> candidates;
    for (core::NodeId n = 0; n < config_.num_nodes; ++n) {
      bool all = true;
      for (GroupId g : groups) {
        if (!hosts(n, g)) {
          all = false;
          break;
        }
      }
      if (all) candidates.push_back(n);
    }
    if (candidates.empty()) return std::nullopt;
    return candidates[static_cast<std::size_t>(rng_.uniform_int(
        0, static_cast<std::int64_t>(candidates.size()) - 1))];
  }

  /// Schedule a submission; routing happens at fire time. Returns nothing —
  /// unroutable requests are counted in stats().
  void submit_at(sim::Time t, Request request) {
    scheduler_.schedule_at(t, [this, request = std::move(request)] {
      const std::vector<GroupId> groups = A::groups_of(request);
      const auto node = route(groups);
      if (!node.has_value()) {
        ++stats_.unroutable;
        return;
      }
      run_at(*node, request, scheduler_.now());
    });
  }

  /// Run a request at a specific hosting node, now (tests / scripting).
  Record submit_now_at(core::NodeId node, const Request& request) {
    return run_at(node, request, scheduler_.now());
  }

  void run_until(sim::Time t) { scheduler_.run_until(t); }

  /// Drive anti-entropy past the last partition heal until every group's
  /// replicas agree.
  void settle(sim::Time max_time = 1e6) {
    const sim::Time heal = config_.faults.last_heal_time();
    if (scheduler_.now() < heal) run_until(heal);
    const sim::Time step = config_.anti_entropy_interval > 0.0
                               ? 4.0 * config_.anti_entropy_interval
                               : 1.0;
    while (!converged()) {
      if (scheduler_.now() > max_time) {
        throw std::runtime_error("partial cluster failed to converge");
      }
      run_until(scheduler_.now() + step);
    }
  }

  /// Mutual consistency per group: every replica holds EVERY update ever
  /// written to the group (size compared against the global write count —
  /// two replicas can transiently have equal sizes and states with
  /// different contents) and the states agree.
  bool converged() const {
    std::vector<std::size_t> expected(config_.num_groups, 0);
    for (const auto& node : nodes_) {
      for (const auto& rec : node->originated) {
        for (const auto& w : rec.writes) ++expected[w.group];
      }
    }
    for (GroupId g = 0; g < config_.num_groups; ++g) {
      const auto& reps = replicas_[g];
      const GroupLog& first = nodes_[reps.front()]->groups.at(g).log;
      if (first.size() != expected[g]) return false;
      for (std::size_t i = 1; i < reps.size(); ++i) {
        const GroupLog& other = nodes_[reps[i]]->groups.at(g).log;
        if (other.size() != expected[g] ||
            !(other.state() == first.state())) {
          return false;
        }
      }
    }
    return true;
  }

  /// The state of group g (at its first replica).
  const typename A::GroupState& group_state(GroupId g) const {
    return nodes_[replicas_.at(g).front()]->groups.at(g).log.state();
  }

  /// Assemble the formal execution of one group: all transactions that
  /// wrote it, in timestamp order, with group-wise prefix subsequences.
  /// Prefixes are expanded with the group's resolver: rank k's seq-th
  /// broadcast on g is replica k's seq-th write to g.
  core::Execution<GroupStateMachine<A>> group_execution(GroupId g) const {
    struct Item {
      const Record* rec;
      const GroupWrite<A>* write;
    };
    std::map<core::Timestamp, Item> by_ts;
    std::vector<std::vector<core::Timestamp>> sent(replicas_.at(g).size());
    for (std::size_t rank = 0; rank < sent.size(); ++rank) {
      for (const auto& rec : nodes_[replicas_[g][rank]]->originated) {
        for (const auto& w : rec.writes) {
          if (w.group != g) continue;
          by_ts.emplace(rec.ts, Item{&rec, &w});
          sent[rank].push_back(rec.ts);
        }
      }
    }
    const core::PrefixRef::Resolver resolve =
        [&sent](core::NodeId rank, std::uint64_t seq) {
          return sent[rank].at(seq - 1);
        };
    std::map<core::Timestamp, std::size_t> index_of;
    std::size_t next = 0;
    for (const auto& [ts, item] : by_ts) index_of.emplace(ts, next++);
    core::Execution<GroupStateMachine<A>> exec;
    for (const auto& [ts, item] : by_ts) {
      core::TxInstance<GroupStateMachine<A>> tx;
      tx.ts = ts;
      tx.origin = item.rec->origin;
      tx.real_time = item.rec->real_time;
      tx.request = item.rec->request;
      tx.update = item.write->update;
      tx.external_actions = item.rec->external_actions;
      for (const core::Timestamp& pts :
           item.rec->group_prefixes.at(g).expand(resolve)) {
        tx.prefix.push_back(index_of.at(pts));
      }
      exec.append(std::move(tx));
    }
    return exec;
  }

  /// Total log entries stored at a node — the storage saving vs full
  /// replication.
  std::size_t storage_at(core::NodeId n) const {
    std::size_t total = 0;
    for (const auto& [g, rep] : nodes_.at(n)->groups) total += rep.log.size();
    return total;
  }

  std::size_t groups_hosted_at(core::NodeId n) const {
    return nodes_.at(n)->groups.size();
  }

  Stats stats() const {
    Stats s = stats_;
    for (const auto& node : nodes_) {
      for (const auto& [g, rep] : node->groups) {
        s.wires_sent +=
            rep.endpoint->stats().originated * (replicas_[g].size() - 1);
      }
    }
    return s;
  }
  const std::vector<Record>& originated_at(core::NodeId n) const {
    return nodes_.at(n)->originated;
  }

 private:
  using Broadcast = net::ReliableBroadcast<typename GroupLog::Entry>;

  /// One hosted group at one node: its log and its broadcast endpoint.
  struct Replica {
    Replica() = default;
    Replica(const Replica&) = delete;  // the endpoint's callback holds &log
    Replica& operator=(const Replica&) = delete;
    GroupLog log;
    std::unique_ptr<Broadcast> endpoint;
  };

  struct NodeState {
    explicit NodeState(core::NodeId n) : clock(n) {}
    core::LamportClock clock;
    std::map<GroupId, Replica> groups;
    std::vector<Record> originated;
  };

  /// The plan's cuts restricted to g's replicas, which the group's network
  /// knows by rank.
  sim::FaultPlan group_faults(GroupId g) const {
    sim::FaultPlan plan;
    const auto& reps = replicas_[g];
    for (const sim::PartitionEvent& cut : config_.faults.partitions()) {
      sim::PartitionEvent local{cut.start, cut.end, {}};
      for (const auto& side : cut.groups) {
        auto& ranks = local.groups.emplace_back();
        for (core::NodeId rank = 0; rank < reps.size(); ++rank) {
          if (std::find(side.begin(), side.end(), reps[rank]) != side.end()) {
            ranks.push_back(rank);
          }
        }
      }
      plan.partition(std::move(local));
    }
    return plan;
  }

  Record run_at(core::NodeId node_id, const Request& request, sim::Time now) {
    NodeState& node = *nodes_[node_id];
    const std::vector<GroupId> groups = A::groups_of(request);
    for (GroupId g : groups) {
      if (!node.groups.contains(g)) {
        throw std::logic_error("routed to a node not hosting a group");
      }
    }
    ++stats_.routed;
    Record rec;
    rec.origin = node_id;
    rec.real_time = now;
    rec.request = request;
    const GroupView<A> view =
        [&node](GroupId g) -> const typename A::GroupState& {
      return node.groups.at(g).log.state();
    };
    PartialDecision<A> decision = A::decide(request, view);
    rec.external_actions = std::move(decision.external_actions);
    rec.writes = std::move(decision.writes);
    // One timestamp for the whole transaction; per-group logs never see
    // duplicates because a transaction writes each group at most once.
    rec.ts = node.clock.tick();
    for (const auto& w : rec.writes) {
      rec.group_prefixes.emplace(
          w.group, node.groups.at(w.group).endpoint->delivered_prefix());
    }
    node.originated.push_back(rec);
    for (const auto& w : rec.writes) {
      // Delivers locally first, then floods the group's other replicas.
      node.groups.at(w.group).endpoint->broadcast({rec.ts, w.update});
    }
    return rec;
  }

  Config config_;
  sim::Rng rng_;
  sim::Scheduler scheduler_;
  std::vector<std::vector<core::NodeId>> replicas_;
  /// Per group: its network over replica ranks, shared by its endpoints.
  std::vector<std::unique_ptr<sim::Network>> networks_;
  std::vector<std::unique_ptr<NodeState>> nodes_;
  Stats stats_;
};

}  // namespace shard

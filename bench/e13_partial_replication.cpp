// E13 — partial replication (the paper's first section 6 extension).
//
// Sweep the replication factor on a sharded-banking cluster (one group per
// account; transfers span two groups). Measured: storage per node, wire
// messages, the new unroutable-transfer failure mode, convergence, and the
// per-group overdraft bound — the correctness conditions survive partial
// replication exactly as the paper conjectured, with availability now also
// limited by data placement.
#include <cstdio>

#include "apps/banking/sharded.hpp"
#include "harness/table.hpp"
#include "shard/partial.hpp"
#include "sim/fault_plan.hpp"
#include "sim/rng.hpp"

namespace {

namespace bk = apps::banking;
using bk::ShardedBanking;
using bk::ShardedRequest;

struct RunResult {
  std::size_t routed = 0;
  std::size_t unroutable = 0;
  std::size_t max_storage = 0;
  std::uint64_t wires = 0;
  bool converged = false;
  bool bounds_hold = true;
  double worst_overdraft = 0.0;
};

RunResult run(std::size_t replication_factor, std::uint64_t seed) {
  constexpr std::size_t kNodes = 6;
  constexpr std::size_t kGroups = 12;
  shard::PartialCluster<ShardedBanking>::Config cfg;
  cfg.num_nodes = kNodes;
  cfg.num_groups = kGroups;
  cfg.replication_factor = replication_factor;
  cfg.network.delay = sim::Delay::exponential(0.02, 0.1, 2.0);
  cfg.faults.split_halves(kNodes, kNodes / 2, 4.0, 12.0);
  cfg.anti_entropy_interval = 0.3;
  cfg.seed = seed;
  shard::PartialCluster<ShardedBanking> cluster(cfg);

  sim::Rng rng(seed ^ 0xe13);
  for (bk::AccountId a = 0; a < kGroups; ++a) {
    cluster.submit_at(0.1, ShardedRequest::deposit(a, 200));
  }
  for (int i = 0; i < 250; ++i) {
    const double t = rng.uniform(0.5, 16.0);
    const auto a = static_cast<bk::AccountId>(rng.uniform_int(0, kGroups - 1));
    const double roll = rng.uniform01();
    if (roll < 0.4) {
      cluster.submit_at(t, ShardedRequest::deposit(a, rng.uniform_int(1, 80)));
    } else if (roll < 0.8) {
      cluster.submit_at(t, ShardedRequest::withdraw(a, rng.uniform_int(1, 80)));
    } else {
      auto b = static_cast<bk::AccountId>(rng.uniform_int(0, kGroups - 1));
      if (b == a) b = (b + 1) % kGroups;
      cluster.submit_at(t, ShardedRequest::transfer(a, b, rng.uniform_int(1, 60)));
    }
  }
  cluster.run_until(16.0);
  cluster.settle();

  RunResult r;
  r.routed = cluster.stats().routed;
  r.unroutable = cluster.stats().unroutable;
  r.wires = cluster.stats().wires_sent;
  r.converged = cluster.converged();
  for (core::NodeId n = 0; n < kNodes; ++n) {
    r.max_storage = std::max(r.max_storage, cluster.storage_at(n));
  }
  for (shard::GroupId g = 0; g < kGroups; ++g) {
    const auto exec = cluster.group_execution(g);
    double bound = 0.0;
    for (std::size_t i = 0; i < exec.size(); ++i) {
      if (exec.tx(i).update.kind == bk::ShardedUpdate::Kind::kDebit &&
          exec.missing_count(i) > 0) {
        bound += static_cast<double>(exec.tx(i).update.amount);
      }
    }
    for (const auto& s : exec.actual_states()) {
      const double c = ShardedBanking::cost(s, 0);
      r.worst_overdraft = std::max(r.worst_overdraft, c);
      if (c > bound + 1e-9) r.bounds_hold = false;
    }
  }
  return r;
}

}  // namespace

int main() {
  harness::Table table(
      "E13  Partial replication: sharded banking, 6 nodes / 12 account "
      "groups, 8s partition",
      {"replication r", "routed", "unroutable transfers", "max storage/node",
       "wire msgs", "converged", "worst group overdraft $",
       "per-group bound holds"});
  for (const std::size_t r : {1u, 2u, 3u, 6u}) {
    const RunResult res = run(r, 99);
    table.add_row({harness::Table::num(r), harness::Table::num(res.routed),
                   harness::Table::num(res.unroutable),
                   harness::Table::num(res.max_storage),
                   harness::Table::num(static_cast<std::size_t>(res.wires)),
                   res.converged ? "yes" : "NO",
                   harness::Table::num(res.worst_overdraft, 0),
                   res.bounds_hold ? "yes" : "NO"});
  }
  table.print();
  std::printf(
      "\nReading: the section 6 conjecture realized. r=1 stores the least\n"
      "and sends no replication traffic, but cross-account transfers are\n"
      "mostly unroutable and there is no fault tolerance; r=n is full\n"
      "replication. In between, every group's projection still satisfies\n"
      "the SHARD conditions and the per-group damage bound — correctness\n"
      "conditions survive partial replication, availability becomes a\n"
      "placement question.\n");
  return 0;
}

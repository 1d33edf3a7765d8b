// Partial replication (paper section 6): a bank where each account lives
// on only 2 of 6 branches. Single-account operations route to any replica;
// transfers need a branch hosting BOTH accounts — the paper's "judicious
// assignment of data and transactions to nodes" — and some pairs have no
// common branch at all: the new availability limit partial replication
// introduces.
//
//   $ ./examples/sharded_bank
#include <cstdio>

#include "apps/banking/sharded.hpp"
#include "shard/partial.hpp"
#include "sim/fault_plan.hpp"
#include "sim/rng.hpp"

int main() {
  namespace bk = apps::banking;
  using bk::ShardedBanking;
  using bk::ShardedRequest;

  shard::PartialCluster<ShardedBanking>::Config cfg;
  cfg.num_nodes = 6;           // branches
  cfg.num_groups = 12;         // accounts
  cfg.replication_factor = 2;  // each account on 2 branches
  cfg.network.delay = sim::Delay::exponential(0.02, 0.08, 2.0);
  cfg.faults.split_halves(6, 3, 3.0, 10.0);
  cfg.anti_entropy_interval = 0.3;
  cfg.seed = 5;
  shard::PartialCluster<ShardedBanking> bank(cfg);

  std::printf("placement (account -> branches):\n  ");
  for (shard::GroupId a = 0; a < cfg.num_groups; ++a) {
    const auto& reps = bank.replicas_of(a);
    std::printf("A%u:{%u,%u} ", a, reps[0], reps[1]);
  }
  std::printf("\n\n");

  // Fund the accounts, then a mixed workload through the partition.
  for (bk::AccountId a = 0; a < cfg.num_groups; ++a) {
    bank.submit_at(0.2, ShardedRequest::deposit(a, 500));
  }
  sim::Rng rng(6);
  for (int i = 0; i < 150; ++i) {
    const double t = rng.uniform(0.5, 14.0);
    const auto a = static_cast<bk::AccountId>(rng.uniform_int(0, 11));
    const double roll = rng.uniform01();
    if (roll < 0.4) {
      bank.submit_at(t, ShardedRequest::deposit(a, rng.uniform_int(1, 100)));
    } else if (roll < 0.8) {
      bank.submit_at(t, ShardedRequest::withdraw(a, rng.uniform_int(1, 100)));
    } else {
      auto b = static_cast<bk::AccountId>(rng.uniform_int(0, 11));
      if (b == a) b = (b + 1) % 12;
      bank.submit_at(t, ShardedRequest::transfer(a, b, rng.uniform_int(1, 80)));
    }
  }
  bank.run_until(14.0);
  bank.settle();

  std::printf("routed %llu operations; %llu were UNROUTABLE transfers\n",
              static_cast<unsigned long long>(bank.stats().routed),
              static_cast<unsigned long long>(bank.stats().unroutable));
  std::printf("(a transfer A_i -> A_j is only possible at a branch hosting "
              "both accounts)\n\n");

  std::printf("per-branch storage (log entries; full replication would put "
              "everything everywhere):\n  ");
  for (core::NodeId n = 0; n < 6; ++n) {
    std::printf("branch%u:%zu ", n, bank.storage_at(n));
  }
  std::printf("\n\nconverged per account group: %s\n",
              bank.converged() ? "yes" : "no");
  long long total = 0;
  for (shard::GroupId a = 0; a < cfg.num_groups; ++a) {
    total += bank.group_state(a).balance;
  }
  std::printf("sum of balances: $%lld (transfers conserve money)\n", total);

  // Each account's history is a SHARD execution of its own.
  const auto exec = bank.group_execution(3);
  std::printf(
      "\naccount A3's own execution: %zu transactions, max missing "
      "prefix k=%zu — the paper's correctness conditions apply per group.\n",
      exec.size(), exec.max_missing());
  return 0;
}

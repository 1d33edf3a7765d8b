// Canned cluster scenarios: network conditions used across tests, examples
// and bench experiments, so "a 5-node WAN with a 20-second partition" means
// the same thing everywhere.
#pragma once

#include <cstdint>
#include <string>

#include "shard/cluster.hpp"
#include "sim/fault_plan.hpp"

namespace harness {

/// A named cluster profile: a shard::ClusterConfig plus the name the
/// experiment tables print. Every field of the config, the fault plan
/// included, is set on the scenario itself.
struct Scenario : shard::ClusterConfig {
  std::string name;

  /// The config, with `seed` as its seed.
  template <class App>
  typename shard::Cluster<App>::Config cluster_config(
      std::uint64_t seed) const {
    typename shard::Cluster<App>::Config cfg = *this;
    cfg.seed = seed;
    return cfg;
  }
};

/// A well-connected LAN: low constant delay, no loss. Transactions are
/// near-complete (k ~ 0) — the serializable-looking end of the spectrum.
Scenario lan(std::size_t num_nodes = 3);

/// A lossy WAN: long-tailed delays and random drops — moderate k.
Scenario wan(std::size_t num_nodes = 5);

/// WAN plus a hard partition of [t0, t1) splitting the cluster in half —
/// the paper's headline failure mode; k grows with the partition length.
Scenario partitioned_wan(std::size_t num_nodes = 4, double t0 = 10.0,
                         double t1 = 30.0);

/// A flaky node: node `num_nodes - 1` is isolated during [t0, t1).
Scenario flaky_node(std::size_t num_nodes = 4, double t0 = 5.0,
                    double t1 = 25.0);

/// A crashing node: WAN conditions, node `num_nodes - 1` crashes during
/// [t0, t1) and restarts with the given recovery mode — the crash analogue
/// of flaky_node (which merely cuts links).
Scenario crashy_node(std::size_t num_nodes = 4, double t0 = 5.0,
                     double t1 = 25.0,
                     sim::RecoveryMode mode = sim::RecoveryMode::kDurable);

/// Upgrade simulation: WAN conditions with the whole cluster restarted one
/// node at a time — node i is down during [t0 + i*(down_for+gap),
/// +down_for). The cluster keeps serving throughout; each node catches up
/// on what it missed via anti-entropy before the next goes down.
Scenario rolling_restart(std::size_t num_nodes = 5, double t0 = 5.0,
                         double down_for = 3.0, double gap = 1.0,
                         sim::RecoveryMode mode = sim::RecoveryMode::kDurable);

}  // namespace harness

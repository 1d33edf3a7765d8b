#include "harness/scenario.hpp"

namespace harness {

Scenario lan(std::size_t num_nodes) {
  Scenario s;
  s.name = "lan";
  s.num_nodes = num_nodes;
  s.network.delay = sim::Delay::uniform(0.001, 0.005);
  s.network.drop_probability = 0.0;
  s.broadcast.anti_entropy_interval = 0.25;
  return s;
}

Scenario wan(std::size_t num_nodes) {
  Scenario s;
  s.name = "wan";
  s.num_nodes = num_nodes;
  s.network.delay = sim::Delay::exponential(0.05, 0.15, 5.0);
  s.network.drop_probability = 0.05;
  s.broadcast.anti_entropy_interval = 0.5;
  return s;
}

Scenario partitioned_wan(std::size_t num_nodes, double t0, double t1) {
  Scenario s = wan(num_nodes);
  s.name = "partitioned-wan";
  s.faults.split_halves(static_cast<sim::NodeId>(num_nodes),
                        static_cast<sim::NodeId>(num_nodes / 2), t0, t1);
  return s;
}

Scenario flaky_node(std::size_t num_nodes, double t0, double t1) {
  Scenario s = wan(num_nodes);
  s.name = "flaky-node";
  s.faults.isolate(static_cast<sim::NodeId>(num_nodes - 1),
                   static_cast<sim::NodeId>(num_nodes), t0, t1);
  return s;
}

Scenario crashy_node(std::size_t num_nodes, double t0, double t1,
                     sim::RecoveryMode mode) {
  Scenario s = wan(num_nodes);
  s.name = "crashy-node";
  s.faults.crash(static_cast<sim::NodeId>(num_nodes - 1), t0, t1, mode);
  return s;
}

Scenario rolling_restart(std::size_t num_nodes, double t0, double down_for,
                         double gap, sim::RecoveryMode mode) {
  Scenario s = wan(num_nodes);
  s.name = "rolling-restart";
  s.faults.rolling_restart(static_cast<sim::NodeId>(num_nodes), t0, down_for,
                           gap, mode);
  return s;
}

}  // namespace harness

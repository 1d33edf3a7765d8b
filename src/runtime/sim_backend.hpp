// The deterministic backend: the simulated world a cluster runs in.
//
// sim::Scheduler is the simulator's runtime::Executor and sim::Network its
// runtime::Transport, so protocol code runs on them directly — same RNG
// draw order, same (time, seq) event order, same message ids as code
// written against the simulator itself. SimBackend owns the two, hands the
// network the run's fault plan (whose cuts it tests at send time), and
// installs the observation hooks on them; the simulator dispatches every
// node on one logical worker, so one scheduler serves all nodes.
#pragma once

#include <cstdint>
#include <utility>

#include "runtime/hooks.hpp"
#include "sim/fault_plan.hpp"
#include "sim/network.hpp"
#include "sim/scheduler.hpp"

namespace runtime {

class SimBackend {
 public:
  SimBackend(sim::Network::Config network, std::uint64_t seed,
             sim::FaultPlan faults = sim::FaultPlan{})
      : network_(scheduler_, std::move(network), seed, std::move(faults)) {}

  SimBackend(const SimBackend&) = delete;
  SimBackend& operator=(const SimBackend&) = delete;

  sim::Scheduler& scheduler() { return scheduler_; }
  const sim::Scheduler& scheduler() const { return scheduler_; }
  sim::Network& network() { return network_; }
  const sim::Network& network() const { return network_; }

  /// Install (or, with empty members, clear) both hooks. The scheduler
  /// reports kNoWorker as the dispatching worker.
  void set_hooks(Hooks hooks) {
    scheduler_.set_dispatch_hook(std::move(hooks.on_dispatch));
    network_.set_fate_hook(std::move(hooks.on_message_fate));
  }

 private:
  sim::Scheduler scheduler_;
  sim::Network network_;
};

}  // namespace runtime

// A simulated SHARD cluster: nodes + network + workload injection + trace
// assembly.
//
// The cluster is the "system" of paper section 3: it runs transactions and
// guarantees the prefix subsequence condition by construction. After a run,
// `execution()` assembles the formal Execution object (serial order = global
// timestamp order; per-transaction prefix subsequence = what the origin had
// merged at decision time), which the analysis passes then check against
// the paper's conditions and theorems.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/execution.hpp"
#include "net/broadcast.hpp"
#include "obs/flame.hpp"
#include "obs/metrics.hpp"
#include "obs/sharded_tracer.hpp"
#include "obs/tracer.hpp"
#include "runtime/sim_backend.hpp"
#include "shard/cluster_common.hpp"
#include "shard/node.hpp"
#include "sim/fault_plan.hpp"
#include "sim/network.hpp"
#include "sim/scheduler.hpp"

namespace shard {

/// Cluster configuration. Deliberately App-independent (a plain struct, not
/// a nested template member): one config value constructs a Cluster of any
/// application.
struct ClusterConfig {
  std::size_t num_nodes = 3;
  sim::Network::Config network;
  net::BroadcastOptions broadcast;
  std::size_t checkpoint_interval = 32;
  /// Bound on state snapshots per node: above it, UpdateLog thins
  /// checkpoints geometrically (dense near the tail, sparse near the
  /// base) so memory is O(log n) snapshots. 0 keeps every snapshot.
  std::size_t max_checkpoints = 0;
  /// Discard obsolete information ([SL]): fold cluster-stable log
  /// prefixes into the base state.
  bool compaction = false;
  /// Fault injection, expressed as one composable plan (sim/fault_plan.hpp)
  /// and configured nowhere else: crash/restart windows (durable, amnesia,
  /// or stale-disk recovery), partition cuts (tested by the network at send
  /// time), correlated rack power losses, rolling restarts, mid-broadcast
  /// crashes at the write-ahead intention-log boundary, and the Byzantine
  /// payload adversary (handed to every broadcast endpoint). The network
  /// refuses delivery to down nodes; submissions reaching them are
  /// rejected and counted, never silently executed.
  sim::FaultPlan faults;
  /// Structured event tracing (obs/). Off by default: every component
  /// keeps a null tracer pointer and pays one branch per would-be event.
  /// On: events flow into the per-node tracer rings + sinks, and metrics()
  /// derives the replication-latency/undo-churn/divergence families from
  /// the retained ring. Tracing never perturbs the protocol (no RNG draws;
  /// the extra partition open/heal marker events are scheduler no-ops).
  obs::TraceOptions trace;
  /// Per-epoch metrics time-series: snapshot the registry at every fault
  /// boundary (cut open/heal, crash/restart — exactly the control events
  /// EpochIndex segments the run by), so metrics_series() can report what
  /// accrued WITHIN each failure regime instead of one end-of-run total.
  /// Off by default: each boundary snapshot walks every exporter.
  bool metrics_series = false;
  std::uint64_t seed = 1;
};

/// One point of the metrics time-series (Cluster::metrics_series): the
/// registry delta that accrued over the interval ENDING at `time`, i.e.
/// since the previous sample (or since construction for the first).
struct MetricsSample {
  double time = 0.0;
  obs::MetricsRegistry metrics;
};

template <core::Application App>
class Cluster {
 public:
  using NodeT = Node<App>;
  using Request = typename App::Request;
  using Config = ClusterConfig;

  explicit Cluster(Config config)
      : config_(std::move(config)),
        master_rng_(config_.seed),
        // One bounded ring per node plus a control shard, merged on demand.
        tracer_(config_.trace.enabled
                    ? std::make_unique<obs::ShardedTracer>(
                          config_.num_nodes, config_.trace.ring_capacity)
                    : nullptr),
        // The network's seed is the master's first fork; each node's
        // follows, in node order.
        backend_(config_.network, master_rng_.fork_seed(), config_.faults) {
    validate_faults();
    if (tracer_) {
      // Dispatches and message fates go to the trace shards.
      backend_.set_hooks(
          trace_hooks(*tracer_, [this] { return scheduler().now(); }));
      // Partition lifecycle markers: cuts are config, not messages, so no
      // component sees them open/heal — mark the boundaries explicitly.
      const auto& cuts = config_.faults.partitions();
      for (std::size_t k = 0; k < cuts.size(); ++k) {
        scheduler().schedule_at(cuts[k].start, [this, k] {
          tracer_->control_shard().record(obs::EventType::kPartitionOpen,
                                          scheduler().now(), obs::kControlNode,
                                          0, 0, k);
        });
        scheduler().schedule_at(cuts[k].end, [this, k] {
          tracer_->control_shard().record(obs::EventType::kPartitionHeal,
                                          scheduler().now(), obs::kControlNode,
                                          0, 0, k);
        });
      }
    }
    for (std::size_t i = 0; i < config_.num_nodes; ++i) {
      nodes_.push_back(std::make_unique<NodeT>(
          static_cast<core::NodeId>(i), scheduler(), network(),
          config_.num_nodes, config_.broadcast, config_.checkpoint_interval,
          master_rng_.fork_seed(), config_.compaction,
          tracer_ ? &tracer_->shard(static_cast<sim::NodeId>(i)) : nullptr,
          config_.max_checkpoints, config_.faults.byzantine()));
    }
    for (auto& n : nodes_) n->start();
    for (const sim::CrashEvent& ev : config_.faults.crashes()) {
      if (ev.node >= nodes_.size()) throw std::out_of_range("crash: no such node");
      scheduler().schedule_at(ev.start, [this, node = ev.node] {
        nodes_[node]->crash(scheduler().now());
      });
      // The catch-up target (how much the node must re-merge to count as
      // recovered) is read at restart time, not schedule-construction time.
      scheduler().schedule_at(ev.end, [this, ev] {
        nodes_[ev.node]->restart(ev.mode, scheduler().now(), total_originated(),
                                 ev.keep_fraction);
      });
    }
    arm_mid_broadcast_crashes();
    // Last in the constructor so a boundary snapshot scheduled at time T
    // runs after every same-time fault action (crash, restart, cut marker)
    // already scheduled above: the sample closes the interval the boundary
    // ends, with the boundary's own effects on the next interval's side
    // only when they were armed dynamically (mid-broadcast crashes record
    // their own samples from the hook).
    if (config_.metrics_series) arm_metrics_series();
  }

  /// Schedule a request to be submitted at `node` at simulated time `t`.
  /// If the node is crashed at that moment, the submission is rejected and
  /// counted (EngineStats::rejected_submissions) — clients of a down node
  /// observe unavailability, the paper's price for node failure.
  void submit_at(sim::Time t, core::NodeId node, Request request) {
    if (node >= nodes_.size()) throw std::out_of_range("no such node");
    ++scheduled_submissions_;
    scheduler().schedule_at(t, [this, node, request = std::move(request)] {
      nodes_[node]->try_submit(request, scheduler().now());
    });
  }

  /// Submit immediately (at current simulated time) — for step-by-step
  /// scripted scenarios and unit tests.
  typename NodeT::Record submit_now(core::NodeId node, Request request) {
    return nodes_.at(node)->submit(request, scheduler().now());
  }

  /// Mixed-mode extension: schedule a SERIALIZABLE submission — the node
  /// reserves a timestamp position and defers the decision until peer
  /// promises guarantee a complete prefix (paper sections 3.3 / 6).
  void submit_serializable_at(sim::Time t, core::NodeId node,
                              Request request) {
    if (node >= nodes_.size()) throw std::out_of_range("no such node");
    scheduler().schedule_at(t, [this, node, request = std::move(request)] {
      nodes_[node]->submit_serializable(request, scheduler().now());
    });
  }

  /// Serializable submissions still waiting, cluster-wide.
  std::size_t pending_serializable() const {
    std::size_t n = 0;
    for (const auto& node : nodes_) n += node->pending_serializable();
    return n;
  }

  /// Advance simulated time, executing all events up to `t`.
  void run_until(sim::Time t) { scheduler().run_until(t); }

  /// Run past the fault plan's last heal and restart plus enough
  /// anti-entropy rounds for every node to learn every update. Throws if
  /// convergence is not reached within `max_time` (which would indicate a
  /// protocol bug, a permanent partition, or a never-restarted node).
  void settle(sim::Time max_time = 1e6) {
    // Mid-broadcast crashes are dynamic (they fire when the broadcast
    // happens, if ever) and so not part of this bound; the convergence loop
    // below steps past their restarts.
    const sim::Time heal = config_.faults.all_clear_time();
    if (scheduler().now() < heal) run_until(heal);
    const sim::Time step =
        config_.broadcast.anti_entropy_interval > 0.0
            ? 4.0 * config_.broadcast.anti_entropy_interval
            : 1.0;
    while (!converged() || pending_serializable() > 0) {
      if (scheduler().now() > max_time) {
        throw std::runtime_error("cluster failed to converge by max_time");
      }
      run_until(scheduler().now() + step);
    }
  }

  /// Every node knows every update (and therefore, by the merge invariant,
  /// every replica state is identical) — the paper's mutual consistency.
  bool converged() const { return shard::converged(nodes_); }
  std::uint64_t total_originated() const {
    return shard::total_originated(nodes_);
  }
  /// (origin, seq) -> timestamp; see shard::prefix_resolver.
  core::PrefixRef::Resolver prefix_resolver() const {
    return shard::prefix_resolver(nodes_);
  }
  /// The formal execution (serial order = global timestamp order).
  core::Execution<App> execution() const { return shard::execution(nodes_); }

  sim::Scheduler& scheduler() { return backend_.scheduler(); }
  sim::Network& network() { return backend_.network(); }
  /// The runtime backend the nodes run against (the deterministic one; the
  /// threaded counterpart lives in runtime::RealtimeCluster).
  runtime::SimBackend& backend() { return backend_; }
  NodeT& node(core::NodeId i) { return *nodes_.at(i); }
  const NodeT& node(core::NodeId i) const { return *nodes_.at(i); }
  std::size_t num_nodes() const { return nodes_.size(); }
  const Config& config() const { return config_; }

  /// Aggregated engine stats across nodes (thrashing / E10 / E18 tables).
  EngineStats aggregate_engine_stats() const {
    EngineStats agg;
    for (const auto& n : nodes_) {
      const EngineStats& s = n->engine_stats();
      agg.decisions_run += s.decisions_run;
      agg.tail_appends += s.tail_appends;
      agg.mid_inserts += s.mid_inserts;
      agg.undone_updates += s.undone_updates;
      agg.redone_updates += s.redone_updates;
      agg.checkpoints_taken += s.checkpoints_taken;
      agg.checkpoints_invalidated += s.checkpoints_invalidated;
      agg.checkpoints_thinned += s.checkpoints_thinned;
      agg.entries_folded += s.entries_folded;
      agg.crashes += s.crashes;
      agg.recoveries += s.recoveries;
      agg.rejected_submissions += s.rejected_submissions;
      agg.catch_up_updates += s.catch_up_updates;
      agg.downtime += s.downtime;
      agg.recovery_lag += s.recovery_lag;
    }
    return agg;
  }

  /// Requests handed to submit_at (accepted or rejected); with the
  /// aggregate rejected_submissions this yields the availability ratio.
  std::uint64_t scheduled_submissions() const { return scheduled_submissions_; }

  /// Attach a streaming observer (analysis::StreamingChecker) to every
  /// node. Call before injecting traffic; nullptr detaches. The observer
  /// must outlive the cluster or be detached first.
  void set_stream_observer(StreamObserver<App>* obs) {
    stream_obs_ = obs;
    for (auto& n : nodes_) n->set_stream_observer(obs);
  }

  /// The execution trace (per-node shards, merged on read), or nullptr
  /// when tracing is off. Recording components hold their own shard.
  obs::ShardedTracer* tracer() { return tracer_.get(); }
  const obs::ShardedTracer* tracer() const { return tracer_.get(); }

  /// One unified snapshot: engine + broadcast + network counters, cluster
  /// workload/availability numbers, and (when tracing) tracer totals and
  /// the replication metrics derived from the retained ring. Serializable
  /// via MetricsRegistry::to_json and comparable across runs.
  obs::MetricsRegistry metrics() const {
    obs::MetricsRegistry reg = base_metrics();
    if (const obs::TraceSource* ts = tracer()) {
      // Segment the retained ring by failure regime, fold every causal
      // chain into its timing row, and export epoch.*, lifecycle.* and
      // causal.* from those rows. Derivation only — same inputs, same
      // numbers. Deliberately not part of base_metrics(): the boundary
      // snapshots of the metrics series would otherwise rebuild
      // graph+flame mid-run at every fault event.
      obs::export_replication_metrics(ts->ring(), nodes_.size(), reg);
    }
    return reg;
  }

  /// The metrics time-series (requires Config::metrics_series): one sample
  /// per fault-plan boundary that fired before now, each holding the
  /// registry DELTA accrued since the previous sample, plus a final sample
  /// at the current simulated time covering the tail. Gauges are
  /// point-in-time values, not deltas (MetricsRegistry::delta_from).
  /// Samples cover base_metrics() — the replication metrics (epoch.*,
  /// lifecycle.*, causal.*) derive from the whole retained stream and stay
  /// in metrics().
  std::vector<MetricsSample> metrics_series() const {
    std::vector<MetricsSample> out;
    const obs::MetricsRegistry* prev = nullptr;
    for (const auto& s : series_) {
      MetricsSample d;
      d.time = s.time;
      d.metrics = prev ? s.metrics.delta_from(*prev)
                       : s.metrics.delta_from(obs::MetricsRegistry{});
      prev = &s.metrics;
      out.push_back(std::move(d));
    }
    if (series_.empty() || series_.back().time < backend_.scheduler().now()) {
      MetricsSample tail;
      tail.time = backend_.scheduler().now();
      const obs::MetricsRegistry cum = base_metrics();
      tail.metrics =
          prev ? cum.delta_from(*prev) : cum.delta_from(obs::MetricsRegistry{});
      out.push_back(std::move(tail));
    }
    return out;
  }

 private:
  /// Everything in metrics() except the replication metrics: cheap
  /// enough to snapshot at every fault boundary for the metrics series.
  obs::MetricsRegistry base_metrics() const {
    obs::MetricsRegistry reg;
    aggregate_engine_stats().export_to(reg, "engine");
    for (const auto& n : nodes_) {
      n->broadcast_stats().export_to(reg);
    }
    const sim::NetworkStats& ns = backend_.network().stats();
    reg.add_counter("net.sent", ns.sent);
    reg.add_counter("net.delivered", ns.delivered);
    reg.add_counter("net.dropped_partition", ns.dropped_partition);
    reg.add_counter("net.dropped_random", ns.dropped_random);
    reg.add_counter("net.dropped_crashed", ns.dropped_crashed);
    reg.add_counter("cluster.nodes", nodes_.size());
    reg.add_counter("cluster.scheduled_submissions", scheduled_submissions_);
    reg.add_counter("cluster.updates_originated", total_originated());
    reg.set_gauge("cluster.sim_time", backend_.scheduler().now());
    // Retention footprint (the E20 O(window)-vs-O(history) proxies): log
    // entries and state snapshots at the engine, wire messages in the
    // repair stores, and prefix slots across all originated records.
    std::size_t entries = 0, checkpoints = 0, store = 0, slots = 0;
    for (const auto& n : nodes_) {
      entries += n->entries_retained();
      checkpoints += n->checkpoints_retained();
      store += n->repair_store_retained();
      slots += n->prefix_slots_retained();
    }
    reg.add_counter("retained.log_entries", entries);
    reg.add_counter("retained.checkpoints", checkpoints);
    reg.add_counter("retained.repair_store", store);
    reg.add_counter("retained.prefix_slots", slots);
    if (const obs::TraceSource* ts = tracer()) {
      reg.add_counter("trace.events_recorded", ts->recorded());
      reg.add_counter("trace.events_evicted", ts->evicted());
    }
    if (stream_obs_) stream_obs_->export_metrics(reg);
    return reg;
  }

  /// Schedule one cumulative-snapshot sample per distinct fault-plan
  /// boundary time: cut opens/heals and crash starts/restarts — the static
  /// schedule EpochIndex derives its epochs from. Mid-broadcast crashes
  /// are dynamic and record their samples from the hook instead.
  void arm_metrics_series() {
    std::vector<sim::Time> at;
    for (const sim::PartitionEvent& ev : config_.faults.partitions()) {
      at.push_back(ev.start);
      at.push_back(ev.end);
    }
    for (const sim::CrashEvent& ev : config_.faults.crashes()) {
      at.push_back(ev.start);
      at.push_back(ev.end);
    }
    std::sort(at.begin(), at.end());
    at.erase(std::unique(at.begin(), at.end()), at.end());
    for (const sim::Time t : at) {
      scheduler().schedule_at(t, [this] { record_metrics_sample(); });
    }
  }

  /// Append one cumulative snapshot at the current simulated time (at most
  /// one per instant — a dynamic boundary can coincide with a static one).
  void record_metrics_sample() {
    if (!series_.empty() && series_.back().time == scheduler().now()) {
      series_.back().metrics = base_metrics();
      return;
    }
    MetricsSample s;
    s.time = scheduler().now();
    s.metrics = base_metrics();
    series_.push_back(std::move(s));
  }

  /// Reject fault/config combinations that would break recovery, up front
  /// rather than asserting deep inside the broadcast layer:
  ///  * repair-store pruning discards wire messages every peer acknowledged,
  ///    but amnesia and stale-disk recovery rely on peers retaining
  ///    everything a rewound node may re-request;
  ///  * stale-disk recovery rewinds to a timestamp-prefix of the merged
  ///    log, which induces contiguous per-origin delivered counts only
  ///    under causal delivery.
  void validate_faults() const {
    const bool prune = config_.broadcast.prune_repair_store;
    const bool causal = config_.broadcast.causal;
    const auto check = [&](sim::RecoveryMode mode) {
      if (prune && mode == sim::RecoveryMode::kAmnesia) {
        throw std::invalid_argument(
            "prune_repair_store is incompatible with amnesia recovery");
      }
      if (prune && mode == sim::RecoveryMode::kStaleDisk) {
        throw std::invalid_argument(
            "prune_repair_store is incompatible with stale-disk recovery");
      }
      if (!causal && mode == sim::RecoveryMode::kStaleDisk) {
        throw std::invalid_argument(
            "stale-disk recovery requires causal broadcast");
      }
    };
    for (const sim::CrashEvent& ev : config_.faults.crashes()) {
      check(ev.mode);
    }
    for (const sim::MidBroadcastCrash& mb :
         config_.faults.mid_broadcast_crashes()) {
      if (mb.node >= config_.num_nodes) {
        throw std::out_of_range("mid-broadcast crash: no such node");
      }
      check(mb.mode);
    }
  }

  /// Arm each node's broadcast-layer probe for the plan's mid-broadcast
  /// crashes: when the node's origin seq matches an armed event, the node
  /// crashes between the stable-outbox append and the first flood send and
  /// a restart is scheduled `down_for` later.
  void arm_mid_broadcast_crashes() {
    for (std::size_t n = 0; n < nodes_.size(); ++n) {
      std::map<std::uint64_t, sim::MidBroadcastCrash> armed;
      for (const sim::MidBroadcastCrash& mb :
           config_.faults.mid_broadcast_crashes()) {
        if (mb.node == n) armed.emplace(mb.broadcast_seq, mb);
      }
      if (armed.empty()) continue;
      nodes_[n]->set_mid_broadcast_crash_hook(
          [this, n, armed = std::move(armed)](std::uint64_t seq) {
            const auto it = armed.find(seq);
            if (it == armed.end()) return false;
            const sim::MidBroadcastCrash mb = it->second;
            const sim::Time now = scheduler().now();
            nodes_[n]->crash(now);
            if (config_.metrics_series) record_metrics_sample();
            scheduler().schedule_at(now + mb.down_for, [this, n, mb] {
              nodes_[n]->restart(mb.mode, scheduler().now(),
                                 total_originated(), mb.keep_fraction);
              if (config_.metrics_series) record_metrics_sample();
            });
            return true;
          });
    }
  }

  Config config_;
  sim::Rng master_rng_;
  // Tracing sits above the nodes (they hold raw pointers into it) and the
  // backend (its hooks do), and is declared before both so it outlives
  // their destructors. Set iff tracing is enabled.
  std::unique_ptr<obs::ShardedTracer> tracer_;
  runtime::SimBackend backend_;
  std::vector<std::unique_ptr<NodeT>> nodes_;
  StreamObserver<App>* stream_obs_ = nullptr;
  std::uint64_t scheduled_submissions_ = 0;
  /// Cumulative boundary snapshots (Config::metrics_series); converted to
  /// per-interval deltas by metrics_series().
  std::vector<MetricsSample> series_;
};

}  // namespace shard

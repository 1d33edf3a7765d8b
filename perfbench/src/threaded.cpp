// threaded-closed: the dictionary on runtime::RealtimeCluster, driven in a
// closed loop.
//
// Two worker threads (one per replica) and this driver thread, leaving one
// core of a 4-core host free: with three replicas the four threads filled
// every core, and any other load on the host stalled the closed loop —
// tx_per_s swung 2x between runs (46k–102k). The bus injects no delay and
// drops nothing; anti-entropy runs every 20 ms. The
// driver keeps kWindow transactions outstanding: it submits the next one
// only once fewer than kWindow are still to be merged at every replica. A
// forwarding stream observer stamps each update's merge at its origin and
// its commit (merged everywhere) from on_deliver, on the worker threads.
//
// Every timed instance is checked for convergence, decisions, commits and
// the message-fate shutdown contract. The O(n^2) post-hoc oracles
// (execution(), prefix-subsequence condition, transitivity) cannot run on
// a timed instance's size, so each run also drives one small instance of
// the same shape through the full oracle stack.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

#include "analysis/execution_checker.hpp"
#include "apps/dictionary/dictionary.hpp"
#include "obs/metrics.hpp"
#include "probe.hpp"
#include "runtime/realtime_cluster.hpp"
#include "sim/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using Dict = apps::dictionary::Dictionary;

constexpr std::size_t kNodes = 2;
constexpr std::uint64_t kWindow = 64;
constexpr double kTimedTxs = 60000;   // per timed instance, before --scale
constexpr double kOracleTxs = 600;    // the oracle instance, before --scale
constexpr std::uint32_t kKeys = 64;
constexpr auto kStallTimeout = std::chrono::seconds(20);

/// Commit stamps from on_deliver, written by the workers.
template <class A>
class ThreadedProbe final : public shard::StreamObserver<A> {
 public:
  ThreadedProbe(std::uint64_t per_origin, Clock::time_point epoch)
      : per_origin_(per_origin), epoch_(epoch) {
    for (std::size_t n = 0; n < kNodes; ++n) {
      slots_.push_back(std::make_unique<Slot[]>(per_origin));
    }
  }

  void on_originate(const shard::TxRecord<A>&, std::uint64_t,
                    sim::Time) override {}
  void on_deliver(core::NodeId at, core::NodeId origin,
                  std::uint64_t origin_seq, const core::Timestamp&,
                  const typename A::State&, sim::Time) override {
    if (origin_seq == 0 || origin_seq > per_origin_) {
      overflow_.store(true, std::memory_order_relaxed);
      return;
    }
    Slot& s = slots_[origin][origin_seq - 1];
    const std::int64_t t = now_ns();
    if (at == origin) s.origin_merge_ns.store(t, std::memory_order_relaxed);
    const auto bit = static_cast<std::uint8_t>(1u << at);
    const std::uint8_t prev = s.mask.fetch_or(bit, std::memory_order_acq_rel);
    if ((prev & bit) == 0 && (prev | bit) == kAll) {
      s.commit_ns.store(t, std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> g(mu_);
        committed_.fetch_add(1, std::memory_order_release);
      }
      cv_.notify_one();
    }
  }
  void on_reserve(core::NodeId, const core::Timestamp&) override {}
  void on_crash(core::NodeId, sim::Time) override {}
  void on_restart(core::NodeId, sim::RecoveryMode, std::size_t,
                  sim::Time) override {}

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  /// Block until fewer than `limit` of `issued` are uncommitted; adds the
  /// time blocked to `*blocked_s`. False if commits stalled.
  bool wait_below(std::uint64_t issued, std::uint64_t limit,
                  double* blocked_s) {
    const auto open = [&] {
      return issued - committed_.load(std::memory_order_acquire) < limit;
    };
    if (open()) return true;
    const Clock::time_point b0 = Clock::now();
    std::unique_lock<std::mutex> l(mu_);
    const bool ok = cv_.wait_for(l, kStallTimeout, open);
    *blocked_s += seconds_since(b0);
    return ok;
  }

  std::uint64_t committed() const {
    return committed_.load(std::memory_order_acquire);
  }
  bool overflow() const { return overflow_.load(std::memory_order_relaxed); }
  std::int64_t origin_merge_ns(std::size_t origin, std::uint64_t seq) const {
    return slots_[origin][seq - 1].origin_merge_ns.load(
        std::memory_order_relaxed);
  }
  std::int64_t commit_ns(std::size_t origin, std::uint64_t seq) const {
    return slots_[origin][seq - 1].commit_ns.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::uint8_t kAll = (1u << kNodes) - 1;
  struct Slot {
    std::atomic<std::uint8_t> mask{0};
    std::atomic<std::int64_t> origin_merge_ns{-1};
    std::atomic<std::int64_t> commit_ns{-1};
  };
  std::uint64_t per_origin_;
  Clock::time_point epoch_;
  std::vector<std::unique_ptr<Slot[]>> slots_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::atomic<std::uint64_t> committed_{0};
  std::atomic<bool> overflow_{false};
};

std::uint64_t scaled(double base, const Args& args) {
  const double n = std::max(3.0 * kWindow, std::round(base * args.scale));
  return static_cast<std::uint64_t>(n);
}

template <class A>
InstanceOut run_instance(const Args& args, std::uint64_t txs, SpanLog* spans,
                         bool oracles) {
  constexpr bool traced = !std::is_same_v<A, Dict>;
  if (!traced) spans = nullptr;
  InstanceOut out;
  out.txs = txs;
  AppCounterRegistry::reset();
  const Clock::time_point t0 = Clock::now();
  const std::int64_t root =
      spans ? spans->open("instance", SpanLog::kNoParent) : SpanLog::kNoParent;
  const std::int64_t setup_span =
      spans ? spans->open("setup", root) : SpanLog::kNoParent;

  // --- setup: inputs, cluster, worker threads, observers ---
  sim::Rng rng(args.seed);
  std::vector<typename A::Request> reqs;
  reqs.reserve(txs);
  for (std::uint64_t k = 0; k < txs; ++k) {
    reqs.push_back(Dict::Request::insert(
        static_cast<apps::dictionary::Key>(rng.uniform_int(0, kKeys - 1)),
        std::to_string(k)));
  }
  runtime::RealtimeConfig cfg;
  cfg.num_nodes = kNodes;
  cfg.seed = args.seed ^ 0x7c1;
  cfg.broadcast.anti_entropy_interval = 0.02;
  cfg.broadcast.anti_entropy_jitter = 0.005;
  cfg.bus.min_delay = 0.0;
  cfg.bus.max_delay = 0.0;
  cfg.bus.drop_probability = 0.0;
  // The fate check needs every event retained. A shard records about 5.5
  // events per transaction (fates, merges, broadcast), plus its worker's
  // dispatches when traced.
  cfg.ring_capacity = static_cast<std::size_t>((traced ? 16 : 8) * txs) + 65536;
  cfg.trace_dispatch = traced;
  const std::uint64_t per_origin = txs / kNodes + 1;
  ThreadedProbe<A> probe(per_origin, t0);
  runtime::RealtimeCluster<A> rc(cfg);
  for (std::size_t i = 0; i < kNodes; ++i) {
    // On the node's own worker, ahead of any submission to it.
    rc.backend().post(static_cast<runtime::NodeId>(i), [&rc, &probe, i] {
      rc.node(static_cast<core::NodeId>(i)).set_stream_observer(&probe);
    });
  }
  std::vector<std::vector<std::int64_t>> submit_ns(
      kNodes, std::vector<std::int64_t>(per_origin, 0));
  out.setup_s = seconds_since(t0);
  if (spans) spans->close(setup_span);

  // --- run: closed loop ---
  const std::int64_t run_span =
      spans ? spans->open("run", root) : SpanLog::kNoParent;
  const Clock::time_point t1 = Clock::now();
  std::vector<std::uint64_t> seqs(kNodes, 0);
  std::vector<double> post_us;
  double blocked_s = 0.0;
  bool stalled = false;
  for (std::uint64_t k = 0; k < txs; ++k) {
    if (!probe.wait_below(k, kWindow, &blocked_s)) {
      stalled = true;
      break;
    }
    const auto node = static_cast<core::NodeId>(k % kNodes);
    const std::uint64_t seq = ++seqs[node];
    submit_ns[node][seq - 1] = probe.now_ns();
    if constexpr (traced) {
      const std::int64_t id =
          spans ? spans->open("runtime.submit", run_span, node, seq)
                : SpanLog::kNoParent;
      const Clock::time_point s0 = Clock::now();
      rc.submit(node, std::move(reqs[k]));
      post_us.push_back(seconds_since(s0) * 1e6);
      if (spans) spans->close(id);
    } else {
      rc.submit(node, std::move(reqs[k]));
    }
  }
  if (!stalled && !probe.wait_below(txs, 1, &blocked_s)) stalled = true;
  out.run_s = seconds_since(t1);
  if (spans) spans->close(run_span);
  if (stalled) out.fail("commits stalled", txs - probe.committed());

  // --- verdict ---
  const std::int64_t verify_span =
      spans ? spans->open("verify", root) : SpanLog::kNoParent;
  rc.shutdown();
  obs::MetricsRegistry reg;
  shard::EngineStats agg;
  for (std::size_t i = 0; i < kNodes; ++i) {
    const auto& node = rc.node(static_cast<core::NodeId>(i));
    const shard::EngineStats& s = node.engine_stats();
    agg.decisions_run += s.decisions_run;
    agg.rejected_submissions += s.rejected_submissions;
    s.export_to(reg, "engine");
    node.broadcast_stats().export_to(reg);
  }
  if (!rc.converged()) out.fail("replicas differ", txs);
  if (agg.decisions_run != txs) out.fail("decisions_run != submissions", txs);
  if (agg.rejected_submissions != 0) {
    out.fail("submissions rejected", agg.rejected_submissions);
  }
  if (probe.overflow()) out.fail("unexpected origin sequence", txs);
  out.committed = probe.committed();
  if (out.committed != txs) {
    out.fail("not merged at every replica", txs - out.committed);
  }
  if (rc.tracer().evicted() != 0) {
    out.fail("trace ring overflowed (" +
                 std::to_string(rc.tracer().recorded()) + " events)",
             txs);
  }
  const std::vector<obs::Event> trace = rc.trace();
  const runtime::FateValidation fates = runtime::validate_message_fates(trace);
  if (!fates.ok() || fates.sends == 0) {
    out.fail("message-fate contract violated (" +
                 std::to_string(fates.orphaned.size()) + " orphaned, " +
                 std::to_string(fates.unmatched.size()) + " unmatched)",
             txs);
  }
  if (oracles) {
    AnalysisScope scope;
    const core::Execution<A> exec = rc.execution();
    if (!analysis::check_prefix_subsequence_condition(exec).ok()) {
      out.fail("prefix-subsequence condition violated", txs);
    }
    if (!analysis::is_transitive(exec)) {
      out.fail("execution not transitive", txs);
    }
    if (!(rc.node(0).state() == exec.final_state())) {
      out.fail("replica state != replay of the execution", txs);
    }
  }
  out.verify_s = seconds_since(t1);
  if (spans) spans->close(verify_span);

  std::vector<double> commit_ms;
  for (std::size_t o = 0; o < kNodes; ++o) {
    for (std::uint64_t s = 1; s <= seqs[o]; ++s) {
      const std::int64_t c = probe.commit_ns(o, s);
      if (c >= 0) {
        commit_ms.push_back(static_cast<double>(c - submit_ns[o][s - 1]) /
                            1e6);
      }
    }
  }
  out.set_commit_ms(commit_ms);
  for (const auto& [name, v] : reg.counters()) out.counters[name] = v;
  out.counters["net.sent"] = fates.sends;
  std::uint64_t dispatches = 0, dropped = 0;
  for (const obs::Event& e : trace) {
    if (e.type == obs::EventType::kSchedulerDispatch) ++dispatches;
    if (e.type == obs::EventType::kNetDropRandom) ++dropped;
  }
  out.counters["net.dropped_random"] = dropped;
  if (traced) out.counters["sim.dispatches"] = dispatches;

  if constexpr (traced) {
    const AppCounters app = AppCounterRegistry::total();
    std::vector<double> origin_ms, replicate_ms;
    const double base = spans ? spans->at(t0) : 0.0;
    for (std::size_t o = 0; o < kNodes; ++o) {
      for (std::uint64_t s = 1; s <= seqs[o]; ++s) {
        const std::int64_t sub = submit_ns[o][s - 1];
        const std::int64_t om = probe.origin_merge_ns(o, s);
        const std::int64_t c = probe.commit_ns(o, s);
        if (om < 0 || c < 0) continue;
        origin_ms.push_back(static_cast<double>(om - sub) / 1e6);
        replicate_ms.push_back(static_cast<double>(c - om) / 1e6);
        if (spans) {
          const double b = base + static_cast<double>(sub) / 1e9;
          const double m = base + static_cast<double>(om) / 1e9;
          const double e = base + static_cast<double>(c) / 1e9;
          spans->add("runtime.origin_merge", run_span, b, m, o, s);
          spans->add("runtime.replicate", run_span, m, e, o, s);
        }
      }
    }
    auto& L = out.layer;
    L["apps.apply.calls"] = static_cast<double>(app.apply_calls);
    L["apps.apply.s"] = app.apply_s();
    L["apps.apply.ns_per_call"] = app.apply_ns_per_call();
    L["apps.decide.calls"] = static_cast<double>(app.decide_calls);
    L["apps.decide.s"] = app.decide_s;
    L["runtime.origin_merge_p50_ms"] = percentile(origin_ms, 0.5);
    L["runtime.replicate_p50_ms"] = percentile(replicate_ms, 0.5);
    L["runtime.submit_post_us"] = percentile(post_us, 0.5);
    L["runtime.window_full_frac"] = blocked_s / out.run_s;
    // The ledger here is over worker-seconds: what the probes attribute
    // out of kNodes workers' share of the run.
    L["ledger.run_s"] = static_cast<double>(kNodes) * out.run_s;
    out.attributed_s = app.apply_s() + app.decide_s;
  }
  out.wall_s = seconds_since(t0);
  if (spans) spans->close(root);
  return out;
}

}  // namespace

void run_threaded_closed(const Args& args, WorkloadReport& out,
                         SpanLog* spans) {
  const std::uint64_t txs = scaled(kTimedTxs, args);
  repeat_instances(args, out, [&](bool traced) {
    return traced ? run_instance<Probed<Dict>>(args, txs, spans, false)
                  : run_instance<Dict>(args, txs, spans, false);
  });
  const InstanceOut o =
      run_instance<Dict>(args, scaled(kOracleTxs, args), nullptr, true);
  out.extra_txs += o.txs;
  out.extra_failed += o.failed_txs;
  for (const std::string& f : o.failures) {
    out.extra_failures.push_back("oracle instance: " + f);
  }
}

}  // namespace perfbench

// The three simulator workloads: zipf-burst, lan-steady, partition-verify.
//
// Each instance generates its inputs from the run's seed, builds a
// shard::Cluster, schedules every submission, runs to convergence and
// checks the outcome. The plain instance runs the application type itself;
// the traced one runs Probed<App> with a forwarding stream observer and a
// dispatch hook, and must reproduce the plain instance's counters exactly.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "analysis/execution_checker.hpp"
#include "analysis/streaming.hpp"
#include "apps/airline/airline.hpp"
#include "apps/banking/banking.hpp"
#include "harness/scenario.hpp"
#include "obs/metrics.hpp"
#include "probe.hpp"
#include "shard/cluster.hpp"
#include "shard/update_log.hpp"
#include "sim/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace al = apps::airline;
namespace bk = apps::banking;

template <class A>
struct BaseOf {
  using type = A;
};
template <class A>
struct BaseOf<Probed<A>> {
  using type = A;
};
template <class A>
constexpr bool kProbed = !std::is_same_v<A, typename BaseOf<A>::type>;

/// Submissions that share one scheduler event (a burst) at time `t`.
template <class Request>
struct Burst {
  double t = 0.0;
  std::vector<std::pair<core::NodeId, Request>> subs;
};
template <class Request>
using Schedule = std::vector<Burst<Request>>;

template <class Request>
std::uint64_t count_subs(const Schedule<Request>& s) {
  std::uint64_t n = 0;
  for (const Burst<Request>& b : s) n += b.subs.size();
  return n;
}

// ---------------------------------------------------------------------------
// Forwarding stream observer
// ---------------------------------------------------------------------------

/// Stamps each update's commit (merged at every replica) and forwards every
/// callback to an optional inner observer (the streaming checker). Commit
/// latency is wall-clock: from the submission's dispatch to the dispatch
/// that merges the update at its last replica. (Simulated latency would be
/// the same on every run of a workload whose network is fixed.) Traced,
/// it also times the inner calls, spans them, and keeps node 0's arrival
/// order for the standalone insert replay.
template <class A>
class DesProbe final : public shard::StreamObserver<A> {
 public:
  using Record = shard::TxRecord<A>;

  DesProbe(std::size_t nodes, shard::StreamObserver<A>* inner, SpanLog* spans)
      : all_(static_cast<std::uint8_t>((1u << nodes) - 1)),
        per_origin_(nodes),
        inner_(inner),
        spans_(spans) {}

  void on_originate(const Record& rec, std::uint64_t origin_seq,
                    sim::Time now) override {
    auto& v = per_origin_[rec.origin];
    if (v.size() < origin_seq) v.resize(origin_seq);
    v[origin_seq - 1].originated = Clock::now();
    if (inner_) {
      Timed t(this, "analysis.stream.on_originate", rec.origin, origin_seq);
      inner_->on_originate(rec, origin_seq, now);
    }
  }

  void on_deliver(core::NodeId at, core::NodeId origin,
                  std::uint64_t origin_seq, const core::Timestamp& ts,
                  const typename A::State& state, sim::Time now) override {
    auto& v = per_origin_[origin];
    if (v.size() < origin_seq) v.resize(origin_seq);
    Tx& tx = v[origin_seq - 1];
    const auto bit = static_cast<std::uint8_t>(1u << at);
    if ((tx.mask & bit) == 0) {
      tx.mask = static_cast<std::uint8_t>(tx.mask | bit);
      if (tx.mask == all_) tx.committed = Clock::now();
    }
    if (spans_ != nullptr && at == 0) arrivals_.push_back({origin, origin_seq});
    if (inner_) {
      Timed t(this, "analysis.stream.on_deliver", origin, origin_seq);
      inner_->on_deliver(at, origin, origin_seq, ts, state, now);
    }
  }

  void on_reserve(core::NodeId at, const core::Timestamp& ts) override {
    if (inner_) {
      Timed t(this, "analysis.stream.on_reserve", at, 0);
      inner_->on_reserve(at, ts);
    }
  }
  void on_crash(core::NodeId at, sim::Time now) override {
    if (inner_) {
      Timed t(this, "analysis.stream.on_crash", at, 0);
      inner_->on_crash(at, now);
    }
  }
  void on_restart(core::NodeId at, sim::RecoveryMode mode, std::size_t keep_n,
                  sim::Time now) override {
    if (inner_) {
      Timed t(this, "analysis.stream.on_restart", at, 0);
      inner_->on_restart(at, mode, keep_n, now);
    }
  }
  void export_metrics(obs::MetricsRegistry& reg) const override {
    if (inner_) inner_->export_metrics(reg);
  }

  /// Commit latency samples (wall ms), one per committed update.
  std::vector<double> commit_ms() const {
    std::vector<double> out;
    for (const auto& v : per_origin_) {
      for (const Tx& tx : v) {
        if (tx.mask == all_) {
          out.push_back(seconds_between(tx.originated, tx.committed) * 1e3);
        }
      }
    }
    return out;
  }

  std::uint64_t stream_calls() const { return stream_calls_; }
  double stream_s() const { return stream_s_; }
  const std::vector<std::pair<core::NodeId, std::uint64_t>>& arrivals() const {
    return arrivals_;
  }

 private:
  struct Tx {
    Clock::time_point originated{};
    Clock::time_point committed{};
    std::uint8_t mask = 0;
  };

  /// Times one inner callback (traced only) and runs it as analysis work.
  class Timed {
   public:
    Timed(DesProbe* p, const char* name, std::uint64_t origin,
          std::uint64_t seq)
        : p_(p) {
      if (p_->spans_ == nullptr) return;
      id_ = p_->spans_->open(name, tls_span_parent, origin, seq);
      t0_ = Clock::now();
    }
    ~Timed() {
      if (p_->spans_ == nullptr) return;
      p_->stream_s_ += region_s(t0_);
      ++p_->stream_calls_;
      p_->spans_->close(id_);
    }
    Timed(const Timed&) = delete;
    Timed& operator=(const Timed&) = delete;

   private:
    DesProbe* p_;
    AnalysisScope scope_;
    std::int64_t id_ = SpanLog::kNoParent;
    Clock::time_point t0_{};
  };

  std::uint8_t all_;
  std::vector<std::vector<Tx>> per_origin_;
  shard::StreamObserver<A>* inner_;
  SpanLog* spans_;
  std::uint64_t stream_calls_ = 0;
  double stream_s_ = 0.0;
  std::vector<std::pair<core::NodeId, std::uint64_t>> arrivals_;
};

// ---------------------------------------------------------------------------
// One instance
// ---------------------------------------------------------------------------

/// What distinguishes the three workloads: config, inputs, horizon, and
/// whether the streaming checker and post-hoc oracles run.
template <class App, class Request>
struct DesSpec {
  shard::ClusterConfig config;
  double horizon = 0.0;
  bool verify = false;  ///< streaming checker + post-hoc oracles
  Schedule<Request> (*make_schedule)(const Args&) = nullptr;
};

void copy_counters(const obs::MetricsRegistry& reg,
                   std::map<std::string, std::uint64_t>& out) {
  for (const auto& [name, v] : reg.counters()) {
    if (name.starts_with("engine.") || name.starts_with("broadcast.") ||
        name.starts_with("net.")) {
      out[name] = v;
    }
  }
}

template <class A, class Request, class SpecApp>
InstanceOut run_des_instance(const Args& args,
                             const DesSpec<SpecApp, Request>& spec,
                             SpanLog* spans) {
  using Base = typename BaseOf<A>::type;
  constexpr bool traced = kProbed<A>;
  if (!traced) spans = nullptr;
  InstanceOut out;
  AppCounterRegistry::reset();
  const Clock::time_point t0 = Clock::now();
  const std::int64_t root =
      spans ? spans->open("instance", SpanLog::kNoParent) : SpanLog::kNoParent;
  const std::int64_t setup_span =
      spans ? spans->open("setup", root) : SpanLog::kNoParent;

  // --- setup: inputs, cluster, observers, every submission scheduled ---
  const Schedule<Request> schedule = spec.make_schedule(args);
  out.txs = count_subs(schedule);
  // Observers first: the cluster's nodes point at them, so they must
  // outlive it.
  const std::size_t n = spec.config.num_nodes;
  std::optional<analysis::StreamingChecker<A>> checker;
  if (spec.verify) checker.emplace(n);
  DesProbe<A> probe(n, checker ? &*checker : nullptr, spans);
  std::uint64_t dispatches = 0;
  auto cluster = std::make_unique<shard::Cluster<A>>(spec.config);
  cluster->set_stream_observer(&probe);
  if (traced) {
    runtime::Hooks hooks;
    hooks.on_dispatch = [&dispatches](runtime::NodeId, sim::Time,
                                      std::uint64_t) { ++dispatches; };
    cluster->backend().set_hooks(std::move(hooks));
  }
  std::uint64_t rejected = 0;
  std::vector<double> submit_us;
  double submit_s = 0.0;
  std::uint64_t submit_applies = 0;
  double submit_stream_s = 0.0;  // checker callbacks inside submissions
  std::int64_t run_span = SpanLog::kNoParent;
  shard::Cluster<A>& c = *cluster;
  // The run phase is cut into segments at every `chunk`-th burst, so its
  // wall time can be compared stretch by stretch across instances.
  const std::size_t chunk =
      std::max<std::size_t>(1, (schedule.size() + kRunSegments - 1) /
                                   kRunSegments);
  std::vector<Clock::time_point> marks;
  marks.reserve(kRunSegments + 2);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const Burst<Request>& b = schedule[i];
    c.scheduler().schedule_at(b.t, [&, bp = &b, mark = i % chunk == 0] {
      if (mark) marks.push_back(Clock::now());
      for (const auto& [node, req] : bp->subs) {
        if constexpr (!traced) {
          if (!c.node(node).try_submit(req, c.scheduler().now())) ++rejected;
        } else {
          const std::uint64_t seq = c.node(node).originated().size() + 1;
          const std::int64_t id =
              spans ? spans->open("shard.try_submit", run_span, node, seq)
                    : SpanLog::kNoParent;
          tls_span_log = spans;
          tls_span_parent = id;
          const std::uint64_t applies0 =
              AppCounterRegistry::local().apply_calls;
          const double stream0 = probe.stream_s();
          const Clock::time_point s0 = Clock::now();
          const bool ok =
              c.node(node).try_submit(req, c.scheduler().now()).has_value();
          const double d = region_s(s0);
          submit_applies += AppCounterRegistry::local().apply_calls - applies0;
          submit_stream_s += probe.stream_s() - stream0;
          tls_span_log = nullptr;
          tls_span_parent = run_span;
          if (spans) spans->close(id);
          submit_s += d;
          submit_us.push_back(d * 1e6);
          if (!ok) ++rejected;
        }
      }
    });
  }
  out.setup_s = seconds_since(t0);
  if (spans) {
    spans->close(setup_span);
    run_span = spans->open("run", root);
    tls_span_parent = run_span;
  }

  // --- run to convergence ---
  const Clock::time_point t1 = Clock::now();
  bool settled = true;
  try {
    c.run_until(spec.horizon);
    c.settle();
  } catch (const std::exception& e) {
    settled = false;
    out.fail(std::string("settle: ") + e.what(), out.txs);
  }
  const Clock::time_point run_end = Clock::now();
  out.run_s = seconds_between(t1, run_end);
  Clock::time_point from = t1;
  for (const Clock::time_point m : marks) {
    out.run_segments.push_back(seconds_between(from, m));
    from = m;
  }
  out.run_segments.push_back(seconds_between(from, run_end));
  if (spans) spans->close(run_span);
  const std::int64_t verify_span =
      spans ? spans->open("verify", root) : SpanLog::kNoParent;

  // --- verdict ---
  const shard::EngineStats agg = c.aggregate_engine_stats();
  if (settled && !c.converged()) out.fail("replicas differ", out.txs);
  if (agg.decisions_run != out.txs) {
    out.fail("decisions_run != submissions", out.txs);
  }
  if (rejected != 0) out.fail("submissions rejected", rejected);
  const std::vector<double> commit_ms = probe.commit_ms();
  out.committed = commit_ms.size();
  if (out.committed != out.txs) {
    out.fail("not merged at every replica", out.txs - out.committed);
  }
  double exec_s = 0.0, prefix_s = 0.0, trans_s = 0.0, finish_s = 0.0;
  std::uint64_t prefix_entries = 0;
  if (spec.verify && settled) {
    AnalysisScope scope;
    const auto phase = [&](const char* name, double* acc, auto&& fn) {
      const std::int64_t id =
          spans ? spans->open(name, verify_span) : SpanLog::kNoParent;
      const Clock::time_point p0 = Clock::now();
      fn();
      *acc = seconds_since(p0);
      if (spans) spans->close(id);
    };
    phase("analysis.finish", &finish_s,
          [&] { checker->finish(c.scheduler().now()); });
    std::optional<core::Execution<A>> exec;
    phase("analysis.exec_build", &exec_s, [&] { exec.emplace(c.execution()); });
    std::optional<analysis::CheckReport> oracle;
    phase("analysis.prefix_check", &prefix_s, [&] {
      oracle.emplace(analysis::check_prefix_subsequence_condition(*exec));
    });
    bool transitive = false;
    phase("analysis.transitivity", &trans_s,
          [&] { transitive = analysis::is_transitive(*exec); });
    for (std::size_t i = 0; i < exec->size(); ++i) {
      prefix_entries += exec->tx(i).prefix.size();
    }
    if (!oracle->ok()) {
      out.fail("prefix-subsequence condition violated",
               oracle->violating_txs().size());
    }
    if (!transitive) out.fail("execution not transitive", out.txs);
    if (!(c.node(0).state() == exec->final_state())) {
      out.fail("replica state != replay of the execution", out.txs);
    }
    // Streaming reports must equal the post-hoc oracles.
    auto sorted = [](std::vector<std::string> v) {
      std::sort(v.begin(), v.end());
      return v;
    };
    const bool agrees =
        checker->txs_finalized() == exec->size() &&
        checker->order_violations() == 0 &&
        checker->divergence_events() == 0 &&
        sorted(oracle->violations()) ==
            sorted(checker->prefix_report().violations()) &&
        oracle->violating_txs() == checker->prefix_report().violating_txs();
    if (!agrees) out.fail("streaming checker != post-hoc oracles", out.txs);
  }
  out.verify_s = seconds_since(t1);
  if (spans) spans->close(verify_span);
  out.set_commit_ms(commit_ms);

  const obs::MetricsRegistry reg = c.metrics();
  copy_counters(reg, out.counters);
  out.counters["sim.dispatches"] = c.scheduler().events_executed();
  if (traced && dispatches != c.scheduler().events_executed()) {
    out.fail("dispatch hook count != scheduler events", out.txs);
  }

  out.wall_s = seconds_since(t0);
  if (spans) spans->close(root);

  if constexpr (traced) {
    // Standalone merge replay, outside the instance's wall time: node 0's
    // arrival order, fed to a fresh log with this workload's checkpoint
    // settings, every insert timed.
    const std::int64_t replay_span =
        spans ? spans->open("shard.insert_replay", SpanLog::kNoParent)
              : SpanLog::kNoParent;
    shard::UpdateLog<Base> log(spec.config.checkpoint_interval,
                               spec.config.max_checkpoints);
    std::vector<double> insert_us;
    insert_us.reserve(probe.arrivals().size());
    double insert_s = 0.0;
    for (const auto& [origin, seq] : probe.arrivals()) {
      const shard::TxRecord<A>& rec = c.node(origin).originated().at(seq - 1);
      const Clock::time_point i0 = Clock::now();
      log.insert({rec.ts, rec.update});
      const double d = region_s(i0);
      insert_s += d;
      insert_us.push_back(d * 1e6);
    }
    if (spans) spans->close(replay_span);

    const AppCounters app = AppCounterRegistry::total();
    const double ns = app.apply_ns_per_call();
    auto& L = out.layer;
    L["apps.apply.calls"] = static_cast<double>(app.apply_calls);
    L["apps.apply.s"] = app.apply_s();
    L["apps.apply.ns_per_call"] = ns;
    L["apps.decide.calls"] = static_cast<double>(app.decide_calls);
    L["apps.decide.s"] = app.decide_s;
    if (!submit_us.empty()) {
      L["shard.submit.p50_us"] = percentile(submit_us, 0.5);
      L["shard.submit.p99_us"] = percentile(submit_us, 0.99);
    }
    if (!insert_us.empty()) {
      L["shard.insert.p50_us"] = percentile(insert_us, 0.5);
      L["shard.insert.p99_us"] = percentile(insert_us, 0.99);
    }
    L["shard.insert.s"] = insert_s;
    L["analysis.stream.calls"] = static_cast<double>(probe.stream_calls());
    L["analysis.stream.s"] = probe.stream_s();
    L["analysis.finish.s"] = finish_s;
    L["analysis.exec_build.s"] = exec_s;
    L["analysis.prefix_check.s"] = prefix_s;
    L["analysis.transitivity.s"] = trans_s;
    L["analysis.prefix_entries"] = static_cast<double>(prefix_entries);
    // Self times: submit minus the decide, apply and checker work in it.
    const double submit_self = std::max(
        0.0, submit_s - app.decide_s - submit_stream_s -
                 ns * static_cast<double>(submit_applies) / 1e9);
    L["shard.submit.self_s"] = submit_self;
    out.attributed_s = out.setup_s + app.apply_s() + app.decide_s +
                       submit_self + probe.stream_s() + finish_s + exec_s +
                       prefix_s + trans_s;
  }
  return out;
}

template <class App, class Request>
void run_des(const Args& args, const DesSpec<App, Request>& spec,
             WorkloadReport& out, SpanLog* spans) {
  repeat_instances(args, out, [&](bool traced) {
    return traced ? run_des_instance<Probed<App>>(args, spec, spans)
                  : run_des_instance<App>(args, spec, spans);
  });
}

std::size_t scaled(double base, const Args& args) {
  return static_cast<std::size_t>(std::max(1.0, std::round(base * args.scale)));
}

// ---------------------------------------------------------------------------
// zipf-burst: E25's soa-batched row
// ---------------------------------------------------------------------------

using ZipfAir = al::BasicAirline<50, 900, 300>;
constexpr std::size_t kZipfNodes = 4;
constexpr double kTickSeconds = 0.05;
constexpr std::size_t kZipfTicks = 600;  // E25: 30 simulated seconds
constexpr std::size_t kZipfKeys = 400;
constexpr std::uint64_t kE25Seed = 0xe25;
constexpr std::uint64_t kBaseMilliPerTick = 25000;
constexpr std::size_t kDiurnalPeriod = 400;
constexpr std::size_t kFlashStart = 240, kFlashEnd = 300;
constexpr std::uint64_t kFlashFactor = 3;

std::size_t zipf_ticks(const Args& args) {
  return scaled(static_cast<double>(kZipfTicks), args);
}

/// Offered submissions on tick `k` (exact milli-tx accumulator, as E25).
std::size_t tick_submissions(std::size_t k, std::uint64_t* acc_milli) {
  const std::size_t phase = k % kDiurnalPeriod;
  const std::uint64_t diurnal =
      phase < kDiurnalPeriod / 2 ? 500 + 5 * phase
                                 : 1500 - 5 * (phase - kDiurnalPeriod / 2);
  std::uint64_t milli = kBaseMilliPerTick * diurnal / 1000;
  if (k >= kFlashStart && k < kFlashEnd) milli *= kFlashFactor;
  *acc_milli += milli;
  const auto n = static_cast<std::size_t>(*acc_milli / 1000);
  *acc_milli %= 1000;
  return n;
}

/// E25's request sequence, with the seed rotating the person ids. The
/// airline's lists are arrival-ordered, so a relabelling leaves the merge
/// and apply work unchanged; freshly sampled Zipf sequences moved the apply
/// cost per merge, and so tx_per_s, by more than its bound between seeds.
/// At --seed 3621 (0xe25) the rotation is 0: E25's exact schedule.
Schedule<al::Request> zipf_schedule(const Args& args) {
  sim::Rng rng(kE25Seed);
  const std::uint64_t shift =
      (args.seed % kZipfKeys + kZipfKeys - kE25Seed % kZipfKeys) % kZipfKeys;
  std::vector<double> cdf(kZipfKeys);
  double total = 0.0;
  for (std::size_t i = 0; i < kZipfKeys; ++i) {
    total += 1.0 / static_cast<double>(i + 1);
    cdf[i] = total;
  }
  const std::size_t ticks = zipf_ticks(args);
  Schedule<al::Request> s(ticks);
  std::uint64_t acc = 0;
  std::size_t rr = 0;
  for (std::size_t k = 0; k < ticks; ++k) {
    s[k].t = kTickSeconds * static_cast<double>(k + 1);
    const std::size_t n = tick_submissions(k, &acc);
    s[k].subs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double u = rng.uniform(0.0, cdf.back());
      const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
      const auto rank = static_cast<std::uint64_t>(it - cdf.begin());
      const auto p = static_cast<al::Person>(1 + (rank + shift) % kZipfKeys);
      const al::Request req = rng.bernoulli(0.3) ? al::Request::cancel(p)
                                                 : al::Request::request(p);
      s[k].subs.emplace_back(static_cast<core::NodeId>(rr++ % kZipfNodes),
                             req);
    }
  }
  return s;
}

// ---------------------------------------------------------------------------
// lan-steady: Poisson banking on a LAN
// ---------------------------------------------------------------------------

constexpr std::size_t kLanNodes = 4;
constexpr double kLanRate = 1000.0;     // tx per simulated second
constexpr double kLanDuration = 30.0;   // simulated seconds per instance
constexpr std::uint32_t kAccounts = 200;

double lan_duration(const Args& args) { return kLanDuration * args.scale; }

Schedule<bk::Request> lan_schedule(const Args& args) {
  sim::Rng rng(args.seed);
  const double duration = lan_duration(args);
  Schedule<bk::Request> s;
  s.reserve(static_cast<std::size_t>(kLanRate * duration * 1.1));
  const auto account = [&] {
    return static_cast<bk::AccountId>(rng.uniform_int(0, kAccounts - 1));
  };
  double t = 0.0;
  while (true) {
    t += rng.exponential(1.0 / kLanRate);
    if (t >= duration) break;
    const auto node = static_cast<core::NodeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(kLanNodes) - 1));
    const bk::Amount amount = rng.uniform_int(1, 100);
    const double mix = rng.uniform(0.0, 1.0);
    bk::Request req = bk::Request::audit();
    if (mix < 0.45) {
      req = bk::Request::deposit(account(), amount);
    } else if (mix < 0.80) {
      req = bk::Request::withdraw(account(), amount);
    } else if (mix < 0.90) {
      req = bk::Request::transfer(account(), account(), amount);
    } else if (mix < 0.97) {
      req = bk::Request::cover();
    }
    Burst<bk::Request> b;
    b.t = t;
    b.subs.emplace_back(node, req);
    s.push_back(std::move(b));
  }
  return s;
}

// ---------------------------------------------------------------------------
// partition-verify: airline under a partition and a disk failure
// ---------------------------------------------------------------------------

constexpr std::size_t kVerifyNodes = 4;
constexpr double kVerifyDuration = 60.0;
// ~505 transactions: transitivity still dominates the instance (~0.3 s of
// it on a 4-core container), and a run repeats the instance tens of times.
constexpr double kRequests = 235;  // REQUESTs
constexpr double kMovers = 235;    // MOVE-UP/DOWN attempts
constexpr double kCancelFraction = 0.15;
constexpr double kMoveDownFraction = 0.3;
constexpr double kCutStart = 5.0, kCutEnd = 20.0;
constexpr sim::NodeId kDiskNode = 3;
constexpr double kDiskStart = 22.0, kDiskEnd = 26.0, kDiskKeep = 0.5;

/// The standard airline workload's mix (harness::drive_airline), with its
/// counts fixed so every seed checks an execution of the same size: exactly
/// kCancelFraction of the requesters cancelling, and no submission routed
/// to the node while its disk is down, so none is refused.
Schedule<al::Request> verify_schedule(const Args& args) {
  sim::Rng rng(args.seed);
  const auto requests = static_cast<std::size_t>(
      std::max(1.0, std::round(kRequests * args.scale)));
  const auto movers = static_cast<std::size_t>(
      std::max(1.0, std::round(kMovers * args.scale)));
  const auto cancels = static_cast<std::size_t>(
      std::round(kCancelFraction * static_cast<double>(requests)));
  const auto pick_node = [&](double t) {
    while (true) {
      const auto node = static_cast<core::NodeId>(
          rng.uniform_int(0, static_cast<std::int64_t>(kVerifyNodes) - 1));
      const bool down = node == kDiskNode && t > kDiskStart - 0.5 &&
                        t < kDiskEnd + 0.5;
      if (!down) return node;
    }
  };
  // Stratified arrivals: one uniform draw per equal slot of the run, so
  // the partition sees the same load on every seed. (Unstratified, the
  // prefix sizes behind transitivity's ~n^3.6 cost moved verify_s by
  // more than its bound between seeds.)
  const auto arrivals = [&](std::size_t n) {
    std::vector<double> t(n);
    const double slot = kVerifyDuration / static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i) {
      t[i] = (static_cast<double>(i) + rng.uniform(0.0, 1.0)) * slot;
    }
    return t;
  };
  std::vector<char> cancel(requests, 0);
  std::fill(cancel.begin(), cancel.begin() + static_cast<std::ptrdiff_t>(cancels),
            1);
  for (std::size_t i = requests; i-- > 1;) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i)));
    std::swap(cancel[i], cancel[j]);
  }

  std::vector<std::pair<double, std::pair<core::NodeId, al::Request>>> subs;
  const std::vector<double> req_t = arrivals(requests);
  for (std::size_t i = 0; i < requests; ++i) {
    const auto p = static_cast<al::Person>(i + 1);
    subs.push_back({req_t[i], {pick_node(req_t[i]), al::Request::request(p)}});
    if (cancel[i]) {
      const double tc = std::min(req_t[i] + rng.exponential(2.0),
                                 std::max(req_t[i], kVerifyDuration - 1e-3));
      subs.push_back({tc, {pick_node(tc), al::Request::cancel(p)}});
    }
  }
  for (const double t : arrivals(movers)) {
    const al::Request req = rng.bernoulli(kMoveDownFraction)
                                ? al::Request::move_down()
                                : al::Request::move_up();
    subs.push_back({t, {pick_node(t), req}});
  }
  Schedule<al::Request> s;
  s.reserve(subs.size());
  for (auto& [time, sub] : subs) {
    Burst<al::Request> b;
    b.t = time;
    b.subs.push_back(std::move(sub));
    s.push_back(std::move(b));
  }
  return s;
}

// The seed makes each workload's inputs (requests, arrival times, routing).
// The simulated network's own randomness (delays, drops) is part of the
// workload's fixed environment: with it drawn per seed, zipf-burst's merge
// work (set by how far the WAN displaces arrivals) varied by 1.7x across
// seeds, and no throughput figure could be compared between commits.
constexpr std::uint64_t kZipfClusterSeed = kE25Seed ^ 0x5a7;  // E25's
constexpr std::uint64_t kLanClusterSeed = 0x1a4;
constexpr std::uint64_t kVerifyClusterSeed = 0x9e1f;

}  // namespace

void run_zipf_burst(const Args& args, WorkloadReport& out, SpanLog* spans) {
  // E25's soa-batched row: same scenario, same cluster seed, so --seed 3621
  // (0xe25) replays E25's schedule exactly.
  harness::Scenario sc = harness::wan(kZipfNodes);
  sc.compaction = true;
  sc.checkpoint_interval = 32;
  sc.max_checkpoints = 8;
  DesSpec<ZipfAir, al::Request> spec;
  spec.config = sc.cluster_config<ZipfAir>(kZipfClusterSeed);
  spec.config.broadcast.max_batch = 8;
  spec.horizon = kTickSeconds * static_cast<double>(zipf_ticks(args) + 2);
  spec.make_schedule = zipf_schedule;
  run_des(args, spec, out, spans);
}

void run_lan_steady(const Args& args, WorkloadReport& out, SpanLog* spans) {
  harness::Scenario sc = harness::lan(kLanNodes);
  DesSpec<bk::Banking, bk::Request> spec;
  spec.config = sc.cluster_config<bk::Banking>(kLanClusterSeed);
  spec.config.broadcast.max_batch = 8;
  spec.horizon = lan_duration(args) + 0.5;
  spec.make_schedule = lan_schedule;
  run_des(args, spec, out, spans);
}

void run_partition_verify(const Args& args, WorkloadReport& out,
                          SpanLog* spans) {
  harness::Scenario sc = harness::wan(kVerifyNodes);
  sc.faults = sim::FaultPlan(kVerifyClusterSeed);
  sc.faults.split_halves(kVerifyNodes, kVerifyNodes / 2, kCutStart, kCutEnd);
  sc.faults.disk_failure(kDiskNode, kDiskStart, kDiskEnd, kDiskKeep);
  DesSpec<al::Airline, al::Request> spec;
  spec.config = sc.cluster_config<al::Airline>(kVerifyClusterSeed);
  spec.horizon = kVerifyDuration;
  spec.verify = true;
  spec.make_schedule = verify_schedule;
  run_des(args, spec, out, spans);
}

}  // namespace perfbench

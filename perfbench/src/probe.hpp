// Outside-in instrumentation for the traced run.
//
// Nothing here reaches into the library: `Probed<App>` is an application
// type that satisfies core::Application by forwarding every member to
// `App`, counting and timing `decide` and `apply` on the way. A cluster
// built over `Probed<App>` runs the same protocol as one over `App` (the
// determinism self-check pins the counters of both), so the difference
// between the two runs is the cost of looking.
//
// `apply` runs tens of millions of times per instance, so it is counted
// every call but timed on a fixed sample (every kApplySampleEvery-th call)
// and scaled up: timing every call would let the clock dominate.
//
// Counters are per thread (the threaded backend applies on worker threads)
// and summed on demand; a thread that exits folds its block into the
// retired total first. `Scope` marks the checker and post-hoc oracles, whose
// own apply/decide calls are charged to the analysis layer, not the app.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/model.hpp"

namespace perfbench {

struct AppCounters {
  std::uint64_t apply_calls = 0;
  std::uint64_t apply_sampled = 0;
  double apply_sampled_s = 0.0;
  std::uint64_t decide_calls = 0;
  double decide_s = 0.0;

  void add(const AppCounters& o) {
    apply_calls += o.apply_calls;
    apply_sampled += o.apply_sampled;
    apply_sampled_s += o.apply_sampled_s;
    decide_calls += o.decide_calls;
    decide_s += o.decide_s;
  }
  /// Mean sampled apply time (less the clock's own cost).
  double apply_ns_per_call() const {
    if (apply_sampled == 0) return 0.0;
    const double ns = (apply_sampled_s / static_cast<double>(apply_sampled) -
                       g_clock_overhead_s) *
                      1e9;
    return ns > 0.0 ? ns : 0.0;
  }
  double apply_s() const {
    return apply_ns_per_call() * static_cast<double>(apply_calls) / 1e9;
  }
};

namespace detail {
/// One thread's counters; registers itself on first use and folds into the
/// retired total when its thread exits.
struct CounterBlock {
  AppCounters counters;
  CounterBlock();
  ~CounterBlock();
  CounterBlock(const CounterBlock&) = delete;
  CounterBlock& operator=(const CounterBlock&) = delete;
};
inline thread_local CounterBlock tls_counters;
}  // namespace detail

/// Registry of per-thread counter blocks.
class AppCounterRegistry {
 public:
  static AppCounters& local() { return detail::tls_counters.counters; }
  /// Sum over live and exited threads.
  static AppCounters total();
  /// Zero every block. Call only while no other thread is applying.
  static void reset();
};

/// While alive, apply/decide on this thread count as analysis work.
class AnalysisScope {
 public:
  AnalysisScope() : prev_(active_) { active_ = true; }
  ~AnalysisScope() { active_ = prev_; }
  AnalysisScope(const AnalysisScope&) = delete;
  AnalysisScope& operator=(const AnalysisScope&) = delete;
  static bool active() { return active_; }

 private:
  bool prev_;
  static inline thread_local bool active_ = false;
};

constexpr std::uint64_t kApplySampleEvery = 64;

/// The span log and enclosing span that `decide` spans attach to on this
/// thread (null: no spans).
inline thread_local SpanLog* tls_span_log = nullptr;
inline thread_local std::int64_t tls_span_parent = SpanLog::kNoParent;

template <core::Application App>
struct Probed {
  using State = typename App::State;
  using Update = typename App::Update;
  using Request = typename App::Request;
  static constexpr int kNumConstraints = App::kNumConstraints;

  static std::string name() { return App::name(); }
  static State initial() { return App::initial(); }
  static bool well_formed(const State& s) { return App::well_formed(s); }
  static double cost(const State& s, int c) { return App::cost(s, c); }

  static void apply(const Update& u, State& s) {
    if (AnalysisScope::active()) {
      App::apply(u, s);
      return;
    }
    AppCounters& c = AppCounterRegistry::local();
    if (c.apply_calls++ % kApplySampleEvery != 0) {
      App::apply(u, s);
      return;
    }
    const auto t0 = std::chrono::steady_clock::now();
    App::apply(u, s);
    c.apply_sampled_s += std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
    ++c.apply_sampled;
  }

  static core::DecisionResult<Update> decide(const Request& r,
                                             const State& s) {
    if (AnalysisScope::active()) return App::decide(r, s);
    AppCounters& c = AppCounterRegistry::local();
    const std::int64_t span =
        tls_span_log ? tls_span_log->open("apps.decide", tls_span_parent)
                     : SpanLog::kNoParent;
    const auto t0 = std::chrono::steady_clock::now();
    core::DecisionResult<Update> out = App::decide(r, s);
    c.decide_s += std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    ++c.decide_calls;
    if (tls_span_log) tls_span_log->close(span);
    return out;
  }
};

}  // namespace perfbench

// perfbench: the repository benchmark driver.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--scale <f>] [--trace-dir <dir>]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ledger
// (and writes its spans under --trace-dir). The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. See
// perfbench/README.md for the workloads and what each metric means.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"
#include "probe.hpp"
#include "workloads.hpp"

namespace perfbench {

// ---------------------------------------------------------------------------
// common.hpp
// ---------------------------------------------------------------------------

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i =
      rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[i];
}

void calibrate_clock() {
  std::vector<double> d(4001);
  for (double& x : d) {
    const Clock::time_point a = Clock::now();
    x = seconds_since(a);
  }
  g_clock_overhead_s = median(d);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    fail("metric " + name + " is not finite", 1);
    value = 0.0;
  }
  metrics_[name] = Value{value, unit};
}

void Result::fail(const std::string& what, std::uint64_t txs) {
  fail(std::vector<std::string>{what}, txs);
}

void Result::fail(const std::vector<std::string>& what, std::uint64_t txs) {
  if (what.empty()) return;
  checks_failed_.insert(checks_failed_.end(), what.begin(), what.end());
  failed_ += std::max<std::uint64_t>(1, txs);
}

double Result::fail_frac() const {
  return attempted_ == 0 ? 1.0
                         : std::min(1.0, static_cast<double>(failed_) /
                                             static_cast<double>(attempted_));
}

void Result::print() const {
  for (const std::string& f : checks_failed_) {
    std::printf("FAILED CHECK: %s\n", f.c_str());
  }
  for (const auto& [name, v] : metrics_) {
    std::printf("%-32s %.6g %s\n", name.c_str(), v.value, v.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct() ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(
                  1, attempted_)),
              static_cast<unsigned long long>(failed_));
  bool first = true;
  for (const auto& [name, v] : metrics_) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), v.value, v.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

bool SpanLog::admit(const char* name) {
  std::size_t& n = per_layer_[name];
  if (n >= kMaxSpansPerLayer) return false;
  ++n;
  return true;
}

std::int64_t SpanLog::open(const char* name, std::int64_t parent,
                           std::uint64_t tx_origin, std::uint64_t tx_seq) {
  if (!admit(name)) return kNoParent;
  const double t = now();
  spans_.push_back(Span{name, parent, t, t, tx_origin, tx_seq});
  return static_cast<std::int64_t>(spans_.size() - 1);
}

void SpanLog::close(std::int64_t id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end = now();
}

void SpanLog::add(const char* name, std::int64_t parent, double start,
                  double end, std::uint64_t tx_origin, std::uint64_t tx_seq) {
  if (!admit(name)) return;
  spans_.push_back(Span{name, parent, start, end, tx_origin, tx_seq});
}

bool SpanLog::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tparent\tname\tstart_s\tend_s\ttx_origin\ttx_seq\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%lld\t%s\t%.9f\t%.9f\t%llu\t%llu\n", i,
                 static_cast<long long>(s.parent), s.name, s.start, s.end,
                 static_cast<unsigned long long>(s.tx_origin),
                 static_cast<unsigned long long>(s.tx_seq));
  }
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// probe.hpp: per-thread counter registry
// ---------------------------------------------------------------------------

namespace {
std::mutex g_counters_mu;
std::vector<detail::CounterBlock*> g_live;
AppCounters g_retired;
}  // namespace

detail::CounterBlock::CounterBlock() {
  std::lock_guard<std::mutex> g(g_counters_mu);
  g_live.push_back(this);
}

detail::CounterBlock::~CounterBlock() {
  std::lock_guard<std::mutex> g(g_counters_mu);
  g_retired.add(counters);
  std::erase(g_live, this);
}

AppCounters AppCounterRegistry::total() {
  std::lock_guard<std::mutex> g(g_counters_mu);
  AppCounters sum = g_retired;
  for (const detail::CounterBlock* b : g_live) sum.add(b->counters);
  return sum;
}

void AppCounterRegistry::reset() {
  local();  // register this thread before zeroing
  std::lock_guard<std::mutex> g(g_counters_mu);
  g_retired = AppCounters{};
  for (detail::CounterBlock* b : g_live) b->counters = AppCounters{};
}

// ---------------------------------------------------------------------------
// Metric tables and the result line
// ---------------------------------------------------------------------------

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Printed with --trace 1, for every workload (0 where a layer is idle).
constexpr MetricDef kPerLayer[] = {
    {"apps.apply.calls", "count"},
    {"apps.apply.s", "s"},
    {"apps.apply.ns_per_call", "ns"},
    {"apps.decide.calls", "count"},
    {"apps.decide.s", "s"},
    {"shard.submit.p50_us", "us"},
    {"shard.submit.p99_us", "us"},
    {"shard.submit.self_s", "s"},
    {"shard.literal_per_apply", "ratio"},
    {"shard.insert.p50_us", "us"},
    {"shard.insert.p99_us", "us"},
    {"shard.insert.s", "s"},
    {"engine.mid_inserts", "count"},
    {"engine.tail_appends", "count"},
    {"engine.undone_updates", "count"},
    {"engine.redone_updates", "count"},
    {"engine.checkpoints_taken", "count"},
    {"engine.checkpoints_thinned", "count"},
    {"net.sent", "count"},
    {"net.dropped_random", "count"},
    {"broadcast.delivered", "count"},
    {"broadcast.flood_batches", "count"},
    {"broadcast.anti_entropy_rounds", "count"},
    {"broadcast.anti_entropy_repairs", "count"},
    {"broadcast.causally_buffered", "count"},
    {"broadcast.duplicates_dropped", "count"},
    {"broadcast.useful_frac", "ratio"},
    {"sim.dispatches", "count"},
    {"commit.p50_ms", "ms"},
    {"commit.p99_ms", "ms"},
    {"analysis.stream.calls", "count"},
    {"analysis.stream.s", "s"},
    {"analysis.finish.s", "s"},
    {"analysis.exec_build.s", "s"},
    {"analysis.prefix_check.s", "s"},
    {"analysis.transitivity.s", "s"},
    {"analysis.prefix_entries", "count"},
    {"runtime.origin_merge_p50_ms", "ms"},
    {"runtime.replicate_p50_ms", "ms"},
    {"runtime.submit_post_us", "us"},
    {"runtime.window_full_frac", "ratio"},
    {"obs.trace_overhead_frac", "ratio"},
    {"ledger.run_s", "s"},
    {"ledger.attributed_s", "s"},
    {"ledger.unattributed_s", "s"},
    {"ledger.attributed_frac", "ratio"},
    {"workload.txs", "count"},
    {"check.counters_repeat", "count"},
    {"fail_frac", "ratio"},
};

/// Counters taken from the instance's protocol counters, not its layers.
constexpr const char* kCounterLayers[] = {
    "engine.mid_inserts",         "engine.tail_appends",
    "engine.undone_updates",      "engine.redone_updates",
    "engine.checkpoints_taken",   "engine.checkpoints_thinned",
    "net.sent",                   "net.dropped_random",
    "broadcast.delivered",        "broadcast.flood_batches",
    "broadcast.anti_entropy_rounds", "broadcast.anti_entropy_repairs",
    "broadcast.causally_buffered", "broadcast.duplicates_dropped",
    "sim.dispatches",
};

template <class F>
std::vector<double> collect(const std::vector<InstanceOut>& v, F f) {
  std::vector<double> out;
  out.reserve(v.size());
  for (const InstanceOut& o : v) out.push_back(f(o));
  return out;
}

double min_of(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

/// The run phase at its fastest: on the simulator, the sum over the run's
/// segments of the fastest instance's time for each (every instance of a
/// seed replays the same work, segment by segment); elsewhere, the fastest
/// instance's run phase.
double fastest_run_s(const WorkloadReport& w) {
  const std::vector<InstanceOut>& v = w.plain;
  const std::size_t n = v.front().run_segments.size();
  const bool aligned =
      w.deterministic && n > 0 &&
      std::all_of(v.begin(), v.end(),
                  [n](const auto& o) { return o.run_segments.size() == n; });
  if (!aligned) return min_of(collect(v, [](const auto& o) { return o.run_s; }));
  double sum = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    sum += min_of(collect(v, [k](const auto& o) { return o.run_segments[k]; }));
  }
  return sum;
}

/// tx_per_s and verify_s report the run at its fastest, as timeit does.
/// The host's interference only ever adds time, and it comes in spells of
/// seconds to minutes that slow the same code by up to 1.8x: a median over
/// a run moves with the share of the run such a spell covers, while the
/// fastest pass over each stretch of the work stays near what the code
/// costs on a quiet core. Short stretches find quiet moments that a whole
/// instance of zipf-burst (~8 s) seldom does. setup_s stays a median.
void report_end_to_end(const WorkloadReport& w, Result& r) {
  const std::vector<InstanceOut>& v = w.plain;
  r.metric("setup_s", median(collect(v, [](const auto& o) { return o.setup_s; })),
           "s");
  const double run_s = fastest_run_s(w);
  const double committed = median(
      collect(v, [](const auto& o) { return static_cast<double>(o.committed); }));
  r.metric("tx_per_s", committed / run_s, "tx/s");
  // The checks after the run phase: one stretch per instance.
  r.metric("verify_s",
           run_s + min_of(collect(
                       v, [](const auto& o) { return o.verify_s - o.run_s; })),
           "s");
  r.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

std::map<std::string, double> per_layer(const WorkloadReport& w,
                                        bool counters_repeat,
                                        double fail_frac) {
  std::map<std::string, double> m;
  for (const MetricDef& d : kPerLayer) m[d.name] = 0.0;
  const std::vector<InstanceOut>& t = w.traced;
  if (t.empty()) return m;
  // Layer figures: medians over the traced instances.
  for (const auto& [name, _] : t.front().layer) {
    m[name] = median(collect(t, [&, n = name](const InstanceOut& o) {
      const auto it = o.layer.find(n);
      return it == o.layer.end() ? 0.0 : it->second;
    }));
  }
  for (const char* name : kCounterLayers) {
    const auto it = t.front().counters.find(name);
    if (it != t.front().counters.end()) {
      m[name] = static_cast<double>(it->second);
    }
  }
  // The paper's literal undo/redo count per apply actually made.
  if (m["apps.apply.calls"] > 0.0) {
    m["shard.literal_per_apply"] =
        (m["engine.undone_updates"] + m["engine.tail_appends"] +
         m["engine.mid_inserts"]) /
        m["apps.apply.calls"];
  }
  m["commit.p50_ms"] =
      median(collect(t, [](const auto& o) { return o.commit_p50_ms; }));
  m["commit.p99_ms"] =
      median(collect(t, [](const auto& o) { return o.commit_p99_ms; }));
  const double delivered = m["broadcast.delivered"];
  const double dups = m["broadcast.duplicates_dropped"];
  m["broadcast.useful_frac"] =
      delivered + dups > 0.0 ? delivered / (delivered + dups) : 0.0;
  const auto run_of = [](const InstanceOut& o) {
    const auto it = o.layer.find("ledger.run_s");
    return it == o.layer.end() ? o.wall_s : it->second;
  };
  m["ledger.run_s"] = median(collect(t, run_of));
  m["ledger.attributed_s"] =
      median(collect(t, [](const auto& o) { return o.attributed_s; }));
  m["ledger.unattributed_s"] = median(collect(
      t, [&](const InstanceOut& o) { return run_of(o) - o.attributed_s; }));
  m["ledger.attributed_frac"] = median(collect(
      t, [&](const InstanceOut& o) { return o.attributed_s / run_of(o); }));
  if (!w.plain.empty()) {
    m["obs.trace_overhead_frac"] =
        median(collect(t, [](const auto& o) { return o.wall_s; })) /
            median(collect(w.plain, [](const auto& o) { return o.wall_s; })) -
        1.0;
  }
  m["workload.txs"] = static_cast<double>(t.front().txs);
  m["check.counters_repeat"] = counters_repeat ? 1.0 : 0.0;
  m["fail_frac"] = fail_frac;
  return m;
}

/// The simulator's counters must repeat exactly: across the plain
/// instances, and between plain and traced ones (the probes change nothing
/// the protocol does).
bool counters_repeat(const WorkloadReport& w, Result& r) {
  if (!w.deterministic) return false;
  const InstanceOut* ref =
      !w.plain.empty() ? &w.plain.front()
                       : (!w.traced.empty() ? &w.traced.front() : nullptr);
  if (ref == nullptr) return false;
  bool ok = true;
  for (const auto* v : {&w.plain, &w.traced}) {
    for (const InstanceOut& o : *v) {
      if (o.counters != ref->counters) ok = false;
    }
  }
  for (const InstanceOut& o : w.traced) {
    if (o.layer.at("apps.apply.calls") !=
        w.traced.front().layer.at("apps.apply.calls")) {
      ok = false;
    }
  }
  if (!ok) {
    std::uint64_t txs = 0;
    for (const auto* v : {&w.plain, &w.traced}) {
      for (const InstanceOut& o : *v) txs += o.txs;
    }
    r.fail("protocol counters differ between runs of one seed", txs);
  }
  return ok;
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<zipf-burst|lan-steady|partition-verify|threaded-closed> "
               "--seed <n> --seconds <s> --trace <0|1> [--scale <f>] "
               "[--trace-dir <dir>]\n",
               msg);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else if (flag == "--scale") {
        args.scale = std::stod(value);
      } else if (flag == "--trace-dir") {
        args.trace_dir = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (!(args.scale > 0.0)) return usage("--scale must be positive");

  using RunFn = void (*)(const Args&, WorkloadReport&, SpanLog*);
  RunFn run = nullptr;
  bool deterministic = true;
  if (args.workload == "zipf-burst") {
    run = run_zipf_burst;
  } else if (args.workload == "lan-steady") {
    run = run_lan_steady;
  } else if (args.workload == "partition-verify") {
    run = run_partition_verify;
  } else if (args.workload == "threaded-closed") {
    run = run_threaded_closed;
    deterministic = false;
  } else {
    return usage(("unknown workload '" + args.workload + "'").c_str());
  }

  calibrate_clock();
  SpanLog spans;
  WorkloadReport w;
  w.deterministic = deterministic;
  run(args, w, args.trace ? &spans : nullptr);

  Result r;
  for (const auto* v : {&w.plain, &w.traced}) {
    for (const InstanceOut& o : *v) {
      r.attempted(o.txs);
      r.fail(o.failures, o.failed_txs);
    }
  }
  r.attempted(w.extra_txs);
  r.fail(w.extra_failures, w.extra_failed);
  const bool repeat = counters_repeat(w, r);
  for (const InstanceOut& o : w.plain) {
    std::fprintf(stderr, "perfbench: instance run %.6f s verify %.6f s "
                 "setup %.6f s\n", o.run_s, o.verify_s, o.setup_s);
  }
  std::fprintf(stderr, "perfbench: %s seed %llu: %zu plain + %zu traced "
               "instances\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed),
               w.plain.size(), w.traced.size());

  if (!args.trace) {
    report_end_to_end(w, r);
  } else {
    const std::map<std::string, double> layers =
        per_layer(w, repeat, r.fail_frac());
    for (const MetricDef& d : kPerLayer) r.metric(d.name, layers.at(d.name), d.unit);
    std::error_code ec;
    std::filesystem::create_directories(args.trace_dir, ec);
    const std::string stem = args.trace_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed);
    if (!spans.write(stem + ".spans.tsv")) {
      std::fprintf(stderr, "perfbench: could not write %s.spans.tsv\n",
                   stem.c_str());
    }
    std::ofstream layers_out(stem + ".layers.tsv");
    for (const MetricDef& d : kPerLayer) {
      layers_out << d.name << '\t' << layers.at(d.name) << '\t' << d.unit
                 << '\n';
    }
  }
  r.print();
  return 0;
}

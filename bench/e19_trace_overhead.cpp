// E19 — observability overhead and trace export.
//
// Tracing must be effectively free when off (one null-pointer branch per
// would-be event) and cheap enough when on to leave on for any debugging
// run. This bench runs one fixed crash-chaos workload (partition + two
// crashes, one amnesia — the same shape the chaos test tier uses) in three
// modes and times each:
//
//   off      — Config::trace.enabled = false: the null-tracer fast path
//              every other experiment and test tier runs with;
//   ring     — tracing on, events retained only in the bounded ring;
//   perfetto — tracing on + a streaming PerfettoSink writing trace_event
//              JSON to disk at record time (worst case: per-event
//              formatting + I/O).
//
// Emits one JSON document with per-mode timings and overhead relative to
// "off", and leaves the perfetto-mode trace on disk (argv[1], default
// e19_trace.perfetto.json) — CI uploads it as the browsable run artifact.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "apps/airline/airline.hpp"
#include "harness/scenario.hpp"
#include "harness/workload.hpp"
#include "obs/perfetto.hpp"
#include "obs/tracer.hpp"
#include "shard/cluster.hpp"
#include "sim/fault_plan.hpp"

namespace {

namespace al = apps::airline;
using Air = al::BasicAirline<20, 900, 300>;
using Cluster = shard::Cluster<Air>;

constexpr double kHorizon = 20.0;
constexpr int kReps = 5;

harness::Scenario chaos_scenario(bool traced) {
  harness::Scenario sc = harness::wan(4);
  sc.faults.split_halves(4, 2, 6.0, 10.0)
      .crash(1, 3.0, 6.5, sim::RecoveryMode::kDurable)
      .crash(3, 8.0, 11.0, sim::RecoveryMode::kAmnesia);
  sc.trace.enabled = traced;
  sc.trace.ring_capacity = 1 << 15;
  return sc;
}

struct RunResult {
  double millis = 0.0;
  std::uint64_t events = 0;
  std::uint64_t txs = 0;
  std::string metrics_json;
};

/// One full workload run; `sink` (optional) receives every trace event.
RunResult run_once(bool traced, obs::Sink* sink) {
  const harness::Scenario sc = chaos_scenario(traced);
  const auto t0 = std::chrono::steady_clock::now();
  Cluster cluster(sc.cluster_config<Air>(0xE19));
  if (sink != nullptr && cluster.tracer() != nullptr) {
    cluster.tracer()->add_sink(sink);
  }
  harness::AirlineWorkload w;
  w.duration = kHorizon;
  w.request_rate = 6.0;
  w.mover_rate = 4.0;
  w.cancel_fraction = 0.15;
  w.max_persons = 250;
  harness::drive_airline(cluster, w, 0x5EED);
  cluster.run_until(kHorizon);
  cluster.settle();
  const auto t1 = std::chrono::steady_clock::now();

  RunResult r;
  r.millis = std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.txs = cluster.total_originated();
  if (cluster.tracer() != nullptr) {
    r.events = cluster.tracer()->recorded();
    r.metrics_json = cluster.metrics().to_json();
  }
  return r;
}

struct Mode {
  const char* name;
  double mean_ms = 0.0;
  double min_ms = 0.0;
  std::uint64_t events = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string trace_path =
      argc > 1 ? argv[1] : "e19_trace.perfetto.json";

  std::vector<Mode> modes;
  std::uint64_t txs = 0;
  std::string metrics_json;
  for (const char* name : {"off", "ring", "perfetto"}) {
    Mode m;
    m.name = name;
    m.min_ms = 1e300;
    const bool traced = std::string(name) != "off";
    for (int rep = 0; rep < kReps; ++rep) {
      RunResult r;
      if (std::string(name) == "perfetto") {
        // Re-export every rep (overwrite) so the timing includes the full
        // per-event formatting + file I/O; the last file is the artifact.
        std::ofstream out(trace_path);
        obs::PerfettoSink sink(out);
        r = run_once(traced, &sink);
      } else {
        r = run_once(traced, nullptr);
      }
      m.mean_ms += r.millis;
      if (r.millis < m.min_ms) m.min_ms = r.millis;
      m.events = r.events;
      txs = r.txs;
      if (traced && rep == 0) metrics_json = r.metrics_json;
    }
    m.mean_ms /= kReps;
    modes.push_back(m);
  }

  // Overhead vs the null-tracer baseline, on the min (least noisy) timing.
  const double base = modes[0].min_ms;
  std::printf("{\n  \"experiment\": \"e19_trace_overhead\",\n");
  std::printf("  \"horizon\": %.1f, \"nodes\": 4, \"reps\": %d, "
              "\"txs\": %llu,\n",
              kHorizon, kReps, static_cast<unsigned long long>(txs));
  std::printf("  \"perfetto_artifact\": \"%s\",\n", trace_path.c_str());
  std::printf("  \"modes\": [\n");
  for (std::size_t i = 0; i < modes.size(); ++i) {
    const Mode& m = modes[i];
    std::printf(
        "    {\"mode\": \"%s\", \"mean_ms\": %.3f, \"min_ms\": %.3f, "
        "\"events\": %llu, \"overhead_pct_vs_off\": %.2f}%s\n",
        m.name, m.mean_ms, m.min_ms,
        static_cast<unsigned long long>(m.events),
        base > 0.0 ? (m.min_ms - base) / base * 100.0 : 0.0,
        i + 1 < modes.size() ? "," : "");
  }
  std::printf("  ],\n");
  std::printf("  \"metrics_snapshot\": %s\n}\n",
              metrics_json.empty() ? "null" : metrics_json.c_str());
  return 0;
}

// E23 — streaming checker overhead and the O(window) retention bound.
//
// The streaming checkers (analysis/streaming.hpp) promise three things the
// post-hoc oracles cannot: violations while the run is still going, the
// same violation sets byte for byte, and bounded state. This bench runs
// one fixed partition-chaos workload (rewind-free, so bounded memory is
// sound) in four modes:
//
//   off                no observer attached — the fast path every other
//                      experiment runs with (baseline row);
//   streaming          full checker (condition (3)/(4), theorem 5 over all
//                      constraints, theorem 7), unbounded retention;
//   streaming-bounded  same checks with Options::bounded_memory: ledgers
//                      prune to the slowest replica's contiguous delivery
//                      point, shadows compact to each node's next-expected
//                      update;
//   streaming-byz      the byzantine_payload adversary armed on top
//                      (corrupt/duplicate/reorder at the receive path) —
//                      the run no longer converges, real violations and
//                      divergence events flow, and streaming must still
//                      match the oracles exactly.
//
// Per row: merged Cluster::metrics() across seeds (including the checker.*
// counters and latency histograms), e23.agrees — streaming reports
// identical to the post-hoc oracles on every run, the differential gate —
// and e23.window_bounded — the bounded row drained to a window-sized
// footprint. Everything inside "metrics" is a deterministic function of
// (mode, seed) and is gated by compare_bench.py e23 against
// bench/baselines/BENCH_e23.json. The JSON on stdout is a pure function of
// (mode, seeds) — wall-clock overhead is machine noise, so it goes to
// stderr and never enters the gated output.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/cost_bounds.hpp"
#include "analysis/execution_checker.hpp"
#include "analysis/streaming.hpp"
#include "apps/airline/airline.hpp"
#include "bench_json.hpp"
#include "harness/scenario.hpp"
#include "harness/workload.hpp"
#include "obs/metrics.hpp"
#include "shard/cluster.hpp"
#include "sim/fault_plan.hpp"

namespace {

namespace al = apps::airline;
using Air = al::BasicAirline<20, 900, 300>;
using Checker = analysis::StreamingChecker<Air>;

constexpr double kHorizon = 30.0;
constexpr std::size_t kNodes = 4;
constexpr std::size_t kTheorem7K = 2;

bool air_preserves(const al::Request& r, int c) {
  return Air::Theory::preserves_cost(r, c);
}
bool air_unsafe(const al::Request& r, int c) {
  return !Air::Theory::safe_for(r, c);
}
double air_f(int c, std::size_t k) { return Air::Theory::f_bound(c, k); }

Checker::Options full_options(bool bounded) {
  Checker::Options o;
  for (int c = 0; c < Air::kNumConstraints; ++c) {
    o.theorem5.push_back({c, air_preserves, air_f});
  }
  o.theorem7.push_back({Air::kOverbooking, air_unsafe, air_f, kTheorem7K});
  o.bounded_memory = bounded;
  return o;
}

std::vector<std::string> sorted(std::vector<std::string> v) {
  std::sort(v.begin(), v.end());
  return v;
}

/// Streaming reports vs the post-hoc oracles on one finished run: same
/// violation multisets, same violating transaction indices.
bool agrees_with_oracles(const core::Execution<Air>& exec, const Checker& ck) {
  if (ck.txs_finalized() != exec.size()) return false;
  if (ck.order_violations() != 0) return false;
  const analysis::CheckReport oracle =
      analysis::check_prefix_subsequence_condition(exec);
  if (sorted(oracle.violations()) != sorted(ck.prefix_report().violations()))
    return false;
  if (oracle.violating_txs() != ck.prefix_report().violating_txs())
    return false;
  for (int c = 0; c < Air::kNumConstraints; ++c) {
    const analysis::CheckReport t5 =
        analysis::check_theorem5(exec, c, air_preserves, air_f);
    if (sorted(t5.violations()) !=
        sorted(ck.theorem5_reports()[static_cast<std::size_t>(c)].violations()))
      return false;
  }
  const analysis::CheckReport t7 = analysis::check_theorem7(
      exec, Air::kOverbooking, air_unsafe, air_f, kTheorem7K);
  return sorted(t7.violations()) == sorted(ck.theorem7_reports()[0].violations());
}

struct Mode {
  const char* name;
  bool checker;
  bool bounded;
  bool byzantine;
};

constexpr Mode kModes[] = {
    {"off", false, false, false},
    {"streaming", true, false, false},
    {"streaming-bounded", true, true, false},
    {"streaming-byz", true, false, true},
};

struct Row {
  const char* mode;
  bool agrees = true;
  bool window_bounded = true;
  double wall_ms = 0.0;
  std::string metrics_json;
};

}  // namespace

int main() {
  const std::uint64_t kSeeds[] = {231, 232, 233};
  std::vector<Row> rows;

  for (const Mode& mode : kModes) {
    Row row;
    row.mode = mode.name;
    obs::MetricsRegistry reg;
    std::size_t retained_final = 0;
    const auto t0 = std::chrono::steady_clock::now();

    for (const std::uint64_t seed : kSeeds) {
      harness::Scenario sc = harness::wan(kNodes);
      // Rewind-free plan (partitions only), so bounded retention is sound
      // and all four modes replay the same failure shape.
      sc.faults = sim::FaultPlan(seed ^ 0x23);
      sc.faults.random_partitions(kNodes, kHorizon, 2);
      if (mode.byzantine) {
        sc.faults.byzantine_payload(/*corrupt=*/0.05, /*duplicate=*/0.05,
                                    /*reorder=*/0.05, 0.0, kHorizon);
      }
      shard::Cluster<Air> cluster(sc.cluster_config<Air>(seed ^ 0xe23));
      Checker ck(kNodes, full_options(mode.bounded));
      if (mode.checker) cluster.set_stream_observer(&ck);

      harness::AirlineWorkload w;
      w.duration = kHorizon;
      w.request_rate = 4.0;
      w.mover_rate = 4.0;
      w.cancel_fraction = 0.1;
      w.max_persons = 250;
      harness::drive_airline(cluster, w, seed ^ 0x5eed);

      cluster.run_until(kHorizon);
      if (mode.byzantine) {
        // Corrupted replicas never converge; drain in-flight wires instead.
        cluster.run_until(kHorizon + 20.0);
      } else {
        cluster.settle();
      }
      if (mode.checker) ck.finish(cluster.scheduler().now());

      const auto exec = cluster.execution();
      if (mode.checker) {
        row.agrees = row.agrees && agrees_with_oracles(exec, ck);
        retained_final += ck.retained_entries();
        if (mode.bounded) {
          // The O(window) claim: once settled and finalized, the checker
          // holds a window, not the history.
          row.window_bounded =
              row.window_bounded && ck.retained_entries() < 128;
        }
      } else {
        row.agrees =
            row.agrees &&
            analysis::check_prefix_subsequence_condition(exec).ok();
      }
      reg.add_counter("e23.txs", exec.size());
      reg.merge_from(cluster.metrics());
    }

    const auto t1 = std::chrono::steady_clock::now();
    row.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (mode.bounded) {
      // Re-check the peak against the merged counters: the bounded row's
      // shadow peak must undercut the history the unbounded row retains.
      row.window_bounded =
          row.window_bounded &&
          reg.counters().at("checker.peak_shadow_entries") <
              reg.counters().at("checker.txs_finalized");
    }
    reg.add_counter("e23.agrees", row.agrees ? 1 : 0);
    reg.add_counter("e23.window_bounded", row.window_bounded ? 1 : 0);
    reg.add_counter("e23.retained_final", retained_final);
    row.metrics_json = reg.to_json();
    rows.push_back(row);
  }

  const double off_ms = rows[0].wall_ms;
  std::printf("{\n  \"experiment\": \"e23_streaming_overhead\",\n");
  std::printf("  \"horizon\": %.1f, \"nodes\": %zu, \"seeds\": %zu,\n",
              kHorizon, kNodes, std::size(kSeeds));
  std::printf("  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::printf("    {\"mode\": \"%s\", \"agrees\": %s, "
                "\"window_bounded\": %s,\n",
                r.mode, r.agrees ? "true" : "false",
                r.window_bounded ? "true" : "false");
    std::fprintf(stderr, "# mode=%s wall_ms=%.2f overhead_pct_vs_off=%.2f\n",
                 r.mode, r.wall_ms,
                 off_ms > 0.0 ? 100.0 * (r.wall_ms - off_ms) / off_ms : 0.0);
    std::printf("     \"metrics\":\n");
    print_indented(r.metrics_json, "      ");
    std::printf("\n    }%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
  return 0;
}

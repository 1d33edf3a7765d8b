// E20 — per-transaction substrate cost vs run length (the O(history) →
// O(window) tentpole, measured).
//
// Before prefix interning, incremental checkpointing, and bounded repair,
// three hot paths scaled with total history: every submit copied the full
// known-timestamp set into its Record (O(n) time and retained memory per
// transaction), compaction rebuilt checkpoint prefixes by replay, and the
// repair store retained every wire message ever seen. This harness drives
// one long-running cluster at three run lengths (10k / 100k / 1M submits
// by default) under the full window-bounded configuration — compaction on,
// geometric checkpoint bound, repair-store pruning, capped repair batches —
// and reports:
//
//  * per-submit wall time, overall and for the first vs last decile of the
//    run (tail_ratio ~ 1.0 is the flatness claim; O(history) code makes the
//    last decile arbitrarily slower than the first);
//  * retained-footprint counters from Cluster::metrics() — log entries,
//    checkpoints, repair-store messages, prefix slots — which are exactly
//    reproducible for a given (seed, scale) and gate the CI regression;
//  * slots_per_record, the retained-timestamp RSS proxy (~ #nodes,
//    independent of run length; the old representation retained ~n/2
//    timestamps per record).
//
// Emits one JSON document (BENCH_e20.json in CI); bench/compare_bench.py
// diffs it against bench/baselines/BENCH_e20.json.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "apps/airline/airline.hpp"
#include "bench_json.hpp"
#include "harness/scenario.hpp"
#include "shard/cluster.hpp"

namespace {

namespace al = apps::airline;
using Air = al::BasicAirline<100, 900, 300>;
using Clock = std::chrono::steady_clock;

struct Point {
  std::size_t n = 0;
  double wall_seconds = 0.0;
  double per_submit_us = 0.0;
  double first_decile_us = 0.0;
  double last_decile_us = 0.0;
  double tail_ratio = 0.0;
  double slots_per_record = 0.0;
  std::string metrics_json;
};

/// One run: `n` submissions round-robined over a 3-node LAN at 1 kHz of
/// simulated time, with every window-bounding mechanism enabled. Returns
/// wall-clock timing of the submit loop (scheduler drain included — that IS
/// the substrate cost) plus the end-of-run metrics snapshot.
Point run_scale(std::size_t n) {
  harness::Scenario sc = harness::lan(3);
  sc.name = "e20";
  sc.broadcast.anti_entropy_interval = 0.5;
  sc.compaction = true;
  sc.checkpoint_interval = 32;
  sc.max_checkpoints = 12;
  sc.broadcast.prune_repair_store = true;
  sc.broadcast.max_repairs_per_message = 64;
  shard::Cluster<Air> cluster(sc.cluster_config<Air>(0xe20));

  // Deterministic request/cancel cycle over a bounded person population:
  // state size stays constant, so the apply cost cannot mask a substrate
  // trend.
  const auto request_for = [](std::size_t i) {
    const auto p = static_cast<al::Person>(i % 400 + 1);
    return (i / 400) % 2 == 0 ? al::Request::request(p)
                              : al::Request::cancel(p);
  };

  Point pt;
  pt.n = n;
  const std::size_t decile = n / 10;
  std::vector<double> decile_seconds;
  double t = 0.0;
  const auto t0 = Clock::now();
  auto decile_start = t0;
  for (std::size_t i = 0; i < n; ++i) {
    cluster.submit_now(static_cast<core::NodeId>(i % 3), request_for(i));
    t += 0.001;
    cluster.run_until(t);
    if (decile != 0 && (i + 1) % decile == 0) {
      const auto now = Clock::now();
      decile_seconds.push_back(
          std::chrono::duration<double>(now - decile_start).count());
      decile_start = now;
    }
  }
  pt.wall_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  pt.per_submit_us = pt.wall_seconds / static_cast<double>(n) * 1e6;
  if (decile_seconds.size() >= 2) {
    pt.first_decile_us =
        decile_seconds.front() / static_cast<double>(decile) * 1e6;
    pt.last_decile_us =
        decile_seconds.back() / static_cast<double>(decile) * 1e6;
    pt.tail_ratio = pt.first_decile_us > 0.0
                        ? pt.last_decile_us / pt.first_decile_us
                        : 0.0;
  }

  // Retention snapshot at quiescence (settle excluded from the timing: it
  // is teardown, not per-transaction cost).
  cluster.settle();
  obs::MetricsRegistry reg = cluster.metrics();
  pt.slots_per_record =
      static_cast<double>(reg.counters().at("retained.prefix_slots")) /
      static_cast<double>(cluster.total_originated());
  reg.set_gauge("e20.per_submit_us", pt.per_submit_us);
  reg.set_gauge("e20.tail_ratio", pt.tail_ratio);
  reg.set_gauge("e20.slots_per_record", pt.slots_per_record);
  pt.metrics_json = reg.to_json();
  return pt;
}

}  // namespace

int main(int argc, char** argv) {
  // --quick: 1k/5k/20k submits. CI runs this ladder, and the committed
  // baseline was made with it; the full ladder is for local scaling runs.
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  const std::vector<std::size_t> scales =
      quick ? std::vector<std::size_t>{1'000, 5'000, 20'000}
            : std::vector<std::size_t>{10'000, 100'000, 1'000'000};

  std::vector<Point> points;
  for (const std::size_t n : scales) points.push_back(run_scale(n));

  const double flatness =
      points.front().per_submit_us > 0.0
          ? points.back().per_submit_us / points.front().per_submit_us
          : 0.0;

  std::printf("{\n  \"experiment\": \"e20_submit_scaling\",\n");
  std::printf("  \"nodes\": 3, \"quick\": %s,\n", quick ? "true" : "false");
  std::printf("  \"flatness_ratio\": %.4f,\n", flatness);
  std::printf("  \"points\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    std::printf("    {\"n\": %zu, \"wall_seconds\": %.3f, "
                "\"per_submit_us\": %.3f, \"first_decile_us\": %.3f, "
                "\"last_decile_us\": %.3f, \"tail_ratio\": %.4f, "
                "\"slots_per_record\": %.4f,\n",
                p.n, p.wall_seconds, p.per_submit_us, p.first_decile_us,
                p.last_decile_us, p.tail_ratio, p.slots_per_record);
    std::printf("     \"metrics\":\n");
    print_indented(p.metrics_json, "      ");
    std::printf("\n    }%s\n", i + 1 < points.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
  return 0;
}

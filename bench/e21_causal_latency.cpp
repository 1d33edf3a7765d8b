// E21 — replication-path latency breakdown and causal-graph overhead.
//
// The causal layer (obs/causal.hpp) turns the flat event stream into
// happens-before structure; this bench measures both what it REVEALS and
// what it COSTS. Revealed: the per-stage provenance breakdown of every
// update's replication path — originate -> first remote deliver -> last
// replica deliver -> merge, plus the out-of-order (mid-insert) latency
// tail and the flood fan-out degree — as the causal.* histograms from
// Cluster::metrics(). Cost: wall time to build the CausalGraph over the
// complete stream, its edge census by kind, and the validator's verdict
// (which must be clean on every seed: acyclic, no orphans, complete
// chains).
//
// Output: one JSON document, per-seed graph stats plus the merged metrics
// registry (counters/gauges summed, histograms merged bucket-wise across
// seeds) with derived e21.* per-stage quantile gauges — the
// machine-readable per-stage breakdown. The JSON on stdout is a pure
// function of the seeds; the graph build's wall time is machine noise, so
// it goes to stderr.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/airline/airline.hpp"
#include "bench_json.hpp"
#include "harness/scenario.hpp"
#include "harness/workload.hpp"
#include "obs/causal.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "shard/cluster.hpp"
#include "sim/fault_plan.hpp"

namespace {

namespace al = apps::airline;
using Air = al::BasicAirline<20, 900, 300>;

constexpr double kHorizon = 20.0;

struct SeedResult {
  std::uint64_t seed = 0;
  std::size_t events = 0;
  std::size_t edges = 0;
  std::size_t edges_by_kind[4] = {0, 0, 0, 0};
  double build_ms = 0.0;
  bool clean = true;
};

}  // namespace

int main() {
  const std::uint64_t kSeeds[] = {0xE21A, 0xE21B, 0xE21C};
  std::vector<SeedResult> per_seed;
  obs::MetricsRegistry reg;

  for (const std::uint64_t seed : kSeeds) {
    // The canonical crash-chaos shape (partition + two crashes, one
    // amnesia) the chaos tiers and E19 use.
    harness::Scenario sc = harness::wan(4);
    sc.faults.split_halves(4, 2, 6.0, 10.0)
        .crash(1, 3.0, 6.5, sim::RecoveryMode::kDurable)
        .crash(3, 8.0, 11.0, sim::RecoveryMode::kAmnesia);
    sc.trace.enabled = true;

    shard::Cluster<Air> cluster(sc.cluster_config<Air>(seed));
    obs::VectorSink capture;
    cluster.tracer()->add_sink(&capture);
    harness::AirlineWorkload w;
    w.duration = kHorizon;
    w.request_rate = 6.0;
    w.mover_rate = 4.0;
    w.cancel_fraction = 0.15;
    w.max_persons = 250;
    harness::drive_airline(cluster, w, seed ^ 0x5EED);
    cluster.run_until(kHorizon);
    cluster.settle();

    SeedResult r;
    r.seed = seed;
    r.events = capture.events().size();
    const auto t0 = std::chrono::steady_clock::now();
    const obs::CausalGraph graph = obs::CausalGraph::build(capture.events());
    const auto t1 = std::chrono::steady_clock::now();
    r.build_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    r.edges = graph.edges().size();
    for (const obs::CausalEdge& e : graph.edges()) {
      ++r.edges_by_kind[static_cast<std::size_t>(e.kind)];
    }
    r.clean = graph.validate().ok();
    per_seed.push_back(r);

    reg.merge_from(cluster.metrics());
  }

  // Derived per-stage quantiles from the merged causal histograms — the
  // replication path, stage by stage.
  for (const char* stage :
       {"causal.first_deliver_latency", "causal.deliver_latency",
        "causal.last_deliver_latency", "causal.mid_insert_latency",
        "causal.fanout_degree"}) {
    const obs::Histogram& h = reg.histograms().at(stage);
    reg.set_gauge(std::string(stage) + ".p50", h.quantile_bound(0.5));
    reg.set_gauge(std::string(stage) + ".p99", h.quantile_bound(0.99));
    reg.set_gauge(std::string(stage) + ".mean", h.mean());
  }

  bool all_clean = true;
  std::printf("{\n  \"experiment\": \"e21_causal_latency\",\n");
  std::printf("  \"horizon\": %.1f, \"nodes\": 4, \"seeds\": %zu,\n",
              kHorizon, std::size(kSeeds));
  std::printf("  \"graph\": [\n");
  for (std::size_t i = 0; i < per_seed.size(); ++i) {
    const SeedResult& r = per_seed[i];
    all_clean = all_clean && r.clean;
    std::printf(
        "    {\"seed\": %llu, \"events\": %zu, \"edges\": %zu, "
        "\"program\": %zu, \"message\": %zu, \"replicate\": %zu, "
        "\"merge\": %zu, \"clean\": %s}%s\n",
        static_cast<unsigned long long>(r.seed), r.events, r.edges,
        r.edges_by_kind[0], r.edges_by_kind[1], r.edges_by_kind[2],
        r.edges_by_kind[3], r.clean ? "true" : "false",
        i + 1 < per_seed.size() ? "," : "");
    std::fprintf(stderr, "# seed=%llu build_ms=%.3f\n",
                 static_cast<unsigned long long>(r.seed), r.build_ms);
  }
  std::printf("  ],\n");
  std::printf("  \"all_clean\": %s,\n", all_clean ? "true" : "false");
  std::printf("  \"metrics\":\n");
  print_indented(reg.to_json(), "    ");
  std::printf("\n}\n");
  return all_clean ? 0 : 1;
}

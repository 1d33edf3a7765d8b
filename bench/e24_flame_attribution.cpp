// E24 — epoch-aware flame attribution and the sharded tracer's stream.
//
// Two claims are gated here. First, attribution: segmenting the canonical
// crash-chaos run into partition epochs and folding every update's causal
// chain into stage-weighted flame trees (obs/epoch.hpp + obs/flame.hpp)
// yields deterministic numbers — same (seed, config), same epoch census,
// same stage weights, same folded-stack bytes — so the latency-attribution
// pipeline itself is pinned against its committed baseline. Second, the
// stream: the per-node tracer's k-way ring merge must reconstruct the sink
// capture byte for byte, and each seed's capture is pinned by its
// obs::digest (trace_digest, gated exactly against the baseline).
//
// Output: one JSON document — per-seed attribution census + stream
// digest and booleans + the merged metrics registry (the epoch.* family
// included).
// The stdout JSON is a pure function of the seeds (the repo-wide
// determinism probe runs this twice and cmp's); wall-clock flame-tree
// build times go to stderr and are never gated. With an argument, writes
// per-seed folded stacks and Perfetto slices into that directory (the CI
// artifacts).
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "apps/airline/airline.hpp"
#include "bench_json.hpp"
#include "harness/scenario.hpp"
#include "harness/workload.hpp"
#include "obs/causal.hpp"
#include "obs/epoch.hpp"
#include "obs/flame.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "shard/cluster.hpp"
#include "sim/fault_plan.hpp"

namespace {

namespace al = apps::airline;
using Air = al::BasicAirline<20, 900, 300>;

constexpr double kHorizon = 20.0;

/// The canonical crash-chaos shape (partition + two crashes, one amnesia)
/// the chaos tiers, E19, E21 and trace_diff all use.
harness::Scenario canonical() {
  harness::Scenario sc = harness::wan(4);
  sc.faults.split_halves(4, 2, 6.0, 10.0)
      .crash(1, 3.0, 6.5, sim::RecoveryMode::kDurable)
      .crash(3, 8.0, 11.0, sim::RecoveryMode::kAmnesia);
  sc.trace.enabled = true;
  sc.trace.ring_capacity = 1 << 15;
  return sc;
}

struct Run {
  std::vector<obs::Event> capture;  ///< full stream via sink
  std::vector<obs::Event> merged;   ///< tracer()->ring()
  obs::MetricsRegistry metrics;
};

Run run_once(std::uint64_t seed) {
  harness::Scenario sc = canonical();
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
  Run r;
  r.capture = capture.events();
  r.merged = cluster.tracer()->ring();
  r.metrics = cluster.metrics();
  return r;
}

struct SeedResult {
  std::uint64_t seed = 0;
  std::size_t events = 0;
  std::size_t epochs = 0;
  std::uint64_t transitions = 0;
  std::uint64_t coalesced = 0;
  std::size_t updates_profiled = 0;
  std::size_t updates_complete = 0;
  std::size_t folded_bytes = 0;
  std::uint64_t trace_digest = 0;       ///< obs::digest of the capture
  bool merged_matches_capture = false;  ///< k-way merge == record order
  bool clean = true;                    ///< causal validator verdict
};

}  // namespace

int main(int argc, char** argv) {
  const std::string artifact_dir = argc > 1 ? argv[1] : "";
  const std::uint64_t kSeeds[] = {0xE24A, 0xE24B, 0xE24C};
  std::vector<SeedResult> rows;
  obs::MetricsRegistry reg;

  for (const std::uint64_t seed : kSeeds) {
    const Run run = run_once(seed);

    SeedResult r;
    r.seed = seed;
    r.events = run.capture.size();
    r.trace_digest = obs::digest(run.capture);
    // The k-way ring merge must reconstruct the global record order.
    r.merged_matches_capture =
        obs::serialize(run.merged) == obs::serialize(run.capture);

    const auto t0 = std::chrono::steady_clock::now();
    const obs::EpochIndex epochs = obs::EpochIndex::build(run.capture);
    const obs::CausalGraph graph = obs::CausalGraph::build(run.capture);
    const obs::FlameProfile flame =
        obs::FlameProfile::build(run.capture, graph, epochs);
    const auto t1 = std::chrono::steady_clock::now();
    // Wall clock: stderr only, so stdout stays seed-deterministic.
    std::fprintf(stderr, "seed %llx: flame build %.3f ms\n",
                 static_cast<unsigned long long>(seed),
                 std::chrono::duration<double, std::milli>(t1 - t0).count());
    r.clean = graph.validate().ok();
    r.epochs = epochs.size();
    r.transitions = epochs.transitions();
    r.coalesced = epochs.coalesced();
    r.updates_profiled = flame.timings().size();
    for (const obs::UpdateTiming& ut : flame.timings()) {
      if (ut.complete) ++r.updates_complete;
    }
    const std::string folded = flame.folded();
    r.folded_bytes = folded.size();
    rows.push_back(r);
    reg.merge_from(run.metrics);

    if (!artifact_dir.empty()) {
      char name[64];
      std::snprintf(name, sizeof name, "/e24_seed%llx.folded",
                    static_cast<unsigned long long>(seed));
      std::ofstream(artifact_dir + name, std::ios::binary) << folded;
      std::snprintf(name, sizeof name, "/e24_seed%llx.perfetto.json",
                    static_cast<unsigned long long>(seed));
      std::ofstream(artifact_dir + name, std::ios::binary)
          << flame.perfetto_json();
    }
  }

  bool all_ok = true;
  std::printf("{\n  \"experiment\": \"e24_flame_attribution\",\n");
  std::printf("  \"horizon\": %.1f, \"nodes\": 4, \"seeds\": %zu,\n",
              kHorizon, std::size(kSeeds));
  std::printf("  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SeedResult& r = rows[i];
    all_ok = all_ok && r.merged_matches_capture && r.clean;
    std::printf(
        "    {\"seed\": %llu, \"events\": %zu, \"epochs\": %zu, "
        "\"transitions\": %llu, \"coalesced\": %llu, "
        "\"updates_profiled\": %zu, \"updates_complete\": %zu, "
        "\"folded_bytes\": %zu, \"trace_digest\": \"0x%016llx\", "
        "\"merged_matches_capture\": %s, \"clean\": %s}%s\n",
        static_cast<unsigned long long>(r.seed), r.events, r.epochs,
        static_cast<unsigned long long>(r.transitions),
        static_cast<unsigned long long>(r.coalesced), r.updates_profiled,
        r.updates_complete, r.folded_bytes,
        static_cast<unsigned long long>(r.trace_digest),
        r.merged_matches_capture ? "true" : "false",
        r.clean ? "true" : "false",
        i + 1 < rows.size() ? "," : "");
  }
  std::printf("  ],\n");
  std::printf("  \"all_ok\": %s,\n", all_ok ? "true" : "false");
  std::printf("  \"metrics\":\n");
  print_indented(reg.to_json(), "    ");
  std::printf("\n}\n");
  return all_ok ? 0 : 1;
}

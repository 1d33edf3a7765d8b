// E26 — violation forensics: incident bundles, metrics series, flame diff.
//
// The forensics pipeline end to end, gated: the canonical crash-chaos
// scenario (E24's shape) plus a Byzantine payload adversary produces real
// streaming-checker violations; every one is assembled into an
// epoch-attributed incident bundle (obs/incident.hpp via the
// analysis-layer wiring). Three claims are pinned:
//
//   * determinism — the full bundle byte image (JSON + folded stacks +
//     rendering) is a pure function of (seed, config): two independent
//     runs of the same seed must agree byte for byte, which is what lets
//     CI upload a bundle as a stable artifact;
//   * attribution — every in-stream incident's ADMITTED epoch contains
//     its originate event, and detection never precedes admission;
//   * triage closure — FlameDiff of a run's profile against itself is
//     empty (the flame_diff tool's exit-0 direction), and the per-epoch
//     metrics series covers exactly the fault plan's boundary census.
//
// Output: one JSON document — per-seed forensic census + exact boolean
// gates + the merged checker.*/epoch.* registry. Stdout is a pure function
// of the seeds (wall clock goes to stderr). With an argument, writes each
// seed's bundle JSON and folded stacks into that directory (CI artifacts).
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/incident.hpp"
#include "analysis/streaming.hpp"
#include "apps/airline/airline.hpp"
#include "bench_json.hpp"
#include "harness/scenario.hpp"
#include "harness/workload.hpp"
#include "obs/causal.hpp"
#include "obs/epoch.hpp"
#include "obs/flame.hpp"
#include "obs/flame_diff.hpp"
#include "obs/incident.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "shard/cluster.hpp"
#include "sim/fault_plan.hpp"

namespace {

namespace al = apps::airline;
using Air = al::BasicAirline<20, 900, 300>;

constexpr double kHorizon = 20.0;

/// E24's canonical crash-chaos shape with a Byzantine corruption overlay:
/// the adversary substitutes payloads at the receive path, so the
/// streaming checker has real violations to seed bundles from.
harness::Scenario canonical() {
  harness::Scenario sc = harness::wan(4);
  sc.faults.split_halves(4, 2, 6.0, 10.0)
      .crash(1, 3.0, 6.5, sim::RecoveryMode::kDurable)
      .crash(3, 8.0, 11.0, sim::RecoveryMode::kAmnesia)
      .byzantine_payload(/*corrupt=*/0.25, 0.0, 0.0, 0.0, 1e18);
  sc.trace.enabled = true;
  sc.trace.ring_capacity = 1 << 15;
  sc.metrics_series = true;
  return sc;
}

struct Run {
  std::string bundle_bytes;  ///< to_json + folded + render, concatenated
  std::string bundle_json;   ///< to_json alone (the artifact)
  std::string folded;        ///< folded stacks alone (the artifact)
  std::size_t events = 0;
  std::size_t epochs = 0;
  std::size_t incidents = 0;
  std::size_t in_stream = 0;
  std::size_t contributors = 0;
  std::size_t series_samples = 0;
  bool attribution_ok = true;
  bool self_diff_clean = false;
  obs::MetricsRegistry metrics;
};

Run run_once(std::uint64_t seed) {
  harness::Scenario sc = canonical();
  shard::Cluster<Air> cluster(sc.cluster_config<Air>(seed));
  obs::VectorSink capture;
  cluster.tracer()->add_sink(&capture);
  analysis::StreamingChecker<Air> ck(4);
  cluster.set_stream_observer(&ck);
  harness::AirlineWorkload w;
  w.duration = kHorizon;
  w.request_rate = 6.0;
  w.mover_rate = 4.0;
  w.cancel_fraction = 0.15;
  w.max_persons = 250;
  harness::drive_airline(cluster, w, seed ^ 0x5EED);
  // No settle(): corrupted replicas may never converge; a fixed drain
  // window keeps the horizon — and the trace — deterministic.
  cluster.run_until(kHorizon);
  cluster.run_until(kHorizon + 5.0);
  ck.finish(cluster.scheduler().now());

  Run r;
  r.metrics = cluster.metrics();
  r.events = capture.events().size();
  r.series_samples = cluster.metrics_series().size();

  const auto t0 = std::chrono::steady_clock::now();
  const obs::IncidentReport bundle =
      analysis::build_incident_report(ck, capture.events(), &r.metrics);
  const auto t1 = std::chrono::steady_clock::now();
  std::fprintf(stderr, "seed %llx: bundle build %.3f ms, %zu incident(s)\n",
               static_cast<unsigned long long>(seed),
               std::chrono::duration<double, std::milli>(t1 - t0).count(),
               bundle.incidents().size());

  r.epochs = bundle.epochs().size();
  r.incidents = bundle.incidents().size();
  for (const obs::Incident& inc : bundle.incidents()) {
    if (!inc.in_stream) continue;
    ++r.in_stream;
    r.contributors += inc.contributors.size();
    // The admission anchor (the chain's originate event, else its earliest
    // retained event) must fall inside the span of the blamed epoch, and
    // detection must not precede admission.
    const obs::Event* anchor = &inc.chain.front();
    for (const obs::Event& e : inc.chain) {
      if (e.type == obs::EventType::kBroadcastOriginate) {
        anchor = &e;
        break;
      }
    }
    const obs::Epoch& adm = bundle.epochs().epoch(inc.admitted_epoch);
    if (anchor->time < adm.start) r.attribution_ok = false;
    if (inc.admitted_epoch + 1 < bundle.epochs().size() &&
        anchor->time > adm.end) {
      r.attribution_ok = false;
    }
    if (inc.detected_epoch < inc.admitted_epoch) r.attribution_ok = false;
  }

  // Triage closure: a profile diffed against itself is empty — the
  // flame_diff tool's same-seed CI direction, pinned at the library layer.
  const obs::EpochIndex epochs = obs::EpochIndex::build(capture.events());
  const obs::CausalGraph graph = obs::CausalGraph::build(capture.events());
  const obs::FlameProfile flame =
      obs::FlameProfile::build(capture.events(), graph, epochs);
  r.self_diff_clean = !obs::FlameDiff::build(flame, flame).differs();

  r.bundle_json = bundle.to_json();
  r.folded = bundle.folded();
  r.bundle_bytes = r.bundle_json + "\n===\n" + r.folded + "\n===\n" +
                   bundle.render();
  return r;
}

struct SeedResult {
  std::uint64_t seed = 0;
  Run run;
  bool deterministic = false;  ///< both runs' bundle bytes identical
};

}  // namespace

int main(int argc, char** argv) {
  const std::string artifact_dir = argc > 1 ? argv[1] : "";
  const std::uint64_t kSeeds[] = {0xE26A, 0xE26B, 0xE26C};
  std::vector<SeedResult> rows;
  obs::MetricsRegistry reg;

  for (const std::uint64_t seed : kSeeds) {
    SeedResult r;
    r.seed = seed;
    r.run = run_once(seed);
    const Run again = run_once(seed);
    r.deterministic = r.run.bundle_bytes == again.bundle_bytes;
    reg.merge_from(r.run.metrics);

    if (!artifact_dir.empty()) {
      char name[64];
      std::snprintf(name, sizeof name, "/e26_seed%llx.incident.json",
                    static_cast<unsigned long long>(seed));
      std::ofstream(artifact_dir + name, std::ios::binary) << r.run.bundle_json;
      std::snprintf(name, sizeof name, "/e26_seed%llx.folded",
                    static_cast<unsigned long long>(seed));
      std::ofstream(artifact_dir + name, std::ios::binary) << r.run.folded;
    }
    rows.push_back(std::move(r));
  }

  bool all_ok = true;
  std::printf("{\n  \"experiment\": \"e26_incident_forensics\",\n");
  std::printf("  \"horizon\": %.1f, \"nodes\": 4, \"seeds\": %zu,\n",
              kHorizon, std::size(kSeeds));
  std::printf("  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SeedResult& r = rows[i];
    all_ok = all_ok && r.deterministic && r.run.attribution_ok &&
             r.run.self_diff_clean;
    std::printf(
        "    {\"seed\": %llu, \"events\": %zu, \"epochs\": %zu, "
        "\"incidents\": %zu, \"in_stream\": %zu, \"contributors\": %zu, "
        "\"series_samples\": %zu, \"bundle_json_bytes\": %zu, "
        "\"folded_bytes\": %zu, \"bundle_deterministic\": %s, "
        "\"attribution_ok\": %s, \"self_diff_clean\": %s}%s\n",
        static_cast<unsigned long long>(r.seed), r.run.events, r.run.epochs,
        r.run.incidents, r.run.in_stream, r.run.contributors,
        r.run.series_samples, r.run.bundle_json.size(), r.run.folded.size(),
        r.deterministic ? "true" : "false",
        r.run.attribution_ok ? "true" : "false",
        r.run.self_diff_clean ? "true" : "false",
        i + 1 < rows.size() ? "," : "");
  }
  std::printf("  ],\n");
  std::printf("  \"all_ok\": %s,\n", all_ok ? "true" : "false");
  std::printf("  \"metrics\":\n");
  print_indented(reg.to_json(), "    ");
  std::printf("\n}\n");
  return all_ok ? 0 : 1;
}

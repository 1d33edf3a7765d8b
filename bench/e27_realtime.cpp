// E27 — real-runtime execution backend: threaded workers vs the DES.
//
// The same Node/broadcast code runs on both execution backends behind
// runtime::Executor / runtime::Transport; only the backend differs. The
// workload is identical on both sides (seeded random inserts into the
// dictionary app across three replicas, 0.2–2 ms bus delays, 5% drops,
// 20 ms anti-entropy). Two claims are pinned:
//
//   * determinism survives the port — the DES row's merged trace stream is
//     byte-identical across two independent runs of the same seed, the
//     replica states agree, and the checker stack is clean;
//   * the threaded backend is correct WITHOUT determinism — every seeded
//     run on real threads and real clocks converges, passes the full
//     oracle stack on the assembled execution, and satisfies the
//     send/fate shutdown contract on the merged trace shards
//     (runtime::validate_message_fates).
//
// Wall-clock throughput on both sides is reported but never gated: the
// DES burns through simulated seconds as fast as one core allows, while
// the threaded bus pays its configured delays in real time — the contrast
// is the point of the experiment, not a regression signal. The gates are
// the exact booleans plus the DES row's deterministic counters.
//
// Output: one JSON document (stdout). Unlike earlier experiments the
// threaded rows are inherently nondeterministic — their message counts
// and wall times vary run to run — so only the boolean gates and the DES
// counters are baseline-compared (bench/compare_bench.py e27).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/execution_checker.hpp"
#include "apps/dictionary/dictionary.hpp"
#include "bench_json.hpp"
#include "harness/scenario.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "runtime/realtime_cluster.hpp"
#include "runtime/validate.hpp"
#include "shard/cluster.hpp"
#include "sim/delay.hpp"
#include "sim/rng.hpp"

namespace {

using Dict = apps::dictionary::Dictionary;
using DictRequest = apps::dictionary::Request;

constexpr std::uint64_t kUpdates = 400;
constexpr std::size_t kNodes = 3;
constexpr double kSubmitWindow = 10.0;  ///< DES: submits spread over [0, w)
constexpr double kDesHorizon = 12.0;

/// The seeded insert workload, identical on both backends: who gets
/// update k and what it writes is a pure function of (seed, k).
DictRequest nth_request(std::uint64_t seed, std::uint64_t k) {
  return DictRequest::insert(
      static_cast<apps::dictionary::Key>(k % 11),
      "e27-" + std::to_string(seed) + "-" + std::to_string(k));
}

// --------------------------------------------------------------------------
// DES side: deterministic reference
// --------------------------------------------------------------------------

struct DesRun {
  std::string trace;
  std::vector<Dict::State> states;
  std::size_t events = 0;
  bool checker_clean = false;
  double wall_seconds = 0.0;
  obs::MetricsRegistry metrics;
};

DesRun run_des(std::uint64_t seed) {
  harness::Scenario sc;
  sc.num_nodes = kNodes;
  sc.network.delay = sim::Delay::uniform(0.0002, 0.002);
  sc.network.drop_probability = 0.05;
  sc.broadcast.anti_entropy_interval = 0.02;
  sc.trace.enabled = true;
  sc.trace.ring_capacity = 1 << 18;
  const auto t0 = std::chrono::steady_clock::now();
  shard::Cluster<Dict> cluster(sc.cluster_config<Dict>(seed));
  obs::VectorSink capture;
  cluster.tracer()->add_sink(&capture);
  sim::Rng rng(seed ^ 0x5eed);
  for (std::uint64_t k = 0; k < kUpdates; ++k) {
    const auto node = static_cast<core::NodeId>(
        rng.uniform_int(0, static_cast<int>(kNodes) - 1));
    cluster.submit_at(rng.uniform(0.0, kSubmitWindow), node,
                      nth_request(seed, k));
  }
  cluster.run_until(kDesHorizon);
  cluster.settle();
  DesRun r;
  r.wall_seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  r.trace = obs::serialize(capture.events());
  r.events = capture.events().size();
  r.metrics = cluster.metrics();
  for (std::size_t n = 0; n < kNodes; ++n) {
    r.states.push_back(cluster.node(static_cast<core::NodeId>(n)).state());
  }
  const core::Execution<Dict> exec = cluster.execution();
  r.checker_clean = analysis::check_prefix_subsequence_condition(exec).ok() &&
                    analysis::is_transitive(exec) && cluster.converged() &&
                    cluster.node(0).state() == exec.final_state();
  return r;
}

// --------------------------------------------------------------------------
// Threaded side: real threads, post-hoc validation
// --------------------------------------------------------------------------

struct ThreadedRun {
  bool converged = false;
  bool checker_clean = false;
  bool fates_ok = false;
  std::uint64_t sends = 0;
  std::uint64_t resolved = 0;
  std::size_t events = 0;
  double wall_seconds = 0.0;  ///< submit-start to convergence (wall clock)
};

ThreadedRun run_threaded(std::uint64_t seed) {
  runtime::RealtimeConfig cfg;
  cfg.num_nodes = kNodes;
  cfg.seed = seed;
  cfg.broadcast.anti_entropy_interval = 0.02;
  cfg.broadcast.anti_entropy_jitter = 0.005;
  cfg.bus.min_delay = 0.0002;
  cfg.bus.max_delay = 0.002;
  cfg.bus.drop_probability = 0.05;
  cfg.ring_capacity = 1 << 17;
  runtime::RealtimeCluster<Dict> rc(cfg);
  sim::Rng rng(seed ^ 0x5eed);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t k = 0; k < kUpdates; ++k) {
    const auto node = static_cast<core::NodeId>(
        rng.uniform_int(0, static_cast<int>(kNodes) - 1));
    rc.submit(node, nth_request(seed, k));
  }
  ThreadedRun r;
  r.converged = rc.await_convergence(/*timeout_s=*/120.0, kUpdates);
  r.wall_seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  rc.shutdown();
  const core::Execution<Dict> exec = rc.execution();
  r.checker_clean = rc.converged() &&
                    analysis::check_prefix_subsequence_condition(exec).ok() &&
                    analysis::is_transitive(exec) &&
                    rc.node(0).state() == exec.final_state();
  const runtime::FateValidation fates = rc.validate_fates();
  r.fates_ok = fates.ok() && fates.sends > 0;
  r.sends = fates.sends;
  r.resolved = fates.resolved;
  r.events = rc.trace().size();
  return r;
}

}  // namespace

int main() {
  const std::uint64_t kDesSeed = 0xE27;
  const std::uint64_t kThreadedSeeds[] = {0xE27A, 0xE27B, 0xE27C};

  // DES reference: run the seed twice; stdout's deterministic half is a
  // pure function of the seed, wall clock goes to stderr and the info
  // fields.
  const DesRun des_a = run_des(kDesSeed);
  const DesRun des_b = run_des(kDesSeed);
  bool des_deterministic = des_a.trace == des_b.trace &&
                           des_a.states.size() == des_b.states.size();
  if (des_deterministic) {
    for (std::size_t n = 0; n < des_a.states.size(); ++n) {
      des_deterministic =
          des_deterministic && des_a.states[n] == des_b.states[n];
    }
  }
  std::fprintf(stderr, "des: %.3f s wall (%zu trace events)\n",
               des_a.wall_seconds, des_a.events);

  std::vector<ThreadedRun> threaded;
  for (const std::uint64_t seed : kThreadedSeeds) {
    threaded.push_back(run_threaded(seed));
    std::fprintf(stderr, "threaded seed %llx: %.3f s wall, %llu sends\n",
                 static_cast<unsigned long long>(seed),
                 threaded.back().wall_seconds,
                 static_cast<unsigned long long>(threaded.back().sends));
  }

  bool all_ok = des_deterministic && des_a.checker_clean;
  for (const ThreadedRun& r : threaded) {
    all_ok = all_ok && r.converged && r.checker_clean && r.fates_ok;
  }

  std::printf("{\n  \"experiment\": \"e27_realtime\",\n");
  std::printf("  \"nodes\": %zu, \"updates\": %llu,\n", kNodes,
              static_cast<unsigned long long>(kUpdates));
  std::printf(
      "  \"des\": {\"seed\": %llu, \"deterministic\": %s, "
      "\"checker_clean\": %s, \"trace_events\": %zu,\n"
      "          \"wall_seconds\": %.4f, \"updates_per_wall_s\": %.1f},\n",
      static_cast<unsigned long long>(kDesSeed),
      des_deterministic ? "true" : "false",
      des_a.checker_clean ? "true" : "false", des_a.events,
      des_a.wall_seconds,
      static_cast<double>(kUpdates) / des_a.wall_seconds);
  std::printf("  \"threaded\": [\n");
  for (std::size_t i = 0; i < threaded.size(); ++i) {
    const ThreadedRun& r = threaded[i];
    std::printf(
        "    {\"seed\": %llu, \"converged\": %s, \"checker_clean\": %s, "
        "\"fates_ok\": %s, \"sends\": %llu, \"resolved\": %llu, "
        "\"trace_events\": %zu, \"wall_seconds\": %.4f, "
        "\"updates_per_wall_s\": %.1f}%s\n",
        static_cast<unsigned long long>(kThreadedSeeds[i]),
        r.converged ? "true" : "false", r.checker_clean ? "true" : "false",
        r.fates_ok ? "true" : "false",
        static_cast<unsigned long long>(r.sends),
        static_cast<unsigned long long>(r.resolved), r.events,
        r.wall_seconds, static_cast<double>(kUpdates) / r.wall_seconds,
        i + 1 < threaded.size() ? "," : "");
  }
  std::printf("  ],\n");
  std::printf("  \"all_ok\": %s,\n", all_ok ? "true" : "false");
  std::printf("  \"metrics\":\n");
  print_indented(des_a.metrics.to_json(), "    ");
  std::printf("\n}\n");
  return all_ok ? 0 : 1;
}

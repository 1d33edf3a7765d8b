// E25 — open-loop saturation: batched floods vs the unbatched ablation.
//
// An open-loop driver offers load the cluster cannot push back on: each
// simulated tick submits a burst of requests in ONE scheduler dispatch (the
// shape a real ingress queue drains in), with
//
//   * Zipfian key popularity (s = 1) over a fixed person universe, sampled
//     from a precomputed CDF, and
//   * a time-varying arrival curve — a diurnal triangle wave (x0.5 .. x1.5
//     around the base rate) with a 3x flash crowd pinned mid-run —
//     quantized to integer submissions per tick by an exact milli-tx
//     accumulator (no libm in the arrival path, so the schedule is
//     bit-identical on every machine).
//
// The SAME precomputed schedule drives two rows:
//
//   soa-batched      max_batch = 8   (batched floods + group commit)
//   soa-unbatched    max_batch = 0   (batching ablation)
//
// Both run the struct-of-arrays UpdateLog, the only log layout; the row
// names keep the prefix the baselines and perfbench refer to.
//
// Everything simulated is deterministic per row — txs, packet and batch
// counters, merge work, retention footprints, convergence — and gated by
// compare_bench.py e25 against bench/baselines/BENCH_e25.json. Each row
// runs kPasses times, round-robin with the other row, and the simulated
// side must repeat exactly (counters_repeat). A row reports its median
// pass. On a 4-core host whose speed drifts both ways by up to ~1.3x in
// spells of seconds, taking each row's fastest pass let one lucky pass of
// the slow row sink the speedup below its floor in 2 of 18 runs; the
// median of 5 did not in 11.
// Wall-clock saturation throughput (tx/s/node) and the derived
// speedup_vs_unbatched are machine-dependent and reported; the gate only
// enforces the speedup floor (>= 1.5x, the batching claim) — a within-run
// ratio of the same binary on the same machine, like e10's. A standalone
// merge replay (sliding-window disorder over 20k entries) reports p50/p99
// single-insert merge latency and its merge work: applies, undos,
// mid-inserts, tail appends and retained snapshots. Its replay ratio is
// deterministic and gated under the same ceiling as the soa-batched row's.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/airline/airline.hpp"
#include "bench_json.hpp"
#include "harness/scenario.hpp"
#include "obs/metrics.hpp"
#include "shard/cluster.hpp"
#include "shard/update_log.hpp"
#include "sim/rng.hpp"

namespace {

namespace al = apps::airline;
using Air = al::BasicAirline<50, 900, 300>;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kNodes = 4;
constexpr double kTickSeconds = 0.05;
constexpr std::size_t kTicks = 600;  // 30 simulated seconds.
constexpr double kHorizon = kTickSeconds * static_cast<double>(kTicks + 2);
constexpr std::size_t kZipfKeys = 400;
constexpr std::uint64_t kSeed = 0xe25;

// Arrival curve, in exact integer milli-transactions per tick.
constexpr std::uint64_t kBaseMilliPerTick = 25000;  // 25 tx/tick average.
constexpr std::size_t kDiurnalPeriod = 400;         // 20 s triangle wave.
constexpr std::size_t kFlashStart = 240, kFlashEnd = 300;  // 12 s .. 15 s.
constexpr std::uint64_t kFlashFactor = 3;

/// Diurnal modulation in milli (500 = x0.5 trough, 1500 = x1.5 peak).
std::uint64_t diurnal_milli(std::size_t tick) {
  const std::size_t phase = tick % kDiurnalPeriod;
  return phase < kDiurnalPeriod / 2
             ? 500 + 5 * phase
             : 1500 - 5 * (phase - kDiurnalPeriod / 2);
}

/// Offered submissions on tick `tick`, carrying the fractional remainder in
/// `acc_milli` so the long-run rate matches the curve exactly.
std::size_t tick_submissions(std::size_t tick, std::uint64_t* acc_milli) {
  std::uint64_t milli = kBaseMilliPerTick * diurnal_milli(tick) / 1000;
  if (tick >= kFlashStart && tick < kFlashEnd) milli *= kFlashFactor;
  *acc_milli += milli;
  const std::size_t n = static_cast<std::size_t>(*acc_milli / 1000);
  *acc_milli %= 1000;
  return n;
}

/// One pre-generated submission: which node originates which request.
struct Submission {
  core::NodeId node;
  al::Request request;
};

/// Zipf(s = 1) CDF over persons 1..kZipfKeys. Plain IEEE adds/divides —
/// deterministic across machines.
std::vector<double> zipf_cdf() {
  std::vector<double> cdf(kZipfKeys);
  double total = 0.0;
  for (std::size_t i = 0; i < kZipfKeys; ++i) {
    total += 1.0 / static_cast<double>(i + 1);
    cdf[i] = total;
  }
  return cdf;
}

al::Person sample_person(const std::vector<double>& cdf, sim::Rng& rng) {
  const double u = rng.uniform(0.0, cdf.back());
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  return static_cast<al::Person>(1 + (it - cdf.begin()));
}

/// The full open-loop schedule: per tick, the burst submitted in one
/// dispatch. Generated once and replayed identically against every row.
std::vector<std::vector<Submission>> build_schedule(std::size_t* total) {
  sim::Rng rng(kSeed);
  const std::vector<double> cdf = zipf_cdf();
  std::vector<std::vector<Submission>> schedule(kTicks);
  std::uint64_t acc = 0;
  std::size_t rr = 0;
  for (std::size_t k = 0; k < kTicks; ++k) {
    const std::size_t n = tick_submissions(k, &acc);
    schedule[k].reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const al::Person p = sample_person(cdf, rng);
      const al::Request req = rng.bernoulli(0.3) ? al::Request::cancel(p)
                                                 : al::Request::request(p);
      schedule[k].push_back(
          {static_cast<core::NodeId>(rr++ % kNodes), req});
    }
  }
  *total = 0;
  for (const auto& burst : schedule) *total += burst.size();
  return schedule;
}

constexpr std::size_t kPasses = 5;  // Odd, so the median is one pass.

struct Row {
  const char* mode;
  std::size_t max_batch;
  bool converged = false;
  bool decisions_ok = false;
  bool counters_repeat = true;
  double wall_seconds = 0.0;              ///< Median pass (run + settle).
  std::vector<double> pass_wall_seconds;  ///< Every pass, in run order.
  double tx_per_sec_per_node = 0.0;
  std::vector<Air::State> states;
  std::string metrics_json;
};

Row run_row(const char* mode, std::size_t max_batch,
            const std::vector<std::vector<Submission>>& schedule,
            std::size_t total) {
  harness::Scenario sc = harness::wan(kNodes);
  sc.compaction = true;
  sc.checkpoint_interval = 32;
  sc.max_checkpoints = 8;
  shard::ClusterConfig cfg = sc.cluster_config<Air>(kSeed ^ 0x5a7);
  cfg.broadcast.max_batch = max_batch;
  shard::Cluster<Air> cluster(cfg);

  for (std::size_t k = 0; k < kTicks; ++k) {
    if (schedule[k].empty()) continue;
    const std::vector<Submission>& burst = schedule[k];
    cluster.scheduler().schedule_at(
        kTickSeconds * static_cast<double>(k + 1), [&cluster, &burst] {
          for (const Submission& s : burst) {
            cluster.node(s.node).try_submit(s.request,
                                            cluster.scheduler().now());
          }
        });
  }

  const Clock::time_point t0 = Clock::now();
  cluster.run_until(kHorizon);
  cluster.settle();
  const double wall = std::chrono::duration<double>(Clock::now() - t0).count();

  Row row;
  row.mode = mode;
  row.max_batch = max_batch;
  row.converged = cluster.converged();
  row.decisions_ok = cluster.aggregate_engine_stats().decisions_run == total;
  row.pass_wall_seconds.push_back(wall);
  for (std::size_t n = 0; n < kNodes; ++n) {
    row.states.push_back(cluster.node(static_cast<core::NodeId>(n)).state());
  }
  obs::MetricsRegistry reg;
  reg.add_counter("e25.txs", total);
  reg.merge_from(cluster.metrics());
  row.metrics_json = reg.to_json();
  return row;
}

/// Fold one pass of row `i` into `rows` (the first pass founds the row).
/// Every later pass must reproduce the first one's flags, counters and
/// replica states exactly.
void add_pass(std::vector<Row>& rows, std::size_t i, Row pass) {
  if (rows.size() == i) {
    rows.push_back(std::move(pass));
    return;
  }
  Row& row = rows[i];
  row.counters_repeat = row.counters_repeat &&
                        pass.converged == row.converged &&
                        pass.decisions_ok == row.decisions_ok &&
                        pass.metrics_json == row.metrics_json &&
                        pass.states == row.states;
  row.pass_wall_seconds.push_back(pass.pass_wall_seconds.front());
}

// ---------------------------------------------------------------------------
// Standalone merge replay: single-insert latency
// ---------------------------------------------------------------------------

struct ReplayStats {
  double p50_us = 0.0;
  double p99_us = 0.0;
  double total_ms = 0.0;
  shard::EngineStats engine;  ///< The replay's merge work (deterministic).
  std::size_t checkpoints_retained = 0;
};

constexpr std::size_t kReplayEntries = 20000;
constexpr std::size_t kReplayWindow = 512;

/// Arrival order for the replay: timestamp i delayed by at most
/// kReplayWindow positions (sliding-window disorder — the WAN shape that
/// produces mid-inserts without degenerate full shuffles).
std::vector<std::size_t> replay_order() {
  sim::Rng rng(kSeed ^ 0x9e25);
  std::vector<std::size_t> order(kReplayEntries);
  for (std::size_t i = 0; i < kReplayEntries; ++i) order[i] = i;
  for (std::size_t i = kReplayEntries; i-- > 1;) {
    const std::size_t lo = i > kReplayWindow ? i - kReplayWindow : 0;
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::int64_t>(lo),
                        static_cast<std::int64_t>(i)));
    std::swap(order[i], order[j]);
  }
  return order;
}

ReplayStats run_replay(const std::vector<std::size_t>& order) {
  // Dense checkpoints (no geometric thinning): a mid-insert replays at most
  // one interval past its displacement, so the timing isolates the log's
  // scan + shift cost rather than checkpoint-placement policy. Past the
  // first kZipfKeys entries most requests repeat a known person, so most
  // mid-inserts change nothing where they land and stop replaying there.
  shard::UpdateLog<Air> log(/*checkpoint_interval=*/32,
                            /*max_checkpoints=*/0);
  std::vector<double> ns;
  ns.reserve(order.size());
  double total = 0.0;
  for (const std::size_t i : order) {
    const core::Timestamp ts{static_cast<std::uint64_t>(i + 1),
                             static_cast<core::NodeId>(i % kNodes)};
    const al::Update u{al::Update::Kind::kRequest,
                       static_cast<al::Person>(1 + i % kZipfKeys)};
    const Clock::time_point t0 = Clock::now();
    log.insert({ts, u});
    const double d =
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    ns.push_back(d);
    total += d;
  }
  std::sort(ns.begin(), ns.end());
  ReplayStats st;
  st.p50_us = ns[ns.size() / 2] / 1e3;
  st.p99_us = ns[ns.size() * 99 / 100] / 1e3;
  st.total_ms = total / 1e6;
  st.engine = log.stats();
  st.checkpoints_retained = log.checkpoints_retained();
  return st;
}

}  // namespace

int main() {
  std::size_t total = 0;
  const std::vector<std::vector<Submission>> schedule =
      build_schedule(&total);

  // Passes go round-robin over the rows, so a slow spell of the host
  // slows every row's pass instead of all of one row's passes.
  std::vector<Row> rows;
  for (std::size_t pass = 0; pass < kPasses; ++pass) {
    add_pass(rows, 0, run_row("soa-batched", 8, schedule, total));
    add_pass(rows, 1, run_row("soa-unbatched", 0, schedule, total));
  }
  for (Row& r : rows) {
    std::vector<double> walls = r.pass_wall_seconds;
    std::nth_element(walls.begin(), walls.begin() + kPasses / 2, walls.end());
    r.wall_seconds = walls[kPasses / 2];
    r.tx_per_sec_per_node = static_cast<double>(total) / r.wall_seconds /
                            static_cast<double>(kNodes);
  }

  // Convergence is order-independent (same merged set, same timestamp
  // order), so both rows must land on identical replica states.
  bool rows_agree = true;
  for (const Row& r : rows) {
    for (std::size_t n = 0; n < kNodes; ++n) {
      rows_agree = rows_agree && r.states[n] == rows[0].states[n];
    }
  }
  const double speedup =
      rows[0].tx_per_sec_per_node / rows[1].tx_per_sec_per_node;

  const ReplayStats replay = run_replay(replay_order());

  std::printf("{\n  \"experiment\": \"e25_saturation\",\n");
  std::printf("  \"nodes\": %zu, \"ticks\": %zu, \"horizon\": %.2f,\n",
              kNodes, kTicks, kHorizon);
  std::printf("  \"zipf_keys\": %zu, \"txs\": %zu, \"passes\": %zu,\n",
              kZipfKeys, total, kPasses);
  std::printf("  \"rows_agree\": %s,\n", rows_agree ? "true" : "false");
  std::printf("  \"speedup_vs_unbatched\": %.3f,\n", speedup);
  std::printf("  \"merge_replay\": {\n");
  std::printf("    \"entries\": %zu, \"window\": %zu,\n", kReplayEntries,
              kReplayWindow);
  std::printf("    \"counters\": {\"engine.redone_updates\": %llu, "
              "\"engine.undone_updates\": %llu, "
              "\"engine.mid_inserts\": %llu,\n"
              "                 \"engine.tail_appends\": %llu},\n",
              static_cast<unsigned long long>(replay.engine.redone_updates),
              static_cast<unsigned long long>(replay.engine.undone_updates),
              static_cast<unsigned long long>(replay.engine.mid_inserts),
              static_cast<unsigned long long>(replay.engine.tail_appends));
  std::printf("    \"checkpoints_retained\": %zu,\n",
              replay.checkpoints_retained);
  std::printf("    \"soa\": {\"p50_us\": %.3f, \"p99_us\": %.3f, "
              "\"total_ms\": %.2f}\n  },\n",
              replay.p50_us, replay.p99_us, replay.total_ms);
  // The offered-load curve (deterministic), bucketed per simulated second —
  // CI renders this as the throughput-curve artifact.
  std::printf("  \"curve\": [");
  for (std::size_t s = 0; s * 20 < kTicks; ++s) {
    std::size_t in_second = 0;
    for (std::size_t k = s * 20; k < (s + 1) * 20 && k < kTicks; ++k) {
      in_second += schedule[k].size();
    }
    std::printf("%s{\"t\": %zu, \"offered\": %zu}", s == 0 ? "" : ", ",
                s + 1, in_second);
  }
  std::printf("],\n");
  std::printf("  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::printf("    {\"mode\": \"%s\", \"max_batch\": %zu,\n", r.mode,
                r.max_batch);
    std::printf("     \"converged\": %s, \"decisions_ok\": %s, "
                "\"counters_repeat\": %s,\n",
                r.converged ? "true" : "false",
                r.decisions_ok ? "true" : "false",
                r.counters_repeat ? "true" : "false");
    std::printf("     \"wall_seconds\": %.3f, "
                "\"tx_per_sec_per_node\": %.1f,\n",
                r.wall_seconds, r.tx_per_sec_per_node);
    std::printf("     \"pass_wall_seconds\": [");
    for (std::size_t p = 0; p < r.pass_wall_seconds.size(); ++p) {
      std::printf("%s%.3f", p == 0 ? "" : ", ", r.pass_wall_seconds[p]);
    }
    std::printf("],\n");
    std::printf("     \"metrics\":\n");
    print_indented(r.metrics_json, "      ");
    std::printf("\n    }%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
  return 0;
}

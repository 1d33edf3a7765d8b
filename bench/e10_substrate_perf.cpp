// E10 — substrate microbenchmarks (google-benchmark).
//
// Measures the engine mechanics the paper's section 3.3 cites from
// [BK]/[SKS]: "There are a number of optimizations which allow the system
// to avoid undoing large numbers of transactions, and optimized storage
// structures make this process even more efficient."
//
//  * tail appends (the common, in-order case) — O(1) apply;
//  * mid inserts with checkpoint intervals 0 (naive full replay) vs 16/64 —
//    the optimization's win;
//  * end-to-end cluster throughput;
//  * witness extraction cost (the section 5.3 analysis itself).
#include <benchmark/benchmark.h>

#include <optional>

#include "apps/airline/airline.hpp"
#include "apps/airline/witness.hpp"
#include "harness/scenario.hpp"
#include "harness/workload.hpp"
#include "shard/cluster.hpp"
#include "shard/update_log.hpp"

namespace {

namespace al = apps::airline;
using Air = al::BasicAirline<100, 900, 300>;
using Log = shard::UpdateLog<Air>;

al::Update random_update(sim::Rng& rng, std::uint32_t persons) {
  const auto p = static_cast<al::Person>(rng.uniform_int(1, persons));
  switch (rng.uniform_int(0, 3)) {
    case 0:
      return {al::Update::Kind::kRequest, p};
    case 1:
      return {al::Update::Kind::kCancel, p};
    case 2:
      return {al::Update::Kind::kMoveUp, p};
    default:
      return {al::Update::Kind::kMoveDown, p};
  }
}

/// In-order merge: the fast path every up-to-date replica takes.
void BM_LogTailAppend(benchmark::State& state) {
  sim::Rng rng(1);
  std::uint64_t ts = 0;
  Log log(32);
  for (auto _ : state) {
    log.insert({core::Timestamp{++ts, 0}, random_update(rng, 64)});
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LogTailAppend);

/// Out-of-order merge at a given checkpoint interval: each iteration
/// inserts one late update into a log of `log_size` entries, near the tail
/// (the realistic case — slightly delayed messages).
void BM_LogMidInsert(benchmark::State& state) {
  const auto interval = static_cast<std::size_t>(state.range(0));
  const auto log_size = static_cast<std::size_t>(state.range(1));
  sim::Rng rng(2);
  // Declared outside the loop so that emplace() destroys the previous
  // iteration's log while timing is paused: cpu_time is the insert alone.
  std::optional<Log> log;
  for (auto _ : state) {
    state.PauseTiming();
    log.emplace(interval);
    for (std::size_t i = 0; i < log_size; ++i) {
      log->insert({core::Timestamp{2 * (i + 1), 0}, random_update(rng, 64)});
    }
    // Late arrival landing ~32 entries before the tail.
    const std::uint64_t late_ts = 2 * (log_size - 32) + 1;
    state.ResumeTiming();
    log->insert({core::Timestamp{late_ts, 1}, random_update(rng, 64)});
  }
  state.SetLabel(interval == 0 ? "naive full replay" :
                 "checkpoint every " + std::to_string(interval));
}
// Iterations are capped: each iteration rebuilds the whole log outside the
// timed region (PauseTiming), so letting google-benchmark auto-scale the
// count would spend minutes on untimed setup for no extra precision.
BENCHMARK(BM_LogMidInsert)
    ->Args({0, 2048})
    ->Args({16, 2048})
    ->Args({64, 2048})
    ->Args({0, 8192})
    ->Args({16, 8192})
    ->Args({64, 8192})
    ->Iterations(300);

/// End-to-end: a 4-node WAN cluster processing the standard workload,
/// measured in transactions per simulated run.
void BM_ClusterEndToEnd(benchmark::State& state) {
  std::size_t txs = 0;
  for (auto _ : state) {
    harness::Scenario sc = harness::wan(4);
    shard::Cluster<Air> cluster(sc.cluster_config<Air>(7));
    harness::AirlineWorkload w;
    w.duration = 10.0;
    w.request_rate = 10.0;
    w.mover_rate = 10.0;
    w.max_persons = 400;
    harness::drive_airline(cluster, w, 8);
    cluster.run_until(w.duration);
    cluster.settle();
    txs += cluster.total_originated();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(txs));
}
BENCHMARK(BM_ClusterEndToEnd);

/// Witness extraction over a long update history (the section 5.3
/// analysis run as a query).
void BM_WitnessSearch(benchmark::State& state) {
  sim::Rng rng(3);
  std::vector<al::Update> seq;
  for (int i = 0; i < 4096; ++i) seq.push_back(random_update(rng, 64));
  al::Person p = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(al::find_assignment_witness(seq, p));
    benchmark::DoNotOptimize(al::find_waiting_witness(seq, p));
    p = p % 64 + 1;
  }
}
BENCHMARK(BM_WitnessSearch);

/// Broadcast fan-out cost: one payload through an 8-node lossless flood.
void BM_BroadcastFlood(benchmark::State& state) {
  for (auto _ : state) {
    harness::Scenario sc = harness::lan(8);
    shard::Cluster<Air> cluster(sc.cluster_config<Air>(9));
    for (int i = 0; i < 50; ++i) {
      cluster.submit_now(static_cast<core::NodeId>(i % 8),
                         al::Request::request(static_cast<al::Person>(i + 1)));
    }
    cluster.settle();
    benchmark::DoNotOptimize(cluster.converged());
  }
}
BENCHMARK(BM_BroadcastFlood);

}  // namespace

BENCHMARK_MAIN();

// E14 — mixed-mode serializability (the paper's second section 6
// extension): "certain critical transactions run serializably, while the
// others run in a highly available manner."
//
// Serializable transactions reserve a timestamp and wait for cluster-wide
// promises (section 3.3's waiting protocol); the sweep varies the fraction
// of MOVE-UPs that run serializably. Measured: the serializable
// transactions' k (always 0 — the guarantee), their waiting latency (the
// price, exploding when a partition must heal first), the availability of
// the normal traffic (unchanged), and the overbooking damage (which drops
// as more movers become serializable).
//
// Each sweep point also captures the Cluster::metrics() snapshot plus
// derived e14.* metrics, emitted after the table as one JSON document —
// the machine-readable counterpart in the same registry schema every
// other metrics consumer speaks.
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/execution_checker.hpp"
#include "apps/airline/airline.hpp"
#include "bench_json.hpp"
#include "harness/scenario.hpp"
#include "harness/table.hpp"
#include "harness/workload.hpp"
#include "obs/metrics.hpp"
#include "shard/cluster.hpp"

namespace {

namespace al = apps::airline;
using Air = al::BasicAirline<20, 900, 300>;

struct RunResult {
  std::size_t serial_txs = 0;
  std::size_t serial_max_k = 0;
  double mean_wait = 0.0;
  double max_wait = 0.0;
  double worst_overbook = 0.0;
  std::size_t normal_txs = 0;
  std::string metrics_json;
};

RunResult run(double serial_fraction, std::uint64_t seed) {
  harness::Scenario sc = harness::partitioned_wan(4, 5.0, 15.0);
  shard::Cluster<Air> cluster(sc.cluster_config<Air>(seed));
  sim::Rng rng(seed ^ 0xe14);
  // Requests stream normally; movers split serial/normal by fraction.
  for (int i = 0; i < 80; ++i) {
    cluster.submit_at(rng.uniform(0.0, 20.0),
                      static_cast<core::NodeId>(rng.uniform_int(0, 3)),
                      al::Request::request(static_cast<al::Person>(i + 1)));
  }
  for (int i = 0; i < 80; ++i) {
    const double t = rng.uniform(0.0, 20.0);
    const auto node = static_cast<core::NodeId>(rng.uniform_int(0, 3));
    const bool down = rng.bernoulli(0.25);
    const al::Request req =
        down ? al::Request::move_down() : al::Request::move_up();
    if (rng.bernoulli(serial_fraction)) {
      cluster.submit_serializable_at(t, node, req);
    } else {
      cluster.submit_at(t, node, req);
    }
  }
  cluster.run_until(20.0);
  cluster.settle();
  const auto exec = cluster.execution();

  RunResult r;
  for (core::NodeId n = 0; n < 4; ++n) {
    for (const auto& rec : cluster.node(n).originated()) {
      if (!rec.serializable) {
        ++r.normal_txs;
        continue;
      }
      ++r.serial_txs;
      const double wait = rec.decided_time - rec.real_time;
      r.mean_wait += wait;
      r.max_wait = std::max(r.max_wait, wait);
      for (std::size_t i = 0; i < exec.size(); ++i) {
        if (exec.tx(i).ts == rec.ts) {
          r.serial_max_k = std::max(r.serial_max_k, exec.missing_count(i));
        }
      }
    }
  }
  if (r.serial_txs > 0) r.mean_wait /= static_cast<double>(r.serial_txs);
  for (const auto& s : exec.actual_states()) {
    r.worst_overbook = std::max(r.worst_overbook,
                                Air::cost(s, Air::kOverbooking));
  }
  obs::MetricsRegistry reg = cluster.metrics();
  reg.add_counter("e14.serial_txs", r.serial_txs);
  reg.add_counter("e14.normal_txs", r.normal_txs);
  reg.add_counter("e14.serial_max_k", r.serial_max_k);
  reg.set_gauge("e14.serial_fraction", serial_fraction);
  reg.set_gauge("e14.mean_wait", r.mean_wait);
  reg.set_gauge("e14.max_wait", r.max_wait);
  reg.set_gauge("e14.worst_overbooking", r.worst_overbook);
  r.metrics_json = reg.to_json();
  return r;
}

}  // namespace

int main() {
  harness::Table table(
      "E14  Mixed-mode serializability (10s partition; movers split "
      "serial/available)",
      {"serial movers", "serial txs", "serial max k", "mean wait (s)",
       "max wait (s)", "worst overbook $", "normal txs"});
  std::vector<RunResult> results;
  std::vector<double> fractions;
  for (const double frac : {0.0, 0.25, 0.5, 1.0}) {
    const RunResult r = run(frac, 7);
    table.add_row({harness::Table::pct(frac, 0),
                   harness::Table::num(r.serial_txs),
                   harness::Table::num(r.serial_max_k),
                   harness::Table::num(r.mean_wait, 2),
                   harness::Table::num(r.max_wait, 2),
                   harness::Table::num(r.worst_overbook, 0),
                   harness::Table::num(r.normal_txs)});
    results.push_back(r);
    fractions.push_back(frac);
  }
  table.print();
  std::printf(
      "\nReading: serializable transactions ALWAYS run with k = 0 — the\n"
      "guarantee is absolute — but those submitted mid-partition wait for\n"
      "the heal (max wait ~ partition length), while normal traffic at the\n"
      "same nodes flows uninterrupted. Making more movers serializable\n"
      "shrinks the overbooking damage toward zero: the paper's \"specify\n"
      "the modes of operation for different transactions\", working.\n");
  std::printf("\n{\n  \"experiment\": \"e14_mixed_mode\",\n");
  std::printf("  \"nodes\": 4, \"seed\": 7,\n  \"points\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::printf("    {\"serial_fraction\": %.2f,\n     \"metrics\":\n",
                fractions[i]);
    print_indented(results[i].metrics_json, "      ");
    std::printf("\n    }%s\n", i + 1 < results.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
  return 0;
}

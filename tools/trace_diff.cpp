// trace_diff — record deterministic event streams and bisect divergences.
//
// Same (seed, configuration) must produce a byte-identical event stream;
// when it doesn't, the interesting question is WHERE the histories first
// part ways, because everything after the first divergent event is noise
// amplified by the split. This tool closes that loop:
//
//   trace_diff record <out> [--seed N] [--perturb]
//       Run the canonical crash-chaos scenario (the same shape E19 and the
//       chaos test tier use), capture the full event stream, and write it
//       in obs::serialize's exact line format. --perturb injects one extra
//       crash/restart at t=5.0 — a controlled source of divergence for
//       self-checks and for demonstrating the bisector.
//
//   trace_diff diff <a> <b>
//       Parse two recorded streams and report the first diverging event
//       with its causal ancestry in each stream (obs::trace_diff /
//       obs::divergence_report). Exit 0 when identical, 1 on divergence,
//       2 on unreadable or malformed input — so CI can assert both the
//       "identical seeds agree" and the "perturbation is pinpointed"
//       directions.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "apps/airline/airline.hpp"
#include "harness/scenario.hpp"
#include "harness/workload.hpp"
#include "obs/causal.hpp"
#include "obs/tracer.hpp"
#include "shard/cluster.hpp"
#include "sim/fault_plan.hpp"
#include "tool_cli.hpp"

namespace {

namespace al = apps::airline;
using Air = al::BasicAirline<20, 900, 300>;

constexpr char kUsage[] =
    "usage: trace_diff record <out_file> [--seed N] [--perturb]\n"
    "       trace_diff diff <file_a> <file_b>\n"
    "       trace_diff --help\n"
    "\n"
    "record  run the canonical crash-chaos scenario and write its full\n"
    "        event stream in obs::serialize line format; --perturb adds a\n"
    "        sparse extra submission stream (a controlled divergence)\n"
    "diff    report the first diverging event of two recorded streams with\n"
    "        its causal ancestry in each\n"
    "\n"
    "exit status: 0 identical / recorded, 1 divergence found,\n"
    "             2 usage error or unreadable/malformed input\n";

int usage() { return tool_cli::usage(kUsage); }

int cmd_record(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string out_path = argv[2];
  std::uint64_t seed = 0xD1FF;
  bool perturb = false;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 0);
    } else if (std::strcmp(argv[i], "--perturb") == 0) {
      perturb = true;
    } else {
      return usage();
    }
  }

  constexpr double kHorizon = 20.0;
  harness::Scenario sc = harness::wan(4);
  sc.faults.split_halves(4, 2, 6.0, 10.0)
      .crash(1, 3.0, 6.5, sim::RecoveryMode::kDurable)
      .crash(3, 8.0, 11.0, sim::RecoveryMode::kAmnesia);
  sc.trace.enabled = true;
  sc.trace.ring_capacity = 1 << 15;

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
  if (perturb) {
    // A sparse extra submission stream on top of the identical base
    // workload: the base schedule is already in place, so the streams
    // share a long identical prefix and first part ways MID-RUN, at the
    // earliest observable consequence of an extra submission — the case
    // the bisector's causal-ancestry output is for.
    harness::AirlineWorkload extra;
    extra.duration = kHorizon;
    extra.request_rate = 0.5;
    extra.mover_rate = 0.0;
    extra.cancel_fraction = 0.0;
    extra.max_persons = 250;
    harness::drive_airline(cluster, extra, 0x9E27);
  }
  cluster.run_until(kHorizon);
  cluster.settle();

  std::ofstream out(out_path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "trace_diff: cannot write %s\n", out_path.c_str());
    return 2;
  }
  out << obs::serialize(capture.events());
  std::printf("recorded %zu events (seed 0x%llx%s) to %s\n",
              capture.events().size(),
              static_cast<unsigned long long>(seed),
              perturb ? ", perturbed" : "", out_path.c_str());
  return 0;
}

bool load_stream(const char* path, std::vector<obs::Event>& out) {
  return tool_cli::load_stream("trace_diff", path, out);
}

int cmd_diff(int argc, char** argv) {
  if (argc != 4) return usage();
  std::vector<obs::Event> a, b;
  if (!load_stream(argv[2], a) || !load_stream(argv[3], b)) return 2;
  const obs::TraceDivergence d = obs::trace_diff(a, b);
  std::fputs(obs::divergence_report(d, a, b).c_str(), stdout);
  return d.diverged ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (tool_cli::wants_help(argc, argv, kUsage)) return 0;
  if (argc < 2) return usage();
  if (std::strcmp(argv[1], "record") == 0) return cmd_record(argc, argv);
  if (std::strcmp(argv[1], "diff") == 0) return cmd_diff(argc, argv);
  return usage();
}

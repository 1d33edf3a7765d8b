#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/steady.py --workload zipf-burst --seeds 1-10 [--seconds 50]

Runs perfbench/run.py once per seed (sequentially, --trace 0) and prints,
for each end-to-end metric, the median over seeds and the spread: the
distance between the first and third quartiles (statistics.quantiles with
n=4) as a share of the median, next to the metric's bound in
BENCHMARK.json. Also prints each run's figures as JSON lines on stderr.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_arg(text):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=float, default=None)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    values = {}
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if done.returncode != 0:
            print(f"seed {seed}: run.py exited {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().split("\n")[-1])
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(json.dumps({"seed": seed, "correct": result["correct"],
                          "failed": result["failed"], **row}),
              file=sys.stderr, flush=True)
        if not result["correct"]:
            print(f"seed {seed}: incorrect result", file=sys.stderr)
            return 1
        for k, v in row.items():
            values.setdefault(k, []).append(v)
    print(f"{args.workload}: {len(args.seeds)} seeds, {seconds} s runs")
    for m in bench["end_to_end"]:
        vals = values.get(m["name"], [])
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        print(f"  {m['name']:<16} median {med:<12.6g} {m['unit']:<5} "
              f"spread {spread:.4f} (bound {m['bound']}, "
              f"{'ok' if spread < m['bound'] / 3 else 'WIDE'})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Self-tests for the benchmark.

    python3 perfbench/selftest.py [--no-pins]

Checks, from the repository root:
  * BENCHMARK.json has the declared shape (keys, names, units, bounds);
  * a shortened run of every workload (declared or not), plain and
    traced, exits 0 with a
    correct result, failed == 0 and fail_frac == 0, and prints exactly the
    declared metrics, each name matching [A-Za-z0-9_.-]+, with its
    declared unit;
  * the simulator workloads repeat their protocol counters exactly
    (check.counters_repeat == 1);
  * (unless --no-pins) zipf-burst at E25's seed and full size reproduces
    E25's soa-batched counters. This run takes about a minute.
Exits non-zero on the first failure.
"""
import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# Instance sizes of the shortened runs.
SHORT_SCALE = {"zipf-burst": 0.2, "lan-steady": 0.1,
               "partition-verify": 0.5, "threaded-closed": 0.1}
DETERMINISTIC = {"zipf-burst", "lan-steady", "partition-verify"}
# Workloads that run by name but are not declared in BENCHMARK.json (not
# steady enough to gate); tested all the same so they keep working.
UNDECLARED = ["lan-steady", "threaded-closed"]
# E25's soa-batched row at seed 0xe25 (bench/baselines/BENCH_e25.json).
E25_SEED = 0xE25
E25_PINS = {"workload.txs": 18445, "broadcast.delivered": 73780,
            "engine.redone_updates": 78433854}


class Failure(Exception):
    pass


def check(cond, msg):
    if not cond:
        raise Failure(msg)


def check_manifest(bench):
    check(set(bench) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    check(len(names) == len(set(names)), "a name is used twice")
    for n in names:
        check(NAME.match(n), f"bad name {n!r}")
    for w in bench["workloads"]:
        check(set(w) == {"name", "why"} and len(w["why"]) <= 200,
              f"workload {w['name']}")
    for m in bench["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"}, m["name"])
        check(0 < m["bound"] <= 0.25, f"bound of {m['name']}")
    for m in bench["end_to_end"] + bench["per_layer"]:
        check(UNIT.match(m["unit"]), f"unit of {m['name']}")
        check(m["better"] in ("higher", "lower"), f"better of {m['name']}")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    check(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
          "setup_s")
    check(isinstance(bench["run_seconds"], int) and
          1 <= bench["run_seconds"] <= 60, "run_seconds")


def run(workload, seed, trace, scale):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "0", "--trace",
           str(trace), "--scale", str(scale)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    check(done.returncode == 0, f"{workload} trace={trace}: exit "
          f"{done.returncode}")
    result = json.loads(done.stdout.strip().split("\n")[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{workload}: result keys")
    return result


def check_result(bench, workload, trace, result):
    tag = f"{workload} trace={trace}"
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    metrics = result["metrics"]
    for name, v in metrics.items():
        check(NAME.match(name), f"{tag}: printed name {name!r}")
        check(name in units, f"{tag}: {name} not declared in BENCHMARK.json")
        check(v["unit"] == units[name], f"{tag}: unit of {name}")
        check(isinstance(v["value"], (int, float)) and
              math.isfinite(v["value"]), f"{tag}: value of {name}")
    check(set(metrics) == set(units), f"{tag}: missing "
          f"{sorted(set(units) - set(metrics))}")
    check(result["correct"] is True, f"{tag}: incorrect result")
    check(result["failed"] == 0 and result["attempted"] >= 1,
          f"{tag}: failed {result['failed']} of {result['attempted']}")
    if trace:
        check(metrics["fail_frac"]["value"] == 0, f"{tag}: fail_frac")
        if workload in DETERMINISTIC:
            check(metrics["check.counters_repeat"]["value"] == 1,
                  f"{tag}: counters did not repeat")
    else:
        for name, v in metrics.items():
            check(v["value"] > 0, f"{tag}: {name} is {v['value']}")


def main(argv):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    try:
        check_manifest(bench)
        print("manifest: ok", flush=True)
        declared = [w["name"] for w in bench["workloads"]]
        for name in declared + [w for w in UNDECLARED if w not in declared]:
            for trace in (0, 1):
                check_result(bench, name, trace,
                             run(name, 11, trace, SHORT_SCALE[name]))
                print(f"{name} trace={trace}: ok", flush=True)
        if "--no-pins" not in argv:
            result = run("zipf-burst", E25_SEED, 1, 1)
            check_result(bench, "zipf-burst", 1, result)
            for name, want in E25_PINS.items():
                got = result["metrics"][name]["value"]
                check(got == want, f"E25 pin {name}: {got} != {want}")
            print("E25 pins: ok", flush=True)
    except Failure as e:
        print(f"FAIL: {e}", flush=True)
        return 1
    print("all self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

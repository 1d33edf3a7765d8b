#!/usr/bin/env python3
"""Compare a bench JSON emission against its committed baseline.

Usage:
    compare_bench.py e20 bench/baselines/BENCH_e20.json BENCH_e20.json
    compare_bench.py e10 bench/baselines/BENCH_e10.json BENCH_e10.json
    compare_bench.py e22 bench/baselines/BENCH_e22.json BENCH_e22.json
    compare_bench.py e23 bench/baselines/BENCH_e23.json BENCH_e23.json
    compare_bench.py e24 bench/baselines/BENCH_e24.json BENCH_e24.json
    compare_bench.py e25 bench/baselines/BENCH_e25.json BENCH_e25.json
    compare_bench.py e26 bench/baselines/BENCH_e26.json BENCH_e26.json
    compare_bench.py e27 bench/baselines/BENCH_e27.json BENCH_e27.json
    compare_bench.py --selftest

The gate is designed to be machine-independent:

* e20 (submit-scaling harness): the primary signals are the deterministic
  retained-footprint counters (exact for a given seed/scale, allowed to
  drift by the tolerance so intentional policy tweaks don't need a baseline
  dance) and the *flatness* ratios — last-decile / first-decile wall time
  per point and large-scale / small-scale per-submit time overall. Flat is
  the O(window) claim; absolute wall times are machine noise and are only
  reported.

* e10 (google-benchmark substrate microbenchmarks): absolute ns/op are
  machine-dependent, so the gate compares the checkpointed-vs-naive
  mid-insert *ratios* within one run against the same ratios in the
  baseline run.

* e22 (fault-matrix harness): every emitted number is a deterministic
  function of (fault mode, seed) — simulated time, never wall-clock — so
  the gate checks checker_clean exactly (any fault mode leaving the
  checkers dirty is an instant failure) and the fault/availability
  counters and lag gauges within the tolerance, allowing intentional
  workload tweaks without a baseline dance.

* e23 (streaming-checker harness): the binary gates are exact — streaming
  reports must match the post-hoc oracles on every run ("agrees") and the
  bounded-memory row must drain to a window-sized footprint
  ("window_bounded"). The checker/adversary counters are deterministic per
  (mode, seed) and gated within the tolerance; wall-clock overhead is
  machine noise and only reported.

* e25 (open-loop saturation harness): the simulated side is deterministic —
  convergence, cross-row replica-state agreement, pass-to-pass repetition
  ("counters_repeat"), and the packet / batch / outbox-sync counters are
  gated per row. The replay ratio — applies made over the paper's literal
  undo/redo count, redone_updates / (undone_updates + mid_inserts +
  tail_appends) — is a pure function of the schedule and must stay at or
  below 1.6 on the soa-batched row and on the standalone merge replay;
  missing or zero counters fail it. Wall-clock
  throughput is machine noise and only reported, EXCEPT the within-run
  speedup of the batched row over the unbatched ablation (same binary,
  same machine, each row's median pass — a ratio like e10's), which must
  clear the batching floor of 1.5. Both limits are constants of this
  script: no baseline key can loosen them, and a missing speedup fails.

* e24 (flame-attribution harness): the stream gates are exact — each
  seed's capture must hash to its baseline "trace_digest", the sharded
  tracer's k-way ring merge must reconstruct the capture
  ("merged_matches_capture"), and the causal validator must stay clean.
  The per-seed epoch/attribution census and the
  merged epoch.* counters are deterministic and gated within the
  tolerance; flame-build wall time is machine noise, kept out of the JSON
  entirely (the harness prints it to stderr).

* e26 (incident-forensics harness): the boolean gates are exact — every
  seed's incident bundle must be byte-deterministic across two independent
  runs ("bundle_deterministic"), every in-stream incident's admitted epoch
  must contain its originate event ("attribution_ok"), and a flame profile
  diffed against itself must be empty ("self_diff_clean"). The per-seed
  forensic census (incidents, epochs, series samples, bundle sizes) and
  the merged checker.*/epoch.* counters are deterministic and gated within
  the tolerance; bundle-build wall time goes to stderr and is never gated.

* e27 (execution-backend harness): the boolean gates are exact — the DES
  row must stay byte-deterministic and checker-clean, and every threaded
  row must converge, pass the full oracle stack, and satisfy the
  send/fate shutdown contract. The DES row's trace census and network /
  broadcast counters are deterministic per seed and gated within the
  tolerance; everything wall-clock (and the threaded rows' send counts,
  which real scheduling jitters) is only reported.

A baseline JSON may carry a top-level "tolerance_overrides" object mapping
gate keys (exact, or a prefix/suffix of the composed "mode=... name" key)
to a per-key relative tolerance, loosening or tightening individual gates
without touching this script — e.g. {"e22.mean_convergence_lag": 0.5}.

`--selftest` runs the gate machinery against synthetic documents (no files
needed) and exits 0 only if every probe behaves: use it to sanity-check
edits to this script in CI before any real comparison runs.

On any gate failure a per-key markdown summary table is printed after the
log lines (for CI job summaries / PR comments).

Exit status 0 = within tolerance, 1 = regression, 2 = usage/parse error.
"""

import json
import sys

DEFAULT_TOLERANCE = 0.15

# Flatness ratios get an absolute floor as well: on small/noisy runs a
# baseline of 0.9 must not make 1.1 a "regression".
FLATNESS_FLOOR = 2.0

E20_COUNTERS = [
    "retained.log_entries",
    "retained.checkpoints",
    "retained.repair_store",
    "retained.prefix_slots",
]


# Structured record of every gate failure, for the markdown summary the CI
# job prints on regression: one row per offending key.
FAILURES = []


def fail(msg, key=None, current=None, baseline=None, allowed=None):
    print(f"REGRESSION: {msg}")
    FAILURES.append({"key": key or msg, "current": current,
                     "baseline": baseline, "allowed": allowed})
    return 1


def _cell(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.3f}"
    return str(v)


def print_failure_summary():
    """Markdown table of failed keys (printed only when gates failed)."""
    print()
    print("### Bench gate failures")
    print()
    print("| key | current | baseline | allowed |")
    print("| --- | --- | --- | --- |")
    for f in FAILURES:
        print(f"| {f['key']} | {_cell(f['current'])} "
              f"| {_cell(f['baseline'])} | {_cell(f['allowed'])} |")


def within(current, baseline, tol):
    """Symmetric relative check with a tiny absolute slack for near-zero."""
    slack = max(abs(baseline) * tol, 2.0)
    return abs(current - baseline) <= slack


def key_tolerance(base, key, default):
    """Per-key tolerance override from the baseline JSON.

    Exact match on the composed gate key wins; otherwise a prefix or suffix
    match lets one entry cover a metric across every mode/seed row (e.g.
    "net.sent" matches "mode=soa-batched net.sent").
    """
    overrides = base.get("tolerance_overrides") or {}
    if key in overrides:
        return float(overrides[key])
    for pattern, tol in overrides.items():
        if key.startswith(pattern) or key.endswith(pattern):
            return float(tol)
    return default


def gate_within(base, tol, cur, ref, names, prefix=""):
    """Tolerance gates: each of `names` in `cur` must stay within its
    (possibly overridden) relative tolerance of the same entry in `ref`.
    `prefix` names the row ("mode=... ") in messages and override keys."""
    rc = 0
    for name in names:
        key = f"{prefix}{name}"
        c, b = cur.get(name, 0), ref.get(name, 0)
        ktol = key_tolerance(base, key, tol)
        if not within(c, b, ktol):
            rc |= fail(f"{key}: {c} vs baseline {b} (tol {ktol:.0%})",
                       key=key, current=c, baseline=b,
                       allowed=f"±{ktol:.0%}")
        else:
            print(f"ok: {key}: {c} (baseline {b})")
    return rc


def gate_bound(key, value, bound, baseline, sep=" "):
    """Ceiling gate: `value` may not exceed `bound`, which the caller
    derives from `baseline`."""
    if value > bound:
        return fail(f"{key}{sep}{value:.3f} > bound {bound:.3f} "
                    f"(baseline {baseline:.3f})", key=key, current=value,
                    baseline=baseline, allowed=f"<= {bound:.3f}")
    print(f"ok: {key}{sep}{value:.3f} (bound {bound:.3f})")
    return 0


def gate_flags(doc, flags, prefix="", text=None):
    """Exact gates: every flag in `flags` must be true in `doc`. `text`
    maps a flag to its failure message (default "<flag> is false")."""
    rc = 0
    for flag in flags:
        if not doc[flag]:
            what = (text or {}).get(flag, f"{flag} is false")
            rc |= fail(f"{prefix}{what}", key=f"{prefix}{flag}",
                       current=False, baseline=True, allowed="exact")
    return rc


def gate_missing(base_rows, cur_rows, what):
    """Exact gate: every baseline row must be present in the current run."""
    missing = sorted(set(base_rows) - set(cur_rows))
    if not missing:
        return 0
    return fail(f"{what} missing from current run: {missing}", key=what,
                current=f"missing {missing}")


def compare_e20(base, cur, tol):
    rc = 0
    base_points = {p["n"]: p for p in base["points"]}
    # Decile wall windows at small scales are a few ms — pure scheduler
    # noise — so the tail_ratio gate only applies at the largest scale.
    gate_tail_at = max(p["n"] for p in cur["points"])
    for point in cur["points"]:
        n = point["n"]
        bp = base_points.get(n)
        if bp is None:
            print(f"note: scale n={n} has no baseline point; skipping")
            continue
        rc |= gate_within(base, tol, point["metrics"]["counters"],
                          bp["metrics"]["counters"], E20_COUNTERS, f"n={n} ")
        tail = point["tail_ratio"]
        btail = bp["tail_ratio"]
        if n != gate_tail_at:
            print(f"info: n={n} tail_ratio {tail:.3f} (small scale; not gated)")
        else:
            rc |= gate_bound(f"n={n} tail_ratio", tail,
                             max(FLATNESS_FLOOR, btail * (1 + tol)), btail)
        spr = point["slots_per_record"]
        bspr = bp["slots_per_record"]
        rc |= gate_bound(f"n={n} slots_per_record", spr,
                         max(bspr * (1 + tol), bspr + 0.5), bspr)
        print(f"info: n={n} per_submit_us {point['per_submit_us']:.2f} "
              f"(baseline {bp['per_submit_us']:.2f}; not gated)")
    flat, bflat = cur["flatness_ratio"], base["flatness_ratio"]
    rc |= gate_bound("flatness_ratio", flat,
                     max(FLATNESS_FLOOR, bflat * (1 + tol)), bflat)
    return rc


def e10_times(doc):
    # Fixed-iteration benchmarks get "/iterations:N" appended to the name;
    # strip it so lookups are stable if the iteration count changes.
    return {b["name"].split("/iterations:")[0]: b["cpu_time"]
            for b in doc["benchmarks"]
            if b.get("run_type", "iteration") == "iteration"}


def e10_ratios(times):
    """checkpointed / naive cpu-time ratios for the mid-insert family."""
    ratios = {}
    for interval in (16, 64):
        for size in (2048, 8192):
            naive = times.get(f"BM_LogMidInsert/0/{size}")
            ckpt = times.get(f"BM_LogMidInsert/{interval}/{size}")
            if naive and ckpt:
                ratios[f"mid_insert_ckpt{interval}_vs_naive/{size}"] = \
                    ckpt / naive
    return ratios


def compare_e10(base, cur, tol):
    rc = 0
    bratios = e10_ratios(e10_times(base))
    cratios = e10_ratios(e10_times(cur))
    if not cratios:
        return fail("no BM_LogMidInsert ratios found in current run")
    for name, ratio in sorted(cratios.items()):
        bratio = bratios.get(name)
        if bratio is None:
            print(f"note: {name} has no baseline; skipping")
            continue
        rc |= gate_bound(name, ratio, max(bratio * (1 + tol), bratio + 0.25),
                         bratio, sep=": ")
    return rc


E22_COUNTERS = [
    "e22.txs",
    "engine.crashes",
    "engine.recoveries",
    "broadcast.stale_resets",
    "broadcast.mid_broadcast_crashes",
    "engine.rejected_submissions",
]

E22_GAUGES = [
    "e22.availability",
    "e22.mean_recovery_lag",
    "e22.mean_convergence_lag",
]


def compare_e22(base, cur, tol):
    rc = 0
    base_rows = {r["mode"]: r for r in base["rows"]}
    for row in cur["rows"]:
        mode = row["mode"]
        flags = gate_flags(row, ("checker_clean",), f"mode={mode} ")
        if flags:
            rc |= flags
            continue
        br = base_rows.get(mode)
        if br is None:
            print(f"note: mode={mode} has no baseline row; skipping")
            continue
        rc |= gate_within(base, tol, row["metrics"]["counters"],
                          br["metrics"]["counters"], E22_COUNTERS,
                          f"mode={mode} ")
        gauges = row["metrics"]["gauges"]
        bgauges = br["metrics"]["gauges"]
        for name in E22_GAUGES:
            g, b = gauges.get(name, 0.0), bgauges.get(name, 0.0)
            # Simulated-time lags are deterministic but small; give them the
            # same near-zero slack scale as the counters, shrunk to 0.25.
            ktol = key_tolerance(base, f"mode={mode} {name}", tol)
            slack = max(abs(b) * ktol, 0.25)
            if abs(g - b) > slack:
                rc |= fail(f"mode={mode} {name}: {g:.3f} vs baseline "
                           f"{b:.3f} (slack {slack:.3f})",
                           key=f"mode={mode} {name}", current=g, baseline=b,
                           allowed=f"±{slack:.3f}")
            else:
                print(f"ok: mode={mode} {name}: {g:.3f} (baseline {b:.3f})")
    rc |= gate_missing(base_rows, [r["mode"] for r in cur["rows"]],
                       "fault modes")
    return rc


E23_COUNTERS = [
    "e23.txs",
    "e23.retained_final",
    "checker.txs_finalized",
    "checker.deliveries",
    "checker.violations",
    "checker.divergence_events",
    "checker.peak_pending",
    "checker.peak_ledger_entries",
    "checker.peak_shadow_entries",
    "broadcast.byz_corrupted",
    "broadcast.byz_duplicated",
    "broadcast.byz_reordered",
]


def compare_e23(base, cur, tol):
    rc = 0
    base_rows = {r["mode"]: r for r in base["rows"]}
    for row in cur["rows"]:
        mode = row["mode"]
        # The differential gate is binary: streaming must match the post-hoc
        # oracles on every run, and the bounded row must have drained to a
        # window-sized footprint. Any drift here is an instant failure.
        flags = gate_flags(row, ("agrees", "window_bounded"), f"mode={mode} ",
                           {"agrees": "streaming/oracle agreement is false"})
        if flags:
            rc |= flags
            continue
        br = base_rows.get(mode)
        if br is None:
            print(f"note: mode={mode} has no baseline row; skipping")
            continue
        rc |= gate_within(base, tol, row["metrics"]["counters"],
                          br["metrics"]["counters"], E23_COUNTERS,
                          f"mode={mode} ")
        if "overhead_pct_vs_off" in row:
            print(f"info: mode={mode} overhead_pct_vs_off "
                  f"{row['overhead_pct_vs_off']:.1f} (wall clock; not gated)")
    rc |= gate_missing(base_rows, [r["mode"] for r in cur["rows"]],
                       "checker modes")
    return rc


# Per-seed census fields of an e24 row: each is a deterministic function of
# (seed, config), gated within the tolerance so intentional workload or
# stage-taxonomy tweaks don't need a baseline dance.
E24_ROW_KEYS = [
    "events",
    "epochs",
    "transitions",
    "coalesced",
    "updates_profiled",
    "updates_complete",
    "folded_bytes",
]

E24_COUNTERS = [
    "epoch.count",
    "epoch.transitions",
    "epoch.coalesced",
    "epoch.updates_profiled",
    "epoch.updates_incomplete",
    "trace.events_recorded",
]


def compare_e24(base, cur, tol):
    rc = 0
    base_rows = {r["seed"]: r for r in base["rows"]}
    for row in cur["rows"]:
        seed = row["seed"]
        # Merge and validator gates are exact: the k-way merge must
        # reconstruct the capture, and the causal graph must stay clean.
        rc |= gate_flags(row, ("merged_matches_capture", "clean"),
                         f"seed={seed} ")
        br = base_rows.get(seed)
        if br is None:
            print(f"note: seed={seed} has no baseline row; skipping")
            continue
        # The stream itself is pinned exactly: same seed, same bytes.
        c, b = row.get("trace_digest"), br.get("trace_digest")
        if c is None or c != b:
            rc |= fail(f"seed={seed} trace_digest: {c} vs baseline {b}",
                       key=f"seed={seed} trace_digest", current=c,
                       baseline=b, allowed="exact")
        else:
            print(f"ok: seed={seed} trace_digest: {c}")
        rc |= gate_within(base, tol, row, br, E24_ROW_KEYS, f"seed={seed} ")
    rc |= gate_within(base, tol, cur["metrics"]["counters"],
                      base["metrics"]["counters"], E24_COUNTERS)
    rc |= gate_missing(base_rows, [r["seed"] for r in cur["rows"]], "seeds")
    return rc


# Per-row deterministic counters of an e25 row: pure functions of the
# precomputed open-loop schedule and the row's max_batch.
E25_COUNTERS = [
    "e25.txs",
    "broadcast.originated",
    "broadcast.delivered",
    "broadcast.flood_batches",
    "broadcast.flood_batched_wires",
    "broadcast.outbox_commits",
    "broadcast.outbox_records_synced",
    "net.sent",
    "net.delivered",
]

# The batching claim: the batched row (batched floods + group commit) must
# sustain at least this multiple of the unbatched ablation's saturation
# throughput. A within-run ratio of the same binary on the same machine —
# the one wall-clock-derived number that IS gated. Like the replay ceiling
# below, no baseline key can change it.
E25_SPEEDUP_FLOOR = 1.5
E25_SPEEDUP_KEY = "speedup_vs_unbatched"

# Merge-replay proportionality: on the optimized row, the applies the
# engine actually makes may exceed the paper's literal undo/redo count by
# at most this factor (exact; deterministic per schedule).
E25_REPLAY_RATIO_CEILING = 1.6
E25_REPLAY_ROW = "soa-batched"
E25_REPLAY_COUNTERS = ("engine.redone_updates", "engine.undone_updates",
                       "engine.mid_inserts", "engine.tail_appends")


def e25_replay_ratio(counters):
    """redone_updates over the literal count undone + mid + tail; None when
    a counter is missing or either side is zero (nothing was measured)."""
    if any(name not in counters for name in E25_REPLAY_COUNTERS):
        return None
    redone, undone, mid, tail = (counters[n] for n in E25_REPLAY_COUNTERS)
    literal = undone + mid + tail
    if redone == 0 or literal == 0:
        return None
    return redone / literal


def gate_replay_ratio(label, counters):
    """Fail when `counters`' replay ratio is missing, zero or above the
    ceiling."""
    ratio = e25_replay_ratio(counters)
    ceiling = E25_REPLAY_RATIO_CEILING
    key = f"{label} replay_ratio"
    if ratio is None:
        return fail(f"{key}: engine redo/undo counters missing or zero",
                    key=key, current=None, allowed=f"<= {ceiling:.2f}")
    if ratio > ceiling:
        return fail(f"{key} {ratio:.3f} > ceiling {ceiling:.2f}", key=key,
                    current=ratio, allowed=f"<= {ceiling:.2f}")
    print(f"ok: {key} {ratio:.3f} (ceiling {ceiling:.2f})")
    return 0


def compare_e25(base, cur, tol):
    rc = gate_flags(cur, ("rows_agree",), text={
        "rows_agree": "rows_agree is false (replica states diverged across "
                      "ablation rows)"})
    floor = E25_SPEEDUP_FLOOR
    speedup = cur.get(E25_SPEEDUP_KEY)
    if speedup is None:
        rc |= fail(f"{E25_SPEEDUP_KEY} missing from the current run",
                   key=E25_SPEEDUP_KEY, current=None,
                   baseline=base.get(E25_SPEEDUP_KEY),
                   allowed=f">= {floor:.2f}")
    elif speedup < floor:
        rc |= fail(f"{E25_SPEEDUP_KEY} {speedup:.3f} < floor {floor:.2f}",
                   key=E25_SPEEDUP_KEY, current=speedup,
                   baseline=base.get(E25_SPEEDUP_KEY),
                   allowed=f">= {floor:.2f}")
    else:
        print(f"ok: {E25_SPEEDUP_KEY} {speedup:.3f} (floor {floor:.2f})")
    # The standalone merge replay's work, under the same ceiling.
    rc |= gate_replay_ratio("merge_replay",
                            cur.get("merge_replay", {}).get("counters", {}))
    base_rows = {r["mode"]: r for r in base["rows"]}
    for row in cur["rows"]:
        mode = row["mode"]
        rc |= gate_flags(row, ("converged", "decisions_ok", "counters_repeat"),
                         f"mode={mode} ")
        counters = row["metrics"]["counters"]
        if mode == E25_REPLAY_ROW:
            rc |= gate_replay_ratio(f"mode={mode}", counters)
        else:
            ratio = e25_replay_ratio(counters)
            shown = "n/a" if ratio is None else f"{ratio:.3f}"
            print(f"info: mode={mode} replay_ratio {shown} (not gated)")
        br = base_rows.get(mode)
        if br is None:
            print(f"note: mode={mode} has no baseline row; skipping")
            continue
        rc |= gate_within(base, tol, counters, br["metrics"]["counters"],
                          E25_COUNTERS, f"mode={mode} ")
        print(f"info: mode={mode} tx_per_sec_per_node "
              f"{row['tx_per_sec_per_node']:.1f} wall_seconds "
              f"{row['wall_seconds']:.3f} (wall clock; not gated)")
    rc |= gate_missing(base_rows, [r["mode"] for r in cur["rows"]],
                       "ablation rows")
    return rc


# Per-seed census fields of an e26 row: each is a deterministic function of
# (seed, config), gated within the tolerance so intentional workload or
# adversary tweaks don't need a baseline dance.
E26_ROW_KEYS = [
    "events",
    "epochs",
    "incidents",
    "in_stream",
    "contributors",
    "series_samples",
    "bundle_json_bytes",
    "folded_bytes",
]

E26_COUNTERS = [
    "checker.violations",
    "checker.divergence_events",
    "checker.incident_seeds",
    "checker.pinned_windows",
    "broadcast.byz_corrupted",
    "epoch.count",
    "epoch.transitions",
]


def compare_e26(base, cur, tol):
    rc = 0
    base_rows = {r["seed"]: r for r in base["rows"]}
    for row in cur["rows"]:
        seed = row["seed"]
        # Forensic gates are exact: bundles must be byte-deterministic,
        # admission attribution must hold for every in-stream incident, and
        # the flame self-diff must be empty.
        rc |= gate_flags(row, ("bundle_deterministic", "attribution_ok",
                               "self_diff_clean"), f"seed={seed} ")
        br = base_rows.get(seed)
        if br is None:
            print(f"note: seed={seed} has no baseline row; skipping")
            continue
        rc |= gate_within(base, tol, row, br, E26_ROW_KEYS, f"seed={seed} ")
    rc |= gate_within(base, tol, cur["metrics"]["counters"],
                      base["metrics"]["counters"], E26_COUNTERS)
    rc |= gate_missing(base_rows, [r["seed"] for r in cur["rows"]], "seeds")
    return rc


# DES-side deterministic counters of the e27 document: pure functions of
# the seed and the workload config.
E27_COUNTERS = [
    "cluster.updates_originated",
    "broadcast.originated",
    "broadcast.delivered",
    "net.sent",
    "net.delivered",
    "trace.events_recorded",
]


def compare_e27(base, cur, tol):
    des = cur["des"]
    # The DES row's gates are exact: the port must stay byte-deterministic
    # and checker-clean.
    rc = gate_flags(des, ("deterministic", "checker_clean"), "des ")
    rc |= gate_within(base, tol, des, base["des"], ["trace_events"], "des ")
    rc |= gate_within(base, tol, cur["metrics"]["counters"],
                      base["metrics"]["counters"], E27_COUNTERS)
    print(f"info: des updates_per_wall_s {des['updates_per_wall_s']:.1f} "
          f"(wall clock; not gated)")
    # Threaded rows: nothing about a real-thread run is deterministic, so
    # the only gates are the exact booleans; counts and wall are reported.
    for row in cur["threaded"]:
        seed = row["seed"]
        rc |= gate_flags(row, ("converged", "checker_clean", "fates_ok"),
                         f"threaded seed={seed} ")
        print(f"info: threaded seed={seed} sends {row['sends']} "
              f"updates_per_wall_s {row['updates_per_wall_s']:.1f} "
              f"(nondeterministic; not gated)")
    rc |= gate_missing([r["seed"] for r in base["threaded"]],
                       [r["seed"] for r in cur["threaded"]], "threaded seeds")
    return rc


COMPARE = {"e10": compare_e10, "e20": compare_e20, "e22": compare_e22,
           "e23": compare_e23, "e24": compare_e24, "e25": compare_e25,
           "e26": compare_e26, "e27": compare_e27}


def _selftest_e22_doc():
    """Minimal e22 document that passes its own gates."""
    def row(mode):
        return {"mode": mode, "checker_clean": True,
                "metrics": {"counters": {"e22.txs": 500, "engine.crashes": 2},
                            "gauges": {"e22.availability": 0.98}}}
    return {"rows": [row("clean"), row("crash-amnesia")]}


def _selftest_e23_doc():
    """Minimal e23 document that passes its own gates."""
    def row(mode):
        return {"mode": mode, "agrees": True, "window_bounded": True,
                "metrics": {"counters": {"e23.txs": 500,
                                         "checker.deliveries": 2000}}}
    return {"rows": [row("streaming"), row("streaming-byz")]}


def _selftest_e27_doc():
    """Minimal e27 document that passes its own gates."""
    def trow(seed):
        return {"seed": seed, "converged": True, "checker_clean": True,
                "fates_ok": True, "sends": 800, "resolved": 800,
                "trace_events": 7800, "wall_seconds": 0.1,
                "updates_per_wall_s": 4000.0}
    return {"des": {"seed": 1, "deterministic": True, "checker_clean": True,
                    "trace_events": 11900, "wall_seconds": 0.004,
                    "updates_per_wall_s": 100000.0},
            "threaded": [trow(10), trow(11)],
            "metrics": {"counters": {"cluster.updates_originated": 400,
                                     "broadcast.originated": 400,
                                     "net.sent": 2400},
                        "gauges": {}}}


def _selftest_e26_doc():
    """Minimal e26 document that passes its own gates."""
    def row(seed):
        return {"seed": seed, "events": 9000, "epochs": 7, "incidents": 20,
                "in_stream": 20, "contributors": 60, "series_samples": 7,
                "bundle_json_bytes": 40000, "folded_bytes": 900,
                "bundle_deterministic": True, "attribution_ok": True,
                "self_diff_clean": True}
    return {"rows": [row(1), row(2)],
            "metrics": {"counters": {"checker.violations": 40,
                                     "checker.incident_seeds": 40,
                                     "broadcast.byz_corrupted": 30,
                                     "epoch.count": 14},
                        "gauges": {}}}


def _selftest_e24_doc():
    """Minimal e24 document that passes its own gates."""
    def row(seed):
        return {"seed": seed, "events": 7000, "epochs": 7, "transitions": 6,
                "coalesced": 0, "updates_profiled": 190,
                "updates_complete": 190, "folded_bytes": 1500,
                "trace_digest": f"0x{seed:016x}",
                "merged_matches_capture": True, "clean": True}
    return {"rows": [row(1), row(2)],
            "metrics": {"counters": {"epoch.count": 21,
                                     "trace.events_recorded": 21000},
                        "gauges": {}}}


def _selftest_e25_doc():
    """Minimal e25 document that passes its own gates."""
    def row(mode, batch, rate):
        return {"mode": mode, "max_batch": batch,
                "converged": True, "decisions_ok": True,
                "counters_repeat": True,
                "wall_seconds": 1.0, "tx_per_sec_per_node": rate,
                "metrics": {"counters": {"e25.txs": 1000, "net.sent": 5000,
                                         "engine.redone_updates": 1500,
                                         "engine.undone_updates": 900,
                                         "engine.mid_inserts": 50,
                                         "engine.tail_appends": 50},
                            "gauges": {}}}
    return {"rows_agree": True, "speedup_vs_unbatched": 2.0,
            "merge_replay": {"counters": {"engine.redone_updates": 400,
                                          "engine.undone_updates": 5000,
                                          "engine.mid_inserts": 15000,
                                          "engine.tail_appends": 5000}},
            "rows": [row("soa-batched", 8, 100.0),
                     row("soa-unbatched", 0, 50.0)]}


def selftest():
    """Gate-machinery probes against synthetic documents (no files)."""
    import copy
    rc = 0

    def check(name, cond):
        nonlocal rc
        print(f"{'ok' if cond else 'FAIL'}: selftest {name}")
        if not cond:
            rc = 1

    check("within exact", within(100, 100, 0.15))
    check("within near-zero slack", within(1, 0, 0.15))
    check("within rejects drift", not within(200, 100, 0.15))
    base = {"tolerance_overrides": {"mode=a widget": 3.0, "gadget": 0.5}}
    check("override exact key",
          key_tolerance(base, "mode=a widget", 0.15) == 3.0)
    check("override by suffix",
          key_tolerance(base, "mode=b gadget", 0.15) == 0.5)
    check("override falls back",
          key_tolerance(base, "mode=b sprocket", 0.15) == 0.15)
    check("no overrides falls back", key_tolerance({}, "x", 0.15) == 0.15)

    # compare_e25 end to end: identity passes; a dirty flag, a sub-floor
    # speedup, or counter drift each fail; an override forgives the drift.
    # (The probes below legitimately print REGRESSION lines.)
    doc = _selftest_e25_doc()
    check("e25 identity passes", compare_e25(doc, copy.deepcopy(doc),
                                             0.15) == 0)
    bad = copy.deepcopy(doc)
    bad["rows"][0]["converged"] = False
    check("e25 catches dirty flag", compare_e25(doc, bad, 0.15) != 0)
    bad = copy.deepcopy(doc)
    bad["rows"][1]["counters_repeat"] = False
    check("e25 catches unrepeated counters", compare_e25(doc, bad, 0.15) != 0)
    bad = copy.deepcopy(doc)
    bad["speedup_vs_unbatched"] = 1.2
    check("e25 enforces speedup floor", compare_e25(doc, bad, 0.15) != 0)
    lowered = copy.deepcopy(doc)
    lowered["speedup_floor"] = 1.0
    check("e25 floor ignores a baseline speedup_floor",
          compare_e25(lowered, bad, 0.15) != 0)
    bad = copy.deepcopy(doc)
    del bad["speedup_vs_unbatched"]
    check("e25 fails a missing speedup", compare_e25(doc, bad, 0.15) != 0)
    bad = copy.deepcopy(doc)
    bad["rows"][0]["metrics"]["counters"]["engine.redone_updates"] = 7100
    check("e25 enforces replay-ratio ceiling",
          compare_e25(doc, bad, 0.15) != 0)
    bad = copy.deepcopy(doc)
    bad["rows"][1]["metrics"]["counters"]["engine.redone_updates"] = 7100
    check("e25 replay ratio gates only soa-batched",
          compare_e25(doc, bad, 0.15) == 0)
    bad = copy.deepcopy(doc)
    del bad["rows"][0]["metrics"]["counters"]["engine.redone_updates"]
    check("e25 replay ratio fails on a missing counter",
          compare_e25(doc, bad, 0.15) != 0)
    bad = copy.deepcopy(doc)
    for name in ("engine.undone_updates", "engine.mid_inserts",
                 "engine.tail_appends"):
        bad["rows"][0]["metrics"]["counters"][name] = 0
    check("e25 replay ratio fails on a zero literal count",
          compare_e25(doc, bad, 0.15) != 0)
    bad = copy.deepcopy(doc)
    bad["merge_replay"]["counters"]["engine.redone_updates"] = 96000
    check("e25 enforces the merge-replay ratio ceiling",
          compare_e25(doc, bad, 0.15) != 0)
    bad = copy.deepcopy(doc)
    del bad["merge_replay"]["counters"]
    check("e25 merge-replay ratio fails on missing counters",
          compare_e25(doc, bad, 0.15) != 0)
    bad = copy.deepcopy(doc)
    bad["rows"][1]["metrics"]["counters"]["net.sent"] = 50000
    check("e25 catches counter drift", compare_e25(doc, bad, 0.15) != 0)
    loose = copy.deepcopy(doc)
    loose["tolerance_overrides"] = {"net.sent": 10.0}
    check("e25 honors override", compare_e25(loose, bad, 0.15) == 0)

    # compare_e24 end to end: identity passes; a changed stream digest, a
    # missing one, or a broken ring merge each fail.
    doc = _selftest_e24_doc()
    check("e24 identity passes", compare_e24(doc, copy.deepcopy(doc),
                                             0.15) == 0)
    bad = copy.deepcopy(doc)
    bad["rows"][1]["trace_digest"] = "0x00000000deadbeef"
    check("e24 pins the trace digest exactly",
          compare_e24(doc, bad, 0.15) != 0)
    bad = copy.deepcopy(doc)
    del bad["rows"][0]["trace_digest"]
    check("e24 fails a missing trace digest", compare_e24(doc, bad, 0.15) != 0)
    bad = copy.deepcopy(doc)
    bad["rows"][0]["merged_matches_capture"] = False
    check("e24 catches a broken ring merge", compare_e24(doc, bad, 0.15) != 0)

    # compare_e26 end to end: identity passes; a nondeterministic bundle or
    # census drift each fail; an override forgives the drift.
    doc = _selftest_e26_doc()
    check("e26 identity passes", compare_e26(doc, copy.deepcopy(doc),
                                             0.15) == 0)
    bad = copy.deepcopy(doc)
    bad["rows"][0]["bundle_deterministic"] = False
    check("e26 catches nondeterministic bundle",
          compare_e26(doc, bad, 0.15) != 0)
    bad = copy.deepcopy(doc)
    bad["rows"][1]["attribution_ok"] = False
    check("e26 catches broken attribution", compare_e26(doc, bad, 0.15) != 0)
    bad = copy.deepcopy(doc)
    bad["rows"][0]["incidents"] = 200
    check("e26 catches census drift", compare_e26(doc, bad, 0.15) != 0)
    loose = copy.deepcopy(doc)
    loose["tolerance_overrides"] = {"incidents": 20.0}
    check("e26 honors override", compare_e26(loose, bad, 0.15) == 0)

    # compare_e27 end to end: identity passes; a nondeterministic DES run,
    # an unconverged threaded row, or DES counter drift each fail; an
    # override forgives the drift and wall-clock drift never fails.
    doc = _selftest_e27_doc()
    check("e27 identity passes", compare_e27(doc, copy.deepcopy(doc),
                                             0.15) == 0)
    bad = copy.deepcopy(doc)
    bad["des"]["deterministic"] = False
    check("e27 catches nondeterministic DES", compare_e27(doc, bad, 0.15) != 0)
    bad = copy.deepcopy(doc)
    bad["threaded"][1]["converged"] = False
    check("e27 catches unconverged threaded row",
          compare_e27(doc, bad, 0.15) != 0)
    bad = copy.deepcopy(doc)
    bad["metrics"]["counters"]["net.sent"] = 24000
    check("e27 catches counter drift", compare_e27(doc, bad, 0.15) != 0)
    loose = copy.deepcopy(doc)
    loose["tolerance_overrides"] = {"net.sent": 20.0}
    check("e27 honors override", compare_e27(loose, bad, 0.15) == 0)
    noisy = copy.deepcopy(doc)
    noisy["threaded"][0]["sends"] = 5000
    noisy["threaded"][0]["updates_per_wall_s"] = 123.0
    noisy["des"]["wall_seconds"] = 9.9
    check("e27 ignores wall/send noise", compare_e27(doc, noisy, 0.15) == 0)

    # compare_e22 and compare_e23 end to end: identity passes; each false
    # exact flag, a dropped row, or counter drift fails.
    for kind, doc, flags in (
            ("e22", _selftest_e22_doc(), ("checker_clean",)),
            ("e23", _selftest_e23_doc(), ("agrees", "window_bounded"))):
        compare = COMPARE[kind]
        check(f"{kind} identity passes",
              compare(doc, copy.deepcopy(doc), 0.15) == 0)
        for flag in flags:
            bad = copy.deepcopy(doc)
            bad["rows"][1][flag] = False
            check(f"{kind} catches a false {flag}",
                  compare(doc, bad, 0.15) != 0)
        bad = copy.deepcopy(doc)
        del bad["rows"][0]
        check(f"{kind} catches a dropped row", compare(doc, bad, 0.15) != 0)
        bad = copy.deepcopy(doc)
        bad["rows"][0]["metrics"]["counters"][f"{kind}.txs"] = 5000
        check(f"{kind} catches counter drift", compare(doc, bad, 0.15) != 0)

    FAILURES.clear()  # Probe-induced failures are expected, not reportable.
    print("SELFTEST " + ("PASS" if rc == 0 else "FAIL"))
    return rc


def main(argv):
    if len(argv) >= 2 and argv[1] == "--selftest":
        return selftest()
    if len(argv) < 4:
        print(__doc__)
        return 2
    kind, base_path, cur_path = argv[1], argv[2], argv[3]
    tol = DEFAULT_TOLERANCE
    if len(argv) > 5 and argv[4] == "--tolerance":
        tol = float(argv[5])
    try:
        with open(base_path) as f:
            base = json.load(f)
        with open(cur_path) as f:
            cur = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error loading inputs: {e}")
        return 2
    compare = COMPARE.get(kind)
    if compare is None:
        print(f"unknown kind {kind!r} (want e10, e20, e22, e23, e24, e25, "
              f"e26 or e27)")
        return 2
    rc = compare(base, cur, tol)
    if rc != 0 and FAILURES:
        print_failure_summary()
    print("PASS" if rc == 0 else "FAIL")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv))

#!/usr/bin/env python3
"""Compare a bench JSON emission against its committed baseline.

Usage:
    compare_bench.py <bench> bench/baselines/BENCH_<bench>.json BENCH_<bench>.json
    compare_bench.py --selftest

Each gated bench (e10, e20, e22-e27) is one entry of the GATES table: row
sets, each naming where its rows live and the field that matches a current
row to its baseline row (or a single object), and the gates on them:

* flag: the value must be true.
* exact: the value must equal the baseline's.
* within: |current - baseline| <= max(15% of baseline, slack); the slack is
  2 unless the gate sets another.
* ceiling: current <= max(baseline * 1.15, baseline + plus, floor).
* limit: a constant of this script (E25's speedup floor and replay-ratio
  ceiling) that no baseline can move; a missing value fails it.
* rows-present: every baseline row must appear in the current run.

Values the table only shows are printed and never gated. A gated value the
baseline row has and the current run lacks fails; so does an exact, within
or ceiling value the current run has and the baseline row lacks. A value
absent from both is not gated, except by a limit. Exact, within and ceiling
gates skip a row new to the current run. The gates live here, so that no
baseline re-pin can loosen one.

`--selftest` edits the committed baselines. Each must pass against itself;
a gated value broken or deleted, or a rows-present row dropped, must fail; a
shown value, or one outside its gate's `at` row, x10 or deleted must pass.
Derivations have probes of their own, and each kind's edges are pinned. A
gate naming a value that no baseline row it covers carries fails too.

On failure a markdown table of the failed keys follows the log lines (for
CI job summaries). Exit 0 = pass, 1 = regression, 2 = usage/parse error.
"""

import contextlib
import copy
import io
import json
import os
import sys
from collections import namedtuple

TOL = 0.15  # relative tolerance of within and ceiling gates

FLAG, EXACT, WITHIN, CEILING, LIMIT, SHOW = (
    "flag", "exact", "within", "ceiling", "limit", "show")
RELATIVE = (EXACT, WITHIN, CEILING)  # kinds that compare with the baseline

# path: dotted path to the row list or to one object ("" is the document);
# key: the field matching a current row to its baseline row (None for one
# object); label: message prefix; present: names the rows a rows-present
# gate requires (None: no such gate).
Rows = namedtuple("Rows", "path key gates label present", defaults=("", None))
# derive: computes values the gates read (both documents go through it);
# probes: the bench's own self-test probes, (what, baseline, current run,
# whether it passes) on edited copies of the raw committed baseline.
Bench = namedtuple("Bench", "sets derive probes",
                   defaults=(lambda doc: doc, lambda raw: ()))


def gate(kind, names, where="", **opts):
    """`kind` applied to each of `names` in the row's `where` object (a
    dotted path; "" is the row itself). Options: slack (within), plus and
    floor (ceiling), lo or hi (limit), and at: the one row the gate applies
    to, as a row key or as a function of the current run's keys."""
    return kind, names, where, opts


E10_RATIOS = {f"mid_insert_ckpt{i}_vs_naive/{n}": (f"BM_LogMidInsert/{i}/{n}",
                                                  f"BM_LogMidInsert/0/{n}")
              for i in (16, 64) for n in (2048, 8192)}


def e10_ratios(doc):
    """Checkpointed / naive cpu-time ratios of the mid-insert family."""
    # Fixed-iteration benchmarks get "/iterations:N" appended to the name;
    # strip it so lookups are stable if the iteration count changes.
    times = {b.get("name", "").split("/iterations:")[0]: b.get("cpu_time")
             for b in doc.get("benchmarks", [])
             if b.get("run_type", "iteration") == "iteration"}
    return {name: times[ckpt] / times[naive]
            for name, (ckpt, naive) in E10_RATIOS.items()
            if times.get(ckpt) and times.get(naive)}


def e10_probes(raw):
    """A checkpointed mid-insert time x10 breaks its ratio and a dropped
    mid-insert entry drops it; no other entry is gated."""
    for i, b in enumerate(raw["benchmarks"]):
        mid = b["name"].startswith("BM_LogMidInsert/")
        slow, dropped = copy.deepcopy(raw), copy.deepcopy(raw)
        slow["benchmarks"][i]["cpu_time"] *= 10
        del dropped["benchmarks"][i]
        yield f"{b['name']} x10", raw, slow, not mid or "/0/" in b["name"]
        yield f"{b['name']} dropped", raw, dropped, not mid


# The batching claim: the batched row (batched floods + group commit) must
# sustain at least this multiple of the unbatched ablation's saturation
# throughput.
E25_SPEEDUP_FLOOR = 1.5
# Merge-replay proportionality: the applies the engine makes may exceed the
# paper's literal undo/redo count by at most this factor.
E25_REPLAY_RATIO_CEILING = 1.6
E25_REPLAY_COUNTERS = ("engine.redone_updates", "engine.undone_updates",
                       "engine.mid_inserts", "engine.tail_appends")


def e25_replay_ratios(doc):
    """Adds replay_ratio, redone over the literal count undone + mid + tail,
    to every row and to the merge replay; left out when a counter is missing
    or either side is zero (nothing was measured), so its limit fails."""
    for obj in [doc.get("merge_replay")] + doc.get("rows", []):
        counters = find(obj, "counters") or find(obj, "metrics.counters") or {}
        if all(name in counters for name in E25_REPLAY_COUNTERS):
            redone, *literal = (counters[n] for n in E25_REPLAY_COUNTERS)
            if redone and sum(literal):
                obj["replay_ratio"] = redone / sum(literal)
    return doc


def e25_probes(raw):
    """Redone at 1.7x the literal count, a zeroed literal count and a
    deleted counter fail the replay ratio on the batched row and the merge
    replay, and pass on the unbatched row, which it does not gate. Baseline
    keys that once loosened gates change no verdict."""
    redone, *literal = E25_REPLAY_COUNTERS
    rows = ["merge_replay"] + [r["mode"] for r in raw["rows"]]
    for i, where in enumerate(rows):
        for what, edit in [
                ("redone at 1.7x literal", lambda c: c.update(
                    {redone: 1.7 * sum(c[n] for n in literal)})),
                ("literal count zeroed", lambda c: c.update(
                    dict.fromkeys(literal, 0))),
                ("mid_inserts deleted", lambda c: c.pop(literal[1]))]:
            cur = copy.deepcopy(raw)
            row = ([cur["merge_replay"]] + cur["rows"])[i]
            edit(find(row, "counters") or find(row, "metrics.counters"))
            yield f"{where} {what}", raw, cur, where == "soa-unbatched"
    loose = dict(raw, speedup_floor=0.0, tolerance_overrides={"net.sent": 10})
    slow, chatty = copy.deepcopy(raw), copy.deepcopy(raw)
    slow["speedup_vs_unbatched"] = 1.45
    chatty["rows"][0]["metrics"]["counters"]["net.sent"] *= 10
    yield "speedup below floor, loosening baseline keys", loose, slow, False
    yield "net.sent x10, loosening baseline keys", loose, chatty, False


GATES = {
    # google-benchmark substrate microbenchmarks: absolute ns/op are
    # machine-dependent, so the gate compares the checkpointed-vs-naive
    # mid-insert ratios within one run with the same ratios in the baseline.
    "e10": Bench([Rows("", None, [gate(CEILING, E10_RATIOS, plus=0.25)])],
                 e10_ratios, e10_probes),
    # Submit-scaling harness. The retained-footprint counters are exact for
    # a given seed and scale, and may drift within the tolerance so an
    # intentional policy tweak needs no baseline dance. Flat is the
    # O(window) claim: tail_ratio is last-decile / first-decile wall per
    # submit, flatness_ratio large-scale / small-scale per-submit time. On
    # small, noisy runs a baseline of 0.9 must not make 1.1 a regression,
    # hence the floor. Decile windows at small scales are a few ms of
    # scheduler noise, so tail_ratio is gated at the run's largest scale
    # only. Absolute wall times are machine noise.
    "e20": Bench([
        Rows("points", "n", [
            gate(WITHIN, ["retained.log_entries", "retained.checkpoints",
                          "retained.repair_store", "retained.prefix_slots"],
                 "metrics.counters"),
            gate(CEILING, ["tail_ratio"], floor=2.0, at=max),
            gate(CEILING, ["slots_per_record"], plus=0.5),
            gate(SHOW, ["per_submit_us"])]),
        Rows("", None, [gate(CEILING, ["flatness_ratio"], floor=2.0)]),
    ]),
    # Fault-matrix harness: every number is a function of (fault mode,
    # seed) in simulated time. A fault mode that leaves the checkers dirty
    # fails at once; the fault and availability counters and lag gauges may
    # drift within the tolerance, so a workload tweak needs no baseline
    # dance. The lags are deterministic but small: their slack is 0.25.
    "e22": Bench([
        Rows("rows", "mode", present="fault modes", gates=[
            gate(FLAG, ["checker_clean"]),
            gate(WITHIN, ["e22.txs", "engine.crashes", "engine.recoveries",
                          "broadcast.stale_resets",
                          "broadcast.mid_broadcast_crashes",
                          "engine.rejected_submissions"], "metrics.counters"),
            gate(WITHIN, ["e22.availability", "e22.mean_recovery_lag",
                          "e22.mean_convergence_lag"], "metrics.gauges",
                 slack=0.25)])]),
    # Streaming-checker harness. Streaming reports must match the post-hoc
    # oracles on every run (agrees), and the bounded row must drain to a
    # window-sized footprint (window_bounded). The checker and adversary
    # counters are deterministic per (mode, seed); the off row has no
    # checker.* counters. Wall-clock overhead goes to stderr only.
    "e23": Bench([
        Rows("rows", "mode", present="checker modes", gates=[
            gate(FLAG, ["agrees", "window_bounded"]),
            gate(WITHIN, [
                "e23.txs", "e23.retained_final", "checker.txs_finalized",
                "checker.deliveries", "checker.violations",
                "checker.divergence_events", "checker.peak_pending",
                "checker.peak_ledger_entries", "checker.peak_shadow_entries",
                "broadcast.byz_corrupted", "broadcast.byz_duplicated",
                "broadcast.byz_reordered"], "metrics.counters")])]),
    # Flame-attribution harness. The stream is pinned exactly: same seed,
    # same bytes. The sharded tracer's k-way ring merge must reconstruct
    # the capture, and the causal validator must stay clean. The per-seed
    # epoch/attribution census and merged epoch.* counters are deterministic
    # and may drift within the tolerance, so a workload or stage-taxonomy
    # tweak needs no baseline dance. Flame-build wall time goes to stderr.
    "e24": Bench([
        Rows("rows", "seed", present="seeds", gates=[
            gate(FLAG, ["merged_matches_capture", "clean"]),
            gate(EXACT, ["trace_digest"]),
            gate(WITHIN, ["events", "epochs", "transitions", "coalesced",
                          "updates_profiled", "updates_complete",
                          "folded_bytes"])]),
        Rows("", None, [gate(WITHIN, [
            "epoch.count", "epoch.transitions", "epoch.coalesced",
            "epoch.updates_profiled", "epoch.updates_incomplete",
            "trace.events_recorded"], "metrics.counters")]),
    ]),
    # Open-loop saturation harness. Convergence, cross-row replica-state
    # agreement, pass-to-pass repetition and the packet, batch and
    # outbox-sync counters are pure functions of the precomputed schedule
    # and the row's max_batch. Wall-clock throughput is machine noise,
    # except the within-run speedup of the batched row over the unbatched
    # ablation (each row's median pass, a ratio like e10's). The replay
    # ratio is gated on the batched row and the standalone merge replay.
    "e25": Bench(derive=e25_replay_ratios, probes=e25_probes, sets=[
        Rows("", None, [gate(FLAG, ["rows_agree"]), gate(
            LIMIT, ["speedup_vs_unbatched"], lo=E25_SPEEDUP_FLOOR)]),
        Rows("merge_replay", None, label="merge_replay ", gates=[gate(
            LIMIT, ["replay_ratio"], hi=E25_REPLAY_RATIO_CEILING)]),
        Rows("rows", "mode", present="ablation rows", gates=[
            gate(FLAG, ["converged", "decisions_ok", "counters_repeat"]),
            gate(LIMIT, ["replay_ratio"], hi=E25_REPLAY_RATIO_CEILING,
                 at="soa-batched"),
            gate(WITHIN, [
                "e25.txs", "broadcast.originated", "broadcast.delivered",
                "broadcast.flood_batches", "broadcast.flood_batched_wires",
                "broadcast.outbox_commits", "broadcast.outbox_records_synced",
                "net.sent", "net.delivered"], "metrics.counters"),
            gate(SHOW, ["tx_per_sec_per_node", "wall_seconds"])])]),
    # Incident-forensics harness. Every seed's bundle must be
    # byte-deterministic across two independent runs, every in-stream
    # incident's admitted epoch must contain its originate event, and a
    # flame profile diffed against itself must be empty. The per-seed
    # forensic census and the merged checker.*/epoch.* counters are
    # deterministic and may drift within the tolerance, so a workload or
    # adversary tweak needs no baseline dance. Wall time goes to stderr.
    "e26": Bench([
        Rows("rows", "seed", present="seeds", gates=[
            gate(FLAG, ["bundle_deterministic", "attribution_ok",
                        "self_diff_clean"]),
            gate(WITHIN, ["events", "epochs", "incidents", "in_stream",
                          "contributors", "series_samples",
                          "bundle_json_bytes", "folded_bytes"])]),
        Rows("", None, [gate(WITHIN, [
            "checker.violations", "checker.divergence_events",
            "checker.incident_seeds", "checker.pinned_windows",
            "broadcast.byz_corrupted", "epoch.count", "epoch.transitions"],
            "metrics.counters")]),
    ]),
    # Execution-backend harness. The DES row must stay byte-deterministic
    # and checker-clean, and its trace census and network/broadcast
    # counters are pure functions of the seed and workload config. Nothing
    # about a real-thread run is deterministic, so a threaded row is gated
    # on its booleans only (convergence, the oracle stack, the send/fate
    # shutdown contract); its send count and wall clock jitter freely.
    "e27": Bench([
        Rows("des", None, label="des ", gates=[
            gate(FLAG, ["deterministic", "checker_clean"]),
            gate(WITHIN, ["trace_events"]),
            gate(SHOW, ["updates_per_wall_s"])]),
        Rows("", None, [gate(WITHIN, [
            "cluster.updates_originated", "broadcast.originated",
            "broadcast.delivered", "net.sent", "net.delivered",
            "trace.events_recorded"], "metrics.counters")]),
        Rows("threaded", "seed", label="threaded ", present="threaded seeds",
             gates=[gate(FLAG, ["converged", "checker_clean", "fates_ok"]),
                    gate(SHOW, ["sends", "updates_per_wall_s"])]),
    ]),
}


# Every gate failure: one row each of the markdown summary for CI.
FAILURES = []


def fail(msg, key, current=None, baseline=None, allowed=None):
    print(f"REGRESSION: {msg}")
    FAILURES.append((key, current, baseline, allowed))
    return 1


def _cell(v):
    return "" if v is None else f"{v:.3f}" if isinstance(v, float) else str(v)


def print_failure_summary():
    """Markdown table of failed keys (printed only when gates failed)."""
    print("\n### Bench gate failures\n\n| key | current | baseline | allowed |"
          "\n| --- | --- | --- | --- |")
    for f in FAILURES:
        print(f"| {' | '.join(map(_cell, f))} |")


def find(obj, path, name=None):
    """obj's value at dotted `path` ("" is obj itself), then at key `name`
    (which may contain dots); None when absent."""
    for part in [p for p in path.split(".") if p] + \
            ([] if name is None else [name]):
        obj = obj.get(part) if isinstance(obj, dict) else None
    return obj


def rows_of(doc, rows):
    """{key: row} for a row set; a single object is the one row keyed ""."""
    found = find(doc, rows.path)
    if rows.key is None:
        return {"": found if isinstance(found, dict) else {}}
    return {r.get(rows.key): r for r in found or [] if isinstance(r, dict)}


def rule(kind, opts, b):
    """(test of a current value, what it allows, a value it rejects) for a
    gate against baseline value b."""
    if kind == FLAG:
        return bool, "true", False
    if kind == EXACT:
        return (lambda c: c == b), "exact", f"{b}~"
    if kind == WITHIN:
        slack = max(abs(b) * TOL, opts.get("slack", 2.0))
        return (lambda c: abs(c - b) <= slack), f"±{slack:.3f}", b + 2 * slack
    if kind == CEILING:
        top = max(b * (1 + TOL), b + opts.get("plus", 0.0),
                  opts.get("floor", 0.0))
        return (lambda c: c <= top), f"<= {top:.3f}", 2 * top + 1
    lo, hi = opts.get("lo"), opts.get("hi")
    if lo is not None:
        return (lambda c: c >= lo), f">= {lo:.2f}", lo / 2
    return (lambda c: c <= hi), f"<= {hi:.2f}", hi * 2


def check_value(key, kind, opts, c, b, unmatched):
    """One gate on current value c and baseline value b (None when absent);
    `unmatched` when the current row has no baseline row. 1 on failure."""
    if kind in RELATIVE and unmatched:
        return 0  # a row new to this run: nothing to compare with
    if c is None and b is None and kind != LIMIT:
        return 0
    if c is None:
        return fail(f"{key} missing from the current run", key, baseline=b,
                    allowed=kind)
    if b is None and kind in RELATIVE:
        return fail(f"{key}: {_cell(c)} has no baseline value", key, c,
                    allowed=kind)
    test, allowed, _ = rule(kind, opts, b)
    if not test(c):
        return fail(f"{key}: {_cell(c)} vs baseline {_cell(b)} "
                    f"(allowed {allowed})", key, c, b, allowed)
    if kind != FLAG:
        print(f"ok: {key}: {_cell(c)} (baseline {_cell(b)}; "
              f"allowed {allowed})")
    return 0


def row_label(rows, k):
    return f"{rows.label}{rows.key}={k} " if rows.key else rows.label


def gated(kind, opts, k, keys):
    """Whether a gate checks row k: not a shown value, and any `at` names k."""
    at = opts.get("at", k)
    return kind != SHOW and k == (at(keys, default=None) if callable(at)
                                  else at)


def check(bench, base, cur):
    """Apply every gate of `bench` to derived documents; 1 on regression."""
    rc = 0
    for rows in bench.sets:
        base_rows, cur_rows = rows_of(base, rows), rows_of(cur, rows)
        keys = [k for k in cur_rows if k is not None]
        for k, row in cur_rows.items():
            label, brow = row_label(rows, k), base_rows.get(k)
            if brow is None:
                print(f"note: {label}has no baseline row; skipping its "
                      f"baseline gates")
            for kind, names, where, opts in rows.gates:
                for name in names:
                    c = find(row, where, name)
                    if gated(kind, opts, k, keys):
                        rc |= check_value(label + name, kind, opts, c,
                                          find(brow, where, name),
                                          brow is None)
                    else:
                        print(f"info: {label}{name} {_cell(c) or 'n/a'} "
                              f"(not gated)")
        missing = sorted(set(base_rows) - set(cur_rows), key=str)
        if rows.present and missing:
            rc |= fail(f"{rows.present} missing from current run: {missing}",
                       rows.present, current=f"missing {missing}")
    return rc


def selftest():
    """Probes generated from GATES against the committed baselines."""
    problems, probes = [], 0

    def probe(what, bench, base, cur, passes):  # raw documents
        nonlocal probes
        probes += 1
        with contextlib.redirect_stdout(io.StringIO()):
            ok = check(bench, *(bench.derive(copy.deepcopy(doc))
                                for doc in (base, cur))) == 0
        FAILURES.clear()
        if ok != passes:
            problems.append(what)

    for kind, bench in GATES.items():
        with open(os.path.join(os.path.dirname(__file__), "baselines",
                               f"BENCH_{kind}.json")) as f:
            raw = json.load(f)
        for what, *docs in [("baseline against itself", raw, raw, True),
                            *bench.probes(raw)]:
            probe(f"{kind} {what}", bench, *docs)
        base = bench.derive(copy.deepcopy(raw))
        for rows in bench.sets:
            base_rows = rows_of(base, rows)
            keys = [k for k in base_rows if k is not None]
            for kind_, names, where, opts in rows.gates:
                for name in names:
                    has = {k: gated(kind_, opts, k, keys)
                           for k, r in base_rows.items()
                           if find(r, where, name) is not None}
                    if not (has if kind_ == SHOW else any(has.values())):
                        problems.append(f"{kind}: no row of BENCH_{kind}.json "
                                        f"that its gate covers has {name!r}")
                    # A gated value broken or deleted fails; any other x10
                    # or deleted passes. A derived value has its own probes.
                    for k, fires in has.items():
                        cur = copy.deepcopy(raw)
                        obj = find(rows_of(cur, rows)[k], where)
                        if name not in obj:
                            continue
                        what = f"{kind} {row_label(rows, k)}{name}"
                        obj[name] = rule(kind_, opts, obj[name])[2] if fires \
                            else obj[name] * 10
                        probe(f"{what} {'broken' if fires else 'x10'}", bench,
                              raw, cur, not fires)
                        del obj[name]
                        probe(f"{what} deleted", bench, raw, cur, not fires)
            for k in base_rows if rows.present else ():
                cur = copy.deepcopy(raw)
                find(cur, rows.path).remove(rows_of(cur, rows)[k])
                probe(f"{kind} {row_label(rows, k)}row dropped", bench, raw,
                      cur, False)
    # Each kind's edges, pinned apart from rule(): kind, options, baseline,
    # then a current value it passes and one it fails.
    for kind, opts, b, ok, bad in [
            (WITHIN, {}, 100, 114, 116), (WITHIN, {}, 1, 2.9, 3.1),
            (WITHIN, {"slack": .25}, 1, 1.2, 1.3), (CEILING, {}, 10, 11, 12),
            (CEILING, {"plus": .25}, 1, 1.2, 1.3),
            (CEILING, {"floor": 2.0}, 0.9, 1.9, 2.1),
            (LIMIT, {"lo": E25_SPEEDUP_FLOOR}, None, 1.5, 1.49),
            (LIMIT, {"hi": E25_REPLAY_RATIO_CEILING}, None, 1.6, 1.61)]:
        probes += 1
        test = rule(kind, opts, b)[0]
        if not test(ok) or test(bad):
            problems.append(f"{kind} {opts} edges at baseline {b}")
    for what in problems:
        print(f"FAIL: selftest {what}")
    print(f"SELFTEST {'FAIL' if problems else 'PASS'}: {probes} probes")
    return 1 if problems else 0


def main(argv):
    if argv[1:] == ["--selftest"]:
        return selftest()
    if len(argv) != 4 or argv[1] not in GATES:
        print(__doc__)
        return 2
    bench = GATES[argv[1]]
    try:
        base, cur = [bench.derive(json.load(open(p))) for p in argv[2:]]
    except (OSError, json.JSONDecodeError) as e:
        print(f"error loading inputs: {e}")
        return 2
    rc = check(bench, base, cur)
    if rc != 0 and FAILURES:
        print_failure_summary()
    print("PASS" if rc == 0 else "FAIL")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv))

#!/usr/bin/env python3
"""CI perf trajectory gate: guard recursive_steps and peak_live_nodes
against committed baselines, across every bench surface in one run.

Usage:
    perf_smoke.py <current.json> <baseline.json> [<current2> <baseline2> ...]
                  [--tolerance 0.10]

Each (current, baseline) pair is a BENCH_*.json-shaped array of run objects
(bench_quantsched, bench_table2 and bench_lz emit the same row schema).
Rows are matched on (circuit, order, engine, schedule) and compared on
`recursive_steps` — the deterministic work metric, immune to CI-runner
noise (wall time on shared runners swings far more than 10%) — and on
`peak_live_nodes`, the memory-pressure metric the governor PR exists to
protect. The check fails if any matched row regresses by more than the
tolerance on either metric, or if a baseline row disappears; new rows are
reported but allowed, so adding circuits to a bench does not require a
lockstep baseline update. A per-row delta table is printed for every pair,
pass or fail, so the perf trajectory is visible in every CI log, not only
on regression.

Rows whose status is not "done" (timeouts, memouts) are skipped on both
sides: a run cut off by a wall-clock deadline stops at a machine-dependent
iteration, so its counters are not comparable across runners.

Update a baseline (after a deliberate algorithmic change) with:
    ./build/bench/bench_quantsched --quick --trace \
        --json=baselines/BENCH_quantsched.json
    ./build/bench/bench_table2 --quick --trace \
        --json=baselines/BENCH_table2.json
    ./build/bench/bench_lz --json=baselines/BENCH_lz.json
(--trace matters where shown: the tracer's per-iteration snapshots perform
a little BDD work, so step counts in trace mode differ slightly from plain
runs, and CI runs with both flags.)
"""

import argparse
import json
import sys


def key(row):
    return (
        row.get("circuit"),
        row.get("order"),
        row.get("engine"),
        row.get("schedule"),
    )


METRICS = ("recursive_steps", "peak_live_nodes")


def load(path):
    with open(path) as f:
        rows = json.load(f)
    out = {}
    skipped = 0
    for row in rows:
        if row.get("status", "done") != "done":
            skipped += 1
            continue
        metrics = {m: row[m] for m in METRICS if m in row}
        if metrics:
            out[key(row)] = metrics
    if skipped:
        print(f"note: {path}: skipped {skipped} non-done row(s)")
    return out


def compare(cur_path, base_path, tolerance):
    """Gate one (current, baseline) pair; returns True on failure."""
    cur = load(cur_path)
    base = load(base_path)
    if not base:
        print(f"error: no comparable rows in baseline {base_path}")
        return True

    print(f"--- {cur_path} vs {base_path}")
    failed = False
    for k, base_metrics in sorted(base.items()):
        label = "/".join(str(p) for p in k)
        if k not in cur:
            print(f"FAIL {label}: row missing from current run")
            failed = True
            continue
        for metric, base_val in sorted(base_metrics.items()):
            if metric not in cur[k]:
                print(f"FAIL {label}: {metric} missing from current run")
                failed = True
                continue
            cur_val = cur[k][metric]
            ratio = cur_val / base_val if base_val else float("inf")
            verdict = "ok"
            if ratio > 1.0 + tolerance:
                verdict = "FAIL"
                failed = True
            print(
                f"{verdict:4s} {label}: {metric} {cur_val} vs "
                f"baseline {base_val} ({(ratio - 1.0) * 100:+.1f}%)"
            )
    for k in sorted(set(cur) - set(base)):
        label = "/".join(str(p) for p in k)
        print(f"new  {label}: {cur[k]} (not in baseline)")
    return failed


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("pairs", nargs="+",
                    metavar="current.json baseline.json",
                    help="one or more (current, baseline) file pairs")
    ap.add_argument("--tolerance", type=float, default=0.10)
    args = ap.parse_args()

    if len(args.pairs) % 2 != 0:
        print("error: expected (current, baseline) file pairs")
        return 2

    failed = False
    for i in range(0, len(args.pairs), 2):
        failed |= compare(args.pairs[i], args.pairs[i + 1], args.tolerance)

    if failed:
        print(f"\nperf smoke failed (tolerance {args.tolerance:.0%}); "
              "if the regression is intentional, regenerate the baseline "
              "(see header).")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

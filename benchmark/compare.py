#!/usr/bin/env python3
"""Compare a parent commit and a change on the repository benchmark (stdlib).

  python3 benchmark/compare.py PARENT.jsonl CHANGE.jsonl
  python3 benchmark/compare.py --run PARENT_DIR CHANGE_DIR
                               [--workload W ...] [--out-dir DIR]

Inputs are the JSON lines `run.py --out` appends. Runs pair up by order
within each workload: the i-th parent run with the i-th change run. --run
makes the pairs itself: for each of 10 seeds it runs every workload in both
checkouts, alternating which side goes first, so a pair shares its seed;
it starts both result files afresh. Two sets of the same code taken with
different seeds compare the same way. Only untraced (end-to-end) results
are compared; benchmark/layers.py explains traced ones.

Per workload and metric the verdict follows the rules the benchmark
README states:
  gain        >= 10 pairs, the change wins >= 9/10 of them (ties count for
              neither side), and the medians differ by more than the
              parent's interquartile range;
  regression  the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json;
  unresolved  the parent's own spread (IQR / median) exceeds the bound and
              not every change run beats every parent run;
  unchanged   otherwise.
A gain is void when the change fails more jobs than the parent. The exit
status is 1 when any metric regressed or failures increased.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Pairs --run makes: the fewest on which the gain rule may be applied.
PAIRS = 10


def load(path):
    """Untraced results per workload, in file order."""
    runs = {}
    with open(path) as f:
        for line in f:
            r = json.loads(line)
            if not r.get("trace"):
                runs.setdefault(r["workload"], []).append(r)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(metric, parent, change):
    """parent/change: values in pair order. Returns (verdict, detail)."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    mp, mc = statistics.median(parent), statistics.median(change)
    q1, _, q3 = quartiles(parent)
    iqr = q3 - q1
    better = (lambda c, p: c < p) if lower else (lambda c, p: c > p)
    wins = sum(better(c, p) for p, c in zip(parent, change))
    losses = sum(better(p, c) for p, c in zip(parent, change))
    worse_by = ((mc - mp) if lower else (mp - mc)) / mp if mp else 0.0
    spread = iqr / abs(mp) if mp else 0.0
    detail = "%.6g -> %.6g (%+.1f%%), wins %d/%d, losses %d, parent IQR " \
             "%.3g (%.1f%%)" % (mp, mc, 100 * (mc - mp) / mp if mp else 0.0,
                                wins, len(parent), losses, iqr, 100 * spread)
    if len(parent) >= 10 and wins >= 0.9 * len(parent) and \
            abs(mc - mp) > iqr and better(mc, mp):
        return "gain", detail
    if worse_by > bound:
        return "regression", detail
    all_better = all(better(c, p) for c in change for p in parent)
    if spread > bound and not all_better:
        return "unresolved", detail
    return "unchanged", detail


def compare(parent_runs, change_runs, spec):
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    bad = False
    for w in sorted(set(parent_runs) | set(change_runs)):
        p_runs, c_runs = parent_runs.get(w, []), change_runs.get(w, [])
        pairs = min(len(p_runs), len(c_runs))
        if len(p_runs) != len(c_runs):
            print("== %s: %d parent runs against %d change runs" % (
                w, len(p_runs), len(c_runs)))
            bad = True
        p_runs, c_runs = p_runs[:pairs], c_runs[:pairs]
        p_failed = sum(r["failed"] for r in p_runs)
        c_failed = sum(r["failed"] for r in c_runs)
        print("== %s: %d pairs; failed jobs parent %d, change %d" % (
            w, pairs, p_failed, c_failed))
        if c_failed > p_failed:
            print("   REGRESSION: the change fails more jobs")
            bad = True
        for name, m in metrics.items():
            p = [r["metrics"][name]["value"] for r in p_runs
                 if name in r["metrics"]]
            c = [r["metrics"][name]["value"] for r in c_runs
                 if name in r["metrics"]]
            if len(p) != pairs or len(c) != pairs or not pairs:
                print("   %-16s missing values" % name)
                bad = True
                continue
            v, detail = verdict(m, p, c)
            if v == "gain" and c_failed > p_failed:
                v = "void gain"
            bad |= v == "regression"
            print("   %-16s %-11s %s (%s, bound %g%%)" % (
                name, v, detail, m["unit"], 100 * m["bound"]))
    return 1 if bad else 0


def run_pairs(parent_dir, change_dir, workloads, out_dir, seed0):
    """Alternate parent/change runs per seed; returns the two result files."""
    os.makedirs(out_dir, exist_ok=True)
    outs = {side: os.path.abspath(os.path.join(out_dir, side + ".jsonl"))
            for side in ("parent", "change")}
    for path in outs.values():  # run.py appends; drop an earlier invocation's
        open(path, "w").close()
    dirs = {"parent": parent_dir, "change": change_dir}
    for i in range(PAIRS):
        sides = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for w in workloads:
            for side in sides:
                cmd = [sys.executable, "benchmark/run.py", "--workload", w,
                       "--seed", str(seed0 + i), "--out", outs[side]]
                print("pair %d: %s %s" % (i, side, w), file=sys.stderr,
                      flush=True)
                subprocess.run(cmd, cwd=dirs[side], stdout=subprocess.DEVNULL)
    return outs["parent"], outs["change"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("files", nargs="*", help="PARENT.jsonl CHANGE.jsonl")
    ap.add_argument("--run", nargs=2, metavar=("PARENT_DIR", "CHANGE_DIR"))
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seed", type=int, default=1000,
                    help="first seed of --run (pair i uses seed + i)")
    ap.add_argument("--out-dir", default="build-bench/compare")
    args = ap.parse_args()

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.run:
        workloads = args.workload or [w["name"] for w in spec["workloads"]]
        files = run_pairs(args.run[0], args.run[1], workloads, args.out_dir,
                          args.seed)
    elif len(args.files) == 2:
        files = args.files
    else:
        ap.error("give PARENT.jsonl CHANGE.jsonl, or --run PARENT CHANGE")
    return compare(load(files[0]), load(files[1]), spec)


if __name__ == "__main__":
    sys.exit(main())

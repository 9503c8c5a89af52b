#!/usr/bin/env python3
"""Explain two traced benchmark results layer by layer (stdlib only).

  python3 benchmark/layers.py BEFORE.jsonl AFTER.jsonl [--workload W ...]

Inputs are the JSON lines `run.py --trace 1 --out FILE` appends; each side
may hold several runs, whose per-metric medians are compared. Rows come in
the order a slowdown is usually chased: set-up layers, then the engine's
phase split (shares of engine time, with the seconds they stand for), then
the BDD kernel by operation tag, then the service layers. Every ratio is
printed next to its base.
"""
import argparse
import json
import statistics
import sys

SETUP = ["bdd.manager_build_s", "circuit.build_s", "sym.space_build_s"]
PHASES = ["reach.phase.image_share", "reach.phase.reparam_share",
          "reach.phase.union_share", "reach.phase.check_share",
          "reach.phase.convert_share", "reach.unphased_share"]
ENGINE = ["reach.engine_s", "reach.iterations", "reach.trace_overhead_s"]
KERNEL = ["bdd.top_ops", "bdd.recursive_steps", "bdd.nodes_created",
          "bdd.gc_runs", "bdd.gc_share", "bdd.peak_live_nodes"]
SERVICE = ["run.queue_wait_ms.p50", "run.queue_wait_ms.p99",
           "run.exec_ms.p50", "run.exec_ms.p99", "svc.admit_ms.p50",
           "svc.wire_ms.p50", "svc.wire_ms.p99", "svc.stream_frames_per_job",
           "svc.journal_appends_per_job", "svc.journal_fsyncs_per_job"]


def medians(path, workloads):
    runs = {}
    with open(path) as f:
        for line in f:
            r = json.loads(line)
            if r.get("trace") and (not workloads or r["workload"] in workloads):
                runs.setdefault(r["workload"], []).append(r["metrics"])
    out = {}
    for w, rows in runs.items():
        names = set().union(*rows)
        out[w] = {n: statistics.median(r[n]["value"] for r in rows if n in r)
                  for n in names}
        out[w]["_runs"] = len(rows)
    return out


def row(name, a, b, base=""):
    change = "%+7.1f%%" % (100 * (b - a) / a) if a else "      -"
    print("  %-30s %14.6g %14.6g %s  %s" % (name, a, b, change, base))


def explain(w, a, b):
    print("== %s (%d run(s) before, %d after)" % (w, a["_runs"], b["_runs"]))
    print("  %-30s %14s %14s %8s" % ("metric", "before", "after", "change"))
    for n in SETUP + ENGINE:
        row(n, a[n], b[n])
    print("  -- phases (shares of reach.engine_s)")
    for n in PHASES:
        row(n, a[n], b[n], "%.3g s -> %.3g s" % (
            a[n] * a["reach.engine_s"], b[n] * b["reach.engine_s"]))
    print("  -- kernel")
    for n in KERNEL:
        row(n, a[n], b[n])
    row("bdd.cache_hit_ratio", a["bdd.cache_hit_ratio"],
        b["bdd.cache_hit_ratio"], "of %.4g -> %.4g lookups" % (
            a["bdd.cache_lookups"], b["bdd.cache_lookups"]))
    tags = sorted({n.split(".")[2] for n in a if n.startswith("bdd.op.")})
    for t in tags:
        la, lb = a["bdd.op.%s.lookups" % t], b["bdd.op.%s.lookups" % t]
        if la == 0 and lb == 0:
            continue
        row("bdd.op.%s.hit_ratio" % t, a["bdd.op.%s.hit_ratio" % t],
            b["bdd.op.%s.hit_ratio" % t],
            "of %.4g -> %.4g lookups" % (la, lb))
    print("  -- service")
    for n in SERVICE:
        row(n, a[n], b[n])
    row("run.warm_hit_ratio", a["run.warm_hit_ratio"], b["run.warm_hit_ratio"],
        "of the served jobs (svc.* rows above)")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("before")
    ap.add_argument("after")
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    a = medians(args.before, args.workload)
    b = medians(args.after, args.workload)
    common = sorted(set(a) & set(b))
    if not common:
        print("no traced runs of a common workload", file=sys.stderr)
        return 1
    for w in common:
        explain(w, a[w], b[w])
    return 0


if __name__ == "__main__":
    sys.exit(main())

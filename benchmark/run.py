#!/usr/bin/env python3
"""Repository benchmark driver (stdlib only).

Builds the benchmark/ CMake project (which compiles ../src), runs each
workload in its own process under a watchdog, checks every job's state
count against expected.json, and prints every metric by name with its unit.

  python3 benchmark/run.py                    # all workloads, untraced
  python3 benchmark/run.py --trace            # ... plus a traced run each
  python3 benchmark/run.py --smoke            # 1 round each
  python3 benchmark/run.py --workload bfv-wide --seed 3 --trace 0
  python3 benchmark/run.py --regen-expected   # recompute expected.json

With --workload, the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
BENCHMARK.json untraced, its per-layer metrics with --trace 1. The exit
status is 0 only when every job of the run was answered correctly.

A run always measures run_seconds of BENCHMARK.json, so every commit is
measured over the same window; --seconds is accepted only with that value.
"""
import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, "build-bench")
BINARY = os.path.join(BUILD, "bfvr_bench")
EXPECTED = os.path.join(HERE, "expected.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

# The watchdog kills a workload process running past this multiple of its
# expected wall time. It is the only cap: the harness sets no engine
# deadline, and engine deadlines are polled, so one long step overruns them.
WATCHDOG_FACTOR = 3

WORKLOADS = {
    "bfv-longdiam": [
        "bfv/300/gen:lfsr:12",
        "bfv/0/gen:lfsr:10",
        "bfv/0/gen:counter:11:2048",
        "bfv/0/gen:fifo:5",
    ],
    "bfv-wide": [
        "bfv/0/gen:twinshift:18",
        "bfv/0/gen:random:20:6:140:5",
        "bfv/0/gen:arbiter:14",
        "bfv/0/gen:random:18:5:120:7",
    ],
    "chi-image": [
        "tr/0/gen:twinshift:16",
        "tr/0/gen:random:18:5:120:7",
        "tr/0/gen:counter:12:4096",
        "cbm/0/gen:twinshift:14",
        "cbm/0/gen:counter:11:2048",
    ],
}

# Medians of the host-speed probe (probe.hpp) on the host of README.md's
# numbers, in seconds. Every timed end-to-end metric is given at this
# speed of the host (see scaled_jobs). Fixed for good: they set only the
# scale of the numbers, never the outcome of a comparison.
PROBE_REFERENCE = {"bdd_s": 0.085, "chase_s": 0.017}
# The times of a job record that scaled_jobs scales.
JOB_TIMES = ("circuit_s", "space_s", "engine_s")

PHASES = ["image", "reparam", "union", "check", "convert"]
OP_TAGS = ["and", "xor", "ite", "exists", "and-exists", "constrain",
           "restrict", "cofactor2", "compose"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def pct(values, q):
    """q-th percentile, linear between closest ranks; nan when empty."""
    v = sorted(values)
    if not v:
        return float("nan")
    k = (len(v) - 1) * q / 100.0
    f = math.floor(k)
    c = min(f + 1, len(v) - 1)
    return v[f] + (v[c] - v[f]) * (k - f)


def answer_key(job):
    """Expected answers depend on circuit and iteration cap, not engine."""
    return job.split("/", 1)[1]


# ---- build and run ----------------------------------------------------------

def build():
    """Configure once, then build incrementally. False on any failure."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        log("run.py: no src/ beside benchmark/; nothing to measure")
        return False
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "bfvr_bench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("run.py: build step failed: " + " ".join(cmd))
            return False
    return True


def run_harness(argv, timeout, workdir):
    """Run the harness under a watchdog that kills it after `timeout` s.

    The harness runs in a process group of its own, so the watchdog also
    kills a probe child it may have running. Returns (records, error);
    error is None on a clean exit.
    """
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    proc = subprocess.Popen([BINARY] + argv, cwd=ROOT, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
        error = None if proc.returncode == 0 else \
            "harness exited with %d" % proc.returncode
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        error = "watchdog killed the workload after %.0f s" % timeout
    finally:
        if proc.poll() is None:  # interrupted: take the group down too
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    if err:
        log(err.rstrip())
    records = []
    for line in (out or "").splitlines():
        try:
            records.append(json.loads(line))
        except ValueError:
            error = error or "unreadable harness output: " + line[:200]
    return records, error


# ---- aggregation ------------------------------------------------------------

def job_medians(records, value):
    """Each job's median of `value` over the rounds of the run."""
    by_job = {}
    for r in records:
        by_job.setdefault(r["job"], []).append(value(r))
    return [statistics.median(v) for v in by_job.values()]


def job_sum(records, value):
    """One round of the job list with every job at its median."""
    return sum(job_medians(records, value))


def probe_slowdown(probe):
    """How many times its reference time one probe took: the geometric
    mean over the probe's two parts."""
    return statistics.geometric_mean(
        probe[part] / ref for part, ref in PROBE_REFERENCE.items())


def scaled_jobs(records):
    """The untraced job records, their times at the reference host speed.

    The harness probes the host before every job and after the last one,
    so each job runs between two probes. Its times are divided by the
    geometric mean of those two probes' slowdowns: the host's speed while
    the job ran, not over the whole run, which the host's drift moves too.
    """
    out, before, waiting = [], None, []
    for r in records:
        if r["rec"] == "probe":
            after = probe_slowdown(r)
            for job, b in waiting:
                f = math.sqrt(b * after)
                out.append(dict(job, **{k: job[k] / f for k in JOB_TIMES}))
            waiting, before = [], after
        elif r["rec"] == "job" and not r["traced"]:
            waiting.append((r, before))
    if waiting:
        raise ValueError("no probe after the last job")
    return out


def reach_end_to_end(jobs, process):
    engine_ms = job_medians(jobs, lambda r: r["engine_s"] * 1e3)
    rounds = {}
    for r in jobs:
        rounds[r["round"]] = rounds.get(r["round"], 0.0) + r["engine_s"]
    q = statistics.quantiles(rounds.values(), n=4) if len(rounds) > 1 else \
        list(rounds.values()) * 3
    metrics = {
        "setup_s": job_sum(jobs, lambda r: r["circuit_s"] + r["space_s"]),
        "verdict_s": sum(engine_ms) / 1e3,
        # Geometric mean over jobs of each job's median: every job of the
        # list counts once, however long it runs.
        "latency_ms": statistics.geometric_mean(engine_ms),
        "peak_live_nodes": max(r["peak_live_nodes"] for r in jobs),
        "peak_rss_mb": process["peak_rss_mb"],
    }
    notes = ["%d rounds of %d jobs; per-round engine time quartiles "
             "%.4f / %.4f / %.4f s; slowest job %.1f ms"
             % (len(rounds), len(engine_ms), *q, max(engine_ms))]
    return metrics, notes


def reach_layers(twins):
    """Per-layer metrics from untraced/traced twins of every job.

    Phase seconds come from the traced twins, whose per-iteration census
    runs outside every phase scope, and are given as shares of untraced
    engine time; the share no phase covers is the engine's unphased work.
    Seconds here are as measured, not scaled to the reference host speed.
    """
    plain = [r for r in twins if not r["traced"]]
    traced = [r for r in twins if r["traced"]]
    engine = job_sum(plain, lambda r: r["engine_s"])
    m = {
        "bdd.manager_build_s": job_sum(plain, lambda r: r["manager_s"]),
        "circuit.build_s": job_sum(plain, lambda r: r["circuit_s"]),
        "sym.space_build_s": job_sum(plain, lambda r: r["space_s"]),
        "reach.engine_s": engine,
        "reach.iterations": job_sum(plain, lambda r: r["iterations"]),
        "reach.trace_overhead_s":
            job_sum(traced, lambda r: r["engine_s"]) - engine,
    }
    for ph in PHASES:
        m["reach.phase.%s_share" % ph] = job_sum(
            traced, lambda r, ph=ph: r["phases"][ph]) / engine
    m["reach.unphased_share"] = 1.0 - sum(
        m["reach.phase.%s_share" % ph] for ph in PHASES)
    for key in ("top_ops", "recursive_steps", "cache_lookups",
                "nodes_created", "gc_runs"):
        m["bdd." + key] = job_sum(plain, lambda r, k=key: r["ops"][k])
    hits = job_sum(plain, lambda r: r["ops"]["cache_hits"])
    m["bdd.cache_hit_ratio"] = hits / m["bdd.cache_lookups"] \
        if m["bdd.cache_lookups"] else 0.0
    for tag in OP_TAGS:
        h = job_sum(plain, lambda r, t=tag: r["ops"]["op"][t][0])
        n = h + job_sum(plain, lambda r, t=tag: r["ops"]["op"][t][1])
        m["bdd.op.%s.lookups" % tag] = n
        m["bdd.op.%s.hit_ratio" % tag] = h / n if n else 0.0
    m["bdd.gc_share"] = job_sum(plain, lambda r: r["gc_s"]) / engine
    m["bdd.peak_live_nodes"] = max(r["peak_live_nodes"] for r in plain)
    return m


def service_layers(served, server):
    done = [r for r in served if r["span_done"] >= 0]
    queue_ms = [(r["span_dispatched"] - r["span_queued"]) * 1e3 for r in done]
    exec_ms = [(r["span_done"] - r["span_dispatched"]) * 1e3 for r in done]
    wire_ms = [((r["done"] - r["sent"]) - r["span_done"]) * 1e3 for r in done]
    admit_ms = [(r["accepted"] - r["sent"]) * 1e3
                for r in served if r["accepted"] >= 0]
    warm = server["warm_hits"] + server["warm_misses"]
    jobs = max(1, server["jobs"])
    return {
        "run.queue_wait_ms.p50": pct(queue_ms, 50),
        "run.queue_wait_ms.p99": pct(queue_ms, 99),
        "run.exec_ms.p50": pct(exec_ms, 50),
        "run.exec_ms.p99": pct(exec_ms, 99),
        "run.warm_hit_ratio": server["warm_hits"] / warm if warm else 0.0,
        "svc.admit_ms.p50": pct(admit_ms, 50),
        "svc.wire_ms.p50": pct(wire_ms, 50),
        "svc.wire_ms.p99": pct(wire_ms, 99),
        "svc.stream_frames_per_job": statistics.mean(
            r["frames"] for r in served),
        "svc.journal_appends_per_job": server["journal_appends"] / jobs,
        "svc.journal_fsyncs_per_job": server["journal_fsyncs"] / jobs,
    }


def check_answers(records, expected):
    """(attempted, failed, first few failure descriptions)."""
    attempted, failures = 0, []
    for r in records:
        if r["rec"] not in ("job", "served"):
            continue
        attempted += 1
        want = expected.get(answer_key(r["job"]))
        if r["status"] != "done" or want is None or r["states"] != want:
            failures.append("%s: status %s, states %s, expected %s" % (
                r["job"], r["status"], r["states"], want))
    return attempted, len(failures), failures[:5]


# ---- one workload -----------------------------------------------------------

def measure(workload, seed, seconds, trace, smoke, expected):
    """Run one workload once; returns (result object, notes)."""
    argv = ["reach", "--seconds", repr(seconds), "--seed", str(seed),
            "--workdir", os.path.join("build-bench", "work-" + workload)]
    if trace:
        argv.append("--trace")
    if smoke:
        argv.append("--smoke")
    argv += WORKLOADS[workload]
    # The window plus set-up and one last round. A traced run also serves
    # one round afterwards (chi-image's takes ~15 s), inside the watchdog's
    # slack.
    expected_wall = seconds + 10.0
    records, error = run_harness(
        argv, WATCHDOG_FACTOR * expected_wall,
        os.path.join(BUILD, "work-" + workload))

    attempted, failed, failures = check_answers(records, expected)
    notes = ["%s: %s" % (workload, f) for f in failures]
    process = next((r for r in records if r["rec"] == "process"), None)
    if error or process is None or attempted == 0:
        notes.append("%s: %s" % (workload, error or "no measurements"))
        return {"correct": False, "attempted": max(1, attempted),
                "failed": max(1, attempted), "metrics": {}}, notes

    jobs = [r for r in records if r["rec"] == "job"]
    slowdown = None
    try:
        if trace:
            metrics = reach_layers(jobs)
            metrics.update(service_layers(
                [r for r in records if r["rec"] == "served"],
                next(r for r in records if r["rec"] == "server")))
        else:
            metrics, more = reach_end_to_end(scaled_jobs(records), process)
            unscaled, _ = reach_end_to_end(jobs, process)
            slowdown = statistics.median(
                probe_slowdown(r) for r in records if r["rec"] == "probe")
            notes += more + [
                "host probe at %.3fx its reference time (median); "
                "unscaled setup_s %.6g s, verdict_s %.6g s, latency_ms "
                "%.6g ms" % (slowdown, unscaled["setup_s"],
                             unscaled["verdict_s"], unscaled["latency_ms"])]
    except (ArithmeticError, LookupError, StopIteration, TypeError,
            ValueError) as e:
        notes.append("%s: too few samples to aggregate (%s)" % (workload, e))
        return {"correct": False, "attempted": attempted,
                "failed": max(1, failed), "metrics": {}}, notes
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "host_slowdown": slowdown}, notes


def described(result, declared):
    """Attach units from BENCHMARK.json; refuse undeclared/missing names."""
    got = result["metrics"]
    if got and set(got) != set(declared):
        missing = sorted(set(declared) - set(got))
        extra = sorted(set(got) - set(declared))
        raise SystemExit("run.py: metrics differ from BENCHMARK.json: "
                         "missing %s, undeclared %s" % (missing, extra))
    result["metrics"] = {
        name: {"value": got[name], "unit": declared[name]["unit"]}
        for name in declared if name in got}
    return result


def print_result(workload, trace, result, notes, declared):
    print("== %s (%s): %d attempted, %d failed%s" % (
        workload, "per-layer" if trace else "end-to-end",
        result["attempted"], result["failed"],
        "" if result["correct"] else "  ** INCORRECT **"))
    for name, m in result["metrics"].items():
        d = declared[name]
        bound = ", bound %g%%" % (100 * d["bound"]) if "bound" in d else ""
        print("  %-30s %16.6g %-8s (%s is better%s)" % (
            name, m["value"], m["unit"], d["better"], bound))
    if not trace:
        print("  %-30s %16.6g %-8s (lower is better)" % (
            "failed_frac", result["failed"] / result["attempted"], "ratio"))
    for n in notes:
        print("  note: " + n)


# ---- expected answers -------------------------------------------------------

def regen_expected():
    keys = {}
    for jobs in WORKLOADS.values():
        for job in jobs:
            keys.setdefault(answer_key(job), "tr/" + answer_key(job))
    records, error = run_harness(
        ["expect"] + sorted(keys.values()), 3600,
        os.path.join(BUILD, "work-expect"))
    if error:
        log("run.py: " + error)
        return 1
    answers, bad = {}, 0
    for r in records:
        key = answer_key(r["job"])
        answers[key] = r["bfs_states"]
        agree = r["tr_status"] == "done" and r["tr_states"] == r["bfs_states"]
        print("%-40s bfs %12.0f  tr %-5s %12.0f  %s" % (
            key, r["bfs_states"], r["tr_status"], r["tr_states"],
            "ok" if agree else "MISMATCH"))
        bad += not agree
    if bad or len(answers) != len(keys):
        log("run.py: explicit search and TR disagree; expected.json unchanged")
        return 1
    with open(EXPECTED, "w") as f:
        json.dump(dict(sorted(answers.items())), f, indent=2)
        f.write("\n")
    print("wrote %s (%d answers)" % (os.path.relpath(EXPECTED, ROOT),
                                     len(answers)))
    return 0


# ---- main -------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="must equal run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=[0, 1])
    ap.add_argument("--smoke", action="store_true",
                    help="1 round of each workload: a quick CI check")
    ap.add_argument("--out", help="append each result as a JSON line here")
    ap.add_argument("--regen-expected", action="store_true")
    args = ap.parse_args()

    try:
        with open(SPEC) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        log("run.py: cannot read BENCHMARK.json: %s" % e)
        return 2
    seconds = spec["run_seconds"]
    if args.seconds is not None and args.seconds != seconds:
        log("run.py: a run measures run_seconds of BENCHMARK.json (%g s), "
            "not %g s" % (seconds, args.seconds))
        return 2
    if not build():
        return 2
    if args.regen_expected:
        return regen_expected()
    try:
        with open(EXPECTED) as f:
            expected = json.load(f)
    except (OSError, ValueError) as e:
        log("run.py: cannot read expected answers: %s" % e)
        return 2

    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    per_layer = {m["name"]: m for m in spec["per_layer"]}
    if args.workload:
        plan = [(args.workload, bool(args.trace))]
    else:
        plan = [(w, False) for w in WORKLOADS]
        if args.trace:
            plan += [(w, True) for w in WORKLOADS]

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload, trace in plan:
        started = time.monotonic()
        result, notes = measure(workload, args.seed, seconds, trace,
                                args.smoke, expected)
        declared = per_layer if trace else end_to_end
        result = described(result, declared)
        notes.append("wall %.1f s" % (time.monotonic() - started))
        print_result(workload, trace, result, notes, declared)
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps(dict(result, workload=workload,
                                        seed=args.seed, trace=trace)) + "\n")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            key = name if args.workload else "%s/%s" % (workload, name)
            combined["metrics"][key] = m
        sys.stdout.flush()
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""One command for the detect end-to-end benchmark (see perf/README.md).

    python3 perf/run.py --workload W --seed N --seconds S --trace 0|1
        One workload. Builds perf/ into .bench_build if needed, runs
        bench_detect in fresh processes, checks their outputs, prints every
        metric by name and unit, and ends with one JSON line:
        {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
        end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones
        (from one traced process, which also writes a Chrome trace file).

    python3 perf/run.py [--seed N] [--seconds S] [--json BENCH_detect.json]
        Every workload, untraced and traced, into one {bench, host, config,
        results[]} file.

    python3 perf/run.py --sets 2 [...]
        The whole benchmark twice; fails if any (metric, workload) pair
        differs by more than its bound, or any exact count differs at all.

    python3 perf/run.py --compare A.json B.json
        The same comparison between two files; refuses files whose host
        blocks differ.

Exit status: 0 when every output checked out, 1 when an item failed or a
comparison exceeded its bound, 2 on a build or usage error.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERF = os.path.join(ROOT, "perf")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

# Fresh processes per run. They time the same inputs, and each chunk counts
# at its median over the least-stolen of them, so one process's thread
# placement or allocator luck does not decide the run.
PROCESSES = {"campaign": 5, "models": 5, "deep_check": 5,
             "sim_throughput": 3, "serve_soak": 3, "hunt": 3}

# Set-ups timed per run, counting the measuring processes'.
SETUPS = 15

# Per-layer metrics that must repeat exactly between two runs of one seed.
EXACT = ["fuzz.coverage.buckets", "fuzz.shrink.repro_ops_mean",
         "hist.check.nodes", "sim.steps"]

# Host-block keys that define a host class; the commit is recorded only.
HOST_CLASS = ["nproc", "hardware_concurrency", "affinity_cpus",
              "pool_workers", "build_type", "compiler"]

# A run must end within 180 s; its processes share this budget.
RUN_BUDGET_S = 170

# What bench_detect's calibration kernel takes on the reference host (a
# 4-vCPU Xeon VM) when no co-tenant slows it. Timings are reported as if the
# host always ran at that speed.
CAL_REF_MS = 1.5


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def build(build_dir):
    """Configure and build bench_detect; returns the binary path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise RuntimeError("no detect sources next to perf/ (looked in %s)"
                           % ROOT)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", PERF, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, cwd=ROOT)
    jobs = str(len(os.sched_getaffinity(0)))
    subprocess.run(["cmake", "--build", build_dir, "--target", "bench_detect",
                    "-j", jobs], check=True, stdout=sys.stderr, cwd=ROOT)
    return os.path.join(build_dir, "bench_detect")


def host_block(binary):
    out = subprocess.run([binary, "--host"], check=True, capture_output=True,
                         text=True).stdout
    host = json.loads(out.strip().splitlines()[-1])
    host["nproc"] = len(os.sched_getaffinity(0))
    # The ceiling keeps git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        host["commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True, env=env).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        host["commit"] = "unknown"
    return host


def launch(cmd, deadline):
    """Run one bench_detect process, killing it at `deadline` (a
    time.perf_counter value). Returns (setup_s, result dict or None, exit
    code); setup_s is launch → its `ready` line."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    timer = threading.Timer(max(0.0, deadline - start), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter()
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "ready":
        return None, None, code
    lines = rest.strip().splitlines()
    try:
        return ready - start, json.loads(lines[-1]), code
    except (IndexError, ValueError):
        return ready - start, None, code


def quantile(samples, q):
    """Nearest-rank quantile of sorted samples."""
    if not samples:
        return 0.0
    rank = math.ceil(q * len(samples) - 1e-9)
    return samples[min(len(samples), max(1, rank)) - 1]


def run_measured(binary, workload, seed, seconds):
    """End-to-end metrics. P fresh processes time the same inputs for
    seconds/P each. Each chunk's time, and each item's latency, is scaled to
    the reference host speed by the calibration kernel timed around it, then
    taken as the median over the processes that lost the least time to the
    hypervisor during that chunk."""
    procs = PROCESSES[workload]
    per_proc = seconds / procs
    setups, rss, runs = [], [], []
    attempted = failed = 0
    correct = True
    deadline = time.perf_counter() + RUN_BUDGET_S
    for j in range(procs):
        setup_s, r, code = launch(
            [binary, "--workload", workload, "--seed", str(seed),
             "--seconds", repr(per_proc), "--proc", "%d/%d" % (j, procs)],
            deadline)
        if r is None:
            log("bench_detect %s process %d printed no result (exit %d)"
                % (workload, j, code))
            return None
        for p in r["problems"]:
            log("%s: %s" % (workload, p))
        correct &= not r["problems"] and code in (0, 1)
        attempted += r["attempted"]
        failed += r["failed"]
        setups.append(setup_s * CAL_REF_MS / r["setup_cal_ms"])
        rss.append(r["peak_rss_mb"])
        runs.append(r)
    # A set-up takes milliseconds, and one varies by ±25%; more of them, in
    # processes that only set up, steady the median.
    while len(setups) < SETUPS:
        setup_s, r, code = launch(
            [binary, "--workload", workload, "--seed", str(seed),
             "--seconds", "0"], deadline)
        if r is None:
            log("bench_detect %s set-up printed no result (exit %d)"
                % (workload, code))
            return None
        setups.append(setup_s * CAL_REF_MS / r["setup_cal_ms"])

    # Chunks (and the items inside them) that every process timed.
    n_chunks = min(len(r["chunks"]) for r in runs)
    work = ms = 0.0
    latency = []
    for i in range(n_chunks):
        # [work, ms, items_end, cal_ms, stolen_ms]
        chunks = [r["chunks"][i] for r in runs]
        if len({c[0] for c in chunks}) != 1 or len({c[2] for c in chunks}) != 1:
            log("%s: chunk %d differs between processes: %s"
                % (workload, i, chunks))
            correct = False
        # Only the processes the hypervisor stole least from during this
        # chunk count; on a quiet host that is all of them.
        least = min(c[4] for c in chunks)
        keep = [(r, CAL_REF_MS / c[3])
                for r, c in zip(runs, chunks) if c[4] == least]
        work += chunks[0][0]
        ms += statistics.median(r["chunks"][i][1] * f for r, f in keep)
        first = runs[0]["chunks"][i - 1][2] if i > 0 else 0
        for k in range(first, chunks[0][2]):
            latency.append(statistics.median(
                r["latency_ms"][k] * f for r, f in keep))
    latency.sort()
    n_items = len(latency)
    # p95: the highest percentile with ten samples beyond it on every
    # workload (sim_throughput times the fewest items, about 370).
    if n_items < 200:
        log("%s: only %d latency samples; p95 has fewer than ten beyond it"
            % (workload, n_items))
    metrics = {
        "throughput": work / (ms / 1e3) if ms > 0 else 0.0,
        "latency_ms_p50": quantile(latency, 0.50),
        "latency_ms_p95": quantile(latency, 0.95),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
    }
    log("%s: %d processes, %d chunks and %d latency samples timed in all of "
        "them, %d attempted, %d failed" % (workload, procs, n_chunks, n_items,
                                          attempted, failed))
    chunk_ms = sum(c[1] for r in runs for c in r["chunks"])
    log("%s: the hypervisor stole %.1f%% of the chunk time, summed over CPUs"
        % (workload, 100 * sum(c[4] for r in runs for c in r["chunks"])
           / max(chunk_ms, 1e-9)))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics, "samples": n_items}


def run_traced(binary, workload, seed, trace_dir):
    """Per-layer metrics from one traced process."""
    os.makedirs(trace_dir, exist_ok=True)
    path = os.path.join(trace_dir, "%s-seed%d.json" % (workload, seed))
    _, r, code = launch([binary, "--workload", workload, "--seed", str(seed),
                         "--trace-out", path],
                        time.perf_counter() + RUN_BUDGET_S)
    if r is None:
        log("bench_detect %s (traced) printed no result (exit %d)"
            % (workload, code))
        return None
    for p in r["problems"]:
        log("%s (traced): %s" % (workload, p))
    if os.path.isfile(path):
        log("%s: trace written to %s" % (workload, path))
    return {"correct": not r["problems"] and code in (0, 1),
            "attempted": r["attempted"], "failed": r["failed"],
            "metrics": r["layers"]}


def contract_line(result, metric_specs):
    """The one-line JSON result, metrics restricted to `metric_specs`."""
    metrics = {}
    for m in metric_specs:
        value = result["metrics"].get(m["name"], 0.0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print("%-40s %16.6f %s" % (m["name"], value, m["unit"]))
    return json.dumps({"correct": bool(result["correct"]),
                       "attempted": max(1, int(result["attempted"])),
                       "failed": int(result["failed"]),
                       "metrics": metrics})


def run_all(binary, spec, seed, seconds, trace_dir):
    results = []
    for w in spec["workloads"]:
        name = w["name"]
        measured = run_measured(binary, name, seed, seconds)
        traced = run_traced(binary, name, seed, trace_dir)
        if measured is None or traced is None:
            return None
        row = {"workload": name,
               "correct": measured["correct"] and traced["correct"],
               "attempted": measured["attempted"],
               "failed": measured["failed"] + traced["failed"],
               "latency_samples": measured["samples"],
               "metrics": {m["name"]: {"value": measured["metrics"][m["name"]],
                                       "unit": m["unit"]}
                           for m in spec["end_to_end"]},
               "layers": {m["name"]: {"value": traced["metrics"].get(
                   m["name"], 0.0), "unit": m["unit"]}
                   for m in spec["per_layer"]}}
        results.append(row)
        print("== %s: %s, %d attempted, %d failed"
              % (name, "correct" if row["correct"] else "INCORRECT",
                 row["attempted"], row["failed"]))
        for m in spec["end_to_end"]:
            print("   %-28s %14.6f %s"
                  % (m["name"], row["metrics"][m["name"]]["value"], m["unit"]))
    return results


def compare(a, b, spec):
    """Problems found comparing two benchmark files (empty = agree)."""
    ha = {k: a["host"].get(k) for k in HOST_CLASS}
    hb = {k: b["host"].get(k) for k in HOST_CLASS}
    if ha != hb:
        return ["host blocks differ: %s vs %s" % (ha, hb)]
    problems = []
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    rows_b = {r["workload"]: r for r in b["results"]}
    for ra in a["results"]:
        rb = rows_b.get(ra["workload"])
        if rb is None:
            problems.append("%s missing from the second file" % ra["workload"])
            continue
        for name, bound in bounds.items():
            va = ra["metrics"][name]["value"]
            vb = rb["metrics"][name]["value"]
            rel = abs(vb - va) / va if va else float("inf")
            status = "ok" if rel <= bound else "EXCEEDS"
            print("%-15s %-16s %14.6f %14.6f  %+7.2f%%  (bound %.0f%%) %s"
                  % (ra["workload"], name, va, vb, 100 * (vb - va) / va
                     if va else 0.0, 100 * bound, status))
            if rel > bound:
                problems.append("%s %s differs by %.1f%% (bound %.0f%%)"
                                % (ra["workload"], name, 100 * rel,
                                   100 * bound))
        for name in EXACT:
            va = ra["layers"].get(name, {}).get("value")
            vb = rb["layers"].get(name, {}).get("value")
            if va != vb:
                problems.append("%s %s is not exact: %s vs %s"
                                % (ra["workload"], name, va, vb))
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--build", default=os.path.join(ROOT, ".bench_build"))
    ap.add_argument("--trace-dir")
    ap.add_argument("--json", default=os.path.join(ROOT, "BENCH_detect.json"))
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--compare", nargs=2, metavar="FILE")
    args = ap.parse_args()
    if args.seconds <= 0 or args.sets < 1:
        ap.error("--seconds and --sets must be positive")

    try:
        spec = load_spec()
    except (OSError, ValueError) as e:
        log("run.py: cannot read %s: %s" % (SPEC_PATH, e))
        return 2
    if args.compare:
        files = []
        for path in args.compare:
            with open(path) as f:
                files.append(json.load(f))
        problems = compare(files[0], files[1], spec)
        for p in problems:
            log("run.py: " + p)
        return 1 if problems else 0

    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        ap.error("unknown workload %r (one of %s)" % (args.workload,
                                                      ", ".join(names)))
    try:
        binary = build(os.path.abspath(args.build))
    except (OSError, RuntimeError, subprocess.CalledProcessError) as e:
        log("run.py: build failed: %s" % e)
        return 2
    # Absolute: bench_detect runs in the repository root, not here.
    trace_dir = os.path.abspath(args.trace_dir or os.path.join(args.build,
                                                               "traces"))

    host = host_block(binary)
    if args.workload is not None:
        print("host: " + json.dumps(host, sort_keys=True))
        if args.trace:
            result = run_traced(binary, args.workload, args.seed, trace_dir)
            specs = spec["per_layer"]
        else:
            result = run_measured(binary, args.workload, args.seed,
                                  args.seconds)
            specs = spec["end_to_end"]
        if result is None:
            return 2
        print(contract_line(result, specs))
        return 0 if result["correct"] and result["failed"] == 0 else 1

    config = {"seed": args.seed, "seconds": args.seconds,
              "processes": PROCESSES}
    sets = []
    for k in range(args.sets):
        if args.sets > 1:
            print("== set %d of %d" % (k + 1, args.sets))
        results = run_all(binary, spec, args.seed, args.seconds, trace_dir)
        if results is None:
            return 2
        sets.append({"bench": "detect", "host": host, "config": config,
                     "results": results})
    for k, doc in enumerate(sets):
        path = args.json if k == 0 else "%s.set%d" % (args.json, k + 1)
        with open(path, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
        print("wrote %s" % os.path.relpath(path, ROOT))
    ok = all(r["correct"] and r["failed"] == 0
             for doc in sets for r in doc["results"])
    for k in range(1, len(sets)):
        problems = compare(sets[0], sets[k], spec)
        for p in problems:
            log("run.py: set %d: %s" % (k + 1, p))
        ok &= not problems
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

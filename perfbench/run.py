#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload dense|irregular|serve --seed N \
        --seconds S --trace 0|1

Builds the library and the benchmark binary from this checkout into
.bench_build/ (CMake, Release), runs the arithmetic self-tests, then:

  * set-up: fresh processes each compile every program of the workload and
    check its first result, half of them before the measurement and half
    after it; setup_wall_s is the median of their set-up times and the
    measuring process's own;
  * measurement: one process measures for --seconds and checks every result.

A shared host runs the same code up to 1.7x slower in some quarters of an
hour than in others, and absolute times follow it. So setup_s is the set-up
time at the reference host's speed: setup_wall_s scaled by the workload's
setup_reference_baseline_ms (spec.json) over host.baseline_ms, the geomean
median time of the workload's hand-written baselines in this run (the
denominators of ad_over_baseline, code that no change to the library moves).

With --trace 1 the measurement process also records benchmark-side spans
around each library call and writes them as Chrome Trace Event JSON to
.bench_build/trace-<workload>-<seed>.json.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: every end_to_end metric of BENCHMARK.json for
--trace 0, every per_layer metric for --trace 1. Workload constants live in
perfbench/spec.json.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
SPEC = os.path.join(HERE, "spec.json")
TAG = "PERFBENCH_RESULT "


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(jobs):
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, timeout=600)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(jobs), "--target", "perfbench"],
                   check=True, stdout=sys.stderr, timeout=1500)


def run_binary(args, env, timeout, echo=True):
    """Runs the benchmark binary; returns its parsed result object."""
    proc = subprocess.run([BINARY, "--spec", SPEC] + args, env=env, timeout=timeout,
                          stdout=subprocess.PIPE, stderr=sys.stderr, text=True, check=False)
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith(TAG):
            result = json.loads(line[len(TAG):])
        elif echo:
            print(line)
    if proc.returncode != 0 or result is None:
        raise RuntimeError(f"perfbench {' '.join(args)} exited with {proc.returncode}")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    opt = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(SPEC) as f:
        spec = json.load(f)
    if opt.workload not in [w["name"] for w in bench["workloads"]]:
        log(f"run.py: unknown workload {opt.workload!r}")
        return 2

    nproc = os.cpu_count() or 1
    workers = max(1, min(spec["workers_max"], nproc))
    build(min(4, nproc))

    env = dict(os.environ, NPAD_NUM_THREADS=str(workers))
    selftest = subprocess.run([BINARY, "--selftest"], env=env, timeout=60, check=False,
                              stdout=sys.stderr, stderr=sys.stderr)
    if selftest.returncode != 0:
        log("run.py: benchmark self-tests failed")
        return 1

    common = ["--workload", opt.workload, "--seed", str(opt.seed)]
    setups = []
    attempted = failed = 0

    def note_setup(r):
        nonlocal attempted, failed
        setups.append(r["metrics"]["setup_wall_s"]["value"])
        attempted += r["attempted"]
        failed += r["failed"]

    def setup_processes(count):
        for _ in range(count):
            note_setup(run_binary(common + ["--seconds", "0", "--setup-only"], env, 120, echo=False))

    setup_processes(spec["setup_processes"] // 2)
    args = common + ["--seconds", str(opt.seconds), "--trace", str(opt.trace)]
    if opt.trace:
        trace_path = os.path.join(ROOT, ".bench_build", f"trace-{opt.workload}-{opt.seed}.json")
        args += ["--trace-out", trace_path]
    r = run_binary(args, env, opt.seconds + 120)
    note_setup(r)
    measured = r["metrics"]
    setup_processes(spec["setup_processes"] - spec["setup_processes"] // 2)
    wall = statistics.median(setups)
    reference = spec["setup_reference_baseline_ms"][opt.workload]
    measured["setup_wall_s"] = {"value": wall}
    speed = measured.get("host.baseline_ms", {}).get("value")
    measured["setup_s"] = {"value": wall * reference / speed if speed else math.nan}
    measured["fail_frac"] = {"value": failed / attempted if attempted else 1.0}
    print(f"metric setup_wall_s = {wall} s  (median of {len(setups)} processes)")
    print(f"metric setup_s = {measured['setup_s']['value']} s  "
          f"(setup_wall_s at host.baseline_ms {speed} ms scaled to {reference} ms)")
    print(f"metric fail_frac = {measured['fail_frac']['value']} ratio  ({failed} of {attempted})")
    if opt.trace:
        print(f"info trace_file = {trace_path}")

    wanted = bench["per_layer"] if opt.trace else bench["end_to_end"]
    metrics = {}
    idle = []
    for m in wanted:
        value = measured.get(m["name"], {}).get("value")
        measured_ok = isinstance(value, (int, float)) and math.isfinite(value)
        if not opt.trace and not (measured_ok and value > 0):
            # No end-to-end metric is ever 0: a missing, null (non-finite)
            # or 0 value is a failed measurement, not a perfect score.
            log(f"run.py: workload {opt.workload} measured no valid {m['name']} ({value!r})")
            return 1
        if not measured_ok:
            # A layer this workload does not exercise did no work.
            idle.append(m["name"])
            value = 0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    if idle:
        print(f"info not exercised or not measured by {opt.workload} (reported as 0): {' '.join(idle)}")
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, subprocess.SubprocessError, KeyError, ValueError) as e:
        log(f"run.py: {e}")
        sys.exit(1)

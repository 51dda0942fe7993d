#!/usr/bin/env python3
"""End-to-end benchmark of the tsunami digital twin.

    python3 twinbench/run.py --workload live_feed --seed 1 --seconds 5 --trace 0

Run from the root of a source checkout. The first call builds the twin's
library and the twinbench program (twinbench/CMakeLists.txt) into
.bench_build/; later calls reuse the build. Each call then

  1. builds this checkout's own artifact bundle (phases 1-3 of the network
     the workloads serve) in a separate process, so the bundle is never
     shared between commits and its build stays out of the workload's
     set-up time and peak RSS; the build is timed per layer, and the engine
     booted from the bundle is checked bitwise against the cold twin's.
     Later untraced runs of the same build reuse the bundle;
  2. runs the workload, which checks every forecast against its oracle;
     timings are medians over every sample of the measured phase, which is
     repeated (at most six attempts) while the host steals more than 2% of
     the CPU time in it (the validity rule in twinbench.cpp, run);
  3. prints the program's report, then one JSON line:
     {"correct", "attempted", "failed", "metrics"} with the end-to-end
     metrics of BENCHMARK.json (--trace 0) or its per-layer metrics
     (--trace 1).

The command exits non-zero when an oracle fails, when the emitted metric
names or units disagree with BENCHMARK.json, or when the sources are missing.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "twinbench")

WORKLOADS = ("live_feed", "map_replay")
# Pool sizes for the 4-vCPU reference host: the workloads leave the last CPU
# to the load generator, and live_feed the one before it to its helper
# threads (exporter, dashboard, scraper); the offline build has no generator.
POOL = {"live_feed": 2, "map_replay": 3}
BUILD_POOL = 4
# The end-to-end metric whose traced/untraced difference is trace.overhead_pct.
OVERHEAD_BASIS = "tick_latency_p50_us"


def fail(code, message):
    print(f"twinbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail(2, f"no twin sources at {ROOT} (expected CMakeLists.txt and src/)")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "a") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail(3, "build failed (see .bench_build/build.log)")
    if not os.access(BINARY, os.X_OK):
        fail(3, "build produced no twinbench binary")


def run_program(mode, workload, seed, seconds, trace, work, threads):
    env = dict(os.environ, TSUNAMI_NUM_THREADS=str(threads))
    cmd = [BINARY, mode, "--seed", str(seed), "--dir", work, "--trace", str(trace)]
    if mode == "run":
        cmd += ["--workload", workload, "--seconds", str(seconds)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=160)
    except subprocess.TimeoutExpired:
        fail(5, f"twinbench {mode} timed out")
    lines = proc.stdout.splitlines()
    if mode == "prepare":
        if proc.returncode != 0:
            fail(5, "bundle build failed")
        for line in lines:
            print(line)
        return None
    if not lines or not lines[-1].startswith("{"):
        fail(5, f"twinbench exited {proc.returncode} without a result")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    return result


def check_names(emitted, declared, kind):
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: v["unit"] for name, v in emitted.items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail(4, f"{kind} metrics disagree with BENCHMARK.json: missing {missing}, "
                f"extra {extra}, unit mismatch {units}")
    for name, v in emitted.items():
        if not isinstance(v["value"], (int, float)):
            fail(4, f"metric {name} has no numeric value")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail(2, "BENCHMARK.json not found at the checkout root")
    with open(spec_path) as f:
        spec = json.load(f)
    build()

    work = os.path.join(BUILD, "work", args.workload)
    os.makedirs(work, exist_ok=True)
    history = os.path.join(BUILD, "history", args.workload + ".jsonl")
    os.makedirs(os.path.dirname(history), exist_ok=True)

    def one_run(trace):
        # The bundle is this checkout's own: built before its first run, again
        # whenever the program is rebuilt, and in every traced run, which
        # times the build per layer.
        built = os.path.join(work, "build.txt")
        if (trace or not os.path.isfile(built)
                or os.path.getmtime(built) < os.path.getmtime(BINARY)):
            run_program("prepare", args.workload, args.seed, args.seconds, trace,
                        work, BUILD_POOL)
        return run_program("run", args.workload, args.seed, args.seconds, trace,
                           work, POOL[args.workload])

    def remember(result):
        with open(history, "a") as f:
            f.write(json.dumps(result["e2e"]) + "\n")

    if args.trace:
        if not os.path.isfile(history):
            # No untraced run of this checkout yet: make one to compare with.
            untraced = one_run(0)
            if untraced["correct"]:
                remember(untraced)
        result = one_run(1)
        past = []
        if os.path.isfile(history):
            with open(history) as f:
                past = [json.loads(line)[OVERHEAD_BASIS]["value"] for line in f if line.strip()]
        traced = result["e2e"][OVERHEAD_BASIS]["value"]
        overhead = 0.0
        if past:
            base = statistics.median(past)
            overhead = 100.0 * (traced - base) / base
            print(f"  trace overhead: {OVERHEAD_BASIS} {traced:.4g} traced vs {base:.4g} untraced "
                  f"median of {len(past)} runs = {overhead:+.2f}%")
        result["layers"]["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
        metrics, declared, kind = result["layers"], spec["per_layer"], "per-layer"
    else:
        result = one_run(0)
        if result["correct"]:
            remember(result)
        metrics, declared, kind = result["e2e"], spec["end_to_end"], "end-to-end"

    check_names(metrics, declared, kind)
    print(f"  inputs hash {result['inputs_hash']} (seed {args.seed})")
    correct = bool(result["correct"]) and result["exit_code"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: metrics[name] for name in (m["name"] for m in declared)},
    }))
    sys.stdout.flush()
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()

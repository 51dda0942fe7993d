#!/usr/bin/env python3
"""Record a perf-trajectory point: twinbench on two checkouts, in pairs.

    tools/bench/record_pairs.py --parent ../parent --change . \\
        --out bench/history/pr-NN.json [--pairs 10] [--seed 1900] \\
        [--seconds 5]

PARENT and CHANGE are two source checkouts (each makes its own
.bench_build/). For every workload of CHANGE's BENCHMARK.json the script
runs `twinbench/run.py --trace 0` PAIRS times on each side, alternating
which side runs first, with seeds SEED+1 .. SEED+PAIRS (the same seed on
both sides of a pair). It then makes TRACED_SEEDS traced runs (--trace 1,
seeds SEED+PAIRS+1 .. SEED+PAIRS+TRACED_SEEDS) per side for the per-layer
metrics; a traced run whose host steal is over the 2% limit is run again
with the same seed, at most TRACED_TRIES times in all, and the run with
the least steal is kept. One traced run is too noisy to read a layer
from (pr-23.json's core.push_p50_us read 26.5 -> 44.7 us on unchanged
code), so each per-layer metric is the median over the kept runs. The
output holds, per side and workload, every run's end-to-end metrics with
their median and quartiles, the per-layer medians, the largest steal of
a kept traced run, the number of traced runs made and their seeds, and
the run counts of correct and failed operations (every traced run
counts); tools/bench/compare.py diffs it. Each run also keeps the host steal of its reported attempt and
the number of attempts run.py made (the validity rule repeats the
measured phase while the host steals more than 2% of the CPU time),
parsed from run.py's line "host steal X% of CPU time over the reported
attempt (N made)".

The script then times the offline build: PAIRS alternating pairs of
`.bench_build/twinbench prepare` runs (seeds SEED+1 .. SEED+PAIRS) at
run.py's build pool of BUILD_POOL threads, each building the bundle in
its own directory. Every run keeps build_s, the phase split and the host
steal, parsed from prepare's line "prepare: bundle built in ..."; a run
whose warm boot differs from the cold twin counts as incorrect. Untraced
workload runs reuse their bundle, so these runs are the offline build's
only untraced timing.

Each side's commit is stored as `git rev-parse` names it, marked "+dirty"
when tracked files differ from it, so a checkout made with `git clone` is
named exactly; an export without git (`git archive`) is stored as null.

Before its first run the script exits with status 1, naming the file, if
either checkout's .bench_build/history/<workload>.jsonl is non-empty:
run.py takes the untraced basis of a traced run's trace.overhead_pct from
every line of that file, runs of earlier builds of the checkout included.

Run nothing else on the host meanwhile: the workloads pin threads to CPUs.
Exit status 1 when any run is incorrect or fails operations.
"""

import argparse
import datetime
import json
import os
import re
import statistics
import subprocess
import sys

SCHEMA = "twinbench-history/1"
# twinbench's validity limit on host steal (kMaxStealPct in
# twinbench/twinbench.cpp); traced runs over it are repeated.
STEAL_LIMIT_PCT = 2.0
TRACED_TRIES = 3
TRACED_SEEDS = 3
STEAL_LINE = re.compile(r"host steal ([0-9.]+)% of CPU time over the reported "
                        r"attempt \((\d+) made\)")
# Threads of the offline build (BUILD_POOL in twinbench/run.py).
BUILD_POOL = 4
BUILD_METRICS = ("build_s", "phase1_s", "phase2_s", "phase3_s")
PREPARE_LINE = re.compile(
    r"prepare: bundle built in ([0-9.]+) s \(phase1 ([0-9.]+) s, "
    r"phase2 ([0-9.]+) s, phase3 ([0-9.]+) s, write [0-9.]+ ms, \d+ bytes, "
    r"host steal ([0-9.]+)%\); warm boot differs from the cold twin on "
    r"(\d+) of (\d+) events")


def run_once(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(checkout, "twinbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        sys.exit(f"record_pairs: no result line from {checkout} ({workload}, "
                 f"seed {seed})")
    result = json.loads(lines[-1])
    steal = STEAL_LINE.search(proc.stdout)
    if not steal:
        sys.exit(f"record_pairs: no host steal line from {checkout} "
                 f"({workload}, seed {seed})")
    return {
        "seed": seed,
        "correct": bool(result["correct"]) and proc.returncode == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "steal_pct": float(steal.group(1)),
        "attempts": int(steal.group(2)),
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def build_once(checkout, seed):
    """One offline build by the checkout's twinbench (built by its workload
    runs) into its own directory."""
    work = os.path.join(checkout, ".bench_build", "work", "builds")
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(checkout, ".bench_build", "twinbench"), "prepare",
           "--seed", str(seed), "--dir", work, "--trace", "0"]
    env = dict(os.environ, TSUNAMI_NUM_THREADS=str(BUILD_POOL))
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True,
                          text=True)
    line = PREPARE_LINE.search(proc.stdout)
    if not line:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        sys.exit(f"record_pairs: no prepare line from {checkout} (seed {seed})")
    differs, events = int(line.group(6)), int(line.group(7))
    return {
        "seed": seed,
        "correct": proc.returncode == 0 and events > 0 and differs == 0,
        "steal_pct": float(line.group(5)),
        "metrics": dict(zip(BUILD_METRICS,
                            (float(v) for v in line.group(1, 2, 3, 4)))),
    }


def traced_runs(checkout, workload, seed, seconds):
    """Traced runs on one seed until one stays within the steal limit, at
    most TRACED_TRIES; returns them all, the one with the least steal first."""
    runs = []
    while len(runs) < TRACED_TRIES:
        runs.append(run_once(checkout, workload, seed, seconds, 1))
        if runs[-1]["steal_pct"] <= STEAL_LIMIT_PCT:
            break
    return sorted(runs, key=lambda r: r["steal_pct"])


def per_layer_medians(runs):
    """Each per-layer metric's median over `runs` (those that report it)."""
    names = dict.fromkeys(n for r in runs for n in r["metrics"])
    return {n: statistics.median(r["metrics"][n] for r in runs
                                 if n in r["metrics"])
            for n in names}


def summarize(runs, names):
    out = {}
    for name in names:
        values = [r["metrics"][name] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out[name] = {"median": med, "q1": q1, "q3": q3, "runs": values}
    return out


def git_head(checkout):
    """The checkout's commit, marked "+dirty" when tracked files differ from
    it; None outside git (a `git archive` export)."""
    proc = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                          cwd=checkout, capture_output=True, text=True)
    head = proc.stdout.strip()
    if not head:
        return None
    status = subprocess.run(["git", "status", "--porcelain",
                             "--untracked-files=no"],
                            cwd=checkout, capture_output=True, text=True)
    return head + "+dirty" if status.stdout.strip() else head


def stale_history(checkout, workloads):
    """Path of CHECKOUT's first non-empty run history, or None."""
    for w in workloads:
        path = os.path.join(checkout, ".bench_build", "history", w + ".jsonl")
        if os.path.isfile(path) and os.path.getsize(path) > 0:
            return path
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="parent checkout (the baseline)")
    ap.add_argument("--change", required=True, help="changed checkout")
    ap.add_argument("--out", required=True, help="history JSON to write")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1900,
                    help="seed base; pair i uses seed + i")
    ap.add_argument("--seconds", type=float, default=5.0)
    ap.add_argument("--note", default="", help="free text stored in the file")
    args = ap.parse_args()
    if args.pairs < 2:
        sys.exit("record_pairs: need at least 2 pairs for quartiles")

    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = [m["name"] for m in spec["end_to_end"]]
    workloads = [wl["name"] for wl in spec["workloads"]]
    sides = {"parent": args.parent, "change": args.change}
    for checkout in sides.values():
        stale = stale_history(checkout, workloads)
        if stale:
            sys.exit(f"record_pairs: {stale} holds earlier runs, which run.py "
                     "would take as the untraced basis of trace.overhead_pct; "
                     "record from fresh clones or delete the file")
    out = {
        "schema": SCHEMA,
        "recorded": datetime.date.today().isoformat(),
        "note": args.note,
        "run_seconds": args.seconds,
        "pairs": args.pairs,
        "seeds": [args.seed + i for i in range(1, args.pairs + 1)],
        "sides": {s: {"commit": git_head(d), "workloads": {}}
                  for s, d in sides.items()},
    }
    ok = True
    for w in workloads:
        runs = {"parent": [], "change": []}
        for i in range(1, args.pairs + 1):
            order = ("parent", "change") if i % 2 else ("change", "parent")
            for side in order:
                r = run_once(sides[side], w, args.seed + i, args.seconds, 0)
                runs[side].append(r)
                print(f"{w} pair {i} {side}: " + ", ".join(
                    f"{k} {v:.4g}" for k, v in r["metrics"].items())
                    + f", steal {r['steal_pct']:.2f}% ({r['attempts']} attempts)",
                    flush=True)
        traced_seeds = [args.seed + args.pairs + i
                        for i in range(1, TRACED_SEEDS + 1)]
        for side in ("parent", "change"):
            kept, made = [], []
            for seed in traced_seeds:
                traced = traced_runs(sides[side], w, seed, args.seconds)
                print(f"{w} traced {side} seed {seed}: steal " + ", ".join(
                    f"{r['steal_pct']:.2f}%" for r in traced)
                    + f" ({len(traced)} runs)", flush=True)
                kept.append(traced[0])
                made += traced
            every = runs[side] + made
            ok = ok and all(r["correct"] and r["failed"] == 0 for r in every)
            out["sides"][side]["workloads"][w] = {
                "end_to_end": summarize(runs[side], e2e),
                "per_layer": per_layer_medians(kept),
                "traced_steal_pct": max(r["steal_pct"] for r in kept),
                "traced_runs": len(made),
                "traced_seeds": traced_seeds,
                "correct_runs": sum(r["correct"] for r in every),
                "failed_operations": sum(r["failed"] for r in every),
                "steal_pct": [r["steal_pct"] for r in runs[side]],
                "attempts": [r["attempts"] for r in runs[side]],
            }
    builds = {"parent": [], "change": []}
    for i in range(1, args.pairs + 1):
        order = ("parent", "change") if i % 2 else ("change", "parent")
        for side in order:
            r = build_once(sides[side], args.seed + i)
            builds[side].append(r)
            print(f"build pair {i} {side}: " + ", ".join(
                f"{k} {v:.4g}" for k, v in r["metrics"].items())
                + f", steal {r['steal_pct']:.2f}%", flush=True)
    for side, runs in builds.items():
        ok = ok and all(r["correct"] for r in runs)
        out["sides"][side]["builds"] = {
            "metrics": summarize(runs, BUILD_METRICS),
            "correct_runs": sum(r["correct"] for r in runs),
            "steal_pct": [r["steal_pct"] for r in runs],
        }
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    print(f"wrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

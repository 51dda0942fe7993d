#!/usr/bin/env python3
"""Compare benchmark results: BENCH_*.json reports or twinbench history.

BENCH_*.json (bench/bench_util.hpp JsonReport schema): matches cases by
name between a baseline and a current report, prints the median delta per
case with the p10/p90 spread of both runs, and flags regressions. A case
REGRESSES when its median slowed down by more than --fail-above percent AND
the runs' [p10, p90] intervals do not overlap — the overlap test keeps
noisy quick-mode runs (TSUNAMI_BENCH_QUICK=1) from tripping the gate on
jitter alone.

twinbench history (bench/history/pr-NN.json, written by
tools/bench/record_pairs.py): one file compares its parent side with its
change side; two files compare the first file's change side with the
second's. Every end-to-end metric of BENCHMARK.json (read, never written)
is gated by its own relative bound: it REGRESSES when the current median
is worse than the baseline median by more than the bound. Each line also
says whether the median moved by more than the baseline's interquartile
range and, for the two halves of one file, in how many seed-matched pairs
the change was better. The per-layer metrics of the traced runs follow,
for information: each the median over a side's traced seeds (one seed
before pr-35), headed, where the file records them, by each side's
largest kept traced-run host steal and how many traced runs it made (a
table recorded over the 2% limit is marked), and followed by each side's median
host steal over its untraced runs, how many of those runs went past the 2%
validity limit (twinbench reports the attempt with the least steal once
all six were over it) and how many made more than one attempt. Where both
sides record offline-build runs (record_pairs.py, from pr-22 on), their
medians and quartiles of build_s and the phase split close the report, for
information; a build whose warm boot differed from its cold twin fails
the gate.

Usage:
    tools/bench/compare.py baseline.json current.json [--fail-above 10]
    tools/bench/compare.py bench/history/pr-NN.json [--benchmark PATH]
    tools/bench/compare.py bench/history/pr-MM.json bench/history/pr-NN.json

Exit status: 0 when nothing regresses past its threshold, 1 otherwise,
2 on malformed input. CI archives every run's BENCH_*.json under a stable
name (bench-history/BENCH_<bench>.<sha>.json) so any two points of the
trajectory can be compared after the fact.
"""

import argparse
import json
import os
import statistics
import sys

HISTORY_SCHEMA = "twinbench-history/1"
# twinbench repeats a measured phase while the host steals more than this
# share of the CPU time (kMaxStealPct in twinbench/twinbench.cpp).
STEAL_LIMIT_PCT = 2.0
DEFAULT_BENCHMARK = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "BENCHMARK.json")


def malformed(message):
    """Malformed input: exit 2, not the regression status 1."""
    print(f"compare: {message}", file=sys.stderr)
    sys.exit(2)


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        malformed(f"cannot read {path}: {e}")


def is_history(report):
    return isinstance(report, dict) and report.get("schema") == HISTORY_SCHEMA


def side_workloads(report, side, path):
    try:
        return report["sides"][side]["workloads"]
    except (KeyError, TypeError):
        malformed(f"{path} has no '{side}' side")


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def end_to_end(workload, name, label):
    """The end-to-end metrics of one side's workload, each with a numeric
    median, q1, q3 and runs."""
    metrics = workload.get("end_to_end") if isinstance(workload, dict) else None
    if not isinstance(metrics, dict):
        malformed(f"{label}: workload {name} has no 'end_to_end' object")
    for metric, m in metrics.items():
        ok = isinstance(m, dict) and isinstance(m.get("runs"), list)
        if not ok or not all(map(is_number, [m.get("median"), m.get("q1"),
                                             m.get("q3"), *m["runs"]])):
            malformed(f"{label}: {name}.{metric} needs a numeric median, "
                      f"q1, q3 and runs: {m}")
    return metrics


def print_builds(base, curr, labels, paired, regressions):
    """The offline-build runs of record_pairs.py, for information;
    incorrect builds on the current side count as a regression."""
    if not base or not curr:
        return
    print(f"== offline build: {labels[0]} -> {labels[1]}, median [q1, q3]")
    for name, b in base["metrics"].items():
        c = curr["metrics"].get(name)
        if c is None:
            continue
        rel = (c["median"] - b["median"]) / b["median"] if b["median"] else 0.0
        note = ""
        if paired and len(b["runs"]) == len(c["runs"]):
            wins = sum(cv < bv for bv, cv in zip(b["runs"], c["runs"]))
            note = f"  change faster in {wins}/{len(b['runs'])} pairs"
        print(f"  {name:<9} {b['median']:>8.4g} [{b['q1']:.4g}, {b['q3']:.4g}]"
              f"  {c['median']:>8.4g} [{c['q1']:.4g}, {c['q3']:.4g}]"
              f"  {rel * 100:>+7.1f}%{note}")
    for side, w in (("baseline", base), ("current", curr)):
        steal = w["steal_pct"]
        over = sum(s > STEAL_LIMIT_PCT for s in steal)
        print(f"  {side}: {w['correct_runs']}/{len(steal)} builds correct, "
              f"host steal median {statistics.median(steal):.2f}%, {over} "
              f"over the {STEAL_LIMIT_PCT:g}% limit")
    if curr["correct_runs"] < len(curr["steal_pct"]):
        regressions.append("offline build: warm boot differs from the cold twin")


def compare_history(paths, benchmark_path):
    """Gate twinbench history files against BENCHMARK.json's bounds."""
    spec = load_json(benchmark_path)
    reports = [load_json(p) for p in paths]
    for p, r in zip(paths, reports):
        if not is_history(r):
            malformed(f"{p} is not a {HISTORY_SCHEMA} file")
    if len(paths) == 1:
        base = side_workloads(reports[0], "parent", paths[0])
        curr = side_workloads(reports[0], "change", paths[0])
        labels = ("parent", "change")
    else:
        base = side_workloads(reports[0], "change", paths[0])
        curr = side_workloads(reports[1], "change", paths[1])
        labels = (os.path.basename(paths[0]), os.path.basename(paths[1]))
    paired = len(paths) == 1

    regressions, compared = [], 0
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in base or workload not in curr:
            print(f"{workload}: not in both sides, skipped")
            continue
        b_w, c_w = base[workload], curr[workload]
        b_e2e = end_to_end(b_w, workload, labels[0])
        c_e2e = end_to_end(c_w, workload, labels[1])
        print(f"== {workload}: {labels[0]} -> {labels[1]}")
        print(f"  {'metric':<22} {'baseline':>10} {'current':>10} {'delta':>8} "
              f"{'bound':>6}  spread")
        for m in spec["end_to_end"]:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            b, c = b_e2e.get(name), c_e2e.get(name)
            if b is None or c is None:
                print(f"  {name:<22} (missing on one side)")
                continue
            compared += 1
            mb, mc = b["median"], c["median"]
            rel = (mc - mb) / mb if mb else 0.0
            worse = rel > 0 if lower else rel < 0
            iqr = b["q3"] - b["q1"]
            note = ("moved beyond baseline IQR" if abs(mc - mb) > iqr
                    else "within baseline IQR")
            if paired and len(b["runs"]) == len(c["runs"]):
                wins = sum((cv < bv) if lower else (cv > bv)
                           for bv, cv in zip(b["runs"], c["runs"]))
                note += f"; change better in {wins}/{len(b['runs'])} pairs"
            flag = ""
            if worse and abs(rel) > bound:
                flag = " REGRESSION"
                regressions.append(f"{workload}.{name} {rel * 100:+.1f}%")
            print(f"  {name:<22} {mb:>10.4g} {mc:>10.4g} {rel * 100:>+7.1f}% "
                  f"{bound * 100:>5.0f}%  {note}{flag}")
        b_l, c_l = b_w.get("per_layer", {}), c_w.get("per_layer", {})
        shared = [m["name"] for m in spec["per_layer"]
                  if m["name"] in b_l and m["name"] in c_l]
        if shared:
            seeds = [len(w.get("traced_seeds", [None])) for w in (b_w, c_w)]
            print("  per-layer (traced seeds per side, each metric their "
                  f"median: baseline {seeds[0]}, current {seeds[1]}):")
            over = False
            for side, w in (("baseline", b_w), ("current", c_w)):
                steal = w.get("traced_steal_pct")
                if steal is None:
                    continue
                over = over or steal > STEAL_LIMIT_PCT
                print(f"    {side} traced runs: host steal {steal:.2f}% "
                      f"(the most of the kept runs), "
                      f"{w.get('traced_runs', 1)} run(s) made")
            if over:
                print(f"    OVER THE {STEAL_LIMIT_PCT:g}% STEAL LIMIT: only "
                      "in-process probes (core.*, linalg.*) compare")
        for name in shared:
            vb, vc = b_l[name], c_l[name]
            rel = f"{(vc - vb) / vb * 100:+.1f}%" if vb else "n/a"
            print(f"    {name:<34} {vb:>12.4g} {vc:>12.4g} {rel:>8}")
        for side, w in (("baseline", b_w), ("current", c_w)):
            steal = w.get("steal_pct")
            if steal:
                over = sum(s > STEAL_LIMIT_PCT for s in steal)
                repeated = sum(a > 1 for a in w.get("attempts", []))
                print(f"  {side}: host steal median {statistics.median(steal):.2f}%, "
                      f"{over}/{len(steal)} runs over the {STEAL_LIMIT_PCT:g}% "
                      f"limit, {repeated} with more than one attempt")
            failed = w.get("failed_operations", 0)
            if failed:
                print(f"  {side}: {failed} failed operations")
        if c_w.get("failed_operations", 0) > b_w.get("failed_operations", 0):
            regressions.append(f"{workload}: more failed operations")
    base_side = "parent" if paired else "change"
    print_builds(reports[0]["sides"][base_side].get("builds"),
                 reports[-1]["sides"]["change"].get("builds"), labels, paired,
                 regressions)
    if compared == 0:
        malformed("no end-to-end metric in common")
    if regressions:
        print(f"\nFAIL: {len(regressions)} regression(s) beyond the "
              f"BENCHMARK.json bounds: {', '.join(regressions)}", file=sys.stderr)
        return 1
    print(f"\nOK: no end-to-end metric worse than its bound "
          f"({compared} compared)")
    return 0


def load_cases(path):
    report = load_json(path)
    cases = report.get("cases") if isinstance(report, dict) else None
    if not isinstance(cases, list):
        malformed(f"{path} has no 'cases' array")
    out = {}
    for case in cases:
        if not isinstance(case, dict) or not case.get("name") \
                or not is_number(case.get("median_ns")) \
                or not all(is_number(case.get(k, 0))
                           for k in ("p10_ns", "p90_ns")):
            malformed(f"{path} case needs a name and a numeric median_ns "
                      f"(p10_ns/p90_ns numeric if present): {case}")
        out[case["name"]] = case
    return report, out


def fmt_ns(ns):
    for unit, scale in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
        if ns >= scale:
            return f"{ns / scale:.3g} {unit}"
    return f"{ns:.3g} ns"


def intervals_overlap(a, b):
    """[p10, p90] interval overlap; missing percentiles count as overlap
    (no spread information -> never escalate to a hard failure)."""
    lo_a, hi_a = a.get("p10_ns"), a.get("p90_ns")
    lo_b, hi_b = b.get("p10_ns"), b.get("p90_ns")
    if None in (lo_a, hi_a, lo_b, hi_b):
        return True
    return lo_a <= hi_b and lo_b <= hi_a


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", help="baseline BENCH_*.json or history file")
    ap.add_argument("current", nargs="?",
                    help="current BENCH_*.json or history file")
    ap.add_argument(
        "--fail-above",
        type=float,
        default=10.0,
        metavar="PCT",
        help="BENCH_*.json: median slowdown percent that fails the gate "
        "when the p10/p90 intervals also separate (default: 10)",
    )
    ap.add_argument("--benchmark", default=DEFAULT_BENCHMARK,
                    help="history files: BENCHMARK.json with the bounds "
                    "(default: the repo's)")
    args = ap.parse_args()

    paths = [p for p in (args.baseline, args.current) if p is not None]
    if is_history(load_json(args.baseline)):
        return compare_history(paths, args.benchmark)
    if args.current is None:
        malformed("BENCH_*.json reports need a baseline and a current")
    base_report, base = load_cases(args.baseline)
    curr_report, curr = load_cases(args.current)

    if base_report.get("quick") != curr_report.get("quick"):
        print("compare: WARNING: mixing quick and full runs; deltas are "
              "indicative only", file=sys.stderr)

    shared = [n for n in base if n in curr]
    only_base = sorted(set(base) - set(curr))
    only_curr = sorted(set(curr) - set(base))
    if not shared:
        malformed("no case names in common")

    width = max(len(n) for n in shared)
    regressions = []
    print(f"{'case':<{width}}  {'baseline':>10}  {'current':>10}  "
          f"{'delta':>8}  spread")
    for name in shared:
        b, c = base[name], curr[name]
        mb, mc = b["median_ns"], c["median_ns"]
        delta_pct = (mc - mb) / mb * 100.0 if mb > 0 else 0.0
        overlap = intervals_overlap(b, c)
        slower = delta_pct > args.fail_above
        flag = ""
        if slower:
            flag = " SLOWER (p10/p90 overlap)" if overlap else " REGRESSION"
            if not overlap:
                regressions.append((name, delta_pct))
        elif delta_pct < -args.fail_above and not overlap:
            flag = " improved"
        print(f"{name:<{width}}  {fmt_ns(mb):>10}  {fmt_ns(mc):>10}  "
              f"{delta_pct:>+7.1f}%  "
              f"{'overlaps' if overlap else 'separated'}{flag}")
    for name in only_base:
        print(f"{name:<{width}}  (removed: only in baseline)")
    for name in only_curr:
        print(f"{name:<{width}}  (new: only in current)")

    if regressions:
        worst = ", ".join(f"{n} {d:+.1f}%" for n, d in regressions)
        print(f"\nFAIL: {len(regressions)} case(s) regressed beyond "
              f"{args.fail_above:.0f}% with separated spreads: {worst}",
              file=sys.stderr)
        return 1
    print(f"\nOK: no case regressed beyond {args.fail_above:.0f}% "
          f"with separated spreads ({len(shared)} compared)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

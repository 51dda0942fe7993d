#!/usr/bin/env python3
"""Self-tests for tools/bench/compare.py's exit status.

Runs compare.py as a subprocess on reports written to a temp dir:
  * BENCH_*.json mode: 0 when a slower case's p10/p90 intervals overlap,
    1 when they separate past --fail-above;
  * history mode, against a --benchmark file written here: 1 when a
    change median is past its bound or the change side has more failed
    operations, 0 when the median stays inside the bound;
  * 2 on every malformed input.

Registered as the `compare_selftest` CTest.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

COMPARE = Path(__file__).resolve().parent / "compare.py"

BENCHMARK = {
    "workloads": [{"name": "w"}],
    "end_to_end": [{"name": "tick_us", "unit": "us", "better": "lower",
                    "bound": 0.25}],
    "per_layer": [],
}


def bench_report(median_ns, p10_ns, p90_ns):
    return {"bench": "t", "quick": False, "notes": {},
            "cases": [{"name": "case", "shape": {}, "reps": 5,
                       "median_ns": median_ns, "p10_ns": p10_ns,
                       "p90_ns": p90_ns}]}


def side(median, failed=0):
    runs = [median * f for f in (0.98, 0.99, 1.0, 1.01, 1.02)]
    metric = {"median": median, "q1": runs[1], "q3": runs[3], "runs": runs}
    return {"workloads": {"w": {"end_to_end": {"tick_us": metric},
                                "failed_operations": failed}}}


def history(parent, change):
    return {"schema": "twinbench-history/1",
            "sides": {"parent": parent, "change": change}}


class CompareExitTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self._tmp.name)
        self.benchmark = self.write("BENCHMARK.json", BENCHMARK)

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, name, content):
        path = self.dir / name
        path.write_text(content if isinstance(content, str)
                        else json.dumps(content))
        return str(path)

    def status(self, *args):
        return subprocess.run([sys.executable, str(COMPARE), *args],
                              capture_output=True, text=True).returncode

    def history_status(self, parent, change):
        path = self.write("pr.json", history(parent, change))
        return self.status(path, "--benchmark", self.benchmark)

    # --- BENCH_*.json mode -------------------------------------------------
    def test_slower_case_with_overlapping_spreads_passes(self):
        base = self.write("a.json", bench_report(100.0, 90.0, 200.0))
        curr = self.write("b.json", bench_report(150.0, 140.0, 160.0))
        self.assertEqual(self.status(base, curr), 0)

    def test_slower_case_with_separated_spreads_fails(self):
        base = self.write("a.json", bench_report(100.0, 95.0, 105.0))
        curr = self.write("b.json", bench_report(150.0, 140.0, 160.0))
        self.assertEqual(self.status(base, curr, "--fail-above", "10"), 1)

    def test_self_compare_passes(self):
        base = self.write("a.json", bench_report(100.0, 95.0, 105.0))
        self.assertEqual(self.status(base, base), 0)

    # --- history mode ------------------------------------------------------
    def test_median_inside_its_bound_passes(self):
        self.assertEqual(self.history_status(side(10.0), side(12.0)), 0)

    def test_median_past_its_bound_fails(self):
        self.assertEqual(self.history_status(side(10.0), side(13.0)), 1)

    def test_more_failed_operations_fails(self):
        self.assertEqual(
            self.history_status(side(10.0), side(10.0, failed=1)), 1)

    # --- malformed input: exit 2, never the regression status 1 ------------
    def test_malformed_inputs_exit_2(self):
        good = self.write("good.json", bench_report(100.0, 95.0, 105.0))
        other = self.write("other.json", {
            "cases": [{"name": "elsewhere", "median_ns": 1.0}]})
        string_median = side(1.0)
        string_median["workloads"]["w"]["end_to_end"]["tick_us"]["median"] = "1"
        cases = {
            "not JSON": [self.write("bad.json", "{not json")],
            "missing file": [str(self.dir / "absent.json"), good],
            "cases not an array": [self.write("c.json", {"cases": {}}), good],
            "report not an object": [self.write("l.json", []), good],
            "case without median": [
                self.write("m.json", {"cases": [{"name": "x"}]}), good],
            "no case in common": [good, other],
            "no current report": [good],
            "history without a side": [
                self.write("h.json", {"schema": "twinbench-history/1",
                                      "sides": {"change": side(1.0)}}),
                "--benchmark", self.benchmark],
            "history pair with a report": [
                self.write("p.json", history(side(1.0), side(1.0))), good,
                "--benchmark", self.benchmark],
            "history workload without end_to_end": [
                self.write("w.json", history({"workloads": {"w": {}}},
                                             side(1.0))),
                "--benchmark", self.benchmark],
            "history metric with a string median": [
                self.write("t.json", history(string_median, side(1.0))),
                "--benchmark", self.benchmark],
            "case with a string median_ns": [
                self.write("s.json", {"cases": [
                    {"name": "case", "median_ns": "100"}]}), good],
            "no end-to-end metric in common": [
                self.write("e.json", history(
                    {"workloads": {"w": {"end_to_end": {}}}},
                    {"workloads": {"w": {"end_to_end": {}}}})),
                "--benchmark", self.benchmark],
        }
        for label, args in cases.items():
            with self.subTest(label):
                self.assertEqual(self.status(*args), 2)


if __name__ == "__main__":
    unittest.main()

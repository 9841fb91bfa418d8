#!/usr/bin/env python3
"""Smoke test of the performance benchmark.

    python3 perfbench/test_smoke.py

Runs `perfbench/run.py --smoke` (every workload at a tiny size, with
and without tracing) and asserts that every metric BENCHMARK.json names
is reported with its unit, that each workload itself reports the
per-layer metrics of the layers it runs, and that every correctness
check of each workload ran and passed.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

# Checks each workload must run; traced runs add their replay check.
CHECKS = {
    "sim32": ["sim.model_invariants", "sim.repeatable"],
    "sweep4": ["sweep.all_done", "sweep.repeatable",
               "sweep.norm_antt_finite"],
    "serve_write": ["serve.no_errors", "serve.occupancy_within_budget",
                    "serve.eviction_distribution_sums_to_one",
                    "serve.repeatable", "serve.has_warm_rounds"],
}
TRACED_CHECKS = {
    "sim32": ["sim.replay_matches", "trace.coverage"],
    "sweep4": ["sim.replay_matches", "trace.coverage"],
    "serve_write": ["serve.replay_matches", "trace.coverage"],
}


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.results = run.build_dir() / "results"
        # Reports of an earlier smoke run must not stand in for this one.
        for old in cls.results.glob("*-smoke.json"):
            old.unlink()
        cls.proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--smoke"], cwd=ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            timeout=1800)
        cls.spec = run.spec()

    def report(self, workload, trace):
        path = self.results / ("%s-seed1-trace%d-smoke.json"
                               % (workload, trace))
        return json.loads(path.read_text())

    def test_smoke_passes(self):
        self.assertEqual(self.proc.returncode, 0, self.proc.stdout[-3000:])
        self.assertIn("smoke: ok", self.proc.stdout)

    def test_every_metric_prints_with_its_unit(self):
        for w in self.spec["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                report = self.report(w["name"], trace)
                for m in self.spec[key]:
                    got = report["selected_metrics"].get(m["name"])
                    self.assertIsNotNone(got, (w["name"], m["name"]))
                    self.assertEqual(got["unit"], m["unit"], m["name"])
                    line = "metric %-32s" % m["name"]
                    self.assertIn(line, self.proc.stdout)

    def test_each_workload_reports_its_own_layers(self):
        for w in self.spec["workloads"]:
            raw = self.report(w["name"], 1)["metrics"]
            owned = [m["name"] for m in self.spec["per_layer"]
                     if run.runs_layer(w["name"], m["name"])]
            self.assertTrue(owned, w["name"])
            for name in owned:
                self.assertIn(name, raw, (w["name"], name))

    def test_every_check_runs_and_passes(self):
        for w in self.spec["workloads"]:
            for trace in (0, 1):
                report = self.report(w["name"], trace)
                ran = {c["name"]: c["ok"] for c in report["checks"]}
                wanted = CHECKS[w["name"]] + (
                    TRACED_CHECKS[w["name"]] if trace else [])
                for name in wanted:
                    self.assertIn(name, ran, (w["name"], trace))
                    self.assertTrue(ran[name], (w["name"], trace, name))
                self.assertGreaterEqual(report["attempted"], 1)
                self.assertEqual(report["failed"], 0)


if __name__ == "__main__":
    unittest.main()

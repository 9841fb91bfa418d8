#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread and record a baseline.

    python3 perfbench/baseline.py --seeds 1-10 [--workloads sim32,sweep4]
        [--heldout 97 --heldout-runs 3] [--out perfbench/baseline.json]

Runs `perfbench/run.py --trace 0` once per seed and workload (each run
is its own process), then reports, per (end-to-end metric, workload),
the median, the quartiles and the interquartile range as a share of the
median (statistics.quantiles(values, n=4)), next to the metric's bound
from BENCHMARK.json. With --heldout it also runs one seed that no
tuning used, several times, and records it separately. With --out it
writes everything, with the host fingerprint, as the baseline that
later changes are compared against on the same host.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    line = proc.stdout.strip().splitlines()[-1]
    result = json.loads(line)
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit("run failed: %s seed %d\n%s"
                         % (workload, seed, proc.stdout))
    return result


def summarise(values, bound):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "values": values,
        "median": med,
        "q1": q1,
        "q3": q3,
        "iqr_over_median": (q3 - q1) / med if med else 0.0,
        "bound": bound,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--heldout", type=int, default=None)
    ap.add_argument("--heldout-runs", type=int, default=3)
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    fingerprint = None
    out = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in workloads:
        per_metric = {}
        t0 = time.time()
        for seed in seeds:
            result = run_once(workload, seed, seconds)
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
        if fingerprint is None:
            report = json.loads(
                (run.build_dir() / "results" /
                 ("%s-seed%d-trace0.json" % (workload, seeds[-1])))
                .read_text())
            fingerprint = report["fingerprint"]
        entry = {name: summarise(v, bounds[name])
                 for name, v in per_metric.items()}
        if args.heldout is not None:
            held = {}
            for _ in range(args.heldout_runs):
                result = run_once(workload, args.heldout, seconds)
                for name, m in result["metrics"].items():
                    held.setdefault(name, []).append(m["value"])
            for name, v in held.items():
                entry[name]["heldout"] = {
                    "seed": args.heldout,
                    "values": v,
                    "median": statistics.median(v),
                }
        out["workloads"][workload] = entry
        print("%s (%.0f s)" % (workload, time.time() - t0))
        for name, s in entry.items():
            flag = ("" if s["iqr_over_median"] <= s["bound"] / 3 else
                    "  above bound/3" if s["iqr_over_median"] <= s["bound"]
                    else "  ABOVE BOUND")
            print("  %-16s median %-12.6g IQR/median %.4f (bound %.2f)%s"
                  % (name, s["median"], s["iqr_over_median"], s["bound"],
                     flag))
    out["fingerprint"] = fingerprint
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run one workload of the PriSM performance benchmark.

    python3 perfbench/run.py --workload sim32 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py             # every workload in turn
    python3 perfbench/run.py --smoke     # every workload, tiny, both modes

Run from the repository root. The first call configures and builds the
simulator sources and the benchmark binary into .bench_build/ (the
directory named by CARGO_TARGET_DIR when set). --seconds defaults to
BENCHMARK.json's run_seconds. The binary's report is checked against
BENCHMARK.json: every metric of the mode (end_to_end with --trace 0,
per_layer with --trace 1) must be present with its unit. A workload
reports the layers it runs (LAYERS); the per-layer metrics of the
others read 0. Human-readable lines come first; the last line of
stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The full report, with the host fingerprint, is written to
<build>/results/. Exit status is 0 when every check passed, 1 when a
check failed or a metric is missing, 2 on a usage or build error.
"""

import argparse
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sim32", "sweep4", "serve_write")

# The per-layer metric families (name prefixes) each workload runs and
# must report itself in a traced run.
LAYERS = {
    "sim32": ("workload.", "cache.", "plane.", "sim.", "telemetry."),
    "sweep4": ("workload.", "cache.", "plane.", "policies.", "sim.",
               "exec.", "telemetry."),
    "serve_write": ("serve.", "telemetry."),
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configure (once) and build the binary; returns its path or None."""
    out = build_dir() / "perfbench"
    binary = out / "perfbench"
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build step failed: " + " ".join(cmd))
            return None
    return binary if binary.exists() else None


def fingerprint(build_info):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True,
                             timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = ""
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "compiler": build_info.get("compiler", ""),
        "flags": build_info.get("flags", "").strip(),
        "build_type": build_info.get("build_type", ""),
        "git_rev": rev or "unknown (not a git checkout)",
    }


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def runs_layer(workload, metric):
    """Whether a traced run of @workload measures @metric."""
    return metric.startswith(LAYERS[workload])


def run_workload(binary, workload, seed, seconds, trace, smoke=False):
    """Run the binary once; returns (report dict, problems list)."""
    results = build_dir() / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = "%s-seed%d-trace%d%s" % (workload, seed, trace,
                                   "-smoke" if smoke else "")
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(trace)]
    if trace:
        cmd += ["--spans-out", str(results / (tag + ".spans.jsonl"))]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=min(seconds * 3 + 60, 170))
    except subprocess.TimeoutExpired:
        return None, ["benchmark binary timed out"]
    try:
        report = json.loads(proc.stdout)
    except ValueError:
        return None, ["benchmark binary exited %d without a report"
                      % proc.returncode]

    problems = []
    if proc.returncode != 0:
        problems.append("benchmark binary exited %d" % proc.returncode)
    for check in report["checks"]:
        if not check["ok"]:
            problems.append("check %s failed: %s" % (check["name"],
                                                     check["detail"]))
    metrics = {}
    for m in spec()["per_layer" if trace else "end_to_end"]:
        got = report["metrics"].get(m["name"])
        if got is None and trace and not runs_layer(workload, m["name"]):
            got = {"value": 0.0, "unit": m["unit"]}
        if got is None:
            problems.append("metric %s missing" % m["name"])
            continue
        if got["unit"] != m["unit"]:
            problems.append("metric %s has unit %s, expected %s"
                            % (m["name"], got["unit"], m["unit"]))
        value = got["value"]
        if not math.isfinite(value) or (not trace and value <= 0):
            problems.append("metric %s has value %r" % (m["name"], value))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    report["selected_metrics"] = metrics
    report["fingerprint"] = fingerprint(report.get("build", {}))
    report["problems"] = problems
    (results / (tag + ".json")).write_text(json.dumps(report, indent=2))
    return report, problems


def print_report(report, problems):
    print("perfbench %s seed=%s trace=%d threads=%s%s"
          % (report["workload"], report["seed"], int(report["trace"]),
             report["threads"], " smoke" if report["smoke"] else ""))
    fp = report["fingerprint"]
    print("  host: %s, nproc %s, %s, %s [%s], rev %s"
          % (fp["cpu"], fp["nproc"], fp["compiler"], fp["build_type"],
             fp["flags"], fp["git_rev"]))
    for check in report["checks"]:
        print("  check %-40s %s  %s" % (check["name"],
                                        "pass" if check["ok"] else "FAIL",
                                        check["detail"]))
    for name, m in report["selected_metrics"].items():
        print("  metric %-32s %.6g %s" % (name, m["value"], m["unit"]))
    for key, value in report["info"].items():
        print("  info %-34s %s" % (key, value))
    for p in problems:
        print("  PROBLEM " + p)


def run_all(binary, seed, seconds, traces, smoke=False):
    """Every workload in turn; returns the exit status."""
    failures = 0
    for workload in WORKLOADS:
        for trace in traces:
            report, problems = run_workload(binary, workload, seed, seconds,
                                            trace, smoke=smoke)
            if report is None:
                print("perfbench %s trace=%d: %s"
                      % (workload, trace, "; ".join(problems)))
                failures += 1
                continue
            print_report(report, problems)
            failures += bool(problems)
    print("%s: %s" % ("smoke" if smoke else "all",
                      "ok" if failures == 0 else "%d FAILED" % failures))
    return 0 if failures == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload (default: all of them in turn)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    default=spec()["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at a tiny size, both modes")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    binary = build()
    if binary is None:
        return 2
    if args.smoke:
        return run_all(binary, 1, 1.0, (0, 1), smoke=True)
    if not args.workload:
        return run_all(binary, args.seed, args.seconds, (args.trace,))

    report, problems = run_workload(binary, args.workload, args.seed,
                                    args.seconds, args.trace)
    if report is None:
        log("perfbench: " + "; ".join(problems))
        return 1
    print_report(report, problems)
    print(json.dumps({
        "correct": not problems,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": report["selected_metrics"],
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

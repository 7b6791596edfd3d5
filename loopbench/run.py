#!/usr/bin/env python3
"""Build and run the whole-loop benchmark, check its outputs, print its metrics.

Usage (from the repository root):

    python3 loopbench/run.py --workload loop_batch|loop_online \\
        --seed N --seconds S --trace 0|1

The benchmark compiles the repository's libraries and the loopbench driver
into .bench_build/loopbench (Release) and runs one workload: the loop phase
in the workload's mode, then the query phase, each in a process of its own
(a traced run traces both loop modes and the query phase). It merges the
phases' reports, prints every metric with its unit and every correctness
check, and prints as its last line one JSON object: {"correct", "attempted",
"failed", "metrics"}. With --trace 0
the metrics are every end-to-end metric BENCHMARK.json lists, with --trace 1
every per-layer metric; each workload reports all of them. The exit status
is 0 only when the build succeeded, every check passed and every metric was
measured.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170  # all phases together

# The driver's phases per workload, untraced; a traced run runs all three.
PHASES = {"loop_batch": ["batch", "query"], "loop_online": ["online", "query"]}
# How a metric two phases both report combines: set-up adds up, memory is
# the larger process's peak.
MERGE = {"setup_s": lambda a, b: a + b, "peak_rss_mib": max}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root):
    """Configure and build into .bench_build/loopbench; returns the binary path."""
    build_dir = os.path.join(root, ".bench_build", "loopbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "loopbench", "-j", jobs],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the report.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "loopbench")


def main():
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(PHASES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        binary = build(root)
    except (RuntimeError, OSError) as e:
        log("loopbench: " + str(e))
        return 2

    deadline = time.monotonic() + RUN_TIMEOUT_S
    phases = ["batch", "online", "query"] if args.trace else PHASES[args.workload]
    report = {"attempted": 0, "failed": 0, "metrics": {}, "checks": {}}
    problems = []
    for phase in phases:
        cmd = [binary, "--phase", phase, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        lines = [l for l in proc.stdout.splitlines() if l.strip()]
        if not lines:
            log("loopbench: no report from the %s phase (exit %d)" % (phase, proc.returncode))
            return 2
        part = json.loads(lines[-1])
        if proc.returncode != 0:
            problems.append("%s phase exit status %d" % (phase, proc.returncode))
        report["attempted"] += part["attempted"]
        report["failed"] += part["failed"]
        report["checks"].update(part["checks"])
        for name, m in part["metrics"].items():
            old = report["metrics"].get(name)
            if old is not None:
                m = {"value": MERGE[name](old["value"], m["value"]), "unit": m["unit"]}
            report["metrics"][name] = m

    for name, ok in report["checks"].items():
        print("check  %-52s %s" % (name, "ok" if ok else "FAILED"))
        if not ok:
            problems.append("check failed: " + name)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for declared in wanted:
        name = declared["name"]
        m = report["metrics"].get(name)
        if m is None:
            problems.append("metric not measured: " + name)
            continue
        if declared["unit"] != m["unit"]:
            problems.append("unit of %s is %s, BENCHMARK.json says %s"
                            % (name, m["unit"], declared["unit"]))
        value = m["value"]
        if not math.isfinite(value) or (not args.trace and value <= 0):
            problems.append("metric %s has no valid value: %r" % (name, value))
        metrics[name] = {"value": value, "unit": m["unit"]}
        print("metric %-52s %16.6g %s" % (name, value, m["unit"]))
    for p in problems:
        log("loopbench: " + p)

    print(json.dumps({
        "correct": not problems,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Correctness smoke over every perfbench workload (ctest `perfbench_smoke`).

Runs a perfbench binary built from the top-level tree on each workload
that BENCHMARK.json declares, for a couple of seconds with tracing on,
and fails when a run exits non-zero, prints no JSON result line, or
reports "correct": false. That puts perfbench's checks (exact 2PC
message counts, conservation, drain, WAL rebuild) on every test run.
It measures nothing: speed is the benchmark's business.

    python3 tools/perfbench_smoke.py --binary <perfbench> --scratch <dir>
"""

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 300


def workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [w["name"] for w in json.load(f)["workloads"]]


def run(binary, workload, seconds, scratch):
    command = [binary, "--workload", workload, "--seed", "1",
               "--seconds", str(seconds), "--trace", "1",
               "--scratch", scratch]
    start = time.monotonic()
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timed out after %d s" % RUN_TIMEOUT_S
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return "no JSON result line (exit %d)" % proc.returncode
    print("%-14s correct=%s attempted=%s failed=%s exit=%d %.1fs" %
          (workload, result.get("correct"), result.get("attempted"),
           result.get("failed"), proc.returncode, time.monotonic() - start))
    if result.get("correct") is not True or proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        return "correctness checks failed"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary", required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args()
    os.makedirs(args.scratch, exist_ok=True)
    failures = []
    for workload in workloads():
        error = run(args.binary, workload, args.seconds, args.scratch)
        if error is not None:
            failures.append("%s: %s" % (workload, error))
    for failure in failures:
        print("FAIL", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

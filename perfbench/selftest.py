#!/usr/bin/env python3
"""Tiny-size self-test of every workload, untraced and traced.

    python3 perfbench/selftest.py

Runs each workload with --tiny (small sizes, short phases) in both modes
and checks that the run is correct, that nothing failed, and that it
reported exactly the metrics BENCHMARK.json declares for that mode.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ["cold_compile", "cold_plan", "warm_serve", "kernel_run"]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_one(workload, trace):
    """Returns the problems of one tiny run (empty when it passed)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return ["exit %d\n%s" % (proc.returncode, proc.stderr[-2000:])]
    result = json.loads(lines[-1])
    got, expected = set(result["metrics"]), set(expected_metrics(trace))
    errors = []
    if not result["correct"] or result["failed"]:
        errors.append("%d of %d failed" % (result["failed"], result["attempted"]))
    if got != expected:
        errors.append("missing %s, unexpected %s" % (
            sorted(expected - got), sorted(got - expected)))
    return errors


def main():
    problems = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            errors = run_one(workload, trace)
            print("%s %s trace=%d %s" % ("FAIL" if errors else "ok  ",
                                         workload, trace, "; ".join(errors)),
                  flush=True)
            problems += bool(errors)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

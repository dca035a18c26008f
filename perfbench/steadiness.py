#!/usr/bin/env python3
"""Run one workload with N seeds and report each metric's spread.

    python3 perfbench/steadiness.py --workload warm_serve --runs 10

For every metric it prints the median, the first and third quartiles (as
statistics.quantiles(values, n=4) gives them) and (q3 - q1) / median, next
to the metric's bound from BENCHMARK.json. A spread below a third of the
bound is marked "ok", one within the bound "near", and a wider one "WIDE".
These are the figures the bounds in BENCHMARK.json were set from. Runs are
untraced: only end-to-end metrics carry bounds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--out", help="also write every value as JSON here")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values, failures = {}, 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("seed %d: run failed (exit %d)\n%s" % (
                seed, proc.returncode, proc.stderr[-1500:]))
            failures += 1
            continue
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            print("seed %d: %d of %d failed\n%s" % (
                seed, result["failed"], result["attempted"], proc.stderr[-1500:]))
            failures += 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.4g" % (n, m["value"]) for n, m in result["metrics"].items())),
            flush=True)

    print("\n%-34s %12s %12s %12s %8s %6s" % ("metric", "median", "q1", "q3",
                                              "spread", "bound"))
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = ("ok" if spread < bound / 3 else
                       "near" if spread <= bound else "WIDE")
        print("%-34s %12.5g %12.5g %12.5g %8.4f %6s %s" % (
            name, med, q1, q3, spread, bound if bound is not None else "-",
            verdict))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(values, f, indent=1)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

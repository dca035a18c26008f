#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result line.

    python3 perfbench/run.py --workload cold_compile --seed 7 --seconds 10 --trace 0

Builds the benchmark runner and the shipped ltp-serve daemon from source
(CMake package in this directory, build tree under .bench_build/), runs the
runner in a private, empty directory that also holds the run's kernel stores
and temporary files, and removes that directory afterwards. Every process
the run starts is in one process group, which is killed on every exit path.

The last line of standard output is one JSON object:
    {"correct": ..., "attempted": N, "failed": F, "metrics": {...}}
With --trace 0 the metrics are every end-to-end metric of BENCHMARK.json,
with --trace 1 every per-layer one, on every workload. The traced
run also writes its spans to .bench_build/traces/<workload>-<seed>.json and
checks them with ltp-trace-check.

--tiny runs small sizes and short phases (the self-test, selftest.py).
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("cold_compile", "cold_plan", "warm_serve", "kernel_run")
# Each run must end within 180 s (the first one may also build).
RUN_BUDGET_S = 170.0
# Inherited settings that would change what the daemon or the JIT does.
SCRUBBED_ENV = ("LTP_TRACE", "LTP_METRICS", "LTP_LOG", "LTP_JIT_CACHE_DIR",
                "LTP_JIT_DISK_CACHE", "XDG_CACHE_HOME")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the runner, ltp-serve and the trace
    checker. Returns False when the sources are missing or do not build."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        log("error: no project sources next to the benchmark")
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.call(cmd + generator, stdout=sys.stderr) != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", BUILD, "--parallel", "4", "--target",
           "ltp-perfbench", "ltp-serve", "ltp-trace-check"]
    return subprocess.call(cmd, stdout=sys.stderr) == 0


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_benchmark(args, deadline):
    """Runs the runner in a fresh directory; returns its exit code, its
    standard output and the path of the span file it was told to write."""
    runs = os.path.join(ROOT, ".bench_build", "runs")
    traces = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(runs, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=runs)
    trace_out = os.path.join(traces, "%s-%d.json" % (args.workload, args.seed))
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["TMPDIR"] = run_dir
    cmd = [os.path.join(BUILD, "ltp-perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serve-binary", os.path.join(BUILD, "ltp", "tools", "ltp-serve"),
           "--trace-out", trace_out]
    if args.tiny:
        cmd.append("--tiny")
    proc = None
    try:
        proc = subprocess.Popen(cmd, cwd=run_dir, env=env, stdout=subprocess.PIPE,
                                start_new_session=True, text=True)
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        return proc.returncode, out, trace_out
    except subprocess.TimeoutExpired:
        log("error: the run did not finish within its time budget")
        return 1, "", trace_out
    finally:
        if proc is not None:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        shutil.rmtree(run_dir, ignore_errors=True)


def check_trace(path):
    checker = os.path.join(BUILD, "ltp", "tools", "ltp-trace-check")
    return subprocess.call([checker, path], stdout=sys.stderr) == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    if not build():
        log("error: the benchmark could not be built")
        return 1
    code, out, trace_out = run_benchmark(args, time.monotonic() + RUN_BUDGET_S)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        log("error: the runner failed (exit %d)" % code)
        return 1
    result = json.loads(lines[-1])

    declared = declared_metrics(args.trace)
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if got != declared:
        log("error: the metrics differ from BENCHMARK.json: missing %s, "
            "undeclared or in another unit %s"
            % (sorted(set(declared.items()) - set(got.items())),
               sorted(set(got.items()) - set(declared.items()))))
        return 1
    if args.trace:
        result["attempted"] += 1
        if not check_trace(trace_out):
            result["failed"] += 1
            result["correct"] = False
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

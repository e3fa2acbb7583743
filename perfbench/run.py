#!/usr/bin/env python3
"""Builds and runs the CG-KGR benchmark. See perfbench/README.md.

One run (what BENCHMARK.json's command does), from the repo root:

  python3 perfbench/run.py --workload train --seed 1 --seconds 10 --trace 0

The last stdout line is the result JSON. Repeat mode runs one workload K
times on seeds N..N+K-1 and prints each end-to-end metric's median and
interquartile spread next to its bound, to re-check the bounds on another
machine:

  python3 perfbench/run.py --workload serve_hot --repeat 10 --seconds 10
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "cgkgr_perfbench")
# A run measures for --seconds plus about 10 s of set-up and checks.
RUN_TIMEOUT_S = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build():
    """Configures once, then (re)builds the benchmark binary from source."""
    # The Makefile appears only when a configure step succeeded.
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        configure = subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            log("cmake configure failed")
            return False
    jobs = str(os.cpu_count() or 1)
    made = subprocess.run(
        ["cmake", "--build", BUILD, "--target", "cgkgr_perfbench", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    if made.returncode != 0:
        log("build failed")
        return False
    return True


def declared_metrics():
    """(end_to_end, per_layer) metric specs from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def run_once(workload, seed, seconds, trace):
    """Runs the binary once; returns (parsed result, raw line) or None."""
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--workdir", os.path.join(BUILD, "work")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run timed out")
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log("benchmark exited with %d" % done.returncode)
        return None
    result = json.loads(lines[-1])
    end_to_end, per_layer = declared_metrics()
    wanted = per_layer if trace else end_to_end
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            log("metric %s missing or in the wrong unit" % metric["name"])
            return None
    if len(result["metrics"]) != len(wanted):
        log("result holds metrics BENCHMARK.json does not list")
        return None
    return result, lines[-1]


def repeat(workload, first_seed, seconds, times):
    end_to_end, _ = declared_metrics()
    values = {m["name"]: [] for m in end_to_end}
    failed_shares = set()
    for seed in range(first_seed, first_seed + times):
        outcome = run_once(workload, seed, seconds, 0)
        if outcome is None:
            return 1
        result, line = outcome
        print(line, flush=True)
        if not result["correct"]:
            log("seed %d: outputs failed the checks" % seed)
            return 1
        failed_shares.add(result["failed"] / result["attempted"])
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    print("%-12s %14s %14s %14s %8s %6s" %
          ("metric", "median", "q1", "q3", "spread", "bound"))
    for metric in end_to_end:
        series = values[metric["name"]]
        q1, median, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        print("%-12s %14.6g %14.6g %14.6g %8.4f %6.2f" %
              (metric["name"], median, q1, q3, spread, metric["bound"]))
    print("failed share per run: %s" % sorted(failed_shares))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run K times on consecutive seeds and print "
                             "each end-to-end metric's median and spread")
    args = parser.parse_args()
    if not build():
        return 1
    if args.repeat > 0:
        return repeat(args.workload, args.seed, args.seconds, args.repeat)
    outcome = run_once(args.workload, args.seed, args.seconds, args.trace)
    if outcome is None:
        return 1
    print(outcome[1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Steadiness helper: runs one workload N times and prints each metric's
median, quartiles and IQR/median, flagging any spread above a tenth.

Run from the root of a checkout:

    python3 perfbench/steady.py --workload stream-swf --runs 10 --seconds 25

Run i uses seed --first-seed + i. The quartiles are those of Python's
statistics.quantiles(values, n=4). When BENCHMARK.json lists a bound for
a metric, the spread is also compared with a third of that bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

FLAG_SPREAD = 0.10


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def bounds():
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except OSError:
        return {}
    return {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    values = {}
    units = {}
    failures = 0
    for i in range(args.runs):
        seed = args.first_seed + i
        result = run_once(args.workload, seed, args.seconds, args.trace)
        if not result["correct"] or result["failed"]:
            failures += 1
        summary = []
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
            summary.append(f"{name}={metric['value']:.6g}")
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + " ".join(summary), flush=True)

    limits = bounds()
    print(f"\n{args.workload}: {args.runs} runs, {failures} with failures")
    print(f"{'metric':28} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8}  flag")
    flagged = 0
    for name, series in values.items():
        med = statistics.median(series)
        if len(series) >= 2:
            q1, _, q3 = statistics.quantiles(series, n=4)
        else:
            q1 = q3 = series[0]
        spread = (q3 - q1) / med if med else 0.0
        flags = []
        if spread > FLAG_SPREAD:
            flags.append("SPREAD>0.1")
        if name in limits and spread > limits[name] / 3:
            flags.append(f"SPREAD>bound/3({limits[name]})")
        flagged += bool(flags)
        print(f"{name:28} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f}  "
              + " ".join(flags) + f" [{units[name]}]")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()

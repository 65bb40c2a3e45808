#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-cold --seed 0 --seconds 25 --trace 0

The build (Release: the library, bsldsim and the benchmark binary) goes to
.bench_build/perfbench and is reused by later runs; scratch files go to
.bench_run. The last line of standard output is the benchmark's JSON result.
Build logs go to standard error.
"""

import argparse
import os
import re
import signal
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORK_DIR = ".bench_run"
WORKLOADS = ("paper-cold", "stream-swf", "daemon-mixed")
DEFAULT_SEED = 0
# Later gain claims must also hold on this seed, which tuning never uses.
HELD_OUT_SEED = 7
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        fail("run from the root of a checkout (CMakeLists.txt and src/ missing)")
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if not os.path.isfile(cache):
        subprocess.run(
            ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
         "bsldsim", "-j", "3"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    with open(cache) as f:
        match = re.search(r"^CMAKE_BUILD_TYPE:STRING=(.*)$", f.read(), re.M)
    if not match or match.group(1) != "Release":
        fail("the benchmark build must be Release")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as error:
        fail(f"build failed: {error}")

    command = [
        os.path.join(BUILD_DIR, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--bsldsim", os.path.join(BUILD_DIR, "bsld", "examples", "bsldsim"),
        "--workdir", WORK_DIR,
    ]
    print(f"# seed {args.seed} (default {DEFAULT_SEED}, held-out "
          f"{HELD_OUT_SEED})", flush=True)
    # Its own process group, so a hung run takes the daemon it started down
    # with it.
    bench = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        out, _ = bench.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(bench.pid, signal.SIGKILL)
        bench.wait()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(out)
    sys.stdout.flush()
    if bench.returncode != 0:
        fail(f"{args.workload} exited with {bench.returncode}")


if __name__ == "__main__":
    main()

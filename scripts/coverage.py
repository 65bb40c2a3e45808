#!/usr/bin/env python3
"""Prints the line coverage of src/ under the ctest suite, as one number.

Run from the root of a checkout:

    python3 scripts/coverage.py [--jobs 4]

Configures (once) and builds the `coverage` CMake preset (--coverage -O0)
in build-coverage/, clears old counters, runs ctest there, then runs
gcov in JSON mode over every object of the tree. Line counts are merged
across objects, so a line of a header inlined into many translation units
counts once and is covered if any of them ran it. Only files under src/
count. The last line of output is the result, e.g.

    coverage: 87.12% of 6413 src/ lines

The exit status is ctest's: a failing test still prints the number.
"""

import argparse
import gzip
import json
import os
import subprocess
import sys
import tempfile

BUILD_DIR = "build-coverage"  # the preset's binaryDir


def run(command, quiet=False, **kwargs):
    if not quiet:
        print("+ " + " ".join(command), file=sys.stderr, flush=True)
    return subprocess.run(command, **kwargs)


def build(build_dir, jobs):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run(["cmake", "--preset", "coverage"], check=True,
            stdout=sys.stderr)
    run(["cmake", "--build", build_dir, "-j", str(jobs)], check=True,
        stdout=sys.stderr)


def objects(build_dir):
    """Every instrumented object: one .gcno per compiled translation unit."""
    for root, _, files in os.walk(build_dir):
        for name in files:
            if name.endswith(".gcno"):
                yield os.path.join(root, name)


def clear_counters(build_dir):
    for root, _, files in os.walk(build_dir):
        for name in files:
            if name.endswith(".gcda"):
                os.remove(os.path.join(root, name))


def line_counts(build_dir, src_dir):
    """{(file, line): executed} over src/ files, merged across objects."""
    covered = {}
    with tempfile.TemporaryDirectory() as scratch:
        # One object per call: gcov names its .gcov.json.gz after the
        # object, and objects in different directories may share a name.
        # An object without counters reads as never executed.
        for obj in objects(build_dir):
            run(["gcov", "--json-format", os.path.abspath(obj)], cwd=scratch,
                check=True, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL, quiet=True)
            for name in os.listdir(scratch):
                path = os.path.join(scratch, name)
                with gzip.open(path, "rt") as f:
                    report = json.load(f)
                os.remove(path)
                cwd = report.get("current_working_directory", "")
                for entry in report["files"]:
                    source = os.path.normpath(os.path.join(cwd, entry["file"]))
                    if not source.startswith(src_dir + os.sep):
                        continue
                    for line in entry["lines"]:
                        key = (source, line["line_number"])
                        covered[key] = covered.get(key, False) or line["count"] > 0
    return covered


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args()
    if not os.path.isdir("src"):
        sys.exit("coverage: run from the root of a checkout")

    build(BUILD_DIR, args.jobs)
    clear_counters(BUILD_DIR)
    tests = run(["ctest", "--test-dir", BUILD_DIR, "-j", str(args.jobs),
                 "--output-on-failure"], stdout=sys.stderr)
    covered = line_counts(BUILD_DIR, os.path.abspath("src"))
    if not covered:
        sys.exit("coverage: gcov reported no src/ lines")
    hit = sum(covered.values())
    print(f"coverage: {100.0 * hit / len(covered):.2f}% of {len(covered)} "
          f"src/ lines")
    sys.exit(tests.returncode)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Validate and compare google-benchmark JSON outputs.

Two modes, both stdlib-only:

  bench_compare.py --check FRESH.json
      Structural validation: the file must parse as JSON and carry a
      non-empty `benchmarks` array. Exit 1 otherwise. Used by
      scripts/run_bench.sh so a crashed or truncated benchmark run can
      never masquerade as a benchmark artifact.

  bench_compare.py --stamp-build-type Release FRESH.json
      Record the CMake build type the binary was compiled with into the
      artifact's `context` object (key `bsld_build_type`). run_bench.sh
      calls this right after the run, reading the type out of the build
      directory's CMakeCache.txt, so every artifact knows its own
      optimization level.

  bench_compare.py FRESH.json BASELINE.json --max-regression-pct 25 \
      --guard bench/bench_guard.list
      The CI bench-regression gate: for every benchmark named in the guard
      list, compare throughput (items_per_second when reported, else
      1/real_time) between the fresh run and the checked-in baseline, and
      exit 1 when any guarded benchmark regressed by more than the
      threshold. A run with repetitions (--benchmark_repetitions=N) is
      gated on the median of its raw repetitions, so one outlier cannot
      decide the verdict; the coefficient of variation (CV) of each
      guarded benchmark's repetitions is printed beside its delta. Guarded names missing from the fresh run fail (a deleted
      benchmark must be removed from the guard list deliberately); names
      missing from the baseline are skipped with a note (new benchmarks
      enter the gate when the baseline is refreshed).

      Both files must carry matching `bsld_build_type` stamps: a Debug
      run regressing 70% against a Release baseline says nothing about
      the code, so mismatched (or missing) stamps abort the compare
      before any numbers are looked at.

      Under GitHub Actions (when $GITHUB_STEP_SUMMARY is set) the compare
      also appends a markdown baseline/current/ratio table to the job
      summary, so the gate's numbers are readable without opening logs.

  bench_compare.py --self-test
      Prove on synthetic artifacts that a single outlier among five
      repetitions decides neither a pass nor a failure (ctest
      `tools.bench_compare_selftest`).

The baseline lives in bench/BENCH_baseline.json and is refreshed with
`scripts/run_bench.sh --update-baseline` on quiet hardware. To land a PR
with a known, accepted regression, apply the `bench-regression-override`
label (see .github/workflows/ci.yml) — the gate job is skipped.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError) as error:
        sys.exit(f"bench_compare: cannot read {path}: {error}")
    benchmarks = data.get("benchmarks")
    if not isinstance(benchmarks, list) or not benchmarks:
        sys.exit(f"bench_compare: {path} has no `benchmarks` array "
                 "(truncated or not a google-benchmark JSON file)")
    return data


def throughput(entry):
    """Higher is better: items/s when reported, else inverse wall time."""
    items = entry.get("items_per_second")
    if isinstance(items, (int, float)) and items > 0:
        return float(items)
    real = entry.get("real_time")
    if isinstance(real, (int, float)) and real > 0:
        return 1.0 / float(real)
    return None


def build_type(data, path):
    """The `bsld_build_type` stamp, or None with a hint when absent."""
    context = data.get("context")
    stamp = context.get("bsld_build_type") if isinstance(context, dict) else None
    if not isinstance(stamp, str) or not stamp:
        print(f"bench_compare: {path} carries no bsld_build_type stamp "
              "(produced by hand, or by a run_bench.sh predating the stamp?)",
              file=sys.stderr)
        return None
    return stamp


def samples_by_name(data):
    """Raw throughput samples per benchmark name, one per repetition.
    Aggregate rows (mean/median/stddev/cv) are skipped: the gate computes
    its own statistics from the raw repetitions."""
    table = {}
    for entry in data["benchmarks"]:
        if entry.get("run_type") == "aggregate":
            continue
        rate = throughput(entry)
        if entry.get("name") and rate is not None:
            table.setdefault(entry["name"], []).append(rate)
    return table


def by_name(data):
    """Median throughput of each benchmark's raw repetitions."""
    return {name: statistics.median(rates)
            for name, rates in samples_by_name(data).items()}


def cv_text(rates):
    """Coefficient of variation of the repetitions, or n/a for one run."""
    if not rates or len(rates) < 2:
        return "n/a"
    return f"{statistics.stdev(rates) / statistics.mean(rates) * 100.0:.1f}%"


def write_step_summary(rows, max_regression_pct, failed):
    """Append a markdown baseline/current ratio table to the file named by
    $GITHUB_STEP_SUMMARY (the CI job-summary panel). A no-op outside
    GitHub Actions; summary I/O never fails the gate itself."""
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    verdict = "regression over limit" if failed else "within limits"
    lines = [
        "### Bench gate — guarded throughput vs checked-in baseline",
        "",
        f"Gate: fail under {1.0 - max_regression_pct / 100.0:.2f}x "
        f"(-{max_regression_pct:g}%). Result: **{verdict}**.",
        "",
        "| benchmark | baseline | current | ratio |",
        "|---|---:|---:|---:|",
    ]
    for name, base, now, ratio in rows:
        base_text = f"{base:.4g}/s" if base is not None else "(new)"
        now_text = f"{now:.4g}/s" if now is not None else "(missing)"
        ratio_text = f"{ratio:.2f}x" if ratio is not None else "n/a"
        lines.append(f"| `{name}` | {base_text} | {now_text} | {ratio_text} |")
    try:
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
    except OSError as error:
        print(f"bench_compare: cannot write step summary: {error}",
              file=sys.stderr)


def self_test():
    """One outlier among five repetitions must not decide the verdict:
    a slow last repetition of a steady benchmark passes, and a fast last
    repetition of a regressed one still fails."""
    script = os.path.abspath(__file__)

    def artifact(path, rates):
        rows = [{"name": "BM_Steady", "run_type": "iteration",
                 "repetition_index": i, "items_per_second": rate}
                for i, rate in enumerate(rates)]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"context": {"bsld_build_type": "Release"},
                       "benchmarks": rows}, handle)

    def gate(fresh_rates, tmp):
        artifact(os.path.join(tmp, "base.json"), [100.0])
        artifact(os.path.join(tmp, "fresh.json"), fresh_rates)
        with open(os.path.join(tmp, "guard.list"), "w",
                  encoding="utf-8") as handle:
            handle.write("BM_Steady\n")
        run = subprocess.run(
            [sys.executable, script, os.path.join(tmp, "fresh.json"),
             os.path.join(tmp, "base.json"), "--max-regression-pct", "25",
             "--guard", os.path.join(tmp, "guard.list")],
            capture_output=True, text=True, check=False)
        return run.returncode == 0

    with tempfile.TemporaryDirectory() as tmp:
        if not gate([101.0, 99.0, 100.0, 102.0, 30.0], tmp):
            sys.exit("bench_compare --self-test: FAIL — one slow outlier "
                     "failed a steady benchmark")
        if gate([50.0, 52.0, 49.0, 51.0, 100.0], tmp):
            sys.exit("bench_compare --self-test: FAIL — one fast outlier "
                     "passed a regressed benchmark")
    print("bench_compare --self-test: OK (the median of five repetitions "
          "decides, not one outlier)")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh", nargs="?",
                        help="freshly produced BENCH_micro.json")
    parser.add_argument("baseline", nargs="?",
                        help="checked-in baseline to gate against")
    parser.add_argument("--check", action="store_true",
                        help="only validate `fresh` structurally")
    parser.add_argument("--stamp-build-type", metavar="TYPE",
                        help="record TYPE as context.bsld_build_type in "
                             "`fresh` and exit")
    parser.add_argument("--max-regression-pct", type=float, default=25.0,
                        help="fail when a guarded benchmark's throughput "
                             "drops by more than this percentage")
    parser.add_argument("--guard",
                        help="file listing guarded benchmark names, one per "
                             "line (# comments); default: every benchmark "
                             "present in both runs")
    parser.add_argument("--self-test", action="store_true",
                        help="prove the median gate on synthetic artifacts")
    args = parser.parse_args()
    if args.self_test:
        self_test()
        return
    if not args.fresh:
        sys.exit("bench_compare: a fresh benchmark file is required")

    fresh = load(args.fresh)
    if args.stamp_build_type:
        fresh.setdefault("context", {})["bsld_build_type"] = \
            args.stamp_build_type
        try:
            with open(args.fresh, "w", encoding="utf-8") as handle:
                json.dump(fresh, handle, indent=2)
                handle.write("\n")
        except OSError as error:
            sys.exit(f"bench_compare: cannot rewrite {args.fresh}: {error}")
        print(f"bench_compare: stamped {args.fresh} as "
              f"{args.stamp_build_type}")
        return
    if args.check:
        print(f"bench_compare: {args.fresh} OK "
              f"({len(fresh['benchmarks'])} benchmarks)")
        return
    if not args.baseline:
        sys.exit("bench_compare: baseline file required unless --check")

    baseline = load(args.baseline)
    fresh_type = build_type(fresh, args.fresh)
    baseline_type = build_type(baseline, args.baseline)
    if fresh_type is None or baseline_type is None:
        sys.exit("bench_compare: refusing to compare unstamped artifacts — "
                 "re-produce them with scripts/run_bench.sh (it stamps the "
                 "build type from the build directory's CMakeCache.txt), or "
                 "stamp by hand with --stamp-build-type")
    if fresh_type != baseline_type:
        sys.exit(f"bench_compare: build-type mismatch — {args.fresh} is a "
                 f"{fresh_type} run but {args.baseline} was recorded under "
                 f"{baseline_type}; throughput deltas across optimization "
                 "levels are meaningless. Rebuild with "
                 f"-DCMAKE_BUILD_TYPE={baseline_type} and re-run, or refresh "
                 "the baseline (`scripts/run_bench.sh --update-baseline`) "
                 "from the configuration you intend to gate on")
    fresh_samples = samples_by_name(fresh)
    fresh_rates = by_name(fresh)
    baseline_rates = by_name(baseline)

    if args.guard:
        try:
            with open(args.guard, "r", encoding="utf-8") as handle:
                guarded = [line.strip() for line in handle
                           if line.strip() and not line.startswith("#")]
        except OSError as error:
            sys.exit(f"bench_compare: cannot read guard list: {error}")
    else:
        guarded = sorted(set(fresh_rates) & set(baseline_rates))

    failures = []
    rows = []  # (name, baseline, fresh, ratio) for the step summary.
    print(f"{'benchmark':40s} {'baseline':>12s} {'fresh':>12s} {'delta':>8s} "
          f"{'cv':>7s}  (fresh: median of "
          f"{max(map(len, fresh_samples.values()), default=0)} repetitions)")
    for name in guarded:
        if name not in fresh_rates:
            failures.append(f"{name}: missing from {args.fresh} (remove it "
                            "from the guard list if it was deleted)")
            rows.append((name, baseline_rates.get(name), None, None))
            continue
        if name not in baseline_rates:
            print(f"{name:40s} {'(new)':>12s} {fresh_rates[name]:12.3g} "
                  f"{'n/a':>8s}  # enters the gate on the next baseline "
                  "refresh")
            rows.append((name, None, fresh_rates[name], None))
            continue
        base = baseline_rates[name]
        now = fresh_rates[name]
        delta_pct = (now - base) / base * 100.0
        print(f"{name:40s} {base:12.3g} {now:12.3g} {delta_pct:+7.1f}% "
              f"{cv_text(fresh_samples[name]):>7s}")
        rows.append((name, base, now, now / base))
        if delta_pct < -args.max_regression_pct:
            failures.append(
                f"{name}: throughput {base:.3g} -> {now:.3g} "
                f"({delta_pct:+.1f}%, limit -{args.max_regression_pct:g}%)")

    write_step_summary(rows, args.max_regression_pct, bool(failures))
    if failures:
        print("\nbench_compare: FAIL — throughput regression over "
              f"{args.max_regression_pct:g}%:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        print("  (accepted regression? apply the bench-regression-override "
              "PR label, or refresh the baseline with "
              "`scripts/run_bench.sh --update-baseline`)", file=sys.stderr)
        sys.exit(1)
    print("bench_compare: OK")


if __name__ == "__main__":
    main()

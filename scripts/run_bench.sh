#!/usr/bin/env bash
# Runs the microbenchmark suite and emits BENCH_micro.json (google-benchmark
# JSON format) to seed the performance trajectory. Fails loudly (non-zero
# exit) when bench_micro is missing, fails to run, or emits invalid JSON —
# an empty artifact must never be mistaken for a benchmark run.
#
# Usage:
#   scripts/run_bench.sh [options] [build-dir] [output.json] [bench args...]
#
# The default build dir is build-bench, configured on demand through the
# `bench-release` CMake preset (-O3 + LTO) — the configuration the
# committed baseline is recorded under. Pass an explicit build dir to
# benchmark another tree (CI smokes reuse the tier-1 `build`).
#
# Options (must come first):
#   --compare BASELINE.json   Run every benchmark 5 times
#                             (--benchmark_repetitions=5), then diff the
#                             median of the fresh repetitions against the
#                             baseline with scripts/bench_compare.py and exit
#                             non-zero on >BENCH_MAX_REGRESSION_PCT (default
#                             25) percent throughput regression in the
#                             benchmarks named in bench/bench_guard.list.
#   --update-baseline         After running, copy the fresh JSON over
#                             bench/BENCH_baseline.json (run on quiet
#                             hardware; commit the result). Refused unless
#                             the build dir is a Release build: a Debug
#                             baseline would poison every later --compare
#                             (mirror of bench_compare.py's stamp check).
#   --if-improved             Only meaningful with --update-baseline: refuse
#                             the refresh when any guarded benchmark is
#                             slower than the baseline being replaced (0%
#                             regression tolerance). Use for routine
#                             refreshes so a noisy run can never quietly
#                             lower the bar; omit it only when accepting a
#                             known regression deliberately.
#   --self-test               Prove the --update-baseline guard against a
#                             sandboxed fake build dir (Debug refused,
#                             Release accepted) and exit. Touches nothing
#                             outside a temp directory.
#
# Environment:
#   BSLD_BENCH_BASELINE       Baseline path --update-baseline writes to
#                             (default bench/BENCH_baseline.json; the
#                             self-test uses this to stay sandboxed).
#
# Extra arguments are forwarded to bench_micro (e.g.
# --benchmark_min_time=0.01s for CI smokes).
set -euo pipefail

self_test() {
  local script_path tmp
  script_path="$(cd "$(dirname "$0")" && pwd)/$(basename "$0")"
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT

  # A fake build dir: a stub bench_micro that emits one valid
  # google-benchmark JSON record, plus a CMakeCache carrying the build type
  # under test. Everything the guard consults, nothing else.
  mkdir -p "$tmp/build/bench"
  cat > "$tmp/build/bench/bench_micro" <<'STUB'
#!/usr/bin/env bash
out=""
for arg in "$@"; do
  case "$arg" in --benchmark_out=*) out="${arg#--benchmark_out=}" ;; esac
done
printf '{"context": {}, "benchmarks": [{"name": "BM_Stub", "real_time": 1.0}]}\n' > "$out"
STUB
  chmod +x "$tmp/build/bench/bench_micro"

  echo "CMAKE_BUILD_TYPE:STRING=Debug" > "$tmp/build/CMakeCache.txt"
  if BSLD_BENCH_BASELINE="$tmp/baseline.json" \
      "$script_path" --update-baseline "$tmp/build" "$tmp/out.json" \
      > "$tmp/debug.log" 2>&1; then
    echo "run_bench.sh --self-test: FAIL — a Debug build updated the baseline" >&2
    cat "$tmp/debug.log" >&2
    exit 1
  fi
  if [[ -e "$tmp/baseline.json" ]]; then
    echo "run_bench.sh --self-test: FAIL — refusal still wrote the baseline" >&2
    exit 1
  fi
  if ! grep -q "refusing --update-baseline" "$tmp/debug.log"; then
    echo "run_bench.sh --self-test: FAIL — Debug refusal lacks the guard message" >&2
    cat "$tmp/debug.log" >&2
    exit 1
  fi

  echo "CMAKE_BUILD_TYPE:STRING=Release" > "$tmp/build/CMakeCache.txt"
  if ! BSLD_BENCH_BASELINE="$tmp/baseline.json" \
      "$script_path" --update-baseline "$tmp/build" "$tmp/out.json" \
      > "$tmp/release.log" 2>&1; then
    echo "run_bench.sh --self-test: FAIL — a Release build was refused" >&2
    cat "$tmp/release.log" >&2
    exit 1
  fi
  if [[ ! -s "$tmp/baseline.json" ]]; then
    echo "run_bench.sh --self-test: FAIL — Release run left no baseline" >&2
    exit 1
  fi

  echo "run_bench.sh --self-test: OK (Debug refused, Release accepted)"
  exit 0
}

compare_baseline=""
update_baseline=0
if_improved=0
while [[ $# -ge 1 ]]; do
  case "$1" in
    --compare)
      [[ $# -ge 2 ]] || { echo "run_bench.sh: --compare needs a baseline file" >&2; exit 2; }
      compare_baseline="$2"
      shift 2
      ;;
    --update-baseline)
      update_baseline=1
      shift
      ;;
    --if-improved)
      if_improved=1
      shift
      ;;
    --self-test)
      self_test
      ;;
    *)
      break
      ;;
  esac
done

build_dir="${1:-build-bench}"
out="${2:-BENCH_micro.json}"
# Drop the two fixed arguments; ${1+"$@"} below forwards the rest safely
# even under `set -u` on old bash (empty "${@:3}" trips bash <= 4.3).
if [[ $# -ge 2 ]]; then shift 2; elif [[ $# -eq 1 ]]; then shift 1; fi
repo_root="$(cd "$(dirname "$0")/.." && pwd)"

cd "$repo_root"

if [[ $if_improved -eq 1 && $update_baseline -eq 0 ]]; then
  echo "run_bench.sh: --if-improved only applies with --update-baseline" >&2
  exit 2
fi

if [[ ! -x "$build_dir/bench/bench_micro" ]]; then
  # The default tree comes from the bench-release preset so every
  # measurement (and every committed baseline) is -O3 + LTO; explicitly
  # named trees are configured plainly, preserving whatever they are.
  if [[ "$build_dir" == "build-bench" ]]; then
    cmake --preset bench-release
  else
    cmake -B "$build_dir" -S .
  fi
  cmake --build "$build_dir" --target bench_micro -j
fi
if [[ ! -x "$build_dir/bench/bench_micro" ]]; then
  echo "run_bench.sh: $build_dir/bench/bench_micro is missing after the build" >&2
  exit 1
fi

# Read the build type up front: the stamp below wants it anyway, and
# --update-baseline must refuse a non-Release build *before* spending
# minutes benchmarking a binary whose numbers could never be committed.
build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$build_dir/CMakeCache.txt" | head -n 1)"
if [[ -z "$build_type" ]]; then
  echo "run_bench.sh: cannot read CMAKE_BUILD_TYPE from $build_dir/CMakeCache.txt" >&2
  exit 1
fi
baseline_path="${BSLD_BENCH_BASELINE:-bench/BENCH_baseline.json}"
if [[ $update_baseline -eq 1 && "$build_type" != "Release" ]]; then
  echo "run_bench.sh: refusing --update-baseline from a $build_type build —" \
       "the committed baseline must come from Release (same rule" \
       "bench_compare.py enforces via the bsld_build_type stamp)" >&2
  exit 1
fi

# The gate compares medians, so a compared run needs repetitions; explicit
# bench arguments come later and win.
repetitions=()
if [[ -n "$compare_baseline" ]]; then
  repetitions=(--benchmark_repetitions=5)
fi

"$build_dir/bench/bench_micro" \
  --benchmark_out="$out" \
  --benchmark_out_format=json \
  ${repetitions[@]+"${repetitions[@]}"} \
  ${1+"$@"}

if [[ ! -s "$out" ]]; then
  echo "run_bench.sh: bench_micro wrote no output to $out" >&2
  exit 1
fi
# A valid run always carries a non-empty `benchmarks` array; anything else
# (truncated file, crash mid-write, HTML error page from a wrapper) fails.
python3 scripts/bench_compare.py --check "$out"

# Stamp the build type the binary was compiled with into the artifact, so
# bench_compare can refuse Debug-vs-Release comparisons later. The cache
# always carries CMAKE_BUILD_TYPE here: the top-level CMakeLists.txt forces
# Release into it when unset, so an empty read means a broken build dir
# (caught above, before the run).
python3 scripts/bench_compare.py --stamp-build-type "$build_type" "$out"

echo "Wrote $out"

# Compare before any baseline refresh: `--compare X --update-baseline`
# must gate against the *old* baseline, not the file just overwritten.
if [[ -n "$compare_baseline" ]]; then
  python3 scripts/bench_compare.py "$out" "$compare_baseline" \
    --max-regression-pct "${BENCH_MAX_REGRESSION_PCT:-25}" \
    --guard bench/bench_guard.list
fi

if [[ $update_baseline -eq 1 ]]; then
  if [[ $if_improved -eq 1 && -s "$baseline_path" ]]; then
    # Zero tolerance against the baseline being replaced: a refresh must
    # never lower the bar. Failing the compare (including a build-type
    # stamp mismatch) refuses the update.
    if ! python3 scripts/bench_compare.py "$out" "$baseline_path" \
        --max-regression-pct 0 --guard bench/bench_guard.list; then
      echo "run_bench.sh: refusing --update-baseline: a guarded benchmark" \
           "is slower than the current baseline (drop --if-improved to" \
           "accept a regression deliberately)" >&2
      exit 1
    fi
  fi
  cp "$out" "$baseline_path"
  echo "Updated $baseline_path"
fi

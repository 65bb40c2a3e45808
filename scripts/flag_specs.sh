#!/usr/bin/env bash
# Characterization of bsldsim's single-run flags (ctest
# examples.flag_specs): each flag set below is run with --save-spec, and
# the spec it writes must equal tests/golden/bsldsim_flags/<name>.conf
# byte for byte. Every saved spec must also replay: `--spec <saved>
# --save-spec` writes the same bytes again. A second list names flag sets
# that must fail before anything is saved, with the offending flag named
# in the message.
#
# Flag sets run in a scratch directory holding two small SWF traces,
# `trace.swf` and `tr#1.swf`, so SWF paths in the goldens are relative.
# Sets may replay an earlier golden through --spec; the `input_*.conf`
# files next to the goldens are --platform inputs.
#
# Usage: scripts/flag_specs.sh <bsldsim-binary> <repo-root>
set -euo pipefail

bsldsim="$(realpath "$1")"
root="$(realpath "$2")"
specs="$root/examples/specs"
golden="$root/tests/golden/bsldsim_flags"
workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT
cd "$workdir"

for trace in trace.swf 'tr#1.swf'; do
  {
    echo "; MaxProcs: 16"
    echo "1 0 -1 120 4 -1 -1 4 300 -1 1 1 1 -1 1 -1 -1 -1"
    echo "2 30 -1 600 8 -1 -1 8 900 -1 1 2 1 -1 1 -1 -1 -1"
    echo "3 45 -1 60 1 -1 -1 1 60 -1 1 3 1 -1 1 -1 -1 -1"
    echo "4 90 -1 400 16 -1 -1 16 500 -1 1 1 1 -1 1 -1 -1 -1"
  } > "$trace"
done

failures=0

# check <name> <flags...>: the saved spec equals the golden and replays.
check() {
  local name="$1"
  shift
  rm -f saved.conf replayed.conf
  if ! "$bsldsim" "$@" --format csv --save-spec saved.conf \
      > /dev/null 2> run.log; then
    echo "flag_specs: $name ($*) failed:" >&2
    cat run.log >&2
    failures=$((failures + 1))
    return
  fi
  if ! cmp -s saved.conf "$golden/$name.conf"; then
    echo "flag_specs: $name ($*) saved a different spec:" >&2
    diff "$golden/$name.conf" saved.conf >&2 || true
    failures=$((failures + 1))
    return
  fi
  if ! "$bsldsim" --spec saved.conf --format csv --save-spec replayed.conf \
      > /dev/null 2> run.log || ! cmp -s saved.conf replayed.conf; then
    echo "flag_specs: $name ($*) does not replay to the same spec:" >&2
    cat run.log >&2
    diff saved.conf replayed.conf >&2 || true
    failures=$((failures + 1))
  fi
}

# fails <needle> <flags...>: the run fails naming <needle>, saving nothing.
fails() {
  local needle="$1"
  shift
  rm -f saved.conf
  if "$bsldsim" "$@" --format csv --save-spec saved.conf \
      > /dev/null 2> run.log; then
    echo "flag_specs: ($*) was accepted" >&2
    failures=$((failures + 1))
  elif [ -e saved.conf ]; then
    echo "flag_specs: ($*) saved a spec before failing" >&2
    failures=$((failures + 1))
  elif ! grep -q -- "$needle" run.log; then
    echo "flag_specs: ($*) failed without naming $needle:" >&2
    cat run.log >&2
    failures=$((failures + 1))
  fi
}

smoke="$specs/smoke.conf"
check defaults --jobs 40
check jobs_seed --jobs 40 --seed 5
check spec --spec "$smoke"
check spec_jobs_seed --spec "$smoke" --jobs 40 --seed 7
check archive --workload CTC --jobs 40
check swf --workload trace.swf
check spec_swf --spec "$smoke" --workload trace.swf
check spec_archive --spec "$smoke" --workload SDSC --jobs 40
check swf_hash --workload 'tr#1.swf'
check platform --workload LLNLThunder --jobs 40 \
  --platform "$golden/input_platform.conf"
check spec_platform --spec "$golden/platform.conf" \
  --platform "$golden/input_platform_power.conf"
check spec_dvfs_off --spec "$smoke" --jobs 40 --dvfs false
check dvfs_off --dvfs false --jobs 40
check spec_bsld_wq --spec "$smoke" --jobs 40 --bsld 3 --wq NO
check spec_wq --spec "$smoke" --jobs 40 --wq 4
check nodvfs_dvfs_on --spec "$golden/dvfs_off.conf" --dvfs true
check spec_raise --spec "$smoke" --jobs 40 --raise 8
check raise_unset --spec "$golden/spec_raise.conf" --raise -1
check raise --raise 4 --jobs 40 --wq 16
check scale --scale 1.2 --jobs 40
check spec_scale --spec "$smoke" --jobs 40 --scale 0.8
check pm_cap_uniform --pm cap-uniform --pm-cap 400000 --jobs 40
check pm_cap_proportional --pm cap-proportional --pm-cap 3e5 --jobs 40 \
  --dvfs false
check pm_setpoint --pm setpoint --pm-setpoint 350000 --pm-interval 600 \
  --pm-gain 0.3 --pm-cap 500000 --jobs 40
check pm_setpoint_unset --spec "$golden/pm_setpoint.conf" --pm-cap -1 \
  --pm-interval -1 --pm-gain -1
check pm_sleep --pm sleep --jobs 40
check pm_none --spec "$golden/pm_cap_uniform.conf" --pm none --pm-cap -1
check instruments --instruments wait-trace,utilization --retain-jobs false \
  --jobs 40
check spec_instruments --spec "$smoke" --jobs 40 --instruments '' \
  --retain-jobs false
check policy --policy fcfs --selector LastFit --jobs 40
check spec_policy --spec "$smoke" --jobs 40 --policy conservative

fails --bsld --dvfs false --bsld 3 --jobs 40
fails --bsld --spec "$golden/dvfs_off.conf" --bsld 3
fails --wq --spec "$golden/dvfs_off.conf" --wq 4
fails --wq --wq -1 --jobs 40
fails --raise --raise 2x --jobs 40
fails --seed --seed -1 --jobs 40
fails --platform --platform "$smoke" --jobs 40
fails --bsld --bsld 2x5

# Out-of-range values fail when the spec is read, naming the flag or key.
printf 'time.beta = -3\n' > beta.conf
printf 'beta.per_job = -1, 3\n' > per_job_beta.conf
printf 'workload.jobs = -5\n' > jobs.conf
printf 'workload.jobs = 0\n' > archive_jobs.conf
printf 'scale = -2\n' > scale.conf
fails --scale --scale -2 --jobs 40
fails --jobs --workload CTC --jobs -5
fails --jobs --workload trace.swf --jobs -5
fails --platform --platform beta.conf --jobs 40
fails '`time.beta`' --spec beta.conf
fails '`beta.per_job`' --spec per_job_beta.conf
fails '`workload.jobs`' --spec jobs.conf
fails '`workload.jobs`' --spec archive_jobs.conf
fails '`scale`' --spec scale.conf

if [ "$failures" -ne 0 ]; then
  echo "flag_specs: $failures flag set(s) failed" >&2
  exit 1
fi
echo "flag_specs: every flag set saved its golden spec"

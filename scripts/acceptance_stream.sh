#!/usr/bin/env bash
# Times the acceptance stream (examples/specs/acceptance_stream.conf, 10^7
# jobs by default) through bsldsim and prints one line:
#   wall_s=<seconds> peak_live_jobs=<job window high-water mark>
#
# Usage: scripts/acceptance_stream.sh [jobs] [path/to/bsldsim]
# The binary defaults to build/examples/bsldsim; build it Release for a
# meaningful wall time. wall_s covers the whole process (generation,
# simulation, output). Exits nonzero if the run fails or does not report
# the requested job count.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
jobs="${1:-10000000}"
bsldsim="${2:-$root/build/examples/bsldsim}"
spec="$root/examples/specs/acceptance_stream.conf"

start_ns="$(date +%s%N)"
output="$("$bsldsim" --spec "$spec" --jobs "$jobs")"
end_ns="$(date +%s%N)"

grep -q "($jobs jobs)" <<<"$output" || {
  echo "acceptance_stream: bsldsim did not run $jobs jobs:" >&2
  echo "$output" >&2
  exit 1
}
peak="$(awk -F'|' '/^Peak live jobs/ { gsub(/ /, "", $2); print $2 }' \
  <<<"$output")"
[[ "$peak" =~ ^[0-9]+$ ]] || {
  echo "acceptance_stream: no peak live jobs row in:" >&2
  echo "$output" >&2
  exit 1
}
awk -v ns="$((end_ns - start_ns))" -v peak="$peak" \
  'BEGIN { printf "wall_s=%.3f peak_live_jobs=%d\n", ns / 1e9, peak }'

#!/usr/bin/env bash
# Pins the printed paper (ctest bench.paper_golden): bench_paper's stdout
# must equal tests/golden/paper/<artifact>.txt byte for byte.
#   - With no arguments it prints every artifact, so its stdout must be
#     the goldens concatenated in artifact order, its one stderr line
#     must count the deduplicated sweep, and the fig6_wait_trace.csv it
#     writes must hash to the pinned sha256.
#   - A single-artifact run (fig4) must print that artifact's golden alone.
#   - An unknown artifact must fail, naming it.
# Runs in a scratch directory, since fig. 6 writes its CSV to the working
# directory.
#
# Usage: scripts/paper_golden.sh <bench_paper-binary> <repo-root>
set -euo pipefail

bench_paper="$(realpath "$1")"
golden="$(realpath "$2")/tests/golden/paper"
workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT
cd "$workdir"

artifacts=(table1 table2 table3 fig3 fig4 fig5 fig6 fig7 fig8 fig9)
csv_sha256=981c76cd3a52ff71e233bcfaaf46152c62476f23273fead5c6a7c08318ff6426
failures=0

fail() {
  echo "paper_golden: $*" >&2
  failures=$((failures + 1))
}

for artifact in "${artifacts[@]}"; do cat "$golden/$artifact.txt"; done \
  > expected.txt
"$bench_paper" > all.txt 2> all.log
if ! cmp -s expected.txt all.txt; then
  fail "bench_paper's output differs from the goldens:"
  diff expected.txt all.txt >&2 || true
fi
if ! grep -Eq '^bench_paper: slots=[0-9]+ distinct=127 wall_s=[0-9.]+$' \
    all.log; then
  fail "unexpected summary line:"
  cat all.log >&2
fi
if [ "$(sha256sum fig6_wait_trace.csv | cut -d' ' -f1)" != "$csv_sha256" ]; then
  fail "fig6_wait_trace.csv does not hash to $csv_sha256"
fi

"$bench_paper" fig4 > fig4.txt 2> /dev/null
if ! cmp -s "$golden/fig4.txt" fig4.txt; then
  fail "bench_paper fig4 differs from its golden:"
  diff "$golden/fig4.txt" fig4.txt >&2 || true
fi

if "$bench_paper" nosuch > /dev/null 2> nosuch.log; then
  fail "bench_paper nosuch was accepted"
elif ! grep -q nosuch nosuch.log; then
  fail "bench_paper nosuch failed without naming nosuch:"
  cat nosuch.log >&2
fi

if [ "$failures" -ne 0 ]; then
  echo "paper_golden: $failures check(s) failed" >&2
  exit 1
fi
echo "paper_golden: every artifact printed its golden"

#!/usr/bin/env bash
# Live-transport smoke benchmark: loopback TCP clients driving
# volume-lease renewals through the readiness event loop, recorded in
# target/bench/BENCH_live.json. The committed BENCH_live.json at the
# repo root is the baseline scripts/bench_compare.sh gates against and
# is never written here: re-baselining is a deliberate
#   cp target/bench/BENCH_live.json BENCH_live.json
#
# The third argument is the server reactor matrix passed straight to
# `vl bench-live --reactors`. A single number runs one benchmark; a
# comma list (CI uses "1,4") runs one benchmark per entry with
# [clients] connections *per reactor* and fails loudly if a wider run
# holds fewer connections than the first — the scaling gate of
# DESIGN.md §12.
#
# This is the CI-sized cousin of the multicore acceptance run
# (`vl bench-live --reactors 1,2,4,8`). It fails loudly if the bench
# does not produce a renewals/s line or measures zero renewals — a
# bench that "passes" silently is a broken bench, not a fast transport.
#
# usage: bench_live.sh [clients] [duration-s] [reactors]
# env:   VL_LIVE_TIMEOUT   hard cap on the whole run, seconds (default 300)
set -euo pipefail

cd "$(dirname "$0")/.."

CLIENTS="${1:-1000}"
DURATION="${2:-10}"
REACTORS="${3:-1}"
HARD_TIMEOUT="${VL_LIVE_TIMEOUT:-300}"

cargo build --release -p vl-cli >/dev/null

mkdir -p target/bench
out=$(mktemp)
trap 'rm -f "$out"' EXIT

# The bench spawns its own `vl serve` child(ren) and kills them on
# exit; the timeout guards against a wedged event loop hanging CI
# forever. The bench itself exits non-zero if a matrix run scales
# backwards (fewer connections with more reactors).
if ! timeout --kill-after=30 "$HARD_TIMEOUT" \
    target/release/vl bench-live \
    --clients "$CLIENTS" --duration-s "$DURATION" --reactors "$REACTORS" \
    --out target/bench/BENCH_live.json | tee "$out"; then
    echo "error: vl bench-live failed or timed out (${HARD_TIMEOUT}s cap)" >&2
    exit 1
fi

line=$(grep "^renewals/s:" "$out" | tail -n1 || true)
if [ -z "$line" ]; then
    echo "error: bench produced no 'renewals/s' line:" >&2
    cat "$out" >&2
    exit 1
fi

renewals=$(echo "$line" | sed -n 's/^renewals\/s: *\([0-9]*\).*/\1/p')
if [ -z "$renewals" ] || [ "$renewals" -eq 0 ]; then
    echo "error: bench measured zero renewals/s: $line" >&2
    exit 1
fi

echo "wrote target/bench/BENCH_live.json (reactors ${REACTORS}, ${CLIENTS} clients, last run ${renewals} renewals/s)"

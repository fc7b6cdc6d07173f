#!/usr/bin/env bash
# Times the paper-scale ("full") Figure 5 sweep serially vs in parallel
# and records honest numbers in target/bench/BENCH_sweep.json. The
# committed BENCH_sweep.json at the repo root is the baseline
# scripts/bench_compare.sh gates against and is never written here:
# re-baselining is a deliberate
#   cp target/bench/BENCH_sweep.json BENCH_sweep.json
#
# Wall-clock comes from the binary's own sweep summary line, so trace
# generation (serial in both legs) does not dilute the parallel
# speedup. On a single-core machine the parallel leg cannot be faster
# and the JSON records whatever was actually measured — but a multicore
# machine whose "parallel" sweep ran on one worker fails the script:
# that is a silent benchmark regression, not a measurement.
#
# usage: bench_smoke.sh [threads]     (default: nproc)
# env:   VL_BENCH_PRESET=smoke|medium|full   sweep scale (default full)
set -euo pipefail

cd "$(dirname "$0")/.."

THREADS="${1:-$(nproc 2>/dev/null || echo 4)}"
PRESET="${VL_BENCH_PRESET:-full}"

cargo build --release -p vl-bench --bin fig5 >/dev/null

bin=target/release/fig5

# Runs one sweep and echoes the binary's summary line
# ("49 simulations · N events · X.XXXs wall · Y events/s · T thread(s)").
# Fails loudly if the binary did not report one — a sweep that "passes"
# without producing numbers is a broken benchmark, not a fast one.
run_summary() {
    local n="$1" out line
    out=$(mktemp)
    "$bin" --preset "$PRESET" --threads "$n" >"$out"
    line=$(grep "events/s" "$out" | tail -n1 || true)
    if [ -z "$line" ]; then
        echo "error: fig5 produced no throughput line (expected 'events/s'):" >&2
        cat "$out" >&2
        rm -f "$out"
        exit 1
    fi
    rm -f "$out"
    echo "$line"
}

wall_of() { echo "$1" | sed -n 's/.*· \([0-9.]*\)s wall.*/\1/p'; }
evps_of() { echo "$1" | sed -n 's/.*· \([0-9.]*\) events\/s.*/\1/p'; }
threads_of() { echo "$1" | sed -n 's/.*· \([0-9]*\) thread(s).*/\1/p'; }
events_of() { echo "$1" | sed -n 's/.*· \([0-9]*\) events ·.*/\1/p'; }

echo "timing fig5 --preset ${PRESET} with 1 thread..."
s_line=$(run_summary 1)
echo "  ${s_line}"
serial=$(wall_of "$s_line")
serial_evps=$(evps_of "$s_line")

echo "timing fig5 --preset ${PRESET} with ${THREADS} thread(s)..."
p_line=$(run_summary "$THREADS")
echo "  ${p_line}"
parallel=$(wall_of "$p_line")
parallel_evps=$(evps_of "$p_line")
par_threads=$(threads_of "$p_line")
events=$(events_of "$p_line")

cores=$(nproc 2>/dev/null || echo 1)

if [ "$cores" -gt 1 ] && [ "${par_threads:-1}" -le 1 ]; then
    echo "error: machine has ${cores} cores but the parallel sweep reported ${par_threads:-?} thread(s); refusing to record a single-threaded 'parallel' benchmark" >&2
    exit 1
fi

speedup=$(echo "$serial $parallel" | awk '{printf "%.3f", ($2 > 0) ? $1 / $2 : 0}')

mkdir -p target/bench
cat > target/bench/BENCH_sweep.json <<EOF
{
  "benchmark": "fig5 --preset ${PRESET} (sweep only; trace generation excluded)",
  "machine_cores": "${cores}",
  "events_per_sweep": ${events},
  "serial_threads": 1,
  "serial_wall_secs": ${serial},
  "serial_events_per_sec": ${serial_evps},
  "parallel_threads": ${par_threads},
  "parallel_wall_secs": ${parallel},
  "parallel_events_per_sec": ${parallel_evps},
  "speedup": ${speedup},
  "baseline_pre_pr_events_per_sec": 3155302
}
EOF

echo "wrote target/bench/BENCH_sweep.json (speedup ${speedup}x on ${cores} core(s))"

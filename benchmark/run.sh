#!/usr/bin/env bash
# The repo benchmark. Builds benchmark/ with the root manifest's release
# profile, then runs one workload (or all four, each in a fresh process).
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--bless]
#
# Each run prints `<workload> <metric> <value> <unit>` lines and ends with
# one JSON object {"correct", "attempted", "failed", "metrics"}: the
# end-to-end metrics without --trace, the per-layer ledger with it.
# Exits non-zero on a failed output check, a missing metric, a profile
# that differs from the root's, or a failed build.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

workloads=(sim_sweep live_renew live_write wire_scale)
seed=1
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$root/BENCHMARK.json")"
trace=0
extra=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workloads=("$2"); shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --trace)
            if [ "${2:-}" = 0 ] || [ "${2:-}" = 1 ]; then trace="$2"; shift 2; else trace=1; shift; fi ;;
        --bless) extra+=(--bless); shift ;;
        *) echo "usage: $0 [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--bless]" >&2; exit 2 ;;
    esac
done

if [ ! -f "$root/Cargo.toml" ]; then
    echo "error: no $root/Cargo.toml: the benchmark builds the repository's crates and cannot run without them" >&2
    exit 1
fi

# A workspace of its own does not inherit the root's [profile.release];
# with a different one this would time a different binary than `vl serve`.
profile() {
    awk '/^\[/ { on = ($0 == "[profile.release]") } on && /^[a-z-]+ *=/ { gsub(/ /, ""); print }' "$1" | sort
}
if [ "$(profile "$root/Cargo.toml")" != "$(profile "$here/Cargo.toml")" ] || [ -z "$(profile "$here/Cargo.toml")" ]; then
    echo "error: [profile.release] of benchmark/Cargo.toml differs from the root Cargo.toml:" >&2
    diff <(profile "$root/Cargo.toml") <(profile "$here/Cargo.toml") >&2 || true
    exit 1
fi

target="${CARGO_TARGET_DIR:-$root/target/benchmark}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2

# One CPU for the whole process. On the two-vCPU VMs this runs on, waking
# a thread on the other vCPU costs 30-40 us and whether two threads share
# a vCPU changes from run to run: unpinned, live_write commits 5 000
# writes/s or 19 000 depending on placement. Pinned, it measures the
# software path and repeats (see README, "How the numbers are kept steady").
pin=()
if command -v taskset >/dev/null && command -v nproc >/dev/null; then
    pin=(taskset -c "$(($(nproc) - 1))")
fi

status=0
for w in "${workloads[@]}"; do
    ${pin[@]+"${pin[@]}"} "$target/release/vl-benchmark" --workload "$w" --seed "$seed" --seconds "$seconds" \
        --trace "$trace" --bench-dir "$here" --out-dir "$target/out" ${extra[@]+"${extra[@]}"} || status=1
done
exit "$status"

#!/usr/bin/env bash
# Where in a run one benchmark workload reaches its peak RSS:
#
#   scripts/rss.sh --workload W [--seconds S]
#
# Builds benchmark/ as benchmark/run.sh does (same manifest, target
# directory and release profile), then runs the one workload at seed 1,
# pinned to the last CPU, and reads VmRSS and VmHWM from
# /proc/<pid>/status every 10 ms. Each time the high-water mark rises it
# prints the elapsed time, the new mark and the RSS at that moment, so a
# run that peaks twice (say, once building its input and once in its
# largest cell) shows both. Ends with the workload's own JSON line.
# Needs python3 and /proc. Writes only under target/rss/ (and the
# benchmark's build directory); edits nothing under benchmark/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

usage="usage: $0 --workload W [--seconds S]"
workload=""
seconds=10
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        *) echo "$usage" >&2; exit 2 ;;
    esac
done
[ -n "$workload" ] || { echo "$usage" >&2; exit 2; }

out="$root/target/rss"
mkdir -p "$out"

target="${CARGO_TARGET_DIR:-$root/target/benchmark}"
cargo build --release --offline --quiet --manifest-path "$root/benchmark/Cargo.toml" --target-dir "$target" >&2

pin=()
if command -v taskset >/dev/null && command -v nproc >/dev/null; then
    pin=(taskset -c "$(($(nproc) - 1))")
fi

python3 - "$out/run.txt" ${pin[@]+"${pin[@]}"} \
    "$target/release/vl-benchmark" --workload "$workload" --seed 1 --seconds "$seconds" \
    --trace 0 --bench-dir "$root/benchmark" --out-dir "$target/out" <<'EOF'
import subprocess, sys, time

log, cmd = sys.argv[1], sys.argv[2:]

def kib(fields, key):
    return int(fields[key].split()[0]) if key in fields else None

with open(log, "w") as stdout:
    start = time.monotonic()
    # taskset execs the benchmark, so the child's pid is the benchmark's.
    child = subprocess.Popen(cmd, stdout=stdout)
    high = 0
    print(f"{'elapsed s':>10} {'VmHWM MiB':>10} {'VmRSS MiB':>10}")
    while child.poll() is None:
        try:
            with open(f"/proc/{child.pid}/status") as f:
                fields = dict(line.split(":", 1) for line in f if ":" in line)
        except OSError:
            break
        hwm, rss = kib(fields, "VmHWM"), kib(fields, "VmRSS")
        if hwm is not None and rss is not None and hwm > high:
            high = hwm
            print(f"{time.monotonic() - start:10.3f} {hwm / 1024:10.2f} {rss / 1024:10.2f}",
                  flush=True)
        time.sleep(0.01)
    status = child.wait()
print(f"peak {high / 1024:.2f} MiB (sampled every 10 ms); exit status {status}")
with open(log) as f:
    lines = f.read().splitlines()
if lines:
    print(lines[-1])
sys.exit(status)
EOF

#!/usr/bin/env bash
# Benchmark regression gate: compares a freshly produced benchmark JSON
# against the baseline committed at HEAD and fails on a throughput
# regression beyond the tolerance.
#
#   bench_compare.sh sweep [FRESH]   compare against BENCH_sweep.json
#                                    (parallel_events_per_sec)
#   bench_compare.sh live  [FRESH]   compare against BENCH_live.json
#                                    (best per-connection renewal
#                                    efficiency across the matrix)
#   bench_compare.sh table1 [OUT]    gate the Table 1 validation: the
#                                    Self-Inval column must be present,
#                                    agree with the closed form within
#                                    VL_TABLE1_TOLERANCE (default 0.05
#                                    rel. err), and report zero stale
#                                    reads. OUT is a captured table1
#                                    transcript; omitted, the binary is
#                                    built and run.
#
# FRESH defaults to target/bench/BENCH_{sweep,live}.json, where
# bench_smoke.sh / bench_live.sh write; the baseline is the copy of
# the same name committed at the repo root, recovered with
# `git show HEAD:<file>`, so the gate needs no extra state. A PR that
# intentionally re-baselines copies the fresh file over the root one
# and commits it.
#
# The live metric is renewals/s · t_v / connections — the fraction of
# the theoretical renewal rate (each client renews once per t_v) the
# transport actually sustained. Normalizing makes the gate insensitive
# to the run's scale, so the CI smoke run (1k clients) is comparable
# to the committed multicore baseline (2k–16k clients).
#
# Skips (exit 0, with a warning) when there is no committed baseline,
# the baseline is unreadable, or the sweep presets differ — a gate
# that cannot compare must not fail the build.
#
# env: VL_BENCH_TOLERANCE   allowed regression, percent (default 25)
set -euo pipefail

cd "$(dirname "$0")/.."

MODE="${1:-}"
TOLERANCE="${VL_BENCH_TOLERANCE:-25}"

case "$MODE" in
sweep) FILE="${2:-target/bench/BENCH_sweep.json}" BASE_PATH="BENCH_sweep.json" ;;
live) FILE="${2:-target/bench/BENCH_live.json}" BASE_PATH="BENCH_live.json" ;;
table1)
    OUT="${2:-}"
    if [ -z "$OUT" ]; then
        cargo build --release -p vl-bench --bin table1 >/dev/null
        OUT=$(mktemp)
        trap 'rm -f "$OUT"' EXIT
        target/release/table1 >"$OUT"
    fi
    VL_T1_OUT="$OUT" VL_T1_TOL="${VL_TABLE1_TOLERANCE:-0.05}" python3 - <<'PY'
import os, sys

tol = float(os.environ["VL_T1_TOL"])
row = None
with open(os.environ["VL_T1_OUT"]) as f:
    for line in f:
        parts = line.split()
        if len(parts) >= 5 and parts[0] == "Self-Inval":
            row = parts
if row is None:
    sys.exit("REGRESSION: Self-Inval row missing from the Table 1 validation output")
analytic, simulated, rel_err, stale = map(float, row[-4:])
print(f"table1: Self-Inval  analytic {analytic:.4f}  simulated {simulated:.4f}  "
      f"rel err {rel_err:.4f}  stale frac {stale:.4f}")
if rel_err > tol:
    sys.exit(f"REGRESSION: Self-Inval rel err {rel_err:.4f} exceeds tolerance {tol}")
if stale != 0.0:
    sys.exit(f"REGRESSION: Self-Inval reported a nonzero stale fraction {stale}")
print("  within tolerance")
PY
    exit 0
    ;;
*)
    echo "usage: bench_compare.sh sweep|live|table1 [FRESH]" >&2
    exit 2
    ;;
esac

if [ ! -f "$FILE" ]; then
    echo "error: fresh benchmark $FILE does not exist" >&2
    exit 1
fi

baseline=$(mktemp)
trap 'rm -f "$baseline"' EXIT
if ! git show "HEAD:${BASE_PATH}" >"$baseline" 2>/dev/null; then
    echo "warning: no committed baseline ${BASE_PATH} at HEAD — skipping the regression gate" >&2
    exit 0
fi

export VL_CMP_MODE="$MODE" VL_CMP_FRESH="$FILE" VL_CMP_BASE="$baseline" VL_CMP_TOL="$TOLERANCE"
python3 - <<'PY'
import json, os, sys

mode = os.environ["VL_CMP_MODE"]
tol = float(os.environ["VL_CMP_TOL"])

def load(path, role):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"warning: cannot read {role} benchmark ({e}) — skipping the regression gate",
              file=sys.stderr)
        sys.exit(0)

fresh = load(os.environ["VL_CMP_FRESH"], "fresh")
base = load(os.environ["VL_CMP_BASE"], "baseline")

if mode == "sweep":
    if fresh.get("benchmark") != base.get("benchmark"):
        print(f"warning: sweep presets differ (fresh: {fresh.get('benchmark')!r}, "
              f"baseline: {base.get('benchmark')!r}) — skipping the regression gate",
              file=sys.stderr)
        sys.exit(0)
    metric = "parallel_events_per_sec"
    new, old = float(fresh[metric]), float(base[metric])
else:
    # Best sustained fraction of the theoretical renewal rate
    # (renewals/s * t_v / connections) across the run matrix.
    def efficiency(doc):
        best = 0.0
        for run in doc.get("runs", []):
            conns = float(run["connections"])
            if conns > 0:
                best = max(best, float(run["renewals_per_sec"])
                           * float(run["tv_ms"]) / 1000.0 / conns)
        return best
    metric = "renewal efficiency (renewals/s * t_v / connections)"
    new, old = efficiency(fresh), efficiency(base)

if old <= 0:
    print(f"warning: baseline {metric} is {old} — skipping the regression gate",
          file=sys.stderr)
    sys.exit(0)

floor = old * (100.0 - tol) / 100.0
change = 100.0 * (new - old) / old
print(f"{mode}: {metric}")
print(f"  baseline {old:.4g}  fresh {new:.4g}  ({change:+.1f}%, floor {floor:.4g} "
      f"at -{tol:.0f}%)")
if new < floor:
    sys.exit(f"REGRESSION: fresh {metric} {new:.4g} is more than {tol:.0f}% below "
             f"the committed baseline {old:.4g}")
print("  within tolerance")
PY

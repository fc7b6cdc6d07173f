#!/usr/bin/env bash
# Alternating-pair comparison of benchmark workloads between a parent
# commit and the working tree (choosing-metrics §8):
#
#   scripts/bench_pairs.sh <parent-ref> <workload>... [pairs=10]
#
# `all` stands for every workload BENCHMARK.json names. Extracts
# <parent-ref> with `git archive` into target/pairs/parent (so neither
# the index nor .git is touched, and `git status --porcelain` reads
# afterwards as it did before; an extraction of the same commit, and
# its build, is kept from one invocation to the next), then for each
# workload runs `benchmark/run.sh --workload W --seed i` on the parent
# and on this tree for pair i = 1..pairs, the parent first on odd pairs
# and the change first on even ones. Each side builds its own checkout's
# benchmark into its own target directory on its first run. Prints every
# run, then per workload and end-to-end metric of BENCHMARK.json both
# sides' median and quartiles, the pairs the change won (ties count for
# neither side) and the verdict:
#   better            the change won >= 9/10 of the pairs and the medians
#                     are apart by more than the parent's quartiles are
#   worse than bound  the change's median is worse by more than the
#                     metric's `bound`
#   unresolved        the parent's quartiles are further apart than the
#                     bound and not every run of the change beat every
#                     run of the parent
#   inside bound      none of these
# A run that fails (run.sh exits non-zero, e.g. on a failed output check)
# does not stop the comparison: its JSON line is recorded with its exit
# status, or `null` when it printed none, and the summary leaves it out
# of the medians. Exits 1 after the summary if any run failed, any
# metric reads `worse than bound`, or the change failed a larger share
# of its operations than the parent.
set -euo pipefail

cd "$(dirname "$0")/.."

usage="usage: $0 <parent-ref> <workload>... [pairs=10]"
ref="${1:?$usage}"
shift
pairs=10
workloads=()
for arg in "$@"; do
    case "$arg" in
        all) workloads+=($(python3 -c \
            'import json; print(*[w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]])')) ;;
        *[!0-9]*) workloads+=("$arg") ;;
        *) pairs="$arg" ;;
    esac
done
[ "${#workloads[@]}" -gt 0 ] || { echo "$usage" >&2; exit 2; }

tree_before=$(git status --porcelain)
parent=target/pairs/parent
rev=$(git rev-parse --verify "$ref^{commit}")
if [ "$(cat "$parent/.pairs-rev" 2>/dev/null)" != "$rev" ]; then
    rm -rf "$parent"
    mkdir -p "$parent"
    git archive "$rev" | tar -x -C "$parent"
    echo "$rev" >"$parent/.pairs-rev"
fi

runs=target/pairs/runs.txt
: >"$runs"
run() { # workload side dir pair
    local json status=0
    json=$(cd "$3" && CARGO_TARGET_DIR="$PWD/target/benchmark" \
        bash benchmark/run.sh --workload "$1" --seed "$4" | tail -n 1) || status=$?
    [[ "$json" == "{"* ]] || json=null
    echo "$1 $2 $4 $status $json" | tee -a "$runs"
}
for workload in "${workloads[@]}"; do
    for i in $(seq 1 "$pairs"); do
        if [ $((i % 2)) -eq 1 ]; then
            run "$workload" parent "$parent" "$i"
            run "$workload" change . "$i"
        else
            run "$workload" change . "$i"
            run "$workload" parent "$parent" "$i"
        fi
    done
done

verdict=0
python3 - "$runs" <<'PY' || verdict=$?
import json, statistics, sys

metrics = json.load(open("BENCHMARK.json"))["end_to_end"]
runs = {}  # workload -> side -> pair -> run.sh's closing JSON object, or None
bad = []  # runs that exited non-zero or printed no JSON line
for line in open(sys.argv[1]):
    workload, side, pair, status, blob = line.split(" ", 4)
    run = json.loads(blob)
    runs.setdefault(workload, {"parent": {}, "change": {}})[side][int(pair)] = run
    if status != "0" or run is None:
        what = "no JSON line" if run is None else f"exit {status}"
        bad.append(f"{workload} {side} pair {pair}: {what}")

def num(x):
    return f"{x:,.0f}" if abs(x) >= 1000 else f"{x:.4g}"

def quartiles(values):
    return statistics.quantiles(values, n=4, method="inclusive")

def summary(values):
    q1, med, q3 = quartiles(values)
    return f"median {num(med)} [q1 {num(q1)}, q3 {num(q3)}]"

def value(run, name):
    return ((run or {}).get("metrics", {}).get(name) or {}).get("value")

worse = []
for workload, sides in runs.items():
    print(f"== {workload}: {len(sides['parent'])} pairs")
    for m in metrics:
        name, sign = m["name"], 1 if m["better"] == "higher" else -1
        pairs = [i for i in sorted(sides["parent"])
                 if value(sides["parent"][i], name) is not None
                 and value(sides["change"].get(i), name) is not None]
        if len(pairs) < 2:
            print(f"{name}: missing ({len(pairs)} pairs with a value on both sides)")
            continue
        p = [value(sides["parent"][i], name) for i in pairs]
        c = [value(sides["change"][i], name) for i in pairs]
        wins = sum(sign * (b - a) > 0 for a, b in zip(p, c))
        losses = sum(sign * (b - a) < 0 for a, b in zip(p, c))
        (q1, p_med, q3), c_med = quartiles(p), statistics.median(c)
        gain = sign * (c_med - p_med)  # positive: the change reads better
        all_better = min(sign * v for v in c) > max(sign * v for v in p)
        if 10 * wins >= 9 * len(pairs) and gain > q3 - q1:
            verdict = "better"
        elif -gain > m["bound"] * abs(p_med):
            verdict = "worse than bound"
        elif q3 - q1 > m["bound"] * abs(p_med) and not all_better:
            verdict = "unresolved"
        else:
            verdict = "inside bound"
        if verdict == "worse than bound":
            worse.append(f"{workload} {name}: worse than bound")
        ratio = c_med / p_med if p_med else float("nan")
        print(f"{name} ({m['better']} is better, bound {m['bound']}): {verdict}")
        print(f"  parent  {summary(p)}")
        print(f"  change  {summary(c)}")
        print(f"  change/parent {ratio:.3f}; change won {wins} of {len(pairs)} pairs, lost {losses}")
    share = {}
    for side, by_pair in sides.items():
        done = [r for r in by_pair.values() if r is not None]
        failed = sum(r.get("failed", 0) for r in done)
        attempted = sum(r.get("attempted", 0) for r in done)
        share[side] = failed / attempted if attempted else 0.0
        print(f"failed operations, {side}: {failed} of {attempted}")
    if share["change"] > share["parent"]:
        worse.append(f"{workload}: the change failed a larger share of operations")

for problem in bad + worse:
    print(f"FAIL {problem}")
sys.exit(1 if bad or worse else 0)
PY

if [ "$(git status --porcelain)" != "$tree_before" ]; then
    echo "error: bench_pairs.sh changed the working tree:" >&2
    git status --porcelain >&2
    exit 1
fi
exit "$verdict"

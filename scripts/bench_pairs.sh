#!/usr/bin/env bash
# Alternating-pair comparison of one benchmark workload between a parent
# commit and the working tree (choosing-metrics §8):
#
#   scripts/bench_pairs.sh <parent-ref> <workload> [pairs=10]
#
# Extracts <parent-ref> with `git archive` into target/pairs/parent (so
# neither the index nor .git is touched, and `git status --porcelain`
# reads afterwards as it did before; an extraction of the same commit,
# and its build, is kept from one invocation to the next), then runs
# `benchmark/run.sh --workload W --seed i` on the parent and on this
# tree for pair i = 1..pairs, the parent first on odd pairs and the
# change first on even ones. Each side builds its own checkout's benchmark into its own
# target directory on its first run. Prints every run, then for each
# end-to-end metric of BENCHMARK.json both sides' median and quartiles
# and the pairs the change won (ties count for neither side).
set -euo pipefail

cd "$(dirname "$0")/.."

ref="${1:?usage: $0 <parent-ref> <workload> [pairs=10]}"
workload="${2:?usage: $0 <parent-ref> <workload> [pairs=10]}"
pairs="${3:-10}"

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
run() { # side dir pair
    local json
    json=$(cd "$2" && CARGO_TARGET_DIR="$PWD/target/benchmark" \
        bash benchmark/run.sh --workload "$workload" --seed "$3" | tail -n 1)
    echo "$1 $3 $json" | tee -a "$runs"
}
for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then
        run parent "$parent" "$i"
        run change . "$i"
    else
        run change . "$i"
        run parent "$parent" "$i"
    fi
done

python3 - "$runs" <<'PY'
import json, statistics, sys

better = {m["name"]: m["better"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
sides = {"parent": {}, "change": {}}
failed = {"parent": 0, "change": 0}
for line in open(sys.argv[1]):
    side, pair, blob = line.split(" ", 2)
    out = json.loads(blob)
    failed[side] += out["failed"]
    sides[side][int(pair)] = {k: v["value"] for k, v in out["metrics"].items()}

def num(x):
    return f"{x:,.0f}" if abs(x) >= 1000 else f"{x:.4g}"

def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"median {num(med)} [q1 {num(q1)}, q3 {num(q3)}]"

pairs = sorted(sides["parent"])
for name, direction in better.items():
    p = [sides["parent"][i][name] for i in pairs]
    c = [sides["change"][i][name] for i in pairs]
    sign = 1 if direction == "higher" else -1
    wins = sum(sign * (b - a) > 0 for a, b in zip(p, c))
    losses = sum(sign * (b - a) < 0 for a, b in zip(p, c))
    ratio = statistics.median(c) / statistics.median(p) if statistics.median(p) else float("nan")
    print(f"{name} ({direction} is better)")
    print(f"  parent  {summary(p)}")
    print(f"  change  {summary(c)}")
    print(f"  change/parent {ratio:.3f}; change won {wins} of {len(pairs)} pairs, lost {losses}")
print(f"failed operations: parent {failed['parent']}, change {failed['change']}")
PY

if [ "$(git status --porcelain)" != "$tree_before" ]; then
    echo "error: bench_pairs.sh changed the working tree:" >&2
    git status --porcelain >&2
    exit 1
fi

#!/usr/bin/env bash
# A/A check of the benchmark against itself: two full untraced sets of
# one build (seed 1, then a second seed), compared per workload and
# end-to-end metric against the metric's own bound; then two traced sets
# of one seed, whose exact counts must repeat exactly.
#
#   benchmark/selfcheck.sh [second-seed]     (about 7 minutes)
#
# Prints `<workload> <metric> <first> <second> <rel-diff> <bound> ok|unresolved`.
# A metric whose two sets differ by more than its bound is unresolved at
# that bound on this machine. Exits non-zero if any run failed or an
# exact count did not repeat; unresolved metrics are reported, not fatal.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
second="${1:-2}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Keeps the `<workload> <metric> <value> <unit>` lines of a set.
run_set() { # seed trace out
    "$here/run.sh" --seed "$1" --trace "$2" | grep -E '^[a-z_]+ [A-Za-z0-9_.-]+ [-0-9.e+]+ [A-Za-z0-9_/%.-]+$' >"$3"
}

status=0
run_set 1 0 "$tmp/a" || status=1
run_set "$second" 0 "$tmp/b" || status=1

# name → bound, from the end_to_end section of BENCHMARK.json.
awk '/"end_to_end"/ { on = 1; next } /"per_layer"/ { on = 0 }
     on && /"name"/ { n = $0; sub(/.*"name": *"/, "", n); sub(/".*/, "", n)
                      b = $0; sub(/.*"bound": */, "", b); sub(/[^0-9.].*/, "", b); print n, b }' \
    "$root/BENCHMARK.json" >"$tmp/bounds"

echo "# workload metric seed-1 seed-$second rel-diff bound verdict"
awk 'FILENAME == ARGV[1] { bound[$1] = $2; next }
     FILENAME == ARGV[2] { if ($2 in bound) first[$1 " " $2] = $3; next }
     ($2 in bound) && (($1 " " $2) in first) {
         a = first[$1 " " $2]; b = $3; base = (a < 0 ? -a : a)
         d = (base == 0 ? 0 : (b - a) / base); if (d < 0) d = -d
         printf "%s %s %s %s %.4f %s %s\n", $1, $2, a, b, d, bound[$2], (d <= bound[$2] ? "ok" : "unresolved")
     }' "$tmp/bounds" "$tmp/a" "$tmp/b"

run_set 1 1 "$tmp/ta" || status=1
run_set 1 1 "$tmp/tb" || status=1
exact='^(workload\.events|protocols\.messages\..*|machine\.actions_per_input|proto\.allocs_per_msg|server\.threads)$'
echo "# exact counts, two traced sets of seed 1"
if ! awk -v exact="$exact" '
     FILENAME == ARGV[1] { if ($2 ~ exact) first[$1 " " $2] = $3; next }
     ($2 ~ exact) { k = $1 " " $2; same = (first[k] == $3); if (!same) bad = 1
                    printf "%s %s %s %s\n", k, first[k], $3, (same ? "ok" : "DIFFERS") }
     END { exit bad }' "$tmp/ta" "$tmp/tb"; then
    status=1
fi
exit "$status"

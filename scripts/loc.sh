#!/usr/bin/env bash
# Non-test source lines per crate and in total: for every
# crates/*/src/**/*.rs, the lines before the first `#[cfg(test)]`
# (blank lines and comments included). This is the measure the
# simplicity PRs quote in CHANGES.md; `scripts/loc.sh crates/sim`
# restricts it to the named crate directories.
set -euo pipefail

cd "$(dirname "$0")/.."

if [ "$#" -gt 0 ]; then crates=("$@"); else crates=(crates/*); fi

total=0
for crate in "${crates[@]}"; do
    [ -d "$crate/src" ] || continue
    lines=$(find "$crate/src" -name '*.rs' -print0 | sort -z |
        xargs -0 awk 'FNR == 1 { test = 0 } /#\[cfg\(test\)\]/ { test = 1 } !test { n++ } END { print n + 0 }')
    printf '%-20s %6d\n' "${crate%/}" "$lines"
    total=$((total + lines))
done
printf '%-20s %6d\n' total "$total"

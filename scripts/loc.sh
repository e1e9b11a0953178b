#!/usr/bin/env bash
# Non-test Rust lines per crate: every file under crates/*/src and src,
# cut at its first top-level #[cfg(test)]; tests/ directories are not counted.
# The "lines gone, nothing moved to tests" criteria are read from this.
#
#   scripts/loc.sh        the per-crate table of the working tree
#   scripts/loc.sh REV    the same counted in REV's tree (git archive),
#                         beside the working tree's, with the delta
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    for d in crates/*/src src; do
        crate="${d%/src}"
        find "$d" -name '*.rs' -print0 | xargs -0 awk -v crate="${crate##*/}" '
            FNR == 1 { cut = 0 }
            /^#\[cfg\(test\)\]/ { cut = 1 }
            !cut { n++ }
            END { printf "%-10s %6d\n", crate, n }'
    done | awk '{ print; total += $2 } END { printf "%-10s %6d\n", "total", total }'
}

if [ $# -eq 0 ]; then
    count
    exit
fi

rev="$(git rev-parse --short "$1")"
tree="$(mktemp -d)"
trap 'rm -rf "$tree"' EXIT
git archive "$rev" | tar -x -C "$tree"
printf "%-10s %8s %8s %7s\n" crate "$rev" now delta
# A crate present on one side only counts 0 on the other.
awk '
    function row(c, a, b) { printf "%-10s %8d %8d %+7d\n", c, a, b, b - a }
    NR == FNR { then[$1] = $2; next }
    $1 == "total" { now = $2; next }
    { row($1, then[$1], $2); seen[$1] = 1 }
    END {
        for (c in then) if (c != "total" && !(c in seen)) row(c, then[c], 0)
        row("total", then["total"], now)
    }' <(cd "$tree" && count) <(count)

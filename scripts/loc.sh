#!/usr/bin/env bash
# Non-test Rust lines per crate: every file under crates/*/src and src,
# cut at its first top-level #[cfg(test)]; tests/ directories are not counted.
# The "lines gone, nothing moved to tests" criteria are read from this.
#
#   scripts/loc.sh                the per-crate table of the working tree
#   scripts/loc.sh REV            the same counted in REV's tree (git archive),
#                                 beside the working tree's, with the delta
#   scripts/loc.sh --files [REV]  the same cut per file, with REV's count
#                                 and the delta when REV is given
set -euo pipefail
cd "$(dirname "$0")/.."

files=0
if [ "${1:-}" = "--files" ]; then
    files=1
    shift
fi

# One "name lines" row per file (--files) or per crate, then the total.
count() {
    for d in crates/*/src src; do
        crate="${d%/src}"
        find "$d" -name '*.rs' -print0 | sort -z | xargs -0 awk -v crate="${crate##*/}" -v files="$files" '
            function flush() { if (files && f != "") printf "%s %d\n", f, m }
            FNR == 1 { flush(); f = FILENAME; m = 0; cut = 0 }
            /^#\[cfg\(test\)\]/ { cut = 1 }
            !cut { n++; m++ }
            END { flush(); if (!files) printf "%-10s %6d\n", crate, n }'
    done | awk '{ print; total += $2 } END { printf "%-10s %6d\n", "total", total }'
}

if [ $# -eq 0 ]; then
    count | awk -v w="$((files ? 44 : 10))" '{ printf "%-*s %6d\n", w, $1, $2 }'
    exit
fi

rev="$(git rev-parse --short "$1")"
tree="$(mktemp -d)"
trap 'rm -rf "$tree"' EXIT
git archive "$rev" | tar -x -C "$tree"
w=$((files ? 44 : 10))
printf "%-*s %8s %8s %7s\n" "$w" "$([ $files = 1 ] && echo file || echo crate)" "$rev" now delta
# A row present on one side only counts 0 on the other.
awk -v w="$w" '
    function row(c, a, b) { printf "%-*s %8d %8d %+7d\n", w, c, a, b, b - a }
    NR == FNR { then[$1] = $2; next }
    $1 == "total" { now = $2; next }
    { row($1, then[$1], $2); seen[$1] = 1 }
    END {
        for (c in then) if (c != "total" && !(c in seen)) row(c, then[c], 0)
        row("total", then["total"], now)
    }' <(cd "$tree" && count) <(count)

#!/usr/bin/env bash
# Non-test Rust lines per crate: every file under crates/*/src and src,
# cut at its first top-level #[cfg(test)]; tests/ directories are not counted.
# The "lines gone, nothing moved to tests" criteria are read from this.
set -euo pipefail
cd "$(dirname "$0")/.."
for d in crates/*/src src; do
    crate="${d%/src}"
    find "$d" -name '*.rs' -print0 | xargs -0 awk -v crate="${crate##*/}" '
        FNR == 1 { cut = 0 }
        /^#\[cfg\(test\)\]/ { cut = 1 }
        !cut { n++ }
        END { printf "%-10s %6d\n", crate, n }'
done | awk '{ print; total += $2 } END { printf "%-10s %6d\n", "total", total }'

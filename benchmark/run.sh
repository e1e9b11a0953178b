#!/usr/bin/env bash
# Build the benchmark (offline, release) and run it. All arguments go to
# the binary; `run.sh --help` lists them.
#
# The driver's form, one workload in this process, result line last:
#   run.sh --workload W --seed S --seconds N --trace 0|1
# Without --workload every workload runs in a process of its own and
# out/result.json is written. `run.sh compare A.json B.json` compares
# two result documents.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/strandfs-benchmark" --out "$here/out" "$@"

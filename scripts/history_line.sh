#!/usr/bin/env bash
# One BENCH_history.jsonl line for this checkout, on standard output:
#
#   scripts/history_line.sh PR [SUITE_OUTPUT] >> BENCH_history.jsonl
#
# SUITE_OUTPUT is the text `benchmark/run.sh --runs 5 --trace --seed 1`
# printed (≈ 7 min); without it the suite is run here. Either way the
# traced storm's span file is read from benchmark/out/, and the host
# mode from a fresh `bench --check --quick checksum`: the box flips
# between ≈ 2.3 and ≈ 5.5 µs a streamed 28 KiB block, and a line's
# levels mean little without knowing which it sat in. The same run
# gives the line its `checksum/stamp_batch_28k` and `_scattered`
# readings (its verdict is not this script's business, so a flagged
# entry does not stop it). `host_mode` also says whether the mode is the
# one the file's last line recorded: levels compare across lines only
# when it is.
set -euo pipefail
cd "$(dirname "$0")/.."
pr="${1:?usage: scripts/history_line.sh PR [SUITE_OUTPUT]}"
suite="${2:-}"
if [ -z "$suite" ]; then
    suite="$(mktemp)"
    trap 'rm -f "$suite"' EXIT
    benchmark/run.sh --runs 5 --trace --seed 1 > "$suite"
fi

# Scrub probes on the storm: one `scrub` span per round of the traced
# run's first repetition, counting that round's `Event::Scrub`s.
probes=$(grep -o '"name": *"scrub"[^}]*"rep": *0, *"count": *[0-9]*' \
    benchmark/out/failover_storm.trace.json | awk -F: '{ n += $NF } END { print n + 0 }')
checksum=$(cargo run -q -p strandfs-bench --release --offline --bin bench -- \
    --check --quick checksum 2>/dev/null || true)
streamed_us=$(awk '$1 == "checksum/block_sum_28k_streamed" { print $3 }' <<< "$checksum")
# The production batch kernel, in ns a block whatever unit the runner chose.
ns_of() {
    awk -v name="$1" '$1 == name {
        print $3 * ($4 == "ms" ? 1e6 : $4 == "µs" ? 1e3 : 1) }' <<< "$checksum"
}
stamp_ns=$(ns_of checksum/stamp_batch_28k)
scattered_ns=$(ns_of checksum/stamp_batch_28k_scattered)
median_of() {
    grep "\"$1\"" BENCH_core.json | sed 's/.*"median_ns": *\([0-9]*\).*/\1/'
}
scale_ns=$(median_of scale/n100000_playback)
titles_ns=$(median_of scale/n100000_titles16_playback)
prev_mode=$(tail -n 1 BENCH_history.jsonl 2>/dev/null |
    sed -n 's/.*"host_mode": *{ *"mode": *"\([a-z]*\)".*/\1/p' || true)

awk -v pr="$pr" -v parent="$(git rev-parse HEAD)" -v nproc="$(nproc)" \
    -v probes="$probes" -v streamed="$streamed_us" -v stamp="$stamp_ns" \
    -v scattered="$scattered_ns" \
    -v scale="$scale_ns" -v titles="$titles_ns" -v prev_mode="$prev_mode" '
function median(w, m,    n, i, j, t, a) {
    n = split(seen[w, m], a, " ") - traced[w]
    for (i = 2; i <= n; i++)
        for (j = i; j > 1 && a[j - 1] + 0 > a[j] + 0; j--) {
            t = a[j]; a[j] = a[j - 1]; a[j - 1] = t
        }
    return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2
}
function per_workload(m, fmt,    i, s) {
    for (i = 1; i <= 4; i++)
        s = s (i > 1 ? ", " : "") sprintf("\"%s\": " fmt, W[i], last[W[i], m])
    return "{" s "}"
}
function medians(m, fmt,    i, s) {
    for (i = 1; i <= 4; i++)
        s = s (i > 1 ? ", " : "") sprintf("\"%s\": " fmt, W[i], median(W[i], m))
    return "{" s "}"
}
BEGIN { split("vod_defended vod_bare volume_overload failover_storm", W, " ") }
/^#/ || NF != 4 { next }
# The traced run comes last and prints the end-to-end names once more,
# ahead of its per-layer ones: `median` leaves that last reading out.
$2 ~ /\./ { traced[$1] = 1 }
{ last[$1, $2] = $3; seen[$1, $2] = seen[$1, $2] " " $3 }
END {
    covered = last["failover_storm", "cluster.service.scrubbed_blocks"]
    printf "{\"pr\": %s, \"parent\": \"%s\", ", pr, parent
    printf "\"source\": \"scripts/history_line.sh: benchmark/run.sh --runs 5 --trace --seed 1 (medians of the untraced runs; per-layer from the traced run)\", "
    printf "\"nproc\": %d, \"viewers_per_s\": %s, ", nproc, medians("viewers_per_s", "%.2f")
    printf "\"setup_s\": %s, ", medians("setup_s", "%.4f")
    printf "\"cluster.defense.all_ratio\": %.1f, ", last["vod_defended", "cluster.defense.all_ratio"]
    printf "\"scale/n100000_playback_median_ns\": %d, ", scale
    printf "\"scale/n100000_titles16_playback_median_ns\": %d, ", titles
    printf "\"sim.playback.rep_ms_p50\": %.1f, ", last["volume_overload", "sim.playback.rep_ms_p50"]
    printf "\"sim.playback.ns_per_block\": %.1f, ", last["volume_overload", "sim.playback.ns_per_block"]
    printf "\"sim.playback.order_share\": %.3f, ", last["volume_overload", "sim.playback.order_share"]
    printf "\"peak_rss_mb\": %s, ", medians("peak_rss_mb", "%.2f")
    printf "\"obs.overhead_ratio\": %s, ", per_workload("obs.overhead_ratio", "%.2f")
    printf "\"cluster.defense.monitor_ratio\": %.2f, ", last["vod_defended", "cluster.defense.monitor_ratio"]
    printf "\"cluster.scale.us_per_viewer\": {"
    split("v8 v16 v32 v64", V, " ")
    for (i = 1; i <= 4; i++)
        printf "%s\"%s\": %.2f", (i > 1 ? ", " : ""), V[i], last["vod_bare", "cluster.scale.us_per_viewer." V[i]]
    printf "}, \"cluster.defense.verify_us_per_block\": %.2f, ", last["vod_defended", "cluster.defense.verify_us_per_block"]
    printf "\"cluster.cluster.ingest_us_per_block\": %.2f, ", last["vod_defended", "cluster.cluster.ingest_us_per_block"]
    printf "\"media.frame_payload_ns\": %d, ", last["vod_defended", "media.frame_payload_ns"]
    printf "\"scrub.failover_storm\": {\"covered\": %d, \"probes\": %d, \"credited\": %d}, ", covered, probes, covered - probes
    printf "\"virt_makespan_s\": {\"failover_storm\": %.3f}, ", last["failover_storm", "virt_makespan_s"]
    printf "\"cluster.service.rounds\": {\"failover_storm\": %d}, ", last["failover_storm", "cluster.service.rounds"]
    printf "\"checksum/stamp_batch_28k_ns\": %.1f, ", stamp
    printf "\"checksum/stamp_batch_28k_scattered_ns\": %.1f, ", scattered
    mode = streamed < 3.5 ? "fast" : "slow"
    printf "\"host_mode\": {\"mode\": \"%s\", \"checksum/block_sum_28k_streamed_us\": %.2f, ", mode, streamed
    printf "\"same_mode_as_previous\": %s}}\n", (mode == prev_mode ? "true" : "false")
}' "$suite"

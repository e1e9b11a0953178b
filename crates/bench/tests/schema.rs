//! Golden schema tests: pin the key structure of the JSON documents
//! other tooling consumes — the `sections/obs` capture and the
//! continuity-SLO section inside `BENCH_core.json`, and the Chrome
//! trace-event export. A renamed or dropped key is an API break for
//! dashboards and the regression gate, so it must fail a test, not be
//! discovered downstream.

use strandfs_bench::obs_capture;
use strandfs_obs::Event;
use strandfs_testkit::bench::Runner;
use strandfs_testkit::json::{validate, Json};
use strandfs_trace::{chrome_trace, TraceOptions};
use strandfs_units::Instant;

#[test]
fn obs_and_slo_sections_keep_their_shape() {
    let cap = obs_capture::capture_full();

    let obs = validate(&cap.obs_json);
    assert_eq!(obs.keys(), vec!["metrics", "ring"]);
    assert_eq!(
        obs.get("ring").unwrap().keys(),
        vec!["cap", "dropped", "len"]
    );
    let metrics = obs.get("metrics").unwrap();
    assert_eq!(
        metrics.keys(),
        vec![
            "admission",
            "alloc",
            "deadlines",
            "disk",
            "edits",
            "faults",
            "hedge",
            "recovery",
            "rounds",
            "scrub",
            "startup"
        ]
    );
    assert_eq!(
        metrics.get("scrub").unwrap().keys(),
        vec!["checked", "corrupt"]
    );
    assert_eq!(
        metrics.get("hedge").unwrap().keys(),
        vec!["issued", "quarantines", "readmits", "wins"]
    );
    assert_eq!(
        metrics.get("edits").unwrap().keys(),
        vec!["bound_max", "copied", "heals"]
    );
    assert_eq!(
        metrics.get("startup").unwrap().keys(),
        vec!["count", "latency"]
    );
    assert_eq!(
        metrics.path("startup/latency").unwrap().keys(),
        vec!["buckets", "summary"]
    );
    assert_eq!(
        metrics.get("disk").unwrap().keys(),
        vec![
            "cyl_distance",
            "reads",
            "rotation",
            "sectors",
            "seek",
            "service",
            "transfer",
            "writes"
        ]
    );
    assert_eq!(
        metrics.get("rounds").unwrap().keys(),
        vec![
            "active",
            "count",
            "duration",
            "idle",
            "k_max",
            "service_span",
            "stream_services"
        ]
    );
    assert_eq!(
        metrics.get("deadlines").unwrap().keys(),
        vec!["blocks", "late", "lateness", "margin"]
    );
    assert_eq!(
        metrics.get("faults").unwrap().keys(),
        vec![
            "crashed",
            "degraded",
            "drops",
            "media",
            "penalty",
            "readmits",
            "retries",
            "revokes",
            "spike",
            "torn",
            "transient",
            "writes"
        ]
    );
    assert_eq!(
        metrics.get("recovery").unwrap().keys(),
        vec!["journal_records", "recovers", "repairs"]
    );
    // Duration summaries keep their unit-suffixed field names.
    assert_eq!(
        metrics.path("disk/seek").unwrap().keys(),
        vec!["count", "max_ns", "mean_ns", "min_ns"]
    );
    // Histograms expose a summary plus sparse log2 buckets.
    assert_eq!(
        metrics.path("deadlines/margin").unwrap().keys(),
        vec!["buckets", "summary"]
    );

    let slo = validate(&cap.slo_json);
    assert_eq!(slo.keys(), vec!["streams", "total"]);
    let total_keys = vec![
        "blocks",
        "dropped_blocks",
        "miss_rate",
        "p99_margin_ns",
        "recovery_time_ns",
        "retries",
        "time_to_first_violation_ns",
        "violations",
        "worst_margin_ns",
    ];
    assert_eq!(slo.get("total").unwrap().keys(), total_keys);
    let streams = slo.get("streams").and_then(Json::as_arr).unwrap();
    assert!(!streams.is_empty());
    let mut stream_keys = total_keys.clone();
    stream_keys.insert(6, "stream");
    assert_eq!(streams[0].keys(), stream_keys);
}

#[test]
fn bench_document_envelope_keeps_its_shape() {
    std::env::set_var("STRANDFS_BENCH_SAMPLES", "2");
    std::env::set_var("STRANDFS_BENCH_WARMUP_MS", "1");
    std::env::set_var("STRANDFS_BENCH_SAMPLE_MS", "1");
    let mut r = Runner::new("core").quiet();
    r.bench_function("schema/probe", |b| b.iter(|| std::hint::black_box(17 * 3)));
    r.add_section("obs", "{\"metrics\":{}}");
    r.add_section("slo", "{\"total\":{}}");
    r.add_section("faults", "{\"sweep\":[]}");
    r.add_section("crash", "{\"sweep\":[]}");
    r.add_section("fsx", "{\"ops_attempted\":0}");
    r.add_section("scale", "{\"n1000\":{}}");
    r.add_section("monitor", "{\"monitor\":{}}");
    r.add_section("cluster", "{\"scaling\":{}}");
    r.add_section("integrity", "{\"corruption\":{}}");
    let doc = validate(&r.to_json());
    assert_eq!(
        doc.keys(),
        vec!["harness", "results", "sections", "suite", "unit"]
    );
    assert_eq!(doc.get("unit").and_then(Json::as_str), Some("ns_per_iter"));
    let results = doc.get("results").and_then(Json::as_arr).unwrap();
    assert_eq!(
        results[0].keys(),
        vec![
            "iters_per_sample",
            "mean_ns",
            "median_ns",
            "min_ns",
            "name",
            "p95_ns",
            "samples"
        ]
    );
    assert_eq!(
        doc.get("sections").unwrap().keys(),
        vec![
            "cluster",
            "crash",
            "faults",
            "fsx",
            "integrity",
            "monitor",
            "obs",
            "scale",
            "slo"
        ]
    );
}

#[test]
fn monitor_and_profile_sections_keep_their_shape() {
    let doc = validate(&strandfs_bench::experiments::e17_monitor::section_json());
    assert_eq!(doc.keys(), vec!["monitor", "run", "scenario"]);
    assert_eq!(
        doc.get("scenario").unwrap().keys(),
        vec!["k", "rate", "read_ahead", "streams", "window_rounds"]
    );
    assert_eq!(doc.get("run").unwrap().keys(), vec!["miss_rate", "rounds"]);
    let monitor = doc.get("monitor").unwrap();
    assert_eq!(
        monitor.keys(),
        vec![
            "alerts",
            "closed",
            "dumps",
            "evicted",
            "mode",
            "ring_dropped",
            "width",
            "windows"
        ]
    );
    // One window-stats object per closed window, every O(1) fold field
    // named: dashboards address these leaves directly.
    let windows = monitor.get("windows").and_then(Json::as_arr).unwrap();
    assert!(!windows.is_empty());
    assert_eq!(
        windows[0].keys(),
        vec![
            "admits",
            "blocks",
            "disk_busy_ns",
            "disk_ops",
            "display_starts",
            "drops",
            "end_round",
            "events",
            "faults",
            "first_at_ns",
            "hedge_wins",
            "hedges",
            "idle_rounds",
            "index",
            "last_at_ns",
            "late",
            "margin_min_ns",
            "margin_p1_ns",
            "margin_p50_ns",
            "miss_rate",
            "quarantines",
            "readmits",
            "rejects",
            "releases",
            "retries",
            "revokes",
            "rounds",
            "scrub_corrupt",
            "scrubbed",
            "slack_ns",
            "start_round",
            "utilization"
        ]
    );
    let alerts = monitor.get("alerts").and_then(Json::as_arr).unwrap();
    assert!(!alerts.is_empty(), "the fault storm must raise an alert");
    assert_eq!(
        alerts[0].keys(),
        vec!["at_ns", "kind", "rule", "threshold", "value", "window"]
    );
    let dumps = monitor.get("dumps").and_then(Json::as_arr).unwrap();
    assert!(!dumps.is_empty(), "an alert must capture a flight dump");
    assert_eq!(
        dumps[0].keys(),
        vec![
            "alert",
            "dropped",
            "events",
            "first_round",
            "last_round",
            "span_begin_ns",
            "span_end_ns",
            "windows"
        ]
    );
}

#[test]
fn scale_section_keeps_its_shape() {
    // The smallest size only: the shape is identical per size and the
    // 100k cell is too slow for a schema check.
    let doc = validate(&strandfs_bench::experiments::e16_scale::section_json_for(
        &[1_000],
    ));
    assert_eq!(doc.keys(), vec!["n1000"]);
    let row = doc.get("n1000").unwrap();
    assert_eq!(
        row.keys(),
        vec!["disk_busy_ns", "fetched", "rounds", "violations"]
    );
    // Wall-clock must never leak into the deterministic section.
    assert!(row.get("wall_ns").is_none());
    let fetched = row.get("fetched").and_then(Json::as_num).unwrap();
    assert_eq!(fetched, 20_000.0, "1000 streams x 20 stored blocks");
}

#[test]
fn cluster_section_keeps_its_shape() {
    let doc = validate(&strandfs_bench::experiments::e18_cluster::section_json());
    assert_eq!(doc.keys(), vec!["failover", "scaling"]);
    // One row per member count of the sweep, every leaf named.
    let scaling = doc.get("scaling").unwrap();
    assert_eq!(scaling.keys(), vec!["v1", "v2", "v4", "v8"]);
    for v in ["v1", "v2", "v4", "v8"] {
        assert_eq!(
            scaling.get(v).unwrap().keys(),
            vec!["dropped", "fetched", "n_max", "rounds", "streams"]
        );
    }
    // The failover object carries the replication contract the gate
    // pins: replicated streams drop zero blocks across a member kill.
    let failover = doc.get("failover").unwrap();
    assert_eq!(
        failover.keys(),
        vec![
            "blocks",
            "dump_events",
            "failovers",
            "fetched",
            "fsck_findings",
            "kill_round",
            "killed",
            "reconcile_lost",
            "rejoin_round",
            "replicated_dropped",
            "replicated_miss_burst",
            "rounds",
            "streams",
            "unreplicated_dropped",
            "volume_down_alerts",
            "volumes"
        ]
    );
    let dropped = failover
        .get("replicated_dropped")
        .and_then(Json::as_num)
        .unwrap();
    assert_eq!(dropped, 0.0, "replicated streams must survive the kill");
    let alerts = failover
        .get("volume_down_alerts")
        .and_then(Json::as_num)
        .unwrap();
    assert!(alerts >= 1.0, "the kill must raise a volume-down alert");
}

#[test]
fn integrity_section_keeps_its_shape() {
    let doc = validate(&strandfs_bench::experiments::e19_integrity::section_json());
    assert_eq!(
        doc.keys(),
        vec!["corruption", "fail_slow", "scrub_perturbation"]
    );
    assert_eq!(
        doc.get("corruption").unwrap().keys(),
        vec![
            "corrupted",
            "credited",
            "defended_corrupt_served",
            "defended_dropped",
            "fsck",
            "invalidated",
            "read_repairs",
            "scrub_repaired",
            "scrubbed",
            "undefended_corrupt_served"
        ]
    );
    assert_eq!(
        doc.get("fail_slow").unwrap().keys(),
        vec![
            "bare_dropped",
            "bare_violations",
            "dump_events",
            "healthy_violations",
            "hedge_wins",
            "hedged_dropped",
            "hedged_violations",
            "hedges",
            "quarantines",
            "readmits",
            "slow_factor",
            "volume_slow_alerts"
        ]
    );
    assert_eq!(
        doc.get("scrub_perturbation").unwrap().keys(),
        vec!["healthy_streams_perturbed", "scrubbed"]
    );
    // The two facts no numeric leaf carries.
    for (path, want) in [
        ("corruption/fsck", "clean"),
        ("scrub_perturbation/healthy_streams_perturbed", "no"),
    ] {
        assert_eq!(doc.path(path).and_then(Json::as_str), Some(want), "{path}");
    }
    let alerts = doc
        .path("fail_slow/volume_slow_alerts")
        .and_then(Json::as_num)
        .unwrap();
    assert!(
        alerts >= 1.0,
        "the 10x member must raise a volume-slow alert"
    );
}

#[test]
fn faults_section_keeps_its_shape() {
    let doc = validate(&strandfs_bench::experiments::e13_faults::section_json());
    assert_eq!(doc.keys(), vec!["shield", "sweep"]);
    assert_eq!(
        doc.get("shield").unwrap().keys(),
        vec![
            "healthy_dropped",
            "healthy_violations",
            "policy",
            "victim_dropped",
            "victim_recovery_ns",
            "victim_retries",
            "victim_revokes"
        ]
    );
    let sweep = doc.get("sweep").and_then(Json::as_arr).unwrap();
    // Every rate appears under both policies.
    assert_eq!(
        sweep.len(),
        2 * strandfs_bench::experiments::e13_faults::RATES.len()
    );
    for cell in sweep {
        assert_eq!(
            cell.keys(),
            vec![
                "dropped_blocks",
                "miss_rate",
                "p99_margin_ns",
                "policy",
                "rate",
                "recovery_time_ns",
                "retries"
            ]
        );
    }
}

#[test]
fn crash_section_keeps_its_shape() {
    let doc = validate(&strandfs_bench::experiments::e14_crash::section_json());
    assert_eq!(
        doc.keys(),
        vec![
            "blocks_recovered",
            "blocks_rolled_back",
            "completed_strands",
            "deleted_strands",
            "durable_strands",
            "fingerprint",
            "recovery_ns_total",
            "writes"
        ]
    );
    // The fingerprint pins the sweep's byte-level outcome: a
    // fixed-width hex string, compared exactly by the gate.
    let fp = doc.get("fingerprint").and_then(Json::as_str).unwrap();
    assert_eq!(fp.len(), 16);
    assert!(fp.chars().all(|c| c.is_ascii_hexdigit()));
    // One crash point per device write of the scenario.
    let writes = doc.get("writes").and_then(Json::as_num).unwrap();
    assert!(writes > 10.0);
}

#[test]
fn fsx_section_keeps_its_shape() {
    let doc = validate(&strandfs_bench::experiments::e15_fsx::section_json());
    assert_eq!(
        doc.keys(),
        vec![
            "blocks_copied",
            "boundaries_healed",
            "cells_checked",
            "edits",
            "gc_runs",
            "image_hash",
            "max_bound_seen",
            "max_copied_per_boundary",
            "op_log_hash",
            "ops_applied",
            "ops_attempted",
            "ops_rejected",
            "play_cycles",
            "strands_collected",
            "verifies"
        ]
    );
    // Both fingerprints pin byte-level reproducibility: the op log
    // (what the exerciser did) and the final device image (what the
    // volume looks like afterwards), each a fixed-width hex string
    // compared exactly by the gate.
    for key in ["op_log_hash", "image_hash"] {
        let fp = doc.get(key).and_then(Json::as_str).unwrap();
        assert_eq!(fp.len(), 16);
        assert!(fp.chars().all(|c| c.is_ascii_hexdigit()));
    }
    let ops = doc.get("ops_attempted").and_then(Json::as_num).unwrap();
    assert_eq!(ops, strandfs_bench::experiments::e15_fsx::OPS as f64);
}

#[test]
fn trace_document_keeps_its_shape() {
    let events = [
        Event::RoundStart {
            round: 0,
            active: 1,
            k: 2,
            at: Instant::EPOCH,
        },
        Event::StreamService {
            stream: 0,
            round: 0,
            begin: Instant::EPOCH,
            end: Instant::from_nanos(4_000),
            blocks: 2,
        },
        Event::RoundEnd {
            round: 0,
            at: Instant::from_nanos(5_000),
        },
        Event::Deadline {
            stream: 0,
            item: 0,
            round: 0,
            deadline: Instant::from_nanos(3_000),
            completed: Instant::from_nanos(4_000),
        },
    ];
    let doc = validate(&chrome_trace(events.iter(), &TraceOptions::default()));
    assert_eq!(doc.keys(), vec!["displayTimeUnit", "traceEvents"]);
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();

    let by = |ph: &str, name: &str| {
        events
            .iter()
            .find(|e| {
                e.get("ph").and_then(Json::as_str) == Some(ph)
                    && e.get("name").and_then(Json::as_str) == Some(name)
            })
            .unwrap_or_else(|| panic!("no {ph} event named {name}"))
    };
    // Duration slices carry ts + dur; instants a scope; counters args.
    assert_eq!(
        by("X", "round 0").keys(),
        vec!["args", "cat", "dur", "name", "ph", "pid", "tid", "ts"]
    );
    assert_eq!(
        by("i", "deadline miss").keys(),
        vec!["args", "cat", "name", "ph", "pid", "s", "tid", "ts"]
    );
    assert_eq!(
        by("C", "stream 0 buffered").keys(),
        vec!["args", "name", "ph", "pid", "tid", "ts"]
    );
    assert_eq!(
        by("X", "round 0").path("args").unwrap().keys(),
        vec!["active", "k"]
    );
    assert_eq!(
        by("i", "deadline miss").path("args").unwrap().keys(),
        vec!["deadline_ns", "item", "lateness_ns", "round", "stream"]
    );
}

//! End-to-end shape of the bench regression gate: parse a baseline
//! document of the exact form `bench` writes, inject a synthetic
//! 50 % slowdown, and watch the gate fail with a readable delta table.

use strandfs_bench::check::{compare, compare_section, filter_suites, parse_baseline};
use strandfs_testkit::bench::BenchResult;
use strandfs_testkit::json::validate;

const BASELINE_DOC: &str = r#"{
  "suite": "core",
  "harness": "strandfs-testkit",
  "unit": "ns_per_iter",
  "results": [
    {"name": "fig4/k_transient_n8", "samples": 20, "iters_per_sample": 13868,
     "mean_ns": 2.2, "median_ns": 2.1, "p95_ns": 2.4, "min_ns": 2.0},
    {"name": "index/lookup_hot", "samples": 20, "iters_per_sample": 2400,
     "mean_ns": 52000.0, "median_ns": 50000.0, "p95_ns": 56000.0, "min_ns": 48000.0},
    {"name": "transient/stepwise_full_sim", "samples": 10, "iters_per_sample": 1,
     "mean_ns": 38000000.0, "median_ns": 37056628.0, "p95_ns": 40000000.0,
     "min_ns": 36000000.0}
  ]
}"#;

fn measured(name: &str, median_ns: f64) -> BenchResult {
    BenchResult {
        name: name.to_string(),
        samples: 20,
        iters_per_sample: 1,
        mean_ns: median_ns,
        median_ns,
        p95_ns: median_ns,
        min_ns: median_ns,
    }
}

/// The fresh run, with every median slowed by `factor`.
fn slowed_run(factor: f64) -> Vec<BenchResult> {
    [
        ("fig4/k_transient_n8", 2.1),
        ("index/lookup_hot", 50_000.0),
        ("transient/stepwise_full_sim", 37_056_628.0),
    ]
    .into_iter()
    .map(|(name, base)| measured(name, base * factor))
    .collect()
}

#[test]
fn unmodified_run_passes() {
    let baseline = parse_baseline(&validate(BASELINE_DOC)).expect("baseline parses");
    let out = compare(&baseline, &slowed_run(1.0));
    assert!(out.passed(), "identical medians must pass: {}", out.table());
    assert_eq!(out.compared, 3);
}

#[test]
fn synthetic_half_slowdown_fails_with_delta_table() {
    let baseline = parse_baseline(&validate(BASELINE_DOC)).expect("baseline parses");
    let out = compare(&baseline, &slowed_run(1.5));
    assert!(!out.passed(), "a 50% slowdown must fail the gate");
    // The compute kernel (tight tier) is flagged; the nanosecond kernel
    // hides under the absolute floor and the 1-iter full sim under the
    // wide tier — exactly the intended sensitivity split.
    let flagged: Vec<&str> = out.regressions.iter().map(|r| r.name.as_str()).collect();
    assert_eq!(flagged, vec!["index/lookup_hot"]);
    let table = out.table();
    assert!(table.contains("index/lookup_hot"));
    assert!(table.contains("FAIL"));
    assert!(table.contains("1.50x"));
}

#[test]
fn gross_slowdown_fails_every_tier() {
    let baseline = parse_baseline(&validate(BASELINE_DOC)).expect("baseline parses");
    let out = compare(&baseline, &slowed_run(100.0));
    assert_eq!(out.regressions.len(), 3, "{}", out.table());
}

/// A baseline fragment of the exact shape `e19_integrity::section_json`
/// commits under `sections/integrity`.
const INTEGRITY_BASELINE: &str = r#"{
  "corruption": {"corrupted": 3, "undefended_corrupt_served": 3,
                 "defended_corrupt_served": 0, "defended_dropped": 0,
                 "read_repairs": 3, "scrub_repaired": 0,
                 "scrubbed": 40, "credited": 17, "invalidated": 0,
                 "fsck": "clean"},
  "fail_slow": {"slow_factor": 10, "hedges": 4, "hedge_wins": 4,
                "quarantines": 1, "readmits": 0, "hedged_dropped": 0,
                "hedged_violations": 0, "bare_dropped": 0,
                "bare_violations": 12, "healthy_violations": 0,
                "volume_slow_alerts": 1, "dump_events": 9},
  "scrub_perturbation": {"scrubbed": 40, "healthy_streams_perturbed": "no"}
}"#;

#[test]
fn integrity_leaf_gate_pins_the_contract_strings() {
    let base = validate(INTEGRITY_BASELINE);
    let same = compare_section("integrity", &base, &base);
    assert!(same.passed(), "{}", same.table());
    // Every leaf of the section is gated: 22 numeric + 2 string.
    assert_eq!(same.compared, 24);
    // Losing the zero-perturbation invariant fails, and so does a
    // single replicated block dropped past the hedge: the numeric
    // verdicts need no string beside them.
    for (path, was, now) in [
        (
            "integrity/scrub_perturbation/healthy_streams_perturbed",
            r#""healthy_streams_perturbed": "no""#,
            r#""healthy_streams_perturbed": "yes""#,
        ),
        (
            "integrity/fail_slow/hedged_dropped",
            r#""hedged_dropped": 0"#,
            r#""hedged_dropped": 1"#,
        ),
    ] {
        let fresh = validate(&INTEGRITY_BASELINE.replace(was, now));
        let out = compare_section("integrity", &base, &fresh);
        assert!(!out.passed());
        assert_eq!(out.mismatched.len(), 1, "{}", out.table());
        assert_eq!(out.mismatched[0].0, path);
    }
}

#[test]
fn suite_selection_narrows_the_gate() {
    let baseline = parse_baseline(&validate(BASELINE_DOC)).expect("baseline parses");
    let only_index = filter_suites(baseline, &["index".to_string()]);
    assert_eq!(only_index.len(), 1);
    // With the gate narrowed, a slowdown elsewhere is invisible ...
    let out = compare(&only_index, &slowed_run(1.0));
    assert!(out.passed());
    // ... and a missing selected benchmark still fails loudly.
    let out = compare(&only_index, &[measured("fig4/k_transient_n8", 2.1)]);
    assert!(!out.passed());
    assert_eq!(out.missing, vec!["index/lookup_hot".to_string()]);
}

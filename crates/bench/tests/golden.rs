//! Golden-value tests pinning a subset of `experiments_output.txt`: the
//! E1 / Figure 4 `k(n)` tables and the E5 capacity sweeps. Any drift in
//! the admission arithmetic (Eqs. 15–18) shows up here as an exact
//! mismatch, with the blessed numbers visible in the diff. The E18 /
//! E19 cluster tables are pure virtual time, so they are pinned whole:
//! byte-for-byte against the committed blocks of that file. So is
//! every `sections/*` document of the committed `BENCH_core.json` —
//! the same exact gate `bench --check` runs, here inside `cargo test`.
//! After an intended model change, regenerate with `cargo run -p
//! strandfs-bench --release --bin bench` (uncapped) and commit the
//! `sections` diff.

use strandfs_bench::experiments::{
    e18_cluster, e19_integrity, e1_fig4, e5_capacity, projected_env, standard_video_spec,
    vintage_env,
};
use strandfs_bench::sections;
use strandfs_testkit::json::{validate, Json};

const BENCH_CORE: &str = include_str!("../../../BENCH_core.json");

#[test]
fn every_committed_section_leaf_reproduces_exactly() {
    let out = sections::check(&validate(BENCH_CORE), &[]);
    assert!(out.passed(), "\n{}", out.table());
}

#[test]
fn registry_labels_are_the_committed_section_keys() {
    let doc = validate(BENCH_CORE);
    let mut labels: Vec<&str> = sections::SECTIONS.iter().map(|(label, _)| *label).collect();
    labels.sort_unstable();
    assert_eq!(labels, doc.get("sections").expect("sections").keys());
}

/// Every string leaf under `doc`.
fn string_leaves<'a>(doc: &'a Json, out: &mut Vec<&'a str>) {
    match doc {
        Json::Str(s) => out.push(s),
        Json::Arr(a) => a.iter().for_each(|v| string_leaves(v, out)),
        Json::Obj(m) => m.values().for_each(|v| string_leaves(v, out)),
        _ => {}
    }
}

/// A fingerprint quoted in the prose must be one the exact gate holds:
/// every backticked 16-hex-digit token of README, DESIGN and
/// EXPERIMENTS is a string leaf of a committed `sections/*` document.
#[test]
fn quoted_fingerprints_are_committed_section_leaves() {
    let doc = validate(BENCH_CORE);
    let mut leaves = Vec::new();
    string_leaves(doc.get("sections").expect("sections"), &mut leaves);
    let docs = [
        ("README.md", include_str!("../../../README.md")),
        ("DESIGN.md", include_str!("../../../DESIGN.md")),
        ("EXPERIMENTS.md", include_str!("../../../EXPERIMENTS.md")),
    ];
    let hex = |c: &u8| c.is_ascii_digit() || (b'a'..=b'f').contains(c);
    let mut quoted = Vec::new();
    for (name, text) in docs {
        let b = text.as_bytes();
        for i in 0..b.len().saturating_sub(17) {
            if b[i] == b'`' && b[i + 17] == b'`' && b[i + 1..i + 17].iter().all(hex) {
                let token = &text[i + 1..i + 17];
                assert!(
                    leaves.contains(&token),
                    "{name} quotes `{token}`, which no committed sections/* leaf holds"
                );
                quoted.push(token);
            }
        }
    }
    // At least the crash sweep's fingerprint and fsx's op-log and image
    // hashes: a scan that finds fewer has stopped looking.
    assert!(quoted.len() >= 3, "quoted fingerprints: {quoted:?}");
}

/// Every count the E14, E15, E18 and E19 paragraphs of EXPERIMENTS.md
/// quote, as the phrase that quotes it and the `sections/*` leaf it
/// reads: `{}` stands for the committed value, with thousands separators.
const QUOTED_COUNTS: &[(&str, &str)] = &[
    (
        "crash/writes",
        "every one of the scenario's {} device writes",
    ),
    ("crash/blocks_recovered", "**{} blocks recovered**"),
    ("crash/blocks_rolled_back", "**{} rolled back**"),
    (
        "crash/completed_strands",
        "**{} in-flight strands completed**",
    ),
    ("crash/durable_strands", "**{} durable strands**"),
    ("crash/deleted_strands", "**{} journaled deletion**"),
    ("crash/writes", "across all {} remounts"),
    ("fsx/ops_attempted", "(seed 23, {} ops,"),
    ("fsx/ops_applied", "applies {} of"),
    ("fsx/ops_attempted", "of {} random ops"),
    ("fsx/ops_rejected", "({} correctly rejected"),
    ("fsx/edits", "**{} committed edits**"),
    ("fsx/boundaries_healed", "**{} boundaries**"),
    ("fsx/blocks_copied", "**{} strand blocks**"),
    ("fsx/max_copied_per_boundary", "copying **{} blocks"),
    ("fsx/max_bound_seen", "Eq. 19/20 bound of {}**"),
    ("fsx/gc_runs", "; {} GC sweeps"),
    ("fsx/strands_collected", "collect {} dead strands"),
    ("fsx/play_cycles", "; {} play/pause/resume cycles"),
    ("fsx/verifies", "and {} model-vs-device verification passes"),
    ("fsx/cells_checked", "**{} media units**"),
    ("cluster/scaling/v1/n_max", "cluster `n_max` = {} →"),
    ("cluster/scaling/v8/n_max", "→ {} (volumes × per-member"),
    (
        "cluster/failover/volumes",
        "leg runs {} volumes under popularity",
    ),
    ("cluster/failover/kill_round", "only volume at round {} and"),
    ("cluster/failover/rejoin_round", "rejoins it at round {}."),
    (
        "cluster/failover/replicated_dropped",
        "mid-playback with {} dropped",
    ),
    (
        "cluster/failover/replicated_miss_burst",
        "a {}-item miss burst**",
    ),
    (
        "cluster/failover/unreplicated_dropped",
        "dropping {} blocks during",
    ),
    (
        "cluster/failover/dump_events",
        "with a {}-event flight dump covering",
    ),
    ("cluster/failover/fsck_findings", "reports {} fsck findings"),
    ("cluster/failover/reconcile_lost", "and {} replicas lost"),
    ("integrity/corruption/corrupted", "arms {} silent bit-flips"),
    (
        "integrity/corruption/undefended_corrupt_served",
        "all **{} corrupt payloads reach the audience**",
    ),
    (
        "integrity/corruption/defended_corrupt_served",
        "**{} corrupt and",
    ),
    (
        "integrity/corruption/defended_dropped",
        "and {} dropped blocks served**",
    ),
    (
        "integrity/corruption/read_repairs",
        "({} read-path repairs,",
    ),
    ("integrity/corruption/invalidated", "{} invalidations,"),
    ("integrity/corruption/scrubbed", "{} extents scrubbed —"),
    ("integrity/corruption/scrubbed", "the {} stamped blocks"),
    ("integrity/corruption/credited", "— {} of them covered"),
    ("integrity/corruption/corrupted", "of {} repaired with"),
    (
        "integrity/corruption/invalidated",
        "repaired with {} invalidated",
    ),
    ("integrity/fail_slow/slow_factor", "member at {}× latency"),
    ("integrity/fail_slow/hedges", "fires {} hedge,"),
    (
        "integrity/fail_slow/hedged_violations",
        "exactly — {} violations,",
    ),
    (
        "integrity/fail_slow/hedged_dropped",
        "violations, {} drops**",
    ),
    ("integrity/fail_slow/bare_violations", "({} violations,"),
    ("integrity/fail_slow/bare_dropped", "{} dropped blocks);"),
    ("integrity/fail_slow/bare_violations", "against {} bare"),
    (
        "integrity/fail_slow/dump_events",
        "with a {}-event flight dump**",
    ),
    (
        "integrity/scrub_perturbation/scrubbed",
        "({} extents scrubbed for free",
    ),
];

/// `n` with a comma every three digits, as the prose writes counts.
fn with_commas(n: u64) -> String {
    let digits = n.to_string();
    let mut out = String::new();
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// A count quoted in the prose must be the committed leaf it reads:
/// each phrase of [`QUOTED_COUNTS`], filled with its leaf's value, is in
/// the E14 / E15 or E18 / E19 paragraphs, and so are the recovery time
/// and the per-crash mean derived from `crash/recovery_ns_total` and
/// E19's probes, the scrubbed blocks no read credited.
#[test]
fn quoted_counts_are_committed_section_leaves() {
    let doc = validate(BENCH_CORE);
    let leaf = |path: &str| {
        let v = doc.path(&format!("sections/{path}")).and_then(Json::as_num);
        v.unwrap_or_else(|| panic!("no numeric leaf sections/{path}"))
    };
    let text = include_str!("../../../EXPERIMENTS.md");
    let between = |from: &str, to: &str| {
        let start = text.find(from).unwrap_or_else(|| panic!("no `{from}`"));
        &text[start
            ..start
                + text[start..]
                    .find(to)
                    .unwrap_or_else(|| panic!("no `{to}`"))]
    };
    let prose = [
        between("### E14 ", "### E16 "),
        between("### E18 ", "## Invariant checks"),
    ]
    .join(" ")
    .split_whitespace()
    .collect::<Vec<_>>()
    .join(" ");
    let mut phrases: Vec<String> = QUOTED_COUNTS
        .iter()
        .map(|(path, phrase)| phrase.replace("{}", &with_commas(leaf(path) as u64)))
        .collect();
    let recovery_s = leaf("crash/recovery_ns_total") / 1e9;
    phrases.push(format!(
        "{recovery_s:.3} s (~{:.0} ms per crash",
        1e3 * recovery_s / leaf("crash/writes")
    ));
    let probes = leaf("integrity/corruption/scrubbed") - leaf("integrity/corruption/credited");
    phrases.push(format!("so {probes} hashed by the scrubber"));
    for phrase in phrases {
        assert!(
            prose.contains(&phrase),
            "EXPERIMENTS.md E14/E15/E18/E19 no longer says `{phrase}`"
        );
    }
}

/// The block of the committed `experiments_output.txt` under the
/// `## <tag> ` heading, up to and excluding the blank line that ends it.
fn committed_block(tag: &str) -> &'static str {
    const OUTPUT: &str = include_str!("../../../experiments_output.txt");
    let start = OUTPUT
        .find(&format!("## {tag} "))
        .expect("experiments_output.txt has the block");
    let rest = &OUTPUT[start..];
    &rest[..rest.find("\n\n").map_or(rest.len(), |end| end + 1)]
}

#[test]
fn e18_cluster_table_is_pinned() {
    assert_eq!(e18_cluster::table().to_string(), committed_block("E18"));
}

#[test]
fn e19_integrity_table_is_pinned() {
    assert_eq!(e19_integrity::table().to_string(), committed_block("E19"));
}

#[test]
fn e1_fig4_vintage_curve_is_pinned() {
    let fig = e1_fig4::run(&vintage_env(), standard_video_spec());
    assert_eq!(fig.n_max, 2);
    assert_eq!(fig.points, vec![(1, 1, 1), (2, 2, 5)]);
}

#[test]
fn e1_fig4_projected_curve_is_pinned() {
    let fig = e1_fig4::run(&projected_env(), standard_video_spec());
    assert_eq!(fig.n_max, 9);
    assert_eq!(
        fig.points,
        vec![
            (1, 1, 1),
            (2, 1, 1),
            (3, 1, 1),
            (4, 1, 2),
            (5, 2, 3),
            (6, 2, 4),
            (7, 3, 6),
            (8, 6, 12),
            (9, 23, 49),
        ]
    );
}

#[test]
fn e5_granularity_sweep_is_pinned() {
    let got = e5_capacity::granularity_sweep(&vintage_env(), standard_video_spec());
    assert_eq!(
        got,
        vec![(1, 1), (2, 2), (3, 2), (6, 3), (12, 4), (24, 4), (48, 4)]
    );
}

#[test]
fn e5_scattering_sweep_is_pinned() {
    let got = e5_capacity::scattering_sweep(&vintage_env(), standard_video_spec());
    assert_eq!(
        got,
        vec![
            (2.0, 4),
            (5.0, 3),
            (10.0, 3),
            (15.0, 2),
            (25.0, 2),
            (40.0, 1),
        ]
    );
}

#[test]
fn e5_rate_sweep_is_pinned() {
    let got = e5_capacity::rate_sweep(&vintage_env(), standard_video_spec());
    assert_eq!(got, vec![(1.0, 2), (2.0, 4), (4.0, 5), (8.0, 5)]);
}

#[test]
fn e5_disk_generations_are_pinned() {
    let spec = standard_video_spec();
    assert_eq!(e5_capacity::n_max_at(&vintage_env(), spec), 2);
    assert_eq!(e5_capacity::n_max_at(&projected_env(), spec), 9);
}

//! The bench regression gate: `bench --check`.
//!
//! Re-runs the suite and compares each benchmark's median against the
//! committed `BENCH_core.json` baseline. Tolerances are data-driven:
//! the baseline's `iters_per_sample` tells how macro a benchmark is —
//! single-iteration full-simulation runs vary far more between machines
//! and runs than hot compute kernels iterated millions of times — so
//! the allowed ratio widens as iteration counts shrink, and a small
//! absolute floor keeps nanosecond-scale kernels from tripping on
//! scheduler noise.
//!
//! The comparison itself is a pure function ([`compare`]) over parsed
//! baseline entries and fresh [`BenchResult`]s, so the gate's behaviour
//! — including that a 50 % slowdown on a tight-tolerance benchmark
//! fails — is pinned by unit tests without timing anything.
//!
//! None of that tolerance reaches the document's `sections`: they are
//! virtual-time outputs, the same bytes on every machine and in every
//! build profile, so [`compare_section`] holds every leaf to equality.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use strandfs_testkit::bench::BenchResult;
use strandfs_testkit::json::Json;

use crate::experiments::e16_scale;
use crate::obs_capture::Capture;

/// Absolute slack added to every limit, so kernels measured in a few
/// nanoseconds cannot fail on scheduler jitter alone.
pub const ABSOLUTE_FLOOR_NS: f64 = 100.0;

/// One benchmark entry of the committed baseline document.
#[derive(Clone, Debug, PartialEq)]
pub struct BaselineEntry {
    /// Benchmark name (`"suite/bench"`).
    pub name: String,
    /// Iterations per timed sample when the baseline was recorded —
    /// the macro-ness signal the tolerance tiers key off.
    pub iters_per_sample: u64,
    /// Baseline median ns/iter.
    pub median_ns: f64,
}

impl BaselineEntry {
    /// The suite a benchmark belongs to (the prefix before `/`).
    pub fn suite(&self) -> &str {
        self.name.split('/').next().unwrap_or(&self.name)
    }
}

/// The allowed current/baseline median ratio for a benchmark whose
/// baseline ran `iters_per_sample` iterations per sample.
///
/// * `1` iteration — a full-simulation walltime bench; dominated by
///   allocator and cache behaviour, so the gate only catches gross
///   regressions (2.5×).
/// * under `100` — mid-weight; 2×.
/// * otherwise — a compute kernel with statistically solid medians;
///   tight (1.35×), so a 50 % slowdown fails.
pub fn tolerance_ratio(iters_per_sample: u64) -> f64 {
    if iters_per_sample <= 1 {
        2.5
    } else if iters_per_sample < 100 {
        2.0
    } else {
        1.35
    }
}

/// The failure limit in ns for one baseline entry.
pub fn limit_ns(baseline: &BaselineEntry) -> f64 {
    baseline.median_ns * tolerance_ratio(baseline.iters_per_sample) + ABSOLUTE_FLOOR_NS
}

/// One benchmark that exceeded its limit.
#[derive(Clone, Debug)]
pub struct Regression {
    /// Benchmark name.
    pub name: String,
    /// Baseline median ns/iter.
    pub baseline_ns: f64,
    /// Fresh median ns/iter.
    pub current_ns: f64,
    /// The limit it exceeded, in ns.
    pub limit_ns: f64,
}

impl Regression {
    /// Current-over-baseline slowdown factor.
    pub fn ratio(&self) -> f64 {
        if self.baseline_ns > 0.0 {
            self.current_ns / self.baseline_ns
        } else {
            f64::INFINITY
        }
    }
}

/// Outcome of one baseline comparison.
#[derive(Clone, Debug, Default)]
pub struct CheckOutcome {
    /// Benchmarks compared against the baseline.
    pub compared: usize,
    /// Benchmarks over their limit, in baseline order.
    pub regressions: Vec<Regression>,
    /// Baseline entries the fresh run did not produce (a renamed or
    /// dropped benchmark breaks the gate rather than silently shrinking
    /// its coverage).
    pub missing: Vec<String>,
    /// Section leaves that differ between baseline and fresh run, as
    /// `(path, committed, fresh)`; a leaf only one side has reads
    /// `absent` on the other.
    pub mismatched: Vec<(String, String, String)>,
}

impl CheckOutcome {
    /// True when the gate passes.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty() && self.missing.is_empty() && self.mismatched.is_empty()
    }

    /// A readable delta table of everything that failed.
    pub fn table(&self) -> String {
        let mut out = String::new();
        if !self.regressions.is_empty() {
            let _ = writeln!(
                out,
                "{:<44} {:>12} {:>12} {:>7} {:>9}",
                "benchmark", "baseline", "current", "ratio", "limit"
            );
            for r in &self.regressions {
                let _ = writeln!(
                    out,
                    "{:<44} {:>12} {:>12} {:>6.2}x {:>9}  FAIL",
                    r.name,
                    fmt_ns(r.baseline_ns),
                    fmt_ns(r.current_ns),
                    r.ratio(),
                    fmt_ns(r.limit_ns),
                );
            }
        }
        for name in &self.missing {
            let _ = writeln!(
                out,
                "{name:<44} present in baseline, missing from run  FAIL"
            );
        }
        for (name, base, cur) in &self.mismatched {
            let _ = writeln!(out, "{name:<44} committed {base}, fresh {cur}  FAIL");
        }
        out
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Parse the committed `BENCH_core.json` document into baseline
/// entries.
pub fn parse_baseline(doc: &Json) -> Result<Vec<BaselineEntry>, String> {
    let results = doc
        .get("results")
        .and_then(Json::as_arr)
        .ok_or("baseline has no \"results\" array")?;
    results
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let field = |key: &str| {
                r.get(key)
                    .and_then(Json::as_num)
                    .ok_or_else(|| format!("results[{i}] missing numeric \"{key}\""))
            };
            Ok(BaselineEntry {
                name: r
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("results[{i}] missing \"name\""))?
                    .to_string(),
                iters_per_sample: field("iters_per_sample")? as u64,
                median_ns: field("median_ns")?,
            })
        })
        .collect()
}

/// Keep only the baseline entries this run will reproduce: those whose
/// suite is among `suites` (all suites when empty), minus the scale
/// sizes `STRANDFS_SCALE_CAP` keeps out of the sweep — the committed
/// baseline is generated uncapped, and a capped-out entry is skipped
/// rather than reported missing.
pub fn filter_suites(baseline: Vec<BaselineEntry>, suites: &[String]) -> Vec<BaselineEntry> {
    baseline
        .into_iter()
        .filter(|b| suites.is_empty() || suites.iter().any(|s| s == b.suite()))
        .filter(|b| !e16_scale::capped_out(&b.name))
        .collect()
}

/// Compare a fresh run against the baseline. Benchmarks present only in
/// the fresh run are ignored (new benchmarks are not regressions);
/// baseline entries absent from the fresh run are reported in
/// [`CheckOutcome::missing`].
pub fn compare(baseline: &[BaselineEntry], current: &[BenchResult]) -> CheckOutcome {
    let mut outcome = CheckOutcome::default();
    for b in baseline {
        let Some(cur) = current.iter().find(|c| c.name == b.name) else {
            outcome.missing.push(b.name.clone());
            continue;
        };
        outcome.compared += 1;
        let limit = limit_ns(b);
        if cur.median_ns > limit {
            outcome.regressions.push(Regression {
                name: b.name.clone(),
                baseline_ns: b.median_ns,
                current_ns: cur.median_ns,
                limit_ns: limit,
            });
        }
    }
    outcome
}

/// Flatten every leaf of a JSON value — number, string, bool, null —
/// into `path -> leaf`, with `/`-joined object keys and `[i]` array
/// indices under `prefix`.
fn flatten<'a>(json: &'a Json, prefix: &str, out: &mut BTreeMap<String, &'a Json>) {
    if let Some(obj) = json.as_obj() {
        for (k, v) in obj {
            flatten(v, &format!("{prefix}/{k}"), out);
        }
    } else if let Some(arr) = json.as_arr() {
        for (i, v) in arr.iter().enumerate() {
            flatten(v, &format!("{prefix}[{i}]"), out);
        }
    } else {
        out.insert(prefix.to_string(), json);
    }
}

/// One side of a reported difference.
fn show(leaf: Option<&Json>) -> String {
    match leaf {
        None => "absent".to_string(),
        Some(Json::Str(s)) => format!("\"{s}\""),
        Some(Json::Num(n)) => n.to_string(),
        Some(Json::Bool(b)) => b.to_string(),
        Some(_) => "null".to_string(),
    }
}

/// Compare a committed virtual-time section (`sections/<label>`)
/// against a fresh run's, leaf by leaf, for equality. A leaf on one
/// side only is a difference too — except a committed leaf of a scale
/// size this process was capped out of sweeping
/// ([`e16_scale::capped_out`]), which is skipped uncounted.
pub fn compare_section(label: &str, committed: &Json, fresh: &Json) -> CheckOutcome {
    let mut base = BTreeMap::new();
    flatten(committed, label, &mut base);
    let mut cur = BTreeMap::new();
    flatten(fresh, label, &mut cur);
    let mut outcome = CheckOutcome::default();
    for (path, b) in base {
        let c = cur.remove(&path);
        if c.is_none() && e16_scale::capped_out(&path) {
            continue;
        }
        outcome.compared += 1;
        if c != Some(b) {
            outcome.mismatched.push((path, show(Some(b)), show(c)));
        }
    }
    for (path, c) in cur {
        outcome.mismatched.push((path, show(None), show(Some(c))));
    }
    outcome
}

/// Cross-check the observability fold against the simulator's own
/// bookkeeping for the instrumented reference run. Returns one message
/// per violated invariant (empty = consistent).
pub fn obs_invariants(cap: &Capture) -> Vec<String> {
    let mut problems = Vec::new();
    let mut check = |label: &str, obs: u64, sim: u64| {
        if obs != sim {
            problems.push(format!(
                "{label}: obs fold says {obs}, sim report says {sim}"
            ));
        }
    };
    check(
        "deadlines.late vs total_violations",
        cap.obs_deadline_late,
        cap.report.total_violations(),
    );
    check("rounds.count vs rounds", cap.obs_rounds, cap.report.rounds);
    check(
        "deadlines.blocks vs scheduled blocks",
        cap.obs_deadline_blocks,
        cap.report.total_blocks(),
    );
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(name: &str, iters: u64, median: f64) -> BaselineEntry {
        BaselineEntry {
            name: name.to_string(),
            iters_per_sample: iters,
            median_ns: median,
        }
    }

    fn result(name: &str, median: f64) -> BenchResult {
        BenchResult {
            name: name.to_string(),
            samples: 20,
            iters_per_sample: 1,
            mean_ns: median,
            median_ns: median,
            p95_ns: median,
            min_ns: median,
        }
    }

    #[test]
    fn tolerance_tiers_follow_iteration_counts() {
        assert_eq!(tolerance_ratio(1), 2.5);
        assert_eq!(tolerance_ratio(50), 2.0);
        assert_eq!(tolerance_ratio(100), 1.35);
        assert_eq!(tolerance_ratio(1_000_000), 1.35);
    }

    #[test]
    fn fifty_percent_slowdown_fails_tight_benchmarks() {
        // A compute kernel: 50 µs median at 10k iters/sample.
        let baseline = [entry("fig4/kernel", 10_000, 50_000.0)];
        let slowed = [result("fig4/kernel", 75_000.0)];
        let out = compare(&baseline, &slowed);
        assert!(!out.passed(), "a 50% slowdown must fail the gate");
        assert_eq!(out.regressions.len(), 1);
        let r = &out.regressions[0];
        assert_eq!(r.name, "fig4/kernel");
        assert!((r.ratio() - 1.5).abs() < 1e-9);
        // The table names the offender with both medians.
        let table = out.table();
        assert!(table.contains("fig4/kernel"));
        assert!(table.contains("FAIL"));
        assert!(table.contains("50.000 µs"));
        assert!(table.contains("75.000 µs"));
    }

    #[test]
    fn fifty_percent_slowdown_tolerated_on_macro_benchmarks() {
        // A full-sim walltime bench: 37 ms at 1 iter/sample gets the
        // wide 2.5x tier.
        let baseline = [entry("transient/full_sim", 1, 37_000_000.0)];
        let slowed = [result("transient/full_sim", 55_500_000.0)];
        assert!(compare(&baseline, &slowed).passed());
        // But a 3x blowup still fails.
        let blown = [result("transient/full_sim", 111_000_000.0)];
        assert!(!compare(&baseline, &blown).passed());
    }

    #[test]
    fn absolute_floor_shields_nanosecond_kernels() {
        // 2 ns median: even a 10x ratio is within the 100 ns floor.
        let baseline = [entry("fig4/tiny", 1_000_000, 2.0)];
        let jittery = [result("fig4/tiny", 20.0)];
        assert!(compare(&baseline, &jittery).passed());
        // Beyond the floor it fails.
        let broken = [result("fig4/tiny", 200.0)];
        assert!(!compare(&baseline, &broken).passed());
    }

    #[test]
    fn improvements_and_new_benchmarks_pass() {
        let baseline = [entry("a/x", 100, 1_000.0)];
        let current = [result("a/x", 500.0), result("a/new", 9e9)];
        let out = compare(&baseline, &current);
        assert!(out.passed());
        assert_eq!(out.compared, 1);
    }

    #[test]
    fn missing_benchmarks_fail_the_gate() {
        let baseline = [entry("a/x", 100, 1_000.0), entry("b/y", 1, 5e6)];
        let out = compare(&baseline, &[result("a/x", 1_000.0)]);
        assert!(!out.passed());
        assert_eq!(out.missing, vec!["b/y".to_string()]);
        assert!(out.table().contains("missing from run"));
    }

    #[test]
    fn suite_filter_keeps_prefixes() {
        let all = vec![entry("a/x", 1, 1.0), entry("b/y", 1, 1.0)];
        let kept = filter_suites(all.clone(), &["b".to_string()]);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].name, "b/y");
        assert_eq!(filter_suites(all, &[]).len(), 2);
    }

    /// Compare two one-difference documents and return that difference.
    fn differs(label: &str, committed: &str, fresh: &str) -> (String, String, String) {
        let out = compare_section(
            label,
            &strandfs_testkit::json::validate(committed),
            &strandfs_testkit::json::validate(fresh),
        );
        assert!(!out.passed());
        assert!(out.regressions.is_empty() && out.missing.is_empty());
        assert_eq!(out.mismatched.len(), 1, "{}", out.table());
        assert!(out.table().contains(&out.mismatched[0].0));
        assert!(out.table().contains("FAIL"));
        out.mismatched[0].clone()
    }

    fn triple(path: &str, committed: &str, fresh: &str) -> (String, String, String) {
        (path.to_string(), committed.to_string(), fresh.to_string())
    }

    #[test]
    fn section_leaves_of_every_kind_compare_for_equality() {
        let base = strandfs_testkit::json::validate(
            r#"{"sweep":[{"rate":0.2,"p99_margin_ns":-25000,"policy":"ladder"}],
                "slack_ns":null,"clean":true,"alerts":[]}"#,
        );
        // Identical documents pass and count every leaf, whatever its kind.
        let same = compare_section("faults", &base, &base);
        assert!(same.passed(), "{}", same.table());
        assert_eq!(same.compared, 5);
        // One violation more out of 15,000 fails; so does one
        // nanosecond of signed margin.
        assert_eq!(
            differs(
                "scale",
                r#"{"n1000":{"violations":15000,"rounds":4}}"#,
                r#"{"n1000":{"violations":15001,"rounds":4}}"#,
            ),
            triple("scale/n1000/violations", "15000", "15001")
        );
        assert_eq!(
            differs(
                "faults",
                r#"{"sweep":[{"p99_margin_ns":-25000}]}"#,
                r#"{"sweep":[{"p99_margin_ns":-25001}]}"#,
            ),
            triple("faults/sweep[0]/p99_margin_ns", "-25000", "-25001")
        );
        // A float leaf differing in its last printed digit.
        assert_eq!(
            differs(
                "faults",
                r#"{"sweep":[{"miss_rate":0.0312}]}"#,
                r#"{"sweep":[{"miss_rate":0.0313}]}"#,
            ),
            triple("faults/sweep[0]/miss_rate", "0.0312", "0.0313")
        );
        // A leaf changing kind: a window with no admission decision
        // (slack `null`) gains one.
        assert_eq!(
            differs(
                "monitor",
                r#"{"windows":[{"slack_ns":null}]}"#,
                r#"{"windows":[{"slack_ns":0}]}"#,
            ),
            triple("monitor/windows[0]/slack_ns", "null", "0")
        );
        // A leaf only the fresh run has is named, not ignored.
        assert_eq!(
            differs("crash", r#"{"writes":62}"#, r#"{"writes":62,"torn":3}"#),
            triple("crash/torn", "absent", "3")
        );
    }

    #[test]
    fn cluster_section_gates_failover_leaves() {
        // A replicated stream dropping a single block breaks the
        // contract.
        assert_eq!(
            differs(
                "cluster",
                r#"{"scaling":{"v1":{"n_max":2}},"failover":{"replicated_dropped":0,"failovers":1}}"#,
                r#"{"scaling":{"v1":{"n_max":2}},"failover":{"replicated_dropped":1,"failovers":1}}"#,
            ),
            triple("cluster/failover/replicated_dropped", "0", "1")
        );
    }

    #[test]
    fn integrity_section_gates_corruption_and_hedge_leaves() {
        // The verdicts are the counts themselves: one corrupt payload
        // on the wire, or one block dropped past the hedge, fails.
        let base = r#"{"corruption":{"defended_corrupt_served":0,"fsck":"clean"},
                       "fail_slow":{"hedged_dropped":0}}"#;
        for (path, was, now) in [
            (
                "integrity/corruption/defended_corrupt_served",
                r#""defended_corrupt_served":0"#,
                r#""defended_corrupt_served":1"#,
            ),
            (
                "integrity/fail_slow/hedged_dropped",
                r#""hedged_dropped":0"#,
                r#""hedged_dropped":1"#,
            ),
        ] {
            assert_eq!(
                differs("integrity", base, &base.replace(was, now)),
                triple(path, "0", "1")
            );
        }
    }

    #[test]
    fn section_string_leaves_compare_exactly() {
        // Any fingerprint change fails, no matter how "close".
        assert_eq!(
            differs(
                "crash",
                r#"{"writes":62,"fingerprint":"00aa11bb22cc33dd"}"#,
                r#"{"writes":62,"fingerprint":"00aa11bb22cc33de"}"#,
            ),
            triple(
                "crash/fingerprint",
                "\"00aa11bb22cc33dd\"",
                "\"00aa11bb22cc33de\""
            )
        );
        // A vanished leaf fails loudly too.
        assert_eq!(
            differs(
                "crash",
                r#"{"writes":62,"fingerprint":"00aa11bb22cc33dd"}"#,
                r#"{"writes":62}"#,
            ),
            triple("crash/fingerprint", "\"00aa11bb22cc33dd\"", "absent")
        );
    }

    #[test]
    fn baseline_parses_from_bench_json() {
        let doc = strandfs_testkit::json::validate(
            r#"{"suite":"core","results":[
                {"name":"a/x","samples":20,"iters_per_sample":340,"median_ns":1234.5,
                 "mean_ns":1.0,"p95_ns":2.0,"min_ns":0.5}
            ]}"#,
        );
        let entries = parse_baseline(&doc).expect("parses");
        assert_eq!(entries, vec![entry("a/x", 340, 1234.5)]);
        assert_eq!(entries[0].suite(), "a");
        // A document without results is a loud error.
        let empty = strandfs_testkit::json::validate("{}");
        assert!(parse_baseline(&empty).is_err());
    }
}

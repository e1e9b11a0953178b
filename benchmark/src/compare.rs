//! `compare A.json B.json`: one row per (workload, end-to-end metric)
//! with both medians, the bound, and pass / regressed / unresolved.
//!
//! A host-time metric whose run-to-run spread (quartile distance over
//! median, on either side) is wider than its bound is *unresolved*, not
//! unchanged — unless every run of B reads better than every run of A.
//! A virtual-time metric is exact when both documents ran the same
//! seeds: a worsening of any size is a regression.

use std::fmt::Write as _;

use crate::json::Json;
use crate::spec::{Clock, EndToEnd, WorkloadId, END_TO_END};
use crate::stats::{median, spread};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Pass,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The untraced runs of `workload` in a result document.
fn runs(doc: &Json, workload: WorkloadId) -> Vec<&Json> {
    doc.get("runs")
        .map(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(|r| {
            r.get("workload").and_then(Json::as_str) == Some(workload.name())
                && r.get("traced") == Some(&Json::Bool(false))
        })
        .collect()
}

fn values(runs: &[&Json], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.get("end_to_end")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

fn seeds(runs: &[&Json]) -> Vec<u64> {
    let mut s: Vec<u64> = runs
        .iter()
        .filter_map(|r| r.get("seed")?.as_f64())
        .map(|s| s as u64)
        .collect();
    s.sort_unstable();
    s
}

/// How much worse `b` is than `a`, as a share of `a` (negative when
/// better).
fn worse_by(m: &EndToEnd, a: f64, b: f64) -> f64 {
    let delta = if m.better == "lower" { b - a } else { a - b };
    delta / a.abs().max(f64::MIN_POSITIVE)
}

pub fn judge(m: &EndToEnd, a: &[f64], b: &[f64], same_seeds: bool) -> Verdict {
    let worse = worse_by(m, median(a), median(b));
    if m.clock == Clock::Virtual && same_seeds {
        return if worse > 0.0 {
            Verdict::Regressed
        } else {
            Verdict::Pass
        };
    }
    if spread(a).max(spread(b)) > m.bound {
        let every_b_better = a
            .iter()
            .all(|&x| b.iter().all(|&y| worse_by(m, x, y) < 0.0));
        return if every_b_better {
            Verdict::Pass
        } else {
            Verdict::Unresolved
        };
    }
    if worse > m.bound {
        Verdict::Regressed
    } else {
        Verdict::Pass
    }
}

/// The comparison table, and whether any row regressed.
pub fn compare(a: &Json, b: &Json) -> (String, bool) {
    let mut out = String::new();
    let mut regressed = false;
    let _ = writeln!(
        out,
        "{:<16} {:<22} {:>16} {:>16} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "spreadA", "spreadB", "bound"
    );
    for w in WorkloadId::ALL {
        let (ra, rb) = (runs(a, w), runs(b, w));
        if ra.is_empty() || rb.is_empty() {
            let _ = writeln!(out, "{:<16} missing from one document", w.name());
            continue;
        }
        let same_seeds = seeds(&ra) == seeds(&rb);
        for m in &END_TO_END {
            let (va, vb) = (values(&ra, m.name), values(&rb, m.name));
            let verdict = judge(m, &va, &vb, same_seeds);
            regressed |= verdict == Verdict::Regressed;
            let bound = if m.clock == Clock::Virtual && same_seeds {
                "exact".to_string()
            } else {
                format!("{:.0}%", m.bound * 100.0)
            };
            let _ = writeln!(
                out,
                "{:<16} {:<22} {:>16.6} {:>16.6} {:>7.2}% {:>7.2}% {:>6}  {}",
                w.name(),
                m.name,
                median(&va),
                median(&vb),
                spread(&va) * 100.0,
                spread(&vb) * 100.0,
                bound,
                verdict.label()
            );
        }
        // Counts and virtual-time integers of the first run of each side.
        if same_seeds {
            let same = ["virt", "counts", "fingerprint"]
                .iter()
                .all(|k| ra[0].get(k) == rb[0].get(k));
            regressed |= !same;
            let _ = writeln!(
                out,
                "{:<16} {:<22} {}",
                w.name(),
                "counts+virtual",
                if same { "identical" } else { "DIFFER" }
            );
        } else {
            let _ = writeln!(
                out,
                "{:<16} {:<22} seeds differ: virtual-time metrics judged by their bounds",
                w.name(),
                "counts+virtual"
            );
        }
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> EndToEnd {
        END_TO_END[1] // viewers_per_s, higher is better
    }

    #[test]
    fn a_drop_beyond_the_bound_regresses() {
        let m = host();
        assert_eq!(judge(&m, &[100.0], &[99.0], true), Verdict::Pass);
        assert_eq!(
            judge(&m, &[100.0], &[100.0 * (1.0 - m.bound) - 1.0], true),
            Verdict::Regressed
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_b_always_wins() {
        let m = host();
        let noisy = [60.0, 100.0, 140.0, 180.0];
        assert_eq!(judge(&m, &noisy, &[100.0; 4], true), Verdict::Unresolved);
        assert_eq!(judge(&m, &noisy, &[200.0; 4], true), Verdict::Pass);
    }

    #[test]
    fn virtual_time_is_exact_for_one_seed_and_bounded_across_seeds() {
        let m = END_TO_END[7]; // virt_makespan_s, lower is better
        assert_eq!(judge(&m, &[10.0], &[10.000001], true), Verdict::Regressed);
        assert_eq!(judge(&m, &[10.0], &[10.0], true), Verdict::Pass);
        assert_eq!(judge(&m, &[10.0], &[10.000001], false), Verdict::Pass);
    }
}

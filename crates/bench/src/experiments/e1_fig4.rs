//! **E1 — Figure 4**: variation of the round size `k` with the number of
//! requests `n`.
//!
//! The paper's Figure 4 plots `k(n)` for a homogeneous request mix: `k`
//! grows slowly at small `n`, then diverges as `n` approaches the
//! capacity bound `n_max` (vertical asymptote), beyond which no feasible
//! `k` exists. Both the steady-state curve (Eq. 16) and the
//! transient-safe curve (Eq. 18) are produced.

use crate::table::Table;
use strandfs_core::admission::{Aggregates, RequestSpec};
use strandfs_core::model::DiskParams;

/// The `k(n)` series for a homogeneous mix of `spec` under `env`.
pub struct Fig4 {
    /// `(n, k_steady, k_transient)` for each feasible n.
    pub points: Vec<(usize, u64, u64)>,
    /// The capacity bound (Eq. 17).
    pub n_max: usize,
}

/// Compute the figure's data.
pub fn run(env: &DiskParams, spec: RequestSpec) -> Fig4 {
    let agg1 = Aggregates::compute(env, &[spec]).expect("non-empty");
    let n_max = agg1.n_max();
    let mut points = Vec::new();
    for n in 1..=n_max {
        let specs = vec![spec; n];
        let agg = Aggregates::compute(env, &specs).expect("non-empty");
        let (Some(ks), Some(kt)) = (agg.k_steady(n), agg.k_transient(n)) else {
            break;
        };
        points.push((n, ks, kt));
    }
    Fig4 { points, n_max }
}

/// Render as a table.
pub fn table(env: &DiskParams, spec: RequestSpec) -> Table {
    let fig = run(env, spec);
    let mut t = Table::new(
        "E1 / Figure 4 — round size k vs. number of requests n",
        &["n", "k (Eq.16 steady)", "k (Eq.18 transient-safe)"],
    );
    for (n, ks, kt) in &fig.points {
        t.row(vec![n.to_string(), ks.to_string(), kt.to_string()]);
    }
    t.row(vec![
        format!("{} (= n_max + 1)", fig.n_max + 1),
        "infeasible".into(),
        "infeasible".into(),
    ]);
    t.note(format!(
        "n_max = {} (Eq. 17); k diverges as n → n_max — the paper's hyperbolic shape",
        fig.n_max
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::vintage_env;
    use strandfs_cluster::standard_spec;

    #[test]
    fn k_is_monotone_and_diverges() {
        let fig = run(&vintage_env(), standard_spec());
        assert!(!fig.points.is_empty());
        // Monotone non-decreasing in n.
        for w in fig.points.windows(2) {
            assert!(w[1].1 >= w[0].1);
            assert!(w[1].2 >= w[0].2);
        }
        // Transient k dominates steady k.
        for (_, ks, kt) in &fig.points {
            assert!(kt >= ks);
        }
        // The last feasible k is much larger than the first (divergence).
        let first = fig.points.first().unwrap().2;
        let last = fig.points.last().unwrap().2;
        assert!(
            fig.points.len() == 1 || last > first,
            "expected growth toward the asymptote"
        );
    }

    #[test]
    fn table_renders() {
        let t = table(&vintage_env(), standard_spec());
        let s = t.to_string();
        assert!(s.contains("Figure 4"));
        assert!(s.contains("infeasible"));
    }
}

//! **E5 — Eq. 17**: server capacity `n_max` swept over disk and stream
//! parameters.

use crate::table::Table;
use strandfs_core::admission::{Aggregates, RequestSpec};
use strandfs_core::model::DiskParams;
use strandfs_units::Seconds;

/// `n_max` at a given environment and granularity.
pub fn n_max_at(env: &DiskParams, spec: RequestSpec) -> usize {
    Aggregates::compute(env, &[spec])
        .map(|a| a.n_max())
        .unwrap_or(0)
}

/// Sweep granularity: larger blocks amortize positioning and raise
/// capacity.
pub fn granularity_sweep(env: &DiskParams, base: RequestSpec) -> Vec<(u64, usize)> {
    [1u64, 2, 3, 6, 12, 24, 48]
        .into_iter()
        .map(|q| (q, n_max_at(env, RequestSpec { q, ..base })))
        .collect()
}

/// Sweep average scattering: tighter scattering raises capacity.
pub fn scattering_sweep(env: &DiskParams, spec: RequestSpec) -> Vec<(f64, usize)> {
    [2.0, 5.0, 10.0, 15.0, 25.0, 40.0]
        .into_iter()
        .map(|ms| {
            let env2 = DiskParams {
                l_ds_avg: Seconds::from_millis(ms),
                ..*env
            };
            (ms, n_max_at(&env2, spec))
        })
        .collect()
}

/// Sweep transfer rate: faster disks raise capacity.
pub fn rate_sweep(env: &DiskParams, spec: RequestSpec) -> Vec<(f64, usize)> {
    [1.0, 2.0, 4.0, 8.0]
        .into_iter()
        .map(|mult| {
            let env2 = DiskParams {
                r_dt: env.r_dt * mult,
                ..*env
            };
            (mult, n_max_at(&env2, spec))
        })
        .collect()
}

/// Render all three sweeps in one table set.
pub fn tables(env: &DiskParams, spec: RequestSpec) -> Vec<Table> {
    let mut t1 = Table::new(
        "E5a / Eq. 17 — capacity n_max vs. granularity q",
        &["q (frames/blk)", "n_max"],
    );
    for (q, n) in granularity_sweep(env, spec) {
        t1.row(vec![q.to_string(), n.to_string()]);
    }
    t1.note("larger blocks amortize per-block positioning -> higher capacity");

    let mut t2 = Table::new(
        "E5b — capacity n_max vs. average scattering l_ds_avg",
        &["l_ds_avg (ms)", "n_max"],
    );
    for (ms, n) in scattering_sweep(env, spec) {
        t2.row(vec![format!("{ms:.0}"), n.to_string()]);
    }
    t2.note("tight scattering is capacity: the whole point of constrained allocation");

    let mut t3 = Table::new(
        "E5c — capacity n_max vs. disk transfer rate",
        &["R_dt multiplier", "n_max"],
    );
    for (m, n) in rate_sweep(env, spec) {
        t3.row(vec![format!("{m:.0}x"), n.to_string()]);
    }
    t3.note("transfer-rate gains saturate once positioning dominates beta");
    vec![t1, t2, t3]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::vintage_env;
    use strandfs_cluster::standard_spec;

    #[test]
    fn capacity_monotone_in_each_knob() {
        let env = vintage_env();
        let spec = standard_spec();
        let by_q = granularity_sweep(&env, spec);
        for w in by_q.windows(2) {
            assert!(w[1].1 >= w[0].1, "capacity must grow with q");
        }
        let by_l = scattering_sweep(&env, spec);
        for w in by_l.windows(2) {
            assert!(w[1].1 <= w[0].1, "capacity must shrink with scattering");
        }
        let by_r = rate_sweep(&env, spec);
        for w in by_r.windows(2) {
            assert!(w[1].1 >= w[0].1, "capacity must grow with transfer rate");
        }
    }

    #[test]
    fn vintage_capacity_is_single_digit() {
        // A 1991 disk supports only a handful of NTSC streams — matching
        // the era's prototypes.
        let n = n_max_at(&vintage_env(), standard_spec());
        assert!((1..10).contains(&n), "n_max = {n}");
    }
}

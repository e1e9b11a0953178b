//! E1 / Figure 4: timing of the admission-control round-size computation
//! and regeneration of the full k(n) curve.

use crate::experiments::{e1_fig4, vintage_env};
use std::hint::black_box;
use strandfs_cluster::standard_spec;
use strandfs_core::admission::Aggregates;
use strandfs_testkit::bench::Runner;

/// Register the suite's benchmarks.
pub fn register(c: &mut Runner) {
    let env = vintage_env();
    let spec = standard_spec();

    c.bench_function("fig4/aggregates_n8", |b| {
        let specs = vec![spec; 8];
        b.iter(|| Aggregates::compute(black_box(&env), black_box(&specs)))
    });

    c.bench_function("fig4/k_transient_n8", |b| {
        let agg = Aggregates::compute(&env, &[spec; 8]).unwrap();
        b.iter(|| black_box(&agg).k_transient(black_box(8)))
    });

    c.bench_function("fig4/full_curve", |b| {
        b.iter(|| e1_fig4::run(black_box(&env), black_box(spec)))
    });
}

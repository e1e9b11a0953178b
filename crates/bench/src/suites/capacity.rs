//! E5: the n_max capacity sweeps.

use crate::experiments::{e5_capacity, vintage_env};
use std::hint::black_box;
use strandfs_cluster::standard_spec;
use strandfs_testkit::bench::Runner;

/// Register the suite's benchmarks.
pub fn register(c: &mut Runner) {
    let env = vintage_env();
    let spec = standard_spec();

    c.bench_function("capacity/granularity_sweep", |b| {
        b.iter(|| e5_capacity::granularity_sweep(black_box(&env), black_box(spec)))
    });

    c.bench_function("capacity/scattering_sweep", |b| {
        b.iter(|| e5_capacity::scattering_sweep(black_box(&env), black_box(spec)))
    });
}

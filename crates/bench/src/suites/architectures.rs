//! E3: the continuity-equation sweeps for the three architectures.

use crate::experiments::{e3_architectures, standard_video_stream, vintage_env};
use std::hint::black_box;
use strandfs_testkit::bench::Runner;

/// Register the suite's benchmarks.
pub fn register(c: &mut Runner) {
    let v = standard_video_stream();
    let r_dt = vintage_env().r_dt;

    c.bench_function("architectures/scattering_bounds", |b| {
        b.iter(|| e3_architectures::scattering_bounds(black_box(&v), black_box(r_dt)))
    });

    c.bench_function("architectures/max_rates", |b| {
        b.iter(|| e3_architectures::max_rates(black_box(&v), black_box(r_dt)))
    });
}

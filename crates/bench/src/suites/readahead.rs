//! E4: buffering/read-ahead plans and anti-jitter arithmetic.

use crate::experiments::{e4_buffering, standard_video_stream, vintage_env};
use std::hint::black_box;
use strandfs_testkit::bench::Runner;

/// Register the suite's benchmarks.
pub fn register(c: &mut Runner) {
    let v = standard_video_stream();
    let d = vintage_env();

    c.bench_function("readahead/sweep", |b| {
        b.iter(|| e4_buffering::run(black_box(&v), black_box(&d)))
    });
}

//! E16: simulator scale — wall-clock per full CSCAN playback run at
//! 1k / 10k / 100k concurrent streams.
//!
//! One benchmark per active size (`STRANDFS_SCALE_CAP` caps the sweep;
//! `bench --check` drops baseline entries for capped-out sizes). Each
//! iteration is the whole experiment — volume build, schedule fan-out
//! and the timed service loop — so the measured medians move with the
//! loop's real per-round cost, scheduler noise absorbed by the macro
//! tolerance tier.
//!
//! E16 plays copies of one clip, so its first sweep visits streams in
//! index order. The `titles16` entries spread the streams over sixteen
//! titles instead, where the loop's storage order (first-sweep order)
//! and index order part: they are what fails if the layout is undone.

use crate::experiments::e16_scale;
use std::hint::black_box;
use strandfs_core::rope::edit::MediaSel;
use strandfs_sim::playback::{simulate_playback, PlaybackConfig};
use strandfs_sim::{standard_volume, ClipSpec};
use strandfs_testkit::bench::{Bencher, Runner};
use strandfs_units::Prng;

/// Titles the `titles16` entries spread their streams over.
const TITLES: usize = 16;

/// Register the suite's benchmarks.
pub fn register(c: &mut Runner) {
    let mut g = c.benchmark_group("scale");
    g.sample_size(5);
    for n in e16_scale::active_sizes() {
        g.bench_function(&format!("n{n}_playback"), move |b| {
            b.iter(|| {
                let row = e16_scale::run(n);
                black_box((row.rounds, row.wall))
            })
        });
    }
    // The largest active size again with the windowed monitor attached:
    // the medians of this pair bound the live-monitoring overhead at
    // scale (the acceptance bar is monitored ≤ 1.25x bare).
    if let Some(&n) = e16_scale::active_sizes().last() {
        g.bench_function(&format!("n{n}_playback_monitored"), move |b| {
            b.iter(|| {
                let row = e16_scale::run_monitored(n);
                black_box((row.rounds, row.wall))
            })
        });
    }
    for n in e16_scale::active_sizes()
        .into_iter()
        .filter(|&n| n >= 10_000)
    {
        g.bench_function(&format!("n{n}_titles{TITLES}_playback"), move |b| {
            titles_playback(b, n)
        });
    }
    g.finish();
}

/// `n` streams over [`TITLES`] two-second titles, each stream's title
/// drawn by a seeded [`Prng`], under E16's CSCAN rounds of k = 5. The
/// volume, its schedules and the assignment are built once; an
/// iteration fans the streams out and serves them.
fn titles_playback(b: &mut Bencher, n: usize) {
    let (mut mrs, ropes) =
        standard_volume(&[ClipSpec::video_seconds(2.0); TITLES]).expect("build titles volume");
    let scheds: Vec<_> = ropes
        .iter()
        .map(|r| mrs.schedule(*r, MediaSel::Both).expect("compile schedule"))
        .collect();
    let mut rng = Prng::seed_from_u64(TITLES as u64);
    let titles: Vec<usize> = (0..n).map(|_| rng.gen_range(0..TITLES)).collect();
    b.iter(|| {
        let streams = titles.iter().map(|&t| scheds[t].clone()).collect();
        let cfg = PlaybackConfig::with_k(e16_scale::K).cscan();
        let report = simulate_playback(&mut mrs, streams, cfg).expect("titles simulation");
        black_box(report.rounds)
    });
}

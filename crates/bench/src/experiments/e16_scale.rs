//! **E16 — scale**: raw simulator speed at 1k / 10k / 100k concurrent
//! streams.
//!
//! The paper sizes its multimedia ropes for "several hundred" clients;
//! item 3 of the roadmap asks the *simulator* to get out of the way so
//! round-level experiments can sweep far past that. E16 replays one
//! recorded clip as `n` identical concurrent streams under CSCAN
//! rounds and measures wall-clock per simulated round. The round loop
//! is the system under test here — the virtual-time outcome (rounds,
//! fetches, violations, disk busy time) is deterministic and gate-
//! checked leaf-by-leaf, while the wall-clock side goes through the
//! benchmark runner's noise-tolerant machinery (`suites::scale`).
//!
//! `STRANDFS_SCALE_CAP` bounds the swept sizes (sizes above the cap are
//! skipped) so the tier-1 quick gate stays fast; the committed baseline
//! is always generated uncapped, and `bench --check` skips what
//! [`capped_out`] names — benchmark entries and section leaves alike —
//! instead of reporting it missing.

use std::fmt::Write as _;
use std::time::Duration;

use crate::table::Table;
use strandfs_core::rope::edit::MediaSel;
use strandfs_obs::{MonitorConfig, ObsSink, SloRule, WindowedMonitor};
use strandfs_sim::playback::{simulate_degraded, DegradeMode, ServiceOrder};
use strandfs_sim::{standard_volume, ClipSpec};
use strandfs_units::Nanos;

/// Concurrent-stream population sweep.
pub const SIZES: [usize; 3] = [1_000, 10_000, 100_000];

/// Round size (blocks fetched per stream per round): four CSCAN sweeps
/// over the 20-item clip.
pub const K: u64 = 5;

/// The `STRANDFS_SCALE_CAP` environment variable (absent or
/// unparsable = uncapped).
fn cap() -> Option<usize> {
    std::env::var("STRANDFS_SCALE_CAP")
        .ok()
        .and_then(|v| v.parse().ok())
}

/// The sizes this process actually sweeps: [`SIZES`] bounded by the cap.
pub fn active_sizes() -> Vec<usize> {
    sizes_under_cap(cap())
}

/// [`active_sizes`] as a pure function of the cap, for tests.
pub fn sizes_under_cap(cap: Option<usize>) -> Vec<usize> {
    let cap = cap.unwrap_or(usize::MAX);
    SIZES.iter().copied().filter(|&n| n <= cap).collect()
}

/// The population size a committed name belongs to: `scale/n<size>…`,
/// be it a benchmark (`scale/n100000_playback_monitored`) or a section
/// leaf (`scale/n100000/violations`).
fn size_of(name: &str) -> Option<usize> {
    let rest = name.strip_prefix("scale/n")?;
    let digits = rest.split(|c: char| !c.is_ascii_digit()).next()?;
    digits.parse().ok()
}

/// True when the cap keeps this process from producing `name`, so the
/// gate must not count its absence from a fresh run as a failure.
pub fn capped_out(name: &str) -> bool {
    size_of(name).is_some_and(|n| cap().is_some_and(|cap| n > cap))
}

/// Outcome of one population size.
pub struct Row {
    /// Concurrent streams simulated.
    pub n: usize,
    /// Service rounds the simulation ran.
    pub rounds: u64,
    /// Blocks fetched from the simulated disk (all streams).
    pub fetched: u64,
    /// Continuity violations (deterministic: one shared disk serving
    /// `n` streams is far past `n_max`, so most deadlines blow).
    pub violations: u64,
    /// Total simulated (virtual-time) disk busy time.
    pub disk_busy: Nanos,
    /// Wall-clock time the service loop took, measurement noise and
    /// all. Never part of the deterministic section.
    pub wall: Duration,
}

/// Play `n` concurrent copies of one recorded clip under CSCAN rounds
/// and strict service, timing the service loop.
pub fn run(n: usize) -> Row {
    run_with_obs(n, ObsSink::noop())
}

/// [`run`] with a [`WindowedMonitor`] attached: the full live-health
/// fold (window stats, SLO rules, flight ring) watching every event
/// the loop emits. The virtual-time outcome is identical to [`run`]'s
/// (the zero-perturbation rule); the wall-clock delta *is* the
/// monitoring overhead, which the scale suite's
/// `n<size>_playback_monitored` benchmark tracks next to the bare one.
pub fn run_monitored(n: usize) -> Row {
    let monitor = std::rc::Rc::new(std::cell::RefCell::new(WindowedMonitor::new(
        MonitorConfig::rounds(4)
            .retain(64)
            .ring_cap(4096)
            .rule(SloRule::BurnRate {
                label: "miss-burn",
                short_windows: 1,
                long_windows: 4,
                short_rate: 0.5,
                long_rate: 0.25,
            }),
    )));
    let row = run_with_obs(n, ObsSink::shared(&monitor));
    monitor.borrow_mut().finish();
    row
}

fn run_with_obs(n: usize, obs: ObsSink) -> Row {
    let (mut mrs, ropes) =
        standard_volume(&[ClipSpec::video_seconds(2.0)]).expect("build scale volume");
    mrs.set_obs(obs);
    let sched = mrs
        .schedule(ropes[0], MediaSel::Both)
        .expect("compile schedule");
    let streams: Vec<_> = (0..n).map(|_| sched.clone()).collect();
    let begin = std::time::Instant::now();
    let report = simulate_degraded(
        &mut mrs,
        streams,
        Vec::new(),
        |k| k,
        |_, _| K,
        ServiceOrder::Cscan,
        DegradeMode::Strict,
    )
    .expect("scale simulation");
    let wall = begin.elapsed();
    Row {
        n,
        rounds: report.rounds,
        fetched: report.streams.iter().map(|s| s.fetched).sum(),
        violations: report.total_violations(),
        disk_busy: report.disk_busy,
        wall,
    }
}

/// The deterministic section for `BENCH_core.json`: one object per
/// active size, keyed `n<size>`, wall-clock excluded.
pub fn section_json() -> String {
    section_json_for(&active_sizes())
}

/// [`section_json`] as a pure function of the sizes swept.
pub fn section_json_for(sizes: &[usize]) -> String {
    let mut out = String::from("{");
    for (i, &n) in sizes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let row = run(n);
        let _ = write!(
            out,
            "\"n{}\":{{\"disk_busy_ns\":{},\"fetched\":{},\"rounds\":{},\"violations\":{}}}",
            n,
            row.disk_busy.as_nanos(),
            row.fetched,
            row.rounds,
            row.violations
        );
    }
    out.push('}');
    out
}

/// Render the sweep.
pub fn table() -> Table {
    let mut t = Table::new(
        "E16 / roadmap 3 — simulator scale: wall-clock per simulated round \
         (one clip x n concurrent streams, CSCAN, k=5)",
        &[
            "streams",
            "rounds",
            "wall/round",
            "blocks/s",
            "disk busy (virtual)",
        ],
    );
    for &n in &active_sizes() {
        let row = run(n);
        let wall_ns = row.wall.as_nanos() as u64;
        let per_round = wall_ns / row.rounds.max(1);
        let blocks_per_s = row.fetched as f64 / row.wall.as_secs_f64().max(1e-9);
        t.row(vec![
            row.n.to_string(),
            row.rounds.to_string(),
            Nanos::from_nanos(per_round).to_string(),
            format!("{blocks_per_s:.0}"),
            row.disk_busy.to_string(),
        ]);
    }
    t.note(
        "wall-clock is measurement noise; the committed gate tracks it through bench tolerances",
    );
    t.note("virtual-time columns are deterministic and compared leaf-by-leaf by `bench --check`");
    if let Some(cap) = cap() {
        t.note(format!("sizes capped by STRANDFS_SCALE_CAP={cap}"));
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cap_bounds_the_sweep() {
        assert_eq!(sizes_under_cap(None), vec![1_000, 10_000, 100_000]);
        assert_eq!(sizes_under_cap(Some(10_000)), vec![1_000, 10_000]);
        assert_eq!(sizes_under_cap(Some(999)), Vec::<usize>::new());
        assert_eq!(sizes_under_cap(Some(usize::MAX)), sizes_under_cap(None));
    }

    #[test]
    fn committed_names_carry_their_size() {
        assert_eq!(size_of("scale/n1000_playback"), Some(1_000));
        assert_eq!(size_of("scale/n100000_playback_monitored"), Some(100_000));
        assert_eq!(size_of("scale/n10000/violations"), Some(10_000));
        assert_eq!(size_of("scale/n100000"), Some(100_000));
        assert_eq!(size_of("fsx/n1000"), None);
        assert_eq!(size_of("scale/nothing"), None);
    }

    #[test]
    fn monitored_run_matches_bare_run() {
        let bare = run(SIZES[0]);
        let monitored = run_monitored(SIZES[0]);
        // The monitor observes; it must not perturb the virtual-time
        // outcome.
        assert_eq!(bare.rounds, monitored.rounds);
        assert_eq!(bare.fetched, monitored.fetched);
        assert_eq!(bare.violations, monitored.violations);
        assert_eq!(bare.disk_busy, monitored.disk_busy);
    }

    #[test]
    fn smallest_size_is_deterministic_and_busy() {
        let a = run(SIZES[0]);
        let b = run(SIZES[0]);
        assert_eq!(a.n, 1_000);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.fetched, b.fetched);
        assert_eq!(a.violations, b.violations);
        assert_eq!(a.disk_busy, b.disk_busy);
        // 1 000 streams x 20 items, none dropped: every stored block
        // was fetched exactly once.
        assert_eq!(a.fetched, 1_000 * 20);
        assert!(a.rounds >= 4);
    }
}

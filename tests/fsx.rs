//! The fsx gate: seeded random rope-editing exerciser with model
//! checking (`strandfs_testkit::fsx`), run three ways —
//!
//! 1. byte-reproducibility of a fixed seed (same op log hash, same
//!    final device image hash),
//! 2. a 500+-op sequence composed with a fault plan *and* a crash
//!    point: model-check at every step, Eq. 19/20 copy-bound
//!    enforcement at every healed boundary, fsck-clean remount, and
//!    prefix-consistent recovery,
//! 3. a bounded chaos pass driven by `STRANDFS_TEST_SEED` /
//!    `STRANDFS_FSX_OPS` (the tier-1 entry; any failure panics with
//!    the replay seed).

use strandfs_disk::{CrashPoint, FaultPlan};
use strandfs_testkit::fsx::{run, FsxConfig};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

#[test]
fn fixed_seed_is_byte_reproducible() {
    let cfg = FsxConfig::healthy(11, 120);
    let a = run(&cfg);
    let b = run(&cfg);
    assert_eq!(a, b, "same seed must give same op log and same image");
    assert!(a.ops_applied > 40, "op mix too thin: {a:?}");
    assert!(a.verifies > 0 && a.cells_checked > 10_000);
}

#[test]
fn long_run_with_faults_and_crash_point_recovers() {
    // ≥ 1 fault plan (random read transients) composed with ≥ 1 crash
    // point, over a 500+-op sequence. The transients exercise the
    // retry path under continuous model checking; the crash point ends
    // the run in a power-cycle + journal recovery + convergent fsck +
    // write-intent prefix verification.
    // With seed 23 the stream issues ~22.7k device writes over its first
    // 520 ops and ~24.8k over 560, so a 23k threshold fires shortly past
    // op 520, well inside the 700-op budget.
    let plan = FaultPlan::clean()
        .with_random_transients(0.002, 1)
        .with_crash_point(CrashPoint::AfterWrites(23_000));
    let cfg = FsxConfig::healthy(23, 700).with_plan(plan);
    let out = run(&cfg);
    assert!(out.ops_attempted >= 500, "crashed too early: {out:?}");
    assert!(out.edits >= 50, "edit mix too thin: {out:?}");
    assert!(
        out.boundaries_healed > 0,
        "no boundary healing exercised: {out:?}"
    );
    assert!(
        out.max_copied_per_boundary <= out.max_bound_seen,
        "copy bound violated: {out:?}"
    );
    assert!(out.gc_runs > 0 && out.play_cycles > 0);
    assert!(out.crashed, "crash point never fired: {out:?}");
    let rec = out.recovery.expect("crashed run must recover");
    assert!(
        rec.prefix_verified_strands > 0,
        "recovery verified no strand against its write intent: {rec:?}"
    );
}

#[test]
fn chaos_pass_bounded_by_env() {
    let seed = env_u64("STRANDFS_TEST_SEED", 0x5374_7261_6e64_4653);
    let ops = env_u64("STRANDFS_FSX_OPS", 80);
    let plan = FaultPlan::clean().with_random_transients(0.001, 1);
    let out = run(&FsxConfig::healthy(seed, ops).with_plan(plan));
    // Replay any failure with STRANDFS_TEST_SEED=<seed> (the panic
    // message embeds it); here the run completing is the assertion.
    assert_eq!(out.ops_attempted, ops);
}

//! Exhaustive crash-point sweep: record a journaled scenario, crash at
//! **every** device-write index, power-cycle, remount through journal
//! recovery, and verify the crash-consistency invariants (prefix
//! recovery, durability floors, free-map coverage, fsck-clean,
//! writability). The harness itself lives in `strandfs_testkit::crash`
//! so the E14 bench section reports the same numbers; this test is the
//! tier-1 gate. `STRANDFS_TEST_SEED` reseeds the fault plan for chaos
//! runs.

use strandfs_testkit::crash::{baseline_marks, crash_once, sweep};

fn seed() -> u64 {
    std::env::var("STRANDFS_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(5)
}

#[test]
fn every_crash_point_recovers_to_a_verified_prefix() {
    let s = sweep(seed());
    // One crash point per device write; every one verified inside the
    // harness (any violation panics with the crash index).
    assert_eq!(s.outcomes.len() as u64, s.writes);
    assert!(s.writes > 40, "scenario too small to exercise recovery");
    // The sweep must cover both directions of recovery. (A journaled
    // deletion's replay count is tear-length dependent — the one
    // seed-robust deletion fact, strand 1 staying deleted once its
    // record lands, is asserted inside the harness.)
    assert!(s.blocks_recovered > 0, "no crash point kept journaled work");
    assert!(s.blocks_rolled_back > 0, "no crash point rolled work back");
    assert!(s.completed_strands > 0, "no in-flight strand was completed");
    assert!(s.durable_strands > 0, "no committed strand survived");
}

#[test]
fn sweep_fingerprint_is_stable() {
    let a = sweep(seed());
    let b = sweep(seed());
    assert_eq!(a.fingerprint, b.fingerprint, "sweep images diverged");
    assert_eq!(a.recovery_ns_total, b.recovery_ns_total);
    assert_eq!(a.blocks_recovered, b.blocks_recovered);
}

#[test]
fn sweep_replays_byte_identically_under_one_seed() {
    let marks = baseline_marks(seed());
    // Spot-check three milestones rather than replaying the full sweep
    // twice: crash just before each durability boundary.
    for at in [marks.a_durable - 1, marks.c_deleted - 1, marks.total - 1] {
        let a = crash_once(at, seed(), &marks);
        let b = crash_once(at, seed(), &marks);
        assert_eq!(a.image_hash, b.image_hash, "crash {at} image diverged");
        assert_eq!(a.blocks_recovered, b.blocks_recovered);
        assert_eq!(a.blocks_rolled_back, b.blocks_rolled_back);
    }
}

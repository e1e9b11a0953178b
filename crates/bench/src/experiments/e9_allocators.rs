//! **E9 — §3 motivation**: constrained vs. random vs. contiguous block
//! allocation at equal load.
//!
//! The paper's central storage argument: random allocation leaves block
//! separations unconstrained, so continuity costs buffering (or fails);
//! contiguous allocation guarantees continuity but fragments; constrained
//! allocation bounds separations with neither cost. The experiment
//! records identical clips under each policy and replays the same
//! playback load.

use crate::table::Table;
use strandfs_core::msm::MsmConfig;
use strandfs_core::rope::edit::MediaSel;
use strandfs_disk::{AllocPolicy, DiskGeometry, GapBounds, SeekModel};
use strandfs_sim::playback::{simulate_playback, PlaybackConfig};
use strandfs_sim::{volume_on, ClipSpec};

/// Outcome of one policy run.
pub struct Row {
    /// Policy label.
    pub policy: &'static str,
    /// Continuity violations across all streams.
    pub violations: u64,
    /// Largest buffer backlog any stream needed.
    pub max_buffered: u64,
    /// Fraction of disk busy time spent positioning (seek + rotation).
    pub positioning_fraction: f64,
}

/// Streams played concurrently — near the projected disk's capacity,
/// where placement quality decides continuity.
pub const STREAMS: usize = 8;
/// Round size from the constrained-allocation admission formula; both
/// baselines get the same `k` (the comparison is placement, not
/// scheduling).
pub const K: u64 = 11;

fn run_policy(policy: AllocPolicy, label: &'static str) -> Row {
    let bounds = GapBounds {
        min_sectors: 0,
        max_sectors: 60_000,
    };
    let config = MsmConfig {
        policy,
        ..MsmConfig::constrained(bounds, 9)
    };
    let (mut mrs, ropes) = volume_on(
        DiskGeometry::projected_fast(),
        SeekModel::projected_fast(),
        config,
        &[ClipSpec::video_seconds(8.0); STREAMS],
    )
    .expect("build volume");
    let schedules: Vec<_> = ropes
        .iter()
        .map(|r| mrs.schedule(*r, MediaSel::Both).unwrap())
        .collect();
    let busy_before = mrs.msm().disk().stats().clone();
    let report =
        simulate_playback(&mut mrs, schedules, PlaybackConfig::with_k(K)).expect("simulate");
    let stats = mrs.msm().disk().stats();
    let pos = (stats.seek_time + stats.rotation_time)
        .saturating_sub(busy_before.seek_time + busy_before.rotation_time);
    let busy = stats.busy_time().saturating_sub(busy_before.busy_time());
    Row {
        policy: label,
        violations: report.total_violations(),
        max_buffered: report.max_buffered(),
        positioning_fraction: pos.as_nanos() as f64 / busy.as_nanos().max(1) as f64,
    }
}

/// Run all three policies.
pub fn run() -> Vec<Row> {
    let bounds = GapBounds {
        min_sectors: 0,
        max_sectors: 60_000,
    };
    vec![
        run_policy(AllocPolicy::Constrained { bounds }, "constrained"),
        run_policy(AllocPolicy::Contiguous, "contiguous"),
        run_policy(AllocPolicy::Random, "random"),
    ]
}

/// Render the comparison.
pub fn table() -> Table {
    let mut t = Table::new(
        "E9 / §3 — allocation policies under identical playback load (8 streams, k=11)",
        &[
            "policy",
            "violations",
            "max buffered (blks)",
            "positioning fraction",
        ],
    );
    for r in run() {
        t.row(vec![
            r.policy.to_string(),
            r.violations.to_string(),
            r.max_buffered.to_string(),
            format!("{:.0}%", r.positioning_fraction * 100.0),
        ]);
    }
    t.note("random placement wastes the disk on positioning; constrained matches contiguous");
    t.note("contiguous wins continuity here but pays in fragmentation and edit copying (E7)");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constrained_positions_less_than_random() {
        let rows = run();
        let constrained = &rows[0];
        let random = &rows[2];
        assert!(
            constrained.positioning_fraction < random.positioning_fraction,
            "constrained {} vs random {}",
            constrained.positioning_fraction,
            random.positioning_fraction
        );
    }

    #[test]
    fn constrained_is_continuous_at_formula_load() {
        let rows = run();
        assert_eq!(rows[0].violations, 0, "constrained must play clean");
        assert_eq!(rows[1].violations, 0, "contiguous must play clean");
        // Random may or may not violate outright, but it must never do
        // better than constrained on positioning or buffering.
        assert!(rows[2].max_buffered >= 1);
    }
}

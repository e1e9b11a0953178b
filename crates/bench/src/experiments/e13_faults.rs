//! **E13 — fault injection**: fault-rate sweep × degradation policy.
//!
//! The continuity analysis (Eqs. 1–18) assumes the disk always delivers;
//! real media fault. E13 replays the same two-stream load over a
//! faulting disk at increasing transient-fault rates under two
//! policies — `abandon` (a faulted fetch is dropped immediately) and the
//! degradation ladder (retry within the Eq. 18 slack share, then drop,
//! then revoke through admission control) — and measures miss rate, p99
//! deadline margin, dropped blocks, retries and recovery time. A second
//! targeted scenario corrupts a run of one stream's blocks permanently
//! and checks that revoking the victim shields the healthy stream.
//!
//! Everything runs in virtual time on a seeded fault plan, so the whole
//! section is deterministic: same seed, same numbers.

use std::fmt::Write as _;

use crate::table::Table;
use strandfs_core::mrs::{Mrs, PlaySchedule};
use strandfs_core::rope::edit::MediaSel;
use strandfs_core::{FsError, RopeId};
use strandfs_disk::FaultPlan;
use strandfs_sim::playback::{simulate_playback, DegradeMode, PlaybackConfig};
use strandfs_sim::{faulty_volume, ClipSpec};
use strandfs_units::Nanos;

/// Transient-fault probabilities swept per policy.
pub const RATES: [f64; 4] = [0.0, 0.01, 0.05, 0.2];

/// Streams played concurrently in every cell.
pub const STREAMS: usize = 2;

/// Round size (blocks fetched per stream per round).
const K: u64 = 4;

/// Fault seed — the whole experiment is deterministic under it.
const SEED: u64 = 99;

/// The full degradation ladder used in the sweep and shield scenarios:
/// read-ahead absorbs lateness for free, retries spend the Eq. 18 slack
/// share, four drops in a service interval revoke the stream, and two
/// clean rounds re-admit it.
pub fn ladder() -> DegradeMode {
    DegradeMode::Ladder {
        revoke_after_drops: 4,
        readmit_clean_rounds: 2,
    }
}

/// Outcome of one (fault rate, policy) cell.
pub struct Row {
    /// Transient-fault probability per read.
    pub rate: f64,
    /// Policy label (`"abandon"` or `"ladder"`).
    pub policy: &'static str,
    /// Aggregate deadline-miss rate over all scheduled blocks.
    pub miss_rate: f64,
    /// Worst per-stream p99 deadline margin, ns (negative = late).
    pub p99_margin_ns: i64,
    /// Blocks the policy dropped (spliced into silence/freeze holes).
    pub dropped_blocks: u64,
    /// Transient-fault retries spent.
    pub retries: u64,
    /// Total virtual time streams spent revoked before re-admission.
    pub recovery_time: Nanos,
}

/// Outcome of the targeted bad-media scenario: four of the victim
/// stream's mid-clip blocks on permanently bad sectors, ladder policy.
pub struct Shield {
    /// Deadline misses on the healthy (non-victim) stream.
    pub healthy_violations: u64,
    /// Blocks dropped from the healthy stream.
    pub healthy_dropped: u64,
    /// Times the victim was revoked through admission control.
    pub victim_revokes: u64,
    /// Blocks dropped from the victim stream.
    pub victim_dropped: u64,
    /// Retries spent on the victim before the ladder gave up.
    pub victim_retries: u64,
    /// Virtual time the victim spent revoked before re-admission.
    pub victim_recovery: Nanos,
}

fn schedules(mrs: &Mrs, ropes: &[RopeId]) -> Result<Vec<PlaySchedule>, FsError> {
    ropes
        .iter()
        .map(|r| mrs.schedule(*r, MediaSel::Both))
        .collect()
}

/// Run one sweep cell: record clean, arm random transients that succeed
/// after one retry, play under the given policy.
pub fn run_cell(rate: f64, policy: &'static str, mode: DegradeMode) -> Row {
    let clips = [ClipSpec::video_seconds(4.0); STREAMS];
    let (mut mrs, ropes) = faulty_volume(&clips, SEED).expect("build faulty volume");
    let scheds = schedules(&mrs, &ropes).expect("compile schedules");
    mrs.msm_mut()
        .arm_faults(FaultPlan::clean().with_random_transients(rate, 1));
    let report = simulate_playback(&mut mrs, scheds, PlaybackConfig::with_k(K).degraded(mode))
        .expect("simulate");
    Row {
        rate,
        policy,
        miss_rate: report.miss_rate(),
        p99_margin_ns: report.p99_margin_ns(),
        dropped_blocks: report.total_dropped(),
        retries: report.total_retries(),
        recovery_time: report.recovery_time(),
    }
}

/// Run the full sweep: every rate under both policies, abandon first.
pub fn run_sweep() -> Vec<Row> {
    let mut rows = Vec::new();
    for rate in RATES {
        rows.push(run_cell(rate, "abandon", DegradeMode::Abandon));
        rows.push(run_cell(rate, "ladder", ladder()));
    }
    rows
}

/// Run the shield scenario: permanently corrupt four mid-clip blocks of
/// stream 1 and play both streams under an eager ladder (revoke after
/// two drops, re-admit after two clean rounds).
pub fn run_shield() -> Shield {
    let clips = [ClipSpec::video_seconds(4.0); STREAMS];
    let (mut mrs, ropes) = faulty_volume(&clips, 7).expect("build faulty volume");
    let scheds = schedules(&mrs, &ropes).expect("compile schedules");
    let mut plan = FaultPlan::clean();
    for item in &scheds[1].items[10..14] {
        let e = mrs
            .msm()
            .strand(item.strand)
            .expect("recorded strand")
            .block(item.block)
            .expect("scheduled block")
            .expect("video schedules have no silence holes");
        plan = plan.with_bad_extent(e);
    }
    mrs.msm_mut().arm_faults(plan);
    let report = simulate_playback(
        &mut mrs,
        scheds,
        PlaybackConfig::with_k(6).degraded(DegradeMode::Ladder {
            revoke_after_drops: 2,
            readmit_clean_rounds: 2,
        }),
    )
    .expect("simulate");
    let healthy = &report.streams[0];
    let victim = &report.streams[1];
    Shield {
        healthy_violations: healthy.violations,
        healthy_dropped: healthy.dropped_blocks,
        victim_revokes: victim.revokes,
        victim_dropped: victim.dropped_blocks,
        victim_retries: victim.retries,
        victim_recovery: victim.recovery_time,
    }
}

/// The `sections/faults` JSON merged into `BENCH_core.json`: the sweep
/// rows plus the shield scenario. Deterministic under the fixed seeds.
pub fn section_json() -> String {
    let mut out = String::from("{\"sweep\":[");
    for (i, r) in run_sweep().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            concat!(
                "{{\"rate\":{:.3},\"policy\":\"{}\",\"miss_rate\":{:.9},",
                "\"p99_margin_ns\":{},\"dropped_blocks\":{},\"retries\":{},",
                "\"recovery_time_ns\":{}}}"
            ),
            r.rate,
            r.policy,
            r.miss_rate,
            r.p99_margin_ns,
            r.dropped_blocks,
            r.retries,
            r.recovery_time.as_nanos(),
        );
    }
    let s = run_shield();
    let _ = write!(
        out,
        concat!(
            "],\"shield\":{{\"policy\":\"ladder\",\"healthy_violations\":{},",
            "\"healthy_dropped\":{},\"victim_revokes\":{},\"victim_dropped\":{},",
            "\"victim_retries\":{},\"victim_recovery_ns\":{}}}}}"
        ),
        s.healthy_violations,
        s.healthy_dropped,
        s.victim_revokes,
        s.victim_dropped,
        s.victim_retries,
        s.victim_recovery.as_nanos(),
    );
    out
}

/// Render the sweep and the shield scenario.
pub fn table() -> Table {
    let rows = run_sweep();
    let mut t = Table::new(
        "E13 — fault-rate sweep × degradation policy \
         (2 streams, k=4, transients succeed after one retry)",
        &[
            "rate",
            "policy",
            "miss rate",
            "p99 margin",
            "dropped",
            "retries",
            "recovery",
        ],
    );
    for r in &rows {
        t.row(vec![
            format!("{:.2}", r.rate),
            r.policy.to_string(),
            format!("{:.4}", r.miss_rate),
            format!("{} ns", r.p99_margin_ns),
            r.dropped_blocks.to_string(),
            r.retries.to_string(),
            r.recovery_time.to_string(),
        ]);
    }
    let s = run_shield();
    t.note(format!(
        "shield (4 blocks on bad media): healthy stream {} misses / {} drops; victim revoked \
         {}x, dropped {}, re-admitted after {}",
        s.healthy_violations,
        s.healthy_dropped,
        s.victim_revokes,
        s.victim_dropped,
        s.victim_recovery
    ));
    t.note(
        "abandon turns every transient fault into a hole; the ladder's Eq. 18 slack share \
         buys the retry that recovers it",
    );
    t.note("revocation converts a failing stream's round time into headroom for the others");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_beats_abandon_by_an_order_of_magnitude() {
        let abandon = run_cell(0.2, "abandon", DegradeMode::Abandon);
        let ladder_row = run_cell(0.2, "ladder", ladder());
        assert!(
            abandon.dropped_blocks >= 10 * ladder_row.dropped_blocks.max(1),
            "abandon dropped {} vs ladder {}",
            abandon.dropped_blocks,
            ladder_row.dropped_blocks
        );
        assert!(ladder_row.retries > 0, "ladder must spend retries");
        assert_eq!(abandon.retries, 0, "abandon never retries");
    }

    #[test]
    fn clean_cells_are_identical_across_policies() {
        let a = run_cell(0.0, "abandon", DegradeMode::Abandon);
        let l = run_cell(0.0, "ladder", ladder());
        for r in [&a, &l] {
            assert_eq!(r.dropped_blocks, 0);
            assert_eq!(r.retries, 0);
            assert_eq!(r.recovery_time, Nanos::ZERO);
        }
        assert_eq!(a.miss_rate, l.miss_rate);
        assert_eq!(a.p99_margin_ns, l.p99_margin_ns);
    }

    #[test]
    fn revocation_shields_the_healthy_stream() {
        let s = run_shield();
        assert_eq!(s.healthy_violations, 0, "non-victim must stay continuous");
        assert_eq!(s.healthy_dropped, 0);
        assert!(s.victim_revokes >= 1);
        assert!(s.victim_dropped >= 2);
        assert!(
            s.victim_recovery > Nanos::ZERO,
            "victim must be re-admitted"
        );
    }

    #[test]
    fn section_json_is_balanced_and_deterministic() {
        let json = section_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(!json.contains("NaN"));
        assert_eq!(json, section_json(), "same seed must give same bytes");
    }
}

//! The instrumented reference run whose observability capture is merged
//! into `BENCH_core.json`.
//!
//! One end-to-end session over the vintage-1991 disk — record four
//! clips, admit playback requests until the controller rejects one, and
//! play the admitted set to completion — with a ring recorder attached,
//! so the emitted report carries per-op disk timing breakdowns
//! (seek / rotation / transfer), allocation gap statistics, admission
//! decision counters with Eq. 18 slack, and deadline-margin histograms.
//!
//! Beside the capture (`sections/obs`) and the derived continuity-SLO
//! document (`sections/slo`), [`capture_full`] keeps the simulation's
//! own [`SimReport`], so the bench
//! regression gate can cross-check that the two independent accountings
//! (the event stream folded by `strandfs-obs`, the completion bookkeeping
//! inside `strandfs-sim`) agree.

use strandfs_core::mrs::Mrs;
use strandfs_core::msm::{Msm, MsmConfig};
use strandfs_core::rope::edit::{Interval, MediaSel};
use strandfs_disk::{DiskGeometry, GapBounds, SeekModel, SimDisk};
use strandfs_obs::ObsSink;
use strandfs_sim::playback::{simulate_playback, PlaybackConfig};
use strandfs_sim::{record_clip, ClipSpec, SimReport};

/// Clips recorded (and offered for playback) by the reference run. The
/// vintage disk admits fewer, so the tail requests exercise rejection.
pub const CLIPS: usize = 4;

/// Everything the instrumented reference run produced.
pub struct Capture {
    /// The observability capture ([`strandfs_obs::RingRecorder::to_json`]).
    pub obs_json: String,
    /// The continuity SLO report derived from the simulation
    /// ([`SimReport::slo_json`]).
    pub slo_json: String,
    /// The simulation's own report (independent of the event stream).
    pub report: SimReport,
    /// Late deadline events as counted by the obs fold.
    pub obs_deadline_late: u64,
    /// Deadline events seen by the obs fold.
    pub obs_deadline_blocks: u64,
    /// Rounds started as counted by the obs fold.
    pub obs_rounds: u64,
}

/// Run the instrumented session and return the full capture.
pub fn capture_full() -> Capture {
    let disk = SimDisk::new(DiskGeometry::vintage_1991(), SeekModel::vintage_1991());
    let mut mrs = Mrs::new(Msm::new(
        disk,
        MsmConfig::constrained(
            GapBounds {
                min_sectors: 0,
                max_sectors: 40_000,
            },
            1,
        ),
    ));
    let (sink, rec) = ObsSink::ring(1 << 18);
    mrs.set_obs(sink);

    let ropes: Vec<_> = (0..CLIPS)
        .map(|i| {
            record_clip(&mut mrs, &ClipSpec::video_seconds(4.0).with_seed(i as u64))
                .expect("record clip")
        })
        .collect();

    // Admit until the controller says no; the rejection is part of the
    // capture.
    let mut schedules = Vec::new();
    for r in &ropes {
        let dur = mrs.rope(*r).expect("recorded rope").duration();
        match mrs.play("bench", *r, MediaSel::Both, Interval::whole(dur)) {
            Ok((_req, s)) => schedules.push(s),
            Err(_) => break,
        }
    }

    let k = mrs.msm().admission_ref().k().max(1);
    let report =
        simulate_playback(&mut mrs, schedules, PlaybackConfig::with_k(k)).expect("simulate");

    let rec = rec.borrow();
    let tally = &rec.metrics().tally;
    Capture {
        obs_json: rec.to_json(),
        slo_json: report.slo_json(),
        obs_deadline_late: tally.deadline_late,
        obs_deadline_blocks: tally.deadline_blocks,
        obs_rounds: tally.rounds,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_contains_all_layers() {
        let cap = capture_full();
        let json = &cap.obs_json;
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        for section in [
            "\"disk\"",
            "\"alloc\"",
            "\"admission\"",
            "\"rounds\"",
            "\"deadlines\"",
        ] {
            assert!(json.contains(section), "missing {section} in {json}");
        }
        // The two independent accountings agree.
        assert_eq!(cap.obs_deadline_late, cap.report.total_violations());
        assert_eq!(cap.obs_rounds, cap.report.rounds);
    }
}

//! Admission control against the simulator: the formulas' promises hold
//! when measured.

use strandfs::core::admission::{Aggregates, RequestSpec};
use strandfs::core::mrs::compile_schedule;
use strandfs::core::msm::MsmConfig;
use strandfs::core::rope::edit::{Interval, MediaSel};
use strandfs::core::FsError;
use strandfs::disk::{DiskGeometry, GapBounds, SeekModel};
use strandfs::sim::playback::{simulate_playback, PlaybackConfig};
use strandfs::sim::{volume_on, ClipSpec};
use strandfs::units::{Bits, Instant};

fn projected_volume(n: usize) -> strandfs::sim::Volume {
    volume_on(
        DiskGeometry::projected_fast(),
        SeekModel::projected_fast(),
        MsmConfig::constrained(
            GapBounds {
                min_sectors: 0,
                max_sectors: 120_000,
            },
            2,
        ),
        &vec![ClipSpec::video_seconds(6.0); n],
    )
    .expect("build volume")
}

fn spec() -> RequestSpec {
    RequestSpec {
        q: 3,
        unit_bits: Bits::new(96_000),
        unit_rate: 30.0,
    }
}

#[test]
fn every_admitted_set_size_plays_continuously() {
    // For each n up to n_max, the Eq. 18 k yields zero violations.
    let (mrs_probe, _) = projected_volume(1);
    let env = *mrs_probe.msm().admission_ref().env();
    let n_max = Aggregates::compute(&env, &[spec()]).unwrap().n_max();
    assert!(n_max >= 4, "projected disk should hold several streams");
    for n in [1, n_max / 2, n_max] {
        let n = n.max(1);
        let (mut mrs, ropes) = projected_volume(n);
        let schedules: Vec<_> = ropes
            .iter()
            .map(|r| {
                let rope = mrs.rope(*r).unwrap().clone();
                let mut s =
                    compile_schedule(&rope, MediaSel::Both, Interval::whole(rope.duration()))
                        .unwrap();
                mrs.resolve_silence(&mut s).unwrap();
                s
            })
            .collect();
        let agg = Aggregates::compute(&env, &vec![spec(); n]).unwrap();
        let k = agg.k_transient(n).unwrap();
        let report =
            simulate_playback(&mut mrs, schedules, PlaybackConfig::with_k(k)).expect("simulate");
        assert!(
            report.all_continuous(),
            "n = {n}, k = {k}: {} violations",
            report.total_violations()
        );
    }
}

#[test]
fn beyond_n_max_is_rejected_by_the_server() {
    let (mut mrs, ropes) = projected_volume(12);
    let mut admitted = 0;
    let mut rejection: Option<FsError> = None;
    for r in &ropes {
        let rope = mrs.rope(*r).unwrap().clone();
        match mrs.play("c", *r, MediaSel::Both, Interval::whole(rope.duration())) {
            Ok(_) => admitted += 1,
            Err(e) => {
                rejection = Some(e);
                break;
            }
        }
    }
    let env = *mrs.msm().admission_ref().env();
    let n_max = Aggregates::compute(&env, &[spec()]).unwrap().n_max();
    assert_eq!(admitted, n_max, "server must admit exactly n_max");
    assert!(matches!(rejection, Some(FsError::AdmissionRejected { .. })));
}

#[test]
fn destructive_pause_frees_a_slot_for_others() {
    let (mut mrs, ropes) = projected_volume(12);
    // Fill the server.
    let mut reqs = Vec::new();
    for r in &ropes {
        let rope = mrs.rope(*r).unwrap().clone();
        match mrs.play("c", *r, MediaSel::Both, Interval::whole(rope.duration())) {
            Ok((req, _)) => reqs.push(req),
            Err(_) => break,
        }
    }
    let full = reqs.len();
    // One more is rejected...
    let rope = mrs.rope(ropes[full]).unwrap().clone();
    assert!(mrs
        .play(
            "x",
            ropes[full],
            MediaSel::Both,
            Interval::whole(rope.duration())
        )
        .is_err());
    // ...until a client pauses destructively.
    mrs.pause(reqs[0], true).unwrap();
    let (new_req, _) = mrs
        .play(
            "x",
            ropes[full],
            MediaSel::Both,
            Interval::whole(rope.duration()),
        )
        .unwrap();
    // The paused client now cannot resume (its slot is gone).
    assert!(matches!(
        mrs.resume(reqs[0]),
        Err(FsError::AdmissionRejected { .. })
    ));
    // After the newcomer stops, resume succeeds.
    mrs.stop(new_req, Instant::EPOCH).unwrap();
    mrs.resume(reqs[0]).unwrap();
}

#[test]
fn k_grows_with_admissions_and_shrinks_with_releases() {
    let (mut mrs, ropes) = projected_volume(6);
    let mut reqs = Vec::new();
    let mut last_k = 0;
    for r in &ropes {
        let rope = mrs.rope(*r).unwrap().clone();
        let (req, _) = mrs
            .play("c", *r, MediaSel::Both, Interval::whole(rope.duration()))
            .unwrap();
        reqs.push(req);
        let k = mrs.msm().admission_ref().k();
        assert!(k >= last_k, "k must not shrink on admission");
        last_k = k;
    }
    let k_full = mrs.msm().admission_ref().k();
    for req in reqs {
        mrs.stop(req, Instant::EPOCH).unwrap();
    }
    assert_eq!(mrs.msm().admission_ref().k(), 0);
    assert!(k_full >= 1);
}

#[test]
fn mixed_media_tightens_capacity() {
    // Audio blocks play for 100 ms too, but AV ropes consume two
    // admission slots, halving the stream count.
    let (mut mrs, ropes) = volume_on(
        DiskGeometry::projected_fast(),
        SeekModel::projected_fast(),
        MsmConfig::constrained(
            GapBounds {
                min_sectors: 0,
                max_sectors: 120_000,
            },
            2,
        ),
        &vec![ClipSpec::av_seconds(4.0); 12],
    )
    .expect("build volume");
    let mut av_admitted = 0;
    for r in &ropes {
        let rope = mrs.rope(*r).unwrap().clone();
        match mrs.play("c", *r, MediaSel::Both, Interval::whole(rope.duration())) {
            Ok(_) => av_admitted += 1,
            Err(_) => break,
        }
    }
    let env = *mrs.msm().admission_ref().env();
    let video_only_n_max = Aggregates::compute(&env, &[spec()]).unwrap().n_max();
    assert!(
        av_admitted < video_only_n_max,
        "AV ropes ({av_admitted}) must admit fewer than video-only ({video_only_n_max})"
    );
    assert!(av_admitted >= 1);
}

//! An interactive-style jukebox session: PAUSE / RESUME semantics,
//! trigger captions, fast-forward and slow motion — the user-facing
//! operations of §4.1 and §3.3.2.
//!
//! ```text
//! cargo run --release --example jukebox
//! ```

use strandfs::core::mrs::{apply_play_mode, compile_schedule};
use strandfs::core::msm::MsmConfig;
use strandfs::core::rope::edit::{Interval, MediaSel};
use strandfs::core::rope::AccessList;
use strandfs::core::FsError;
use strandfs::disk::{DiskGeometry, GapBounds, SeekModel};
use strandfs::sim::playback::{simulate_playback, PlaybackConfig};
use strandfs::sim::{volume_on, ClipSpec};
use strandfs::units::{Instant, Nanos};

fn main() {
    // Two tracks in the jukebox, on the projected-future disk.
    let (mut mrs, ropes) = volume_on(
        DiskGeometry::projected_fast(),
        SeekModel::projected_fast(),
        MsmConfig::constrained(
            GapBounds {
                min_sectors: 0,
                max_sectors: 120_000,
            },
            11,
        ),
        &[
            ClipSpec::av_seconds(8.0).with_seed(70),
            ClipSpec::av_seconds(8.0).with_seed(71),
        ],
    )
    .expect("build volume");
    let (track_a, track_b) = (ropes[0], ropes[1]);
    mrs.add_trigger("sim", track_a, Nanos::from_secs(0), "Track A — intro")
        .unwrap();
    mrs.add_trigger("sim", track_a, Nanos::from_secs(4), "Track A — chorus")
        .unwrap();
    // The owner opens play access and keeps editing to themselves.
    mrs.set_access(
        "sim",
        track_a,
        AccessList::everyone(),
        AccessList::only(&[]),
    )
    .unwrap();

    // Listener 1 starts track A; the schedule carries the captions.
    let dur = mrs.rope(track_a).unwrap().duration();
    let (req_a, schedule_a) = mrs
        .play("listener-1", track_a, MediaSel::Both, Interval::whole(dur))
        .unwrap();
    println!(
        "listener-1: playing track A ({} blocks, captions: {:?})",
        schedule_a.items.len(),
        schedule_a
            .triggers
            .iter()
            .map(|t| format!("{} @ {}", t.text, t.at))
            .collect::<Vec<_>>()
    );

    // They pause destructively (leaving the listening booth)...
    mrs.pause(req_a, true).unwrap();
    println!("listener-1: destructive PAUSE — server slots released");

    // ...which lets a crowd in; the server fills to capacity.
    let mut crowd = Vec::new();
    loop {
        let dur_b = mrs.rope(track_b).unwrap().duration();
        match mrs.play(
            &format!("crowd-{}", crowd.len()),
            track_b,
            MediaSel::Both,
            Interval::whole(dur_b),
        ) {
            Ok((req, _)) => crowd.push(req),
            Err(FsError::AdmissionRejected { active, n_max }) => {
                println!("server full: {active} streams in service (capacity {n_max})");
                break;
            }
            Err(e) => panic!("unexpected {e}"),
        }
    }

    // Listener 1 cannot resume until someone leaves.
    match mrs.resume(req_a) {
        Err(FsError::AdmissionRejected { .. }) => {
            println!("listener-1: RESUME rejected while the crowd plays")
        }
        other => panic!("expected rejection, got {other:?}"),
    }
    let leaver = crowd.pop().unwrap();
    mrs.stop(leaver, Instant::EPOCH).unwrap();
    mrs.resume(req_a).unwrap();
    println!("listener-1: RESUME admitted after a slot freed");

    // Scrub controls: preview track A at 4x with skipping, then replay
    // the chorus in slow motion.
    let base = mrs.schedule(track_a, MediaSel::Video).unwrap();
    let preview = apply_play_mode(&base, 4.0, true);
    println!(
        "4x skip preview: {} of {} blocks fetched, {} wall time",
        preview.items.len(),
        base.items.len(),
        preview.duration
    );
    let chorus = compile_schedule(
        mrs.rope(track_a).unwrap(),
        MediaSel::Video,
        Interval::new(Nanos::from_secs(4), Nanos::from_secs(2)),
    )
    .unwrap();
    let mut slow = apply_play_mode(&chorus, 0.5, false);
    mrs.resolve_silence(&mut slow).unwrap();

    // Both special modes play continuously on this volume.
    for (label, sched) in [("4x-skip", preview), ("0.5x chorus", slow)] {
        let report =
            simulate_playback(&mut mrs, vec![sched], PlaybackConfig::with_k(2)).expect("simulate");
        println!(
            "{label}: {} violations, buffer high-water {} blocks",
            report.total_violations(),
            report.max_buffered()
        );
        assert!(report.all_continuous());
    }

    // Tidy up.
    for req in crowd {
        mrs.stop(req, Instant::EPOCH).unwrap();
    }
    mrs.stop(req_a, Instant::EPOCH).unwrap();
    assert_eq!(mrs.msm().admission_ref().active(), 0);
    println!("OK — sessions, captions and scrub modes all behave.");
}

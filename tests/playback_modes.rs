//! Fast-forward, slow motion, heterogeneous blocks and strand
//! reorganization — the paper's §3.3.2 / §3.3.3 / §6.2 features,
//! exercised end to end.

use strandfs::core::mrs::{apply_play_mode, compile_schedule};
use strandfs::core::msm::Fetch;
use strandfs::core::rope::edit::{Interval, MediaSel};
use strandfs::core::strand::hetero::HeteroBlock;
use strandfs::core::strand::StrandMeta;
use strandfs::media::Medium;
use strandfs::sim::playback::{simulate_playback, PlaybackConfig};
use strandfs::sim::{standard_volume, ClipSpec};
use strandfs::units::{Bits, Instant, Nanos};

#[test]
fn fast_forward_with_skip_stays_continuous_at_normal_k() {
    // 2× FF with skipping fetches at the normal rate; the same k that
    // sustains normal playback sustains it.
    let (mut mrs, ropes) = standard_volume(&[ClipSpec::video_seconds(8.0)]).expect("build volume");
    let rope = mrs.rope(ropes[0]).unwrap().clone();
    let base = compile_schedule(&rope, MediaSel::Video, Interval::whole(rope.duration())).unwrap();
    let mut ff = apply_play_mode(&base, 2.0, true);
    mrs.resolve_silence(&mut ff).unwrap();
    assert_eq!(ff.items.len(), base.items.len() / 2);
    let report =
        simulate_playback(&mut mrs, vec![ff], PlaybackConfig::with_k(2)).expect("simulate");
    assert!(report.all_continuous());
}

#[test]
fn fast_forward_without_skip_needs_more_bandwidth() {
    // At 4× without skipping on the vintage disk (block transfer
    // ≈ 20.6 ms vs a 25 ms accelerated deadline), continuity collapses;
    // the same clip at 1× is clean. This is the paper's asymmetry
    // between the two fast-forward flavours.
    let (mut mrs, ropes) = standard_volume(&[ClipSpec::video_seconds(8.0)]).expect("build volume");
    let rope = mrs.rope(ropes[0]).unwrap().clone();
    let base = compile_schedule(&rope, MediaSel::Video, Interval::whole(rope.duration())).unwrap();

    let mut normal = base.clone();
    mrs.resolve_silence(&mut normal).unwrap();
    let ok =
        simulate_playback(&mut mrs, vec![normal], PlaybackConfig::with_k(2)).expect("simulate");
    assert!(ok.all_continuous());

    let mut ff4 = apply_play_mode(&base, 4.0, false);
    mrs.resolve_silence(&mut ff4).unwrap();
    let report = simulate_playback(
        &mut mrs,
        vec![ff4],
        PlaybackConfig {
            read_ahead: 2,
            ..PlaybackConfig::with_k(2)
        },
    )
    .expect("simulate");
    assert!(
        report.total_violations() > 0,
        "4x no-skip should overwhelm the vintage disk"
    );
}

#[test]
fn slow_motion_accumulates_buffers() {
    // §3.3.2: when blocks are displayed slower than retrieved, media
    // accumulates in buffers — the open-loop simulator measures the
    // accumulation directly.
    let (mut mrs, ropes) = standard_volume(&[ClipSpec::video_seconds(8.0)]).expect("build volume");
    let rope = mrs.rope(ropes[0]).unwrap().clone();
    let base = compile_schedule(&rope, MediaSel::Video, Interval::whole(rope.duration())).unwrap();
    let mut normal = base.clone();
    mrs.resolve_silence(&mut normal).unwrap();
    let normal_report =
        simulate_playback(&mut mrs, vec![normal], PlaybackConfig::with_k(2)).expect("simulate");

    let mut slow = apply_play_mode(&base, 0.25, false);
    mrs.resolve_silence(&mut slow).unwrap();
    let slow_report =
        simulate_playback(&mut mrs, vec![slow], PlaybackConfig::with_k(2)).expect("simulate");
    assert!(slow_report.all_continuous());
    assert!(
        slow_report.streams[0].max_buffered > normal_report.streams[0].max_buffered,
        "slow motion must accumulate ({} vs {})",
        slow_report.streams[0].max_buffered,
        normal_report.streams[0].max_buffered
    );
}

#[test]
fn heterogeneous_blocks_store_and_separate_through_msm() {
    // §3.3.3: one disk block carries both media; a single fetch yields
    // implicit synchronization.
    let (mut mrs, _ropes) = standard_volume(&[]).expect("build volume");
    let msm = mrs.msm_mut();
    let meta = StrandMeta {
        medium: Medium::Video, // video paces a heterogeneous strand
        unit_rate: 30.0,
        granularity: 3,
        unit_bits: Bits::new(96_000 + 800 * 8 / 3 + 64),
    };
    let id = msm.begin_strand(meta);
    let mut t = Instant::EPOCH;
    let mut originals = Vec::new();
    for i in 0..20u64 {
        let block = HeteroBlock {
            video: vec![i as u8; 36_000],
            audio: vec![(i * 2) as u8; 800],
        };
        let (_, op) = msm.append_block(id, t, &block.encode(), 3).unwrap();
        t = op.completed;
        originals.push(block);
    }
    msm.finish_strand(id, t).unwrap();
    for (i, original) in originals.iter().enumerate() {
        let (payload, _) = msm.read_block(id, i as u64, t, Fetch::default()).unwrap();
        let decoded = HeteroBlock::decode(&payload.unwrap()).unwrap();
        assert_eq!(&decoded, original, "block {i}");
    }
}

#[test]
fn reorganized_volume_still_plays() {
    let (mut mrs, ropes) = standard_volume(&[ClipSpec::av_seconds(4.0)]).expect("build volume");
    let rope = mrs.rope(ropes[0]).unwrap().clone();
    let video_strand = rope.segments[0].video.unwrap().strand;
    let audio_strand = rope.segments[0].audio.unwrap().strand;
    let new_video = mrs.reorganize_strand(video_strand, Instant::EPOCH).unwrap();
    let new_audio = mrs.reorganize_strand(audio_strand, Instant::EPOCH).unwrap();
    assert_ne!(new_video, video_strand);
    assert_ne!(new_audio, audio_strand);
    // Audio silence holes survive reorganization.
    let s = mrs.msm().strand(new_audio).unwrap();
    assert!(s.silence_fraction() > 0.0);
    // Playback still continuous.
    let rope = mrs.rope(ropes[0]).unwrap().clone();
    let mut sched =
        compile_schedule(&rope, MediaSel::Both, Interval::whole(rope.duration())).unwrap();
    mrs.resolve_silence(&mut sched).unwrap();
    let report =
        simulate_playback(&mut mrs, vec![sched], PlaybackConfig::with_k(2)).expect("simulate");
    assert!(report.all_continuous());
}

#[test]
fn skip_deadline_spacing_is_block_duration() {
    let (mrs, ropes) = standard_volume(&[ClipSpec::video_seconds(4.0)]).expect("build volume");
    let rope = mrs.rope(ropes[0]).unwrap().clone();
    let base = compile_schedule(&rope, MediaSel::Video, Interval::whole(rope.duration())).unwrap();
    for speed in [2.0, 3.0, 4.0] {
        let ff = apply_play_mode(&base, speed, true);
        for w in ff.items.windows(2) {
            assert_eq!(
                w[1].at - w[0].at,
                Nanos::from_millis(100),
                "speed {speed}: fetch cadence must stay one block duration"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Destructive pause / resume interacting with concurrent playback
// (§"PAUSE/RESUME": a destructive pause releases its admission slots to
// other clients; RESUME re-runs admission and may lose them).
// ---------------------------------------------------------------------

#[test]
fn destructive_pause_frees_slots_a_concurrent_stream_can_take() {
    use strandfs::core::FsError;

    let (mut mrs, ropes) = standard_volume(&[ClipSpec::av_seconds(3.0)]).expect("build volume");
    let rope = ropes[0];
    let dur = mrs.rope(rope).unwrap().duration();
    let iv = Interval::whole(dur);
    // Saturate admission with concurrent plays of the same rope.
    let mut live = Vec::new();
    loop {
        match mrs.play("sim", rope, MediaSel::Both, iv) {
            Ok((req, _)) => live.push(req),
            Err(FsError::AdmissionRejected { .. }) => break,
            Err(e) => panic!("unexpected {e}"),
        }
        assert!(live.len() < 200, "admission never rejected");
    }
    let victim = live.pop().expect("server admitted at least one stream");
    // A non-destructive pause keeps the reservation: still full.
    mrs.pause(victim, false).unwrap();
    assert!(matches!(
        mrs.play("sim", rope, MediaSel::Both, iv),
        Err(FsError::AdmissionRejected { .. })
    ));
    mrs.resume(victim).unwrap();
    // A destructive pause frees the slots: an interloper is admitted.
    mrs.pause(victim, true).unwrap();
    let (interloper, _) = mrs
        .play("sim", rope, MediaSel::Both, iv)
        .expect("released slots must be admittable");
    // The victim's RESUME re-runs admission — and loses while the
    // interloper holds the capacity…
    assert!(matches!(
        mrs.resume(victim),
        Err(FsError::AdmissionRejected { .. })
    ));
    // …but the session survives the failed resume, still paused.
    let (_, _, _, paused) = mrs.play_info(victim).unwrap();
    assert!(paused, "failed RESUME must leave the session paused");
    // Once the interloper stops, the resume goes through.
    mrs.stop(interloper, Instant::EPOCH).unwrap();
    mrs.resume(victim).unwrap();
    let (_, _, _, paused) = mrs.play_info(victim).unwrap();
    assert!(!paused);
    for r in live {
        mrs.stop(r, Instant::EPOCH).unwrap();
    }
    mrs.stop(victim, Instant::EPOCH).unwrap();
}

#[test]
fn interloper_playback_is_continuous_while_victim_paused() {
    // The freed slots are genuinely usable: while the victim is
    // destructively paused, the interloper's stream plays end-to-end
    // continuously, and after it finishes the resumed victim does too.
    let (mut mrs, ropes) = standard_volume(&[
        ClipSpec::av_seconds(4.0),
        ClipSpec::av_seconds(4.0).with_seed(9),
    ])
    .expect("build volume");
    let (va, vb) = (ropes[0], ropes[1]);
    let dur = mrs.rope(va).unwrap().duration();
    let (victim, _) = mrs
        .play("sim", va, MediaSel::Both, Interval::whole(dur))
        .unwrap();
    mrs.pause(victim, true).unwrap();

    let rb = mrs.rope(vb).unwrap().clone();
    let mut sched = compile_schedule(&rb, MediaSel::Both, Interval::whole(rb.duration())).unwrap();
    mrs.resolve_silence(&mut sched).unwrap();
    let report = simulate_playback(&mut mrs, vec![sched], PlaybackConfig::with_k(2))
        .expect("interloper simulate");
    assert!(report.all_continuous());

    mrs.resume(victim).unwrap();
    let ra = mrs.rope(va).unwrap().clone();
    let mut sched = compile_schedule(&ra, MediaSel::Both, Interval::whole(ra.duration())).unwrap();
    mrs.resolve_silence(&mut sched).unwrap();
    let report = simulate_playback(&mut mrs, vec![sched], PlaybackConfig::with_k(2))
        .expect("victim simulate");
    assert!(report.all_continuous());
    mrs.stop(victim, Instant::EPOCH).unwrap();
}

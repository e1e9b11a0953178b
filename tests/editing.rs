//! Cross-crate editing scenarios: every rope operation against real
//! recorded strands, with healing, interest-based GC and payload
//! identity.

use strandfs::core::mrs::compile_schedule;
use strandfs::core::rope::edit::{Interval, MediaSel};
use strandfs::core::FsError;
use strandfs::sim::playback::{simulate_playback, PlaybackConfig};
use strandfs::sim::{standard_volume, ClipSpec};
use strandfs::units::{Instant, Nanos};

fn secs(s: u64) -> Nanos {
    Nanos::from_secs(s)
}

#[test]
fn insert_preserves_total_media_and_heals() {
    let (mut mrs, ropes) = standard_volume(&[
        ClipSpec::av_seconds(6.0),
        ClipSpec::av_seconds(3.0).with_seed(50),
    ])
    .expect("build volume");
    let (base, clip) = (ropes[0], ropes[1]);
    mrs.insert(
        "sim",
        base,
        secs(2),
        MediaSel::Both,
        clip,
        Interval::whole(secs(3)),
        Instant::EPOCH,
    )
    .unwrap();
    let rope = mrs.rope(base).unwrap().clone();
    rope.check_invariants().unwrap();
    let d = rope.duration().as_secs_f64();
    assert!((d - 9.0).abs() < 0.1, "duration {d}");
    // Total video frames = 6s + 3s at 30 fps.
    let sched = compile_schedule(&rope, MediaSel::Video, Interval::whole(rope.duration())).unwrap();
    let units: u64 = sched.items.iter().map(|i| i.units).sum();
    assert_eq!(units, 270);
}

#[test]
fn delete_then_play_remains_continuous() {
    let (mut mrs, ropes) = standard_volume(&[ClipSpec::av_seconds(8.0)]).expect("build volume");
    let base = ropes[0];
    mrs.delete(
        "sim",
        base,
        MediaSel::Both,
        Interval::new(secs(2), secs(4)),
        Instant::EPOCH,
    )
    .unwrap();
    let rope = mrs.rope(base).unwrap().clone();
    assert!((rope.duration().as_secs_f64() - 4.0).abs() < 0.1);
    let mut sched =
        compile_schedule(&rope, MediaSel::Both, Interval::whole(rope.duration())).unwrap();
    mrs.resolve_silence(&mut sched).unwrap();
    let report =
        simulate_playback(&mut mrs, vec![sched], PlaybackConfig::with_k(2)).expect("simulate");
    assert!(
        report.all_continuous(),
        "deleted-middle rope must play clean across the healed boundary"
    );
}

#[test]
fn single_medium_delete_keeps_other_playing() {
    let (mut mrs, ropes) = standard_volume(&[ClipSpec::av_seconds(6.0)]).expect("build volume");
    let base = ropes[0];
    mrs.delete(
        "sim",
        base,
        MediaSel::Audio,
        Interval::new(secs(2), secs(2)),
        Instant::EPOCH,
    )
    .unwrap();
    let rope = mrs.rope(base).unwrap().clone();
    // Duration unchanged; video schedule covers 6 s, audio only 4 s.
    assert!((rope.duration().as_secs_f64() - 6.0).abs() < 0.1);
    let v = compile_schedule(&rope, MediaSel::Video, Interval::whole(rope.duration())).unwrap();
    let a = compile_schedule(&rope, MediaSel::Audio, Interval::whole(rope.duration())).unwrap();
    let vu: u64 = v.items.iter().map(|i| i.units).sum();
    let au: u64 = a.items.iter().map(|i| i.units).sum();
    assert_eq!(vu, 180);
    assert_eq!(au, 32_000, "2 s of audio removed from 6 s");
}

#[test]
fn replace_dubs_audio_from_other_rope() {
    let (mut mrs, ropes) = standard_volume(&[
        ClipSpec::av_seconds(6.0),
        ClipSpec::av_seconds(6.0).with_seed(31),
    ])
    .expect("build volume");
    let (base, dub) = (ropes[0], ropes[1]);
    let dub_audio_strand = mrs.rope(dub).unwrap().segments[0].audio.unwrap().strand;
    mrs.replace(
        "sim",
        base,
        MediaSel::Audio,
        Interval::new(secs(0), secs(6)),
        dub,
        Interval::whole(secs(6)),
        Instant::EPOCH,
    )
    .unwrap();
    let rope = mrs.rope(base).unwrap().clone();
    rope.check_invariants().unwrap();
    // The base rope's audio now comes (at least partly — healing may
    // bridge the first blocks) from the dub strand family, and its video
    // is untouched.
    assert!(rope
        .segments
        .iter()
        .any(|s| s.audio.map(|a| a.strand) == Some(dub_audio_strand)));
    let v = compile_schedule(&rope, MediaSel::Video, Interval::whole(rope.duration())).unwrap();
    let vu: u64 = v.items.iter().map(|i| i.units).sum();
    assert_eq!(vu, 180);
}

#[test]
fn substring_shares_strands_without_copying() {
    let (mut mrs, ropes) = standard_volume(&[ClipSpec::av_seconds(6.0)]).expect("build volume");
    let base = ropes[0];
    let used_before = mrs.msm().allocator().freemap().used();
    let sub = mrs
        .substring("sim", base, MediaSel::Both, Interval::new(secs(1), secs(3)))
        .unwrap();
    // SUBSTRING allocates nothing.
    assert_eq!(mrs.msm().allocator().freemap().used(), used_before);
    let sub_rope = mrs.rope(sub).unwrap();
    let base_rope = mrs.rope(base).unwrap();
    assert!(sub_rope.strand_ids().is_subset(&base_rope.strand_ids()));
}

#[test]
fn concat_and_gc_interplay() {
    let (mut mrs, ropes) = standard_volume(&[
        ClipSpec::av_seconds(3.0),
        ClipSpec::av_seconds(3.0).with_seed(8),
    ])
    .expect("build volume");
    let joined = mrs.concat("sim", ropes[0], ropes[1]).unwrap();
    // Deleting the sources must not free the strands: the joined rope
    // still references them.
    mrs.delete_rope("sim", ropes[0]).unwrap();
    mrs.delete_rope("sim", ropes[1]).unwrap();
    assert!(mrs.gc().is_empty());
    let rope = mrs.rope(joined).unwrap().clone();
    let mut sched =
        compile_schedule(&rope, MediaSel::Both, Interval::whole(rope.duration())).unwrap();
    mrs.resolve_silence(&mut sched).unwrap();
    let report =
        simulate_playback(&mut mrs, vec![sched], PlaybackConfig::with_k(2)).expect("simulate");
    assert!(report.all_continuous());
    // Now delete the joined rope: everything becomes collectable.
    mrs.delete_rope("sim", joined).unwrap();
    let collected = mrs.gc();
    assert!(collected.len() >= 4, "collected {}", collected.len());
    // And the space is truly reclaimed (only index/text residue remains).
    assert!(mrs.msm().utilization() < 0.02);
}

#[test]
fn edit_access_is_enforced() {
    let (mut mrs, ropes) = standard_volume(&[ClipSpec::av_seconds(3.0)]).expect("build volume");
    let base = ropes[0];
    let err = mrs.delete(
        "mallory",
        base,
        MediaSel::Both,
        Interval::new(secs(0), secs(1)),
        Instant::EPOCH,
    );
    assert!(matches!(err, Err(FsError::AccessDenied { .. })));
    // Play access is open by default, so SUBSTRING works for others.
    assert!(mrs
        .substring(
            "mallory",
            base,
            MediaSel::Both,
            Interval::new(secs(0), secs(1))
        )
        .is_ok());
}

#[test]
fn bad_intervals_rejected_everywhere() {
    let (mut mrs, ropes) = standard_volume(&[ClipSpec::av_seconds(3.0)]).expect("build volume");
    let base = ropes[0];
    let too_long = Interval::new(secs(2), secs(5));
    assert!(matches!(
        mrs.substring("sim", base, MediaSel::Both, too_long),
        Err(FsError::BadInterval { .. })
    ));
    assert!(matches!(
        mrs.delete("sim", base, MediaSel::Both, too_long, Instant::EPOCH),
        Err(FsError::BadInterval { .. })
    ));
    let empty = Interval::new(secs(1), Nanos::ZERO);
    assert!(matches!(
        mrs.substring("sim", base, MediaSel::Both, empty),
        Err(FsError::BadInterval { .. })
    ));
}

#[test]
fn volume_is_fsck_clean_after_edit_storm() {
    use strandfs::core::fsck::check_volume;
    let (mut mrs, ropes) = standard_volume(&[
        ClipSpec::av_seconds(6.0),
        ClipSpec::av_seconds(4.0).with_seed(91),
    ])
    .expect("build volume");
    let (a, b) = (ropes[0], ropes[1]);
    mrs.insert(
        "sim",
        a,
        secs(2),
        MediaSel::Both,
        b,
        Interval::new(secs(1), secs(2)),
        Instant::EPOCH,
    )
    .unwrap();
    mrs.delete(
        "sim",
        a,
        MediaSel::Both,
        Interval::new(secs(5), secs(1)),
        Instant::EPOCH,
    )
    .unwrap();
    let sub = mrs
        .substring("sim", a, MediaSel::Both, Interval::new(secs(1), secs(3)))
        .unwrap();
    let _joined = mrs.concat("sim", sub, b).unwrap();
    mrs.delete_rope("sim", b).unwrap();
    mrs.gc();
    let report = check_volume(&mut mrs, Instant::EPOCH);
    assert!(
        report.clean(),
        "fsck findings after edit storm: {:?}",
        report.findings
    );
    assert!(report.strands_checked >= 4);
    assert!(report.ropes_checked >= 3);
}

#[test]
fn chained_edits_keep_invariants() {
    let (mut mrs, ropes) = standard_volume(&[
        ClipSpec::av_seconds(6.0),
        ClipSpec::av_seconds(4.0).with_seed(21),
    ])
    .expect("build volume");
    let (a, b) = (ropes[0], ropes[1]);
    // insert -> delete -> replace -> insert, checking invariants at every
    // step.
    mrs.insert(
        "sim",
        a,
        secs(3),
        MediaSel::Both,
        b,
        Interval::new(secs(0), secs(2)),
        Instant::EPOCH,
    )
    .unwrap();
    mrs.rope(a).unwrap().check_invariants().unwrap();
    mrs.delete(
        "sim",
        a,
        MediaSel::Both,
        Interval::new(secs(1), secs(2)),
        Instant::EPOCH,
    )
    .unwrap();
    mrs.rope(a).unwrap().check_invariants().unwrap();
    mrs.replace(
        "sim",
        a,
        MediaSel::Both,
        Interval::new(secs(2), secs(1)),
        b,
        Interval::new(secs(3), secs(1)),
        Instant::EPOCH,
    )
    .unwrap();
    mrs.rope(a).unwrap().check_invariants().unwrap();
    let rope = mrs.rope(a).unwrap().clone();
    assert!((rope.duration().as_secs_f64() - 6.0).abs() < 0.15);
    // Still playable end to end.
    let mut sched =
        compile_schedule(&rope, MediaSel::Both, Interval::whole(rope.duration())).unwrap();
    mrs.resolve_silence(&mut sched).unwrap();
    let report =
        simulate_playback(&mut mrs, vec![sched], PlaybackConfig::with_k(2)).expect("simulate");
    assert!(report.all_continuous());
}

// ---------------------------------------------------------------------
// Regressions pinned by the fsx exerciser (`strandfs_testkit::fsx`).
// Each test replays the seeded op stream that originally exposed a
// latent edit-surface bug; the exerciser's own model check is the
// assertion. Keep the seeds — they are the reproduction recipe.
// ---------------------------------------------------------------------

#[test]
fn fsx_regression_seed23_zero_duration_remainder_and_zip_debt() {
    // Seed 23 exposed two bugs in one stream:
    //  * op 119 — an audio heal moved a whole ref into the bridge; the
    //    companion video split left one unit stranded in the dropped
    //    zero-duration remainder (fixed by the whole-bridge
    //    short-circuit in the companion splits);
    //  * op 333 — nominal-rate rounding concentrated split debt until
    //    three video units sat in a 7.5 ms sliver segment, breaking the
    //    rope's unit tolerance (fixed by density-proportional splits,
    //    `split_proportional`).
    let out = strandfs_testkit::fsx::run(&strandfs_testkit::fsx::FsxConfig::healthy(23, 400));
    assert!(out.edits > 100, "stream lost its edit mix: {out:?}");
}

#[test]
fn fsx_regression_seed1_substring_inflation_and_catalog_growth() {
    // Seed 1 exposed:
    //  * op 326 — substring of a dense region re-anchored a 5 ms
    //    segment to its 50 ms nominal ref duration, inflating the new
    //    rope (fixed by removing commit-time re-anchoring once splits
    //    became density-proportional);
    //  * op 492 — the live strand population (every healed boundary
    //    mints a bridge strand) outgrew the journal's checkpoint
    //    catalog slot (exercised the capacity error; the fsx volume now
    //    provisions the slot for thousands of entries).
    let out = strandfs_testkit::fsx::run(&strandfs_testkit::fsx::FsxConfig::healthy(1, 500));
    assert!(out.boundaries_healed > 500, "healing mix too thin: {out:?}");
}

#[test]
fn fsx_regression_seed3561088382_split_drift_accumulation() {
    // Minimal input `(3561088382, 81)` from STRANDFS_TEST_SEED=
    // 18398927829991303124: repeated inserts through `split_proportional`
    // each added up to half a unit of density drift to one child, and the
    // drift compounded across edits until segment 55 carried 325 ms of
    // video against a 260 ms window (unit 25 ms), breaking the rope's
    // 2-unit tolerance (fixed by `split_balanced`, which picks the unit
    // count minimizing the larger child's drift — halving inherited
    // drift at every cut instead of growing it).
    let out =
        strandfs_testkit::fsx::run(&strandfs_testkit::fsx::FsxConfig::healthy(3561088382, 81));
    assert!(out.edits > 10, "stream lost its edit mix: {out:?}");
}

#[test]
fn substring_exact_boundaries_share_everything() {
    // Off-by-one hunting at the substring edges: a whole-rope substring
    // must reproduce the rope exactly, and zero-length intervals must
    // be rejected rather than produce empty ropes.
    let (mut mrs, ropes) = standard_volume(&[ClipSpec::av_seconds(4.0)]).expect("build volume");
    let base = ropes[0];
    let total = mrs.rope(base).unwrap().duration();
    let whole = mrs
        .substring("sim", base, MediaSel::Both, Interval::whole(total))
        .unwrap();
    let (b, w) = (
        mrs.rope(base).unwrap().clone(),
        mrs.rope(whole).unwrap().clone(),
    );
    assert_eq!(b.duration(), w.duration());
    let sb = compile_schedule(&b, MediaSel::Both, Interval::whole(total)).unwrap();
    let sw = compile_schedule(&w, MediaSel::Both, Interval::whole(total)).unwrap();
    assert_eq!(sb.items.len(), sw.items.len());
    for (x, y) in sb.items.iter().zip(sw.items.iter()) {
        assert_eq!((x.strand, x.block, x.units), (y.strand, y.block, y.units));
    }
    // Degenerate interval: rejected, not an empty rope.
    let r = mrs.substring(
        "sim",
        base,
        MediaSel::Both,
        Interval::new(secs(2), Nanos::ZERO),
    );
    assert!(matches!(r, Err(FsError::BadInterval { .. })), "{r:?}");
}

#[test]
fn delete_to_rope_end_keeps_tail_boundary_exact() {
    // Deleting the exact tail interval [2 s, 4 s) of a 4 s rope must
    // leave a 2 s rope whose last segment still ends on a playable
    // block boundary — the tail-edge twin of the head off-by-one.
    let (mut mrs, ropes) = standard_volume(&[ClipSpec::av_seconds(4.0)]).expect("build volume");
    let base = ropes[0];
    mrs.delete(
        "sim",
        base,
        MediaSel::Both,
        Interval::new(secs(2), secs(2)),
        Instant::EPOCH,
    )
    .unwrap();
    let rope = mrs.rope(base).unwrap().clone();
    rope.check_invariants().unwrap();
    assert!((rope.duration().as_secs_f64() - 2.0).abs() < 0.1);
    let sched = compile_schedule(&rope, MediaSel::Video, Interval::whole(rope.duration())).unwrap();
    let units: u64 = sched.items.iter().map(|i| i.units).sum();
    assert_eq!(units, 60, "2 s of NTSC video after the tail delete");
}

/// Every rope-server path with a rule of its own — admission of every
/// medium or none, the journaled commit, extent release, the access
/// checks and their precedence over unknown ids — driven on one
/// journaled volume, pinned by hashes taken before those rules were
/// each given one home. The event stream, the image, every id handed
/// out and every error returned must stay byte-identical.
#[test]
fn rope_server_paths_are_pinned_on_a_journaled_volume() {
    use strandfs::core::fsck::{check_volume, repair_volume};
    use strandfs::core::journal::JournalConfig;
    use strandfs::core::mrs::{Mrs, RecordOpts, TrackOpts};
    use strandfs::core::msm::{Msm, MsmConfig};
    use strandfs::core::rope::AccessList;
    use strandfs::core::RopeId;
    use strandfs::disk::{fnv1a, DiskGeometry, FaultPlan, GapBounds, SeekModel, SimDisk};
    use strandfs::media::silence::SilenceDetector;
    use strandfs::obs::ObsSink;
    use strandfs::sim::record_clip;
    use strandfs::sim::scenario::{standard_audio_meta, standard_video_meta};

    let config =
        MsmConfig::constrained(GapBounds::up_to(40_000), 1).with_journal(JournalConfig::default());
    let disk = SimDisk::new(DiskGeometry::vintage_1991(), SeekModel::vintage_1991());
    let mut mrs = Mrs::new(Msm::new(disk, config.clone()));
    let (sink, ring) = ObsSink::ring(1 << 16);
    mrs.set_obs(sink);
    let mut log: Vec<String> = Vec::new();
    let t = Instant::EPOCH;
    let ms = Nanos::from_millis;

    // RECORD: an A/V clip with silence holes, a video clip, then
    // sessions until admission refuses one.
    let av = record_clip(&mut mrs, &ClipSpec::av_seconds(3.0)).unwrap();
    let v = record_clip(&mut mrs, &ClipSpec::video_seconds(2.0).with_seed(5)).unwrap();
    log.push(format!("record {av:?} {v:?}"));
    let both = || RecordOpts {
        video: Some(TrackOpts {
            meta: standard_video_meta(),
            silence: None,
        }),
        audio: Some(TrackOpts {
            meta: standard_audio_meta(),
            silence: Some(SilenceDetector::telephone()),
        }),
    };
    let active = |mrs: &Mrs| mrs.msm().admission_ref().active();
    let mut open = Vec::new();
    let rejected = loop {
        match mrs.record("sim", both()) {
            Ok(req) => open.push(req),
            Err(e) => break e,
        }
        assert!(open.len() < 64, "admission never refused a RECORD");
    };
    log.push(format!(
        "sessions {open:?} then {rejected:?} {}",
        active(&mrs)
    ));
    for req in open {
        log.push(format!("stop {req:?} {:?}", mrs.stop(req, t)));
    }

    // PLAY, PAUSE and RESUME, one rejected while other viewers hold
    // the slots.
    let (p, sched) = mrs
        .play("sim", av, MediaSel::Both, Interval::whole(secs(3)))
        .unwrap();
    log.push(format!(
        "play {p:?} {:x}",
        fnv1a(format!("{sched:?}").as_bytes())
    ));
    log.push(format!("pause {:?} {}", mrs.pause(p, false), active(&mrs)));
    log.push(format!("resume {:?}", mrs.resume(p)));
    log.push(format!("resume again {:?}", mrs.resume(p)));
    log.push(format!("pause {:?} {}", mrs.pause(p, true), active(&mrs)));
    let mut viewers = Vec::new();
    let refused = loop {
        match mrs.play("sim", v, MediaSel::Video, Interval::whole(secs(2))) {
            Ok((req, _)) => viewers.push(req),
            Err(e) => break e,
        }
        assert!(viewers.len() < 64, "admission never refused a PLAY");
    };
    log.push(format!(
        "viewers {viewers:?} then {refused:?} {}",
        active(&mrs)
    ));
    log.push(format!("resume full {:?} {}", mrs.resume(p), active(&mrs)));
    let req = viewers.pop().unwrap();
    log.push(format!("stop {req:?} {:?}", mrs.stop(req, t)));
    log.push(format!("resume {:?} {}", mrs.resume(p), active(&mrs)));
    let refused = mrs.play("sim", av, MediaSel::Both, Interval::whole(secs(3)));
    log.push(format!("play full {:?} {}", refused.err(), active(&mrs)));
    for req in viewers.into_iter().chain([p]) {
        log.push(format!("stop {req:?} {:?}", mrs.stop(req, t)));
    }
    log.push(format!("stop gone {:?}", mrs.stop(p, t)));
    log.push(format!("pause gone {:?}", mrs.pause(p, false)));

    // The edits, each healing its boundaries.
    let r = mrs.insert(
        "sim",
        av,
        secs(1),
        MediaSel::Both,
        v,
        Interval::new(ms(500), secs(1)),
        t,
    );
    log.push(format!("insert {r:?} {:?}", mrs.last_edit_report()));
    let r = mrs.replace(
        "sim",
        av,
        MediaSel::Video,
        Interval::new(ms(200), ms(700)),
        v,
        Interval::new(secs(1), ms(700)),
        t,
    );
    log.push(format!("replace {r:?} {:?}", mrs.last_edit_report()));
    let r = mrs.delete(
        "sim",
        av,
        MediaSel::Both,
        Interval::new(secs(2), secs(1)),
        t,
    );
    log.push(format!("delete {r:?} {:?}", mrs.last_edit_report()));
    log.push(format!("{:?}", mrs.edit_stats()));
    let sub = mrs.substring("sim", av, MediaSel::Both, Interval::new(ms(300), secs(2)));
    log.push(format!("substring {sub:?}"));
    let sub = sub.unwrap();
    let joined = mrs.concat("sim", sub, v);
    log.push(format!("concat {joined:?}"));

    // Who may play or edit, and which error wins when the rope is
    // unknown as well.
    let ghost = RopeId::from_raw(999);
    let only_sim = AccessList::only(&["sim"]);
    let r = mrs.set_access("sim", v, only_sim.clone(), only_sim.clone());
    log.push(format!("set_access {r:?}"));
    let whole = Interval::whole(secs(1));
    let m = "mallory";
    log.push(format!("{:?}", mrs.play(m, v, MediaSel::Both, whole).err()));
    log.push(format!(
        "{:?}",
        mrs.play(m, ghost, MediaSel::Both, whole).err()
    ));
    log.push(format!("{:?}", mrs.substring(m, v, MediaSel::Both, whole)));
    log.push(format!(
        "{:?}",
        mrs.substring(m, ghost, MediaSel::Both, whole)
    ));
    log.push(format!("{:?}", mrs.concat(m, ghost, v)));
    log.push(format!("{:?}", mrs.concat(m, v, ghost)));
    log.push(format!("{:?}", mrs.concat(m, ghost, RopeId::from_raw(998))));
    log.push(format!("{:?}", mrs.concat(m, v, sub)));
    log.push(format!("{:?}", mrs.concat(m, sub, v)));
    log.push(format!("{:?}", mrs.delete_rope(m, v)));
    log.push(format!("{:?}", mrs.delete_rope(m, ghost)));
    log.push(format!(
        "{:?}",
        mrs.insert(m, v, Nanos::ZERO, MediaSel::Both, ghost, whole, t)
    ));
    log.push(format!(
        "{:?}",
        mrs.insert("sim", v, Nanos::ZERO, MediaSel::Both, ghost, whole, t)
    ));
    log.push(format!(
        "{:?}",
        mrs.insert(m, ghost, Nanos::ZERO, MediaSel::Both, v, whole, t)
    ));
    log.push(format!(
        "{:?}",
        mrs.replace(m, v, MediaSel::Both, whole, sub, whole, t)
    ));
    log.push(format!("{:?}", mrs.delete(m, v, MediaSel::Both, whole, t)));
    log.push(format!(
        "{:?}",
        mrs.delete(m, ghost, MediaSel::Both, whole, t)
    ));
    log.push(format!("{:?}", mrs.add_trigger(m, v, Nanos::ZERO, "x")));
    log.push(format!(
        "{:?}",
        mrs.set_access(m, v, only_sim.clone(), only_sim)
    ));

    // Deletion, collection, infill, fsck and a remount.
    log.push(format!("delete_rope {:?}", mrs.delete_rope("sim", av)));
    log.push(format!("gc {:?}", mrs.gc()));
    log.push(format!("delete_rope {:?}", mrs.delete_rope("sim", sub)));
    log.push(format!("gc {:?}", mrs.gc()));
    let text = mrs.msm_mut().store_text_file(&[0x5A; 1_500], t);
    log.push(format!("text {text:?}"));
    // Media decays under the video clip's index root: fsck's repair
    // rebuilds the index through the journaled commit.
    let strand = mrs.rope(v).unwrap().segments[0].video.unwrap().strand;
    let root = *mrs
        .msm()
        .strand(strand)
        .unwrap()
        .index_extents()
        .last()
        .unwrap();
    mrs.msm_mut()
        .arm_faults(FaultPlan::clean().with_bad_extent(root));
    log.push(format!("check {:?}", check_volume(&mut mrs, t).findings));
    log.push(format!("repair {:?}", repair_volume(&mut mrs, t).findings));
    log.push(format!("check {:?}", check_volume(&mut mrs, t).findings));
    mrs.msm_mut().arm_faults(FaultPlan::clean());
    log.push(format!("ropes {:?}", mrs.rope_ids()));
    let events = {
        let ring = ring.borrow();
        assert_eq!(ring.dropped(), 0, "the ring must hold the whole run");
        let text: Vec<String> = ring.events().map(|e| format!("{e:?}")).collect();
        (text.len(), fnv1a(text.join("\n").as_bytes()))
    };
    let image = mrs.msm().disk().content_hash();
    let (remounted, report) = Msm::recover(mrs.into_msm().into_device(), config, t).unwrap();
    log.push(format!("recover {report:?} {:?}", remounted.strand_ids()));
    let remounted_image = remounted.disk().content_hash();

    let observed = (
        events,
        image,
        remounted_image,
        fnv1a(log.join("\n").as_bytes()),
    );
    assert_eq!(
        observed,
        (
            (667, 14419962258900639640),
            3538535135169354806,
            7344787209068744984,
            13818732720160492408
        ),
        "observed {observed:?}; log:\n{}",
        log.join("\n")
    );
}

#[test]
fn gc_spares_strands_reachable_only_through_chained_edits() {
    // A concat-of-substrings rope is the only holder of its sources'
    // strands after the sources die: two generations of derived ropes,
    // and gc must trace interests through both.
    let (mut mrs, ropes) = standard_volume(&[
        ClipSpec::av_seconds(3.0),
        ClipSpec::av_seconds(3.0).with_seed(8),
    ])
    .expect("build volume");
    let sub_a = mrs
        .substring(
            "sim",
            ropes[0],
            MediaSel::Both,
            Interval::new(secs(1), secs(2)),
        )
        .unwrap();
    let sub_b = mrs
        .substring(
            "sim",
            ropes[1],
            MediaSel::Both,
            Interval::new(Nanos::ZERO, secs(2)),
        )
        .unwrap();
    let joined = mrs.concat("sim", sub_a, sub_b).unwrap();
    for r in [ropes[0], ropes[1], sub_a, sub_b] {
        mrs.delete_rope("sim", r).unwrap();
    }
    assert!(
        mrs.gc().is_empty(),
        "gc collected strands still referenced through the concat result"
    );
    let rope = mrs.rope(joined).unwrap().clone();
    rope.check_invariants().unwrap();
    let mut sched =
        compile_schedule(&rope, MediaSel::Both, Interval::whole(rope.duration())).unwrap();
    mrs.resolve_silence(&mut sched).unwrap();
    let report =
        simulate_playback(&mut mrs, vec![sched], PlaybackConfig::with_k(2)).expect("simulate");
    assert!(report.all_continuous());
    // Dropping the last holder frees the whole chain.
    mrs.delete_rope("sim", joined).unwrap();
    assert!(!mrs.gc().is_empty());
}

#[test]
fn an_insert_heals_each_of_its_boundaries_once() {
    // A 2 s clip INSERTed 2 s into a 4 s video rope makes two boundaries:
    // base → clip and clip → base. Each is healed once, from the strand
    // on its far side, and nothing is copied out of a bridge.
    let (mut mrs, ropes) = standard_volume(&[
        ClipSpec::video_seconds(4.0),
        ClipSpec::video_seconds(2.0).with_seed(50),
    ])
    .expect("build volume");
    let (base, clip) = (ropes[0], ropes[1]);
    let strand = |mrs: &strandfs::core::mrs::Mrs, r| {
        let rope = mrs.rope(r).unwrap();
        rope.segments[0].video.expect("a video rope").strand
    };
    let (base_strand, clip_strand) = (strand(&mrs, base), strand(&mrs, clip));
    let whole = Interval::whole(secs(2));
    mrs.insert(
        "sim",
        base,
        secs(2),
        MediaSel::Video,
        clip,
        whole,
        Instant::EPOCH,
    )
    .unwrap();
    let heals = &mrs.last_edit_report().heals;
    assert_eq!(heals.len(), 2, "one heal per boundary: {heals:?}");
    let rope = mrs.rope(base).unwrap();
    let refs: Vec<_> = rope.segments.iter().map(|s| s.video.unwrap()).collect();
    let strands: Vec<_> = refs.iter().map(|r| r.strand).collect();
    let (first, second) = (heals[0].new_strand, heals[1].new_strand);
    assert_eq!(
        strands,
        [base_strand, first, clip_strand, second, base_strand],
        "{refs:?}"
    );
    // Each bridge copied the head of the side after it, which resumes
    // right behind the copy: the clip, then — the clip-to-base seam — the
    // base from 2 s on.
    for (h, bridge, rest, from) in [(&heals[0], 1, 2, 0), (&heals[1], 3, 4, 60)] {
        assert_eq!(h.side, strandfs::core::rope::scattering::CopySide::Right);
        assert!(h.copied > 0 && h.copied <= h.bound, "{h:?}");
        assert_eq!(refs[rest].start_unit, from + refs[bridge].len_units);
    }
}

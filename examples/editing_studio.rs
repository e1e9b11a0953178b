//! A multimedia editing session: the paper's rope operations end to end.
//!
//! Records raw footage and a voice-over, then cuts a story together with
//! `SUBSTRING` / `INSERT` / `REPLACE` / `DELETE` / `CONCATE` — all
//! pointer edits over immutable strands — lets the scattering-healing
//! pass copy its bounded handful of boundary blocks, garbage-collects
//! the footage nobody references anymore, and plays the final cut.
//!
//! ```text
//! cargo run --release --example editing_studio
//! ```

use strandfs::core::msm::MsmConfig;
use strandfs::core::rope::edit::{Interval, MediaSel};
use strandfs::disk::{DiskGeometry, GapBounds, SeekModel};
use strandfs::sim::playback::{simulate_playback, PlaybackConfig};
use strandfs::sim::{record_clip, volume_on, ClipSpec};
use strandfs::units::{Instant, Nanos};

fn secs(s: u64) -> Nanos {
    Nanos::from_secs(s)
}

fn main() {
    // Footage: two AV takes and a separately-recorded voice-over.
    let (mut mrs, ropes) = volume_on(
        DiskGeometry::vintage_1991(),
        SeekModel::vintage_1991(),
        MsmConfig::constrained(
            GapBounds {
                min_sectors: 0,
                max_sectors: 40_000,
            },
            7,
        ),
        &[
            ClipSpec::av_seconds(10.0).with_seed(1), // take 1
            ClipSpec::av_seconds(6.0).with_seed(2),  // take 2
        ],
    )
    .expect("build volume");
    let (take1, take2) = (ropes[0], ropes[1]);
    let voice_over = record_clip(
        &mut mrs,
        &ClipSpec {
            seconds: 4.0,
            video: false,
            audio: true,
            vbr: false,
            seed: 3,
        },
    )
    .expect("record clip");
    println!(
        "footage: take1 {:.0}s AV, take2 {:.0}s AV, voice-over {:.0}s audio",
        mrs.rope(take1).unwrap().duration().as_secs_f64(),
        mrs.rope(take2).unwrap().duration().as_secs_f64(),
        mrs.rope(voice_over).unwrap().duration().as_secs_f64(),
    );
    let strands_at_start = mrs.msm().strand_ids().len();

    // Cut: the best 4 seconds of take 2...
    let highlight = mrs
        .substring(
            "sim",
            take2,
            MediaSel::Both,
            Interval::new(secs(1), secs(4)),
        )
        .unwrap();
    // ...inserted into take 1 at t = 5 s (Fig. 9's operation)...
    mrs.insert(
        "sim",
        take1,
        secs(5),
        MediaSel::Both,
        highlight,
        Interval::whole(secs(4)),
        Instant::EPOCH,
    )
    .unwrap();
    println!(
        "after INSERT: story = {:.0} s in {} segments",
        mrs.rope(take1).unwrap().duration().as_secs_f64(),
        mrs.rope(take1).unwrap().segments.len()
    );

    // ...dub the first 4 s of audio with the voice-over (the paper's
    // Rope4/Rope5 merge)...
    mrs.replace(
        "sim",
        take1,
        MediaSel::Audio,
        Interval::new(secs(0), secs(4)),
        voice_over,
        Interval::whole(secs(4)),
        Instant::EPOCH,
    )
    .unwrap();

    // ...drop a flubbed second, and tag the result.
    mrs.delete(
        "sim",
        take1,
        MediaSel::Both,
        Interval::new(secs(12), secs(1)),
        Instant::EPOCH,
    )
    .unwrap();
    mrs.add_trigger("sim", take1, secs(0), "THE EVENING NEWS")
        .unwrap();
    mrs.add_trigger("sim", take1, secs(5), "[highlight]")
        .unwrap();

    let story = mrs.rope(take1).unwrap().clone();
    story.check_invariants().unwrap();
    println!(
        "final cut: {:.1} s, {} segments, {} triggers, references {} strands",
        story.duration().as_secs_f64(),
        story.segments.len(),
        story.triggers.len(),
        story.strand_ids().len()
    );
    let healed_strands = mrs.msm().strand_ids().len() - strands_at_start;
    println!("scattering healing created {healed_strands} bridging strands");

    // The studio archives the highlight reel too.
    let archive = mrs.concat("sim", take1, highlight).unwrap();
    println!(
        "archive rope: {:.1} s (shares every strand with the cut)",
        mrs.rope(archive).unwrap().duration().as_secs_f64()
    );

    // Delete the scratch ropes; GC reclaims only unreferenced strands.
    mrs.delete_rope("sim", take2).unwrap();
    mrs.delete_rope("sim", voice_over).unwrap();
    let collected = mrs.gc();
    println!(
        "GC after deleting scratch ropes: {} strands collected (shared ones survive)",
        collected.len()
    );

    // The edited rope still plays continuously.
    let schedule = mrs.schedule(take1, MediaSel::Both).unwrap();
    let report =
        simulate_playback(&mut mrs, vec![schedule], PlaybackConfig::with_k(2)).expect("simulate");
    println!(
        "playback of the cut: {} blocks, {} violations",
        report.streams[0].blocks, report.streams[0].violations
    );
    assert!(
        report.all_continuous(),
        "edited rope must play continuously"
    );
    println!("OK — copy-free editing with bounded healing and safe GC.");
}

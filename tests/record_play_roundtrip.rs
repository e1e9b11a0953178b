//! End-to-end pipeline: RECORD through the MRS, byte-exact read-back,
//! on-disk index reload, and continuous playback.

use strandfs::core::mrs::{Mrs, RecordOpts, TrackOpts};
use strandfs::core::msm::{Fetch, Msm, MsmConfig};
use strandfs::core::rope::edit::{Interval, MediaSel};
use strandfs::core::strand::StrandMeta;
use strandfs::disk::{DiskGeometry, GapBounds, SeekModel, SimDisk};
use strandfs::media::{Medium, VideoCodec};
use strandfs::sim::playback::{simulate_playback, PlaybackConfig};
use strandfs::units::{Bits, Instant};

fn fresh_mrs(seed: u64) -> Mrs {
    let disk = SimDisk::new(DiskGeometry::vintage_1991(), SeekModel::vintage_1991());
    Mrs::new(Msm::new(
        disk,
        MsmConfig::constrained(
            GapBounds {
                min_sectors: 0,
                max_sectors: 40_000,
            },
            seed,
        ),
    ))
}

fn video_opts() -> RecordOpts {
    RecordOpts {
        video: Some(TrackOpts {
            meta: StrandMeta {
                medium: Medium::Video,
                unit_rate: 30.0,
                granularity: 3,
                unit_bits: Bits::new(96_000),
            },
            silence: None,
        }),
        audio: None,
    }
}

#[test]
fn recorded_frames_read_back_byte_exact() {
    let mut mrs = fresh_mrs(1);
    let codec = VideoCodec::uvc_ntsc(99);
    let req = mrs.record("alice", video_opts()).unwrap();
    let mut t = Instant::EPOCH;
    let mut frames: Vec<Vec<u8>> = Vec::new();
    for i in 0..30 {
        let bytes = codec.frame_bits(i).to_bytes_ceil().get() as usize;
        let payload = codec.frame_payload(i, bytes);
        frames.push(payload.clone());
        if let Some(op) = mrs.record_video_frame(req, t, &payload).unwrap() {
            t = op.completed;
        }
    }
    let rope_id = mrs.stop(req, t).unwrap().unwrap();
    let rope = mrs.rope(rope_id).unwrap().clone();
    let vref = rope.segments[0].video.unwrap();

    // Each block holds 3 concatenated frames; compare byte-exact.
    for block in 0..10u64 {
        let (payload, op) = mrs
            .msm_mut()
            .read_block(vref.strand, block, Instant::EPOCH, Fetch::default())
            .unwrap();
        let payload = payload.unwrap();
        assert!(op.is_some());
        let expected: Vec<u8> = (0..3)
            .flat_map(|j| frames[(block * 3 + j) as usize].clone())
            .collect();
        assert_eq!(
            &payload[..expected.len()],
            &expected[..],
            "block {block} payload mismatch"
        );
    }
}

#[test]
fn on_disk_index_reload_matches_memory() {
    let mut mrs = fresh_mrs(2);
    let req = mrs.record("alice", video_opts()).unwrap();
    let mut t = Instant::EPOCH;
    for i in 0..90u64 {
        let payload = vec![(i % 256) as u8; 12_000];
        if let Some(op) = mrs.record_video_frame(req, t, &payload).unwrap() {
            t = op.completed;
        }
    }
    let rope_id = mrs.stop(req, t).unwrap().unwrap();
    let vref = mrs.rope(rope_id).unwrap().segments[0].video.unwrap();
    let strand_id = vref.strand;

    let original = mrs.msm().strand(strand_id).unwrap().clone();
    // The header is the last index extent written.
    let header = *original.index_extents().last().unwrap();
    let reloaded = mrs.msm_mut().load_strand(strand_id, header, t).unwrap();
    assert_eq!(reloaded.blocks(), original.blocks());
    assert_eq!(reloaded.unit_count(), original.unit_count());
    assert_eq!(reloaded.meta(), original.meta());
    assert_eq!(reloaded.block_count(), 30);
}

#[test]
fn playback_of_recording_is_continuous_and_ordered() {
    let mut mrs = fresh_mrs(3);
    let req = mrs.record("alice", video_opts()).unwrap();
    let mut t = Instant::EPOCH;
    for i in 0..60u64 {
        let payload = vec![(i % 256) as u8; 12_000];
        if let Some(op) = mrs.record_video_frame(req, t, &payload).unwrap() {
            t = op.completed;
        }
    }
    let rope_id = mrs.stop(req, t).unwrap().unwrap();
    let dur = mrs.rope(rope_id).unwrap().duration();
    let (play_req, mut schedule) = mrs
        .play("bob", rope_id, MediaSel::Video, Interval::whole(dur))
        .unwrap();
    mrs.resolve_silence(&mut schedule).unwrap();
    assert_eq!(schedule.items.len(), 20);
    // Deadlines step by exactly one block duration (100 ms).
    for (j, item) in schedule.items.iter().enumerate() {
        assert_eq!(
            item.at.as_nanos(),
            j as u64 * 100_000_000,
            "item {j} deadline"
        );
        assert_eq!(item.units, 3);
    }
    let report =
        simulate_playback(&mut mrs, vec![schedule], PlaybackConfig::with_k(2)).expect("simulate");
    assert!(report.all_continuous());
    mrs.stop(play_req, Instant::EPOCH).unwrap();
}

#[test]
fn partial_interval_playback() {
    let mut mrs = fresh_mrs(4);
    let req = mrs.record("alice", video_opts()).unwrap();
    let mut t = Instant::EPOCH;
    for i in 0..60u64 {
        let payload = vec![(i % 256) as u8; 12_000];
        if let Some(op) = mrs.record_video_frame(req, t, &payload).unwrap() {
            t = op.completed;
        }
    }
    let rope_id = mrs.stop(req, t).unwrap().unwrap();
    // Play only [0.5 s, 1.5 s).
    let (_, schedule) = mrs
        .play(
            "bob",
            rope_id,
            MediaSel::Video,
            Interval::new(
                strandfs::units::Nanos::from_millis(500),
                strandfs::units::Nanos::from_secs(1),
            ),
        )
        .unwrap();
    let total_units: u64 = schedule.items.iter().map(|i| i.units).sum();
    assert_eq!(total_units, 30, "1 s at 30 fps");
    // The first item starts mid-block (frame 15 lives in block 5).
    assert_eq!(schedule.items[0].block, 5);
}

#[test]
fn text_files_coexist_with_media() {
    let mut mrs = fresh_mrs(5);
    let req = mrs.record("alice", video_opts()).unwrap();
    let mut t = Instant::EPOCH;
    for i in 0..30u64 {
        let payload = vec![(i % 256) as u8; 12_000];
        if let Some(op) = mrs.record_video_frame(req, t, &payload).unwrap() {
            t = op.completed;
        }
    }
    let rope_id = mrs.stop(req, t).unwrap().unwrap();
    // Store a text file in the gaps, then verify media still plays.
    let text = b"The quick brown fox jumps over the lazy dog".repeat(100);
    let extents = mrs.msm_mut().store_text_file(&text, t).unwrap();
    assert!(!extents.is_empty());
    let dur = mrs.rope(rope_id).unwrap().duration();
    let (_, mut schedule) = mrs
        .play("bob", rope_id, MediaSel::Video, Interval::whole(dur))
        .unwrap();
    mrs.resolve_silence(&mut schedule).unwrap();
    let report =
        simulate_playback(&mut mrs, vec![schedule], PlaybackConfig::with_k(2)).expect("simulate");
    assert!(report.all_continuous());
}

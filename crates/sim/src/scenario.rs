//! Standard experimental setups shared by examples, tests and benches.

use strandfs_core::mrs::{Mrs, RecordOpts, TrackOpts};
use strandfs_core::msm::{Msm, MsmConfig};
use strandfs_core::strand::StrandMeta;
use strandfs_core::{FsError, RopeId};
use strandfs_disk::{DiskGeometry, GapBounds, SeekModel, SimDisk};
use strandfs_media::silence::{SilenceDetector, TalkSpurtSource};
use strandfs_media::{Medium, VideoCodec};
use strandfs_units::{Bits, Instant};

/// What to record onto a volume.
#[derive(Clone, Copy, Debug)]
pub struct ClipSpec {
    /// Clip length in seconds.
    pub seconds: f64,
    /// Record a video track.
    pub video: bool,
    /// Record an audio track (with silence elimination).
    pub audio: bool,
    /// Use the variable-bit-rate codec instead of constant-rate.
    pub vbr: bool,
    /// Workload seed.
    pub seed: u64,
}

impl ClipSpec {
    /// A video-only clip of the given length.
    pub fn video_seconds(seconds: f64) -> ClipSpec {
        ClipSpec {
            seconds,
            video: true,
            audio: false,
            vbr: false,
            seed: 0,
        }
    }

    /// An audio+video clip of the given length.
    pub fn av_seconds(seconds: f64) -> ClipSpec {
        ClipSpec {
            seconds,
            video: true,
            audio: true,
            vbr: false,
            seed: 0,
        }
    }

    /// Override the seed (distinct seeds give distinct content).
    pub fn with_seed(mut self, seed: u64) -> ClipSpec {
        self.seed = seed;
        self
    }
}

/// A prepared volume: a rope server over a vintage-1991 disk.
pub type Volume = (Mrs, Vec<RopeId>);

/// The standard strand metadata used across experiments: NTSC video at
/// `q = 3` frames/block, telephone audio at `q = 800` samples/block
/// (both 100 ms blocks).
pub fn standard_video_meta() -> StrandMeta {
    StrandMeta {
        medium: Medium::Video,
        unit_rate: 30.0,
        granularity: 3,
        unit_bits: Bits::new(96_000),
    }
}

/// See [`standard_video_meta`].
pub fn standard_audio_meta() -> StrandMeta {
    StrandMeta {
        medium: Medium::Audio,
        unit_rate: 8_000.0,
        granularity: 800,
        unit_bits: Bits::new(8),
    }
}

/// Build a rope server over a fresh vintage-1991 disk with generous
/// constrained-allocation bounds, and record one rope per clip spec.
///
/// Construction failures (volume exhaustion, an empty clip spec, a
/// recording that produced no rope) surface as [`FsError`], never as a
/// panic.
pub fn standard_volume(clips: &[ClipSpec]) -> Result<Volume, FsError> {
    faulty_volume(clips, 0)
}

/// [`standard_volume`] on a disk whose fault PRNG is seeded with `seed`
/// (the standard volume's is 0). The volume records clean; arm a
/// [`FaultPlan`] afterwards via `mrs.msm_mut().arm_faults(plan)` so
/// recording is never disturbed — media decays after the write.
///
/// [`FaultPlan`]: strandfs_disk::FaultPlan
pub fn faulty_volume(clips: &[ClipSpec], seed: u64) -> Result<Volume, FsError> {
    let disk = SimDisk::new(DiskGeometry::vintage_1991(), SeekModel::vintage_1991());
    let bounds = GapBounds {
        min_sectors: 0,
        max_sectors: 40_000,
    };
    record_volume(
        disk.with_fault_seed(seed),
        MsmConfig::constrained(bounds, 1),
        clips,
    )
}

/// Build a rope server over an arbitrary disk and placement policy, and
/// record one rope per clip spec. Fails like [`standard_volume`].
pub fn volume_on(
    geometry: DiskGeometry,
    seek: SeekModel,
    config: MsmConfig,
    clips: &[ClipSpec],
) -> Result<Volume, FsError> {
    record_volume(SimDisk::new(geometry, seek), config, clips)
}

fn record_volume(disk: SimDisk, config: MsmConfig, clips: &[ClipSpec]) -> Result<Volume, FsError> {
    let mut mrs = Mrs::new(Msm::new(disk, config));
    let ropes = clips
        .iter()
        .enumerate()
        .map(|(i, c)| record_clip(&mut mrs, &c.with_seed(c.seed + i as u64)))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((mrs, ropes))
}

/// Record one clip through the full `RECORD` path (admission, per-block
/// flushing, silence elimination) and return its rope.
pub fn record_clip(mrs: &mut Mrs, spec: &ClipSpec) -> Result<RopeId, FsError> {
    if !spec.video && !spec.audio {
        return Err(FsError::InvalidScenario {
            reason: "clip needs at least one medium",
        });
    }
    let opts = RecordOpts {
        video: spec.video.then(|| TrackOpts {
            meta: standard_video_meta(),
            silence: None,
        }),
        audio: spec.audio.then(|| TrackOpts {
            meta: standard_audio_meta(),
            silence: Some(SilenceDetector::telephone()),
        }),
    };
    let req = mrs.record("sim", opts)?;
    let mut t = Instant::EPOCH;
    if spec.video {
        let codec = if spec.vbr {
            VideoCodec::uvc_ntsc_vbr(spec.seed)
        } else {
            VideoCodec::uvc_ntsc(spec.seed)
        };
        let frames = (30.0 * spec.seconds).round() as u64;
        let mut payload = Vec::new();
        for i in 0..frames {
            let bytes = codec.frame_bits(i).to_bytes_ceil().get() as usize;
            codec.frame_payload_into(i, bytes, &mut payload);
            if let Some(op) = mrs.record_video_frame(req, t, &payload)? {
                t = op.completed;
            }
        }
    }
    if spec.audio {
        let samples =
            TalkSpurtSource::telephone(spec.seed).generate((8_000.0 * spec.seconds) as usize);
        for chunk in samples.chunks(4_000) {
            let ops = mrs.record_audio_samples(req, t, chunk)?;
            if let Some(op) = ops.last() {
                t = op.completed;
            }
        }
    }
    mrs.stop(req, t)?.ok_or(FsError::InvalidScenario {
        reason: "recording produced no rope",
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use strandfs_core::rope::edit::{Interval, MediaSel};

    #[test]
    fn standard_volume_records_all_clips() {
        let (mrs, ropes) = standard_volume(&[
            ClipSpec::video_seconds(2.0),
            ClipSpec::av_seconds(1.0).with_seed(9),
        ])
        .expect("build volume");
        assert_eq!(ropes.len(), 2);
        let r0 = mrs.rope(ropes[0]).unwrap();
        assert!(r0.has_video() && !r0.has_audio());
        let r1 = mrs.rope(ropes[1]).unwrap();
        assert!(r1.has_video() && r1.has_audio());
        // All admission slots released after recording.
        assert_eq!(mrs.msm().admission_ref().active(), 0);
    }

    #[test]
    fn vbr_clips_have_varying_block_sizes() {
        let (mrs, ropes) = standard_volume(&[ClipSpec {
            vbr: true,
            ..ClipSpec::video_seconds(4.0)
        }])
        .expect("build volume");
        let rope = mrs.rope(ropes[0]).unwrap();
        let vref = rope.segments[0].video.unwrap();
        let strand = mrs.msm().strand(vref.strand).unwrap();
        let sizes: Vec<u64> = strand.stored_iter().map(|(_, e)| e.sectors).collect();
        let min = sizes.iter().min().unwrap();
        let max = sizes.iter().max().unwrap();
        assert!(max > min, "VBR should vary block sizes: {min}..{max}");
    }

    #[test]
    fn recorded_clip_is_playable() {
        let (mut mrs, ropes) = standard_volume(&[ClipSpec::av_seconds(2.0)]).expect("build volume");
        let dur = mrs.rope(ropes[0]).unwrap().duration();
        let (_req, sched) = mrs
            .play("sim", ropes[0], MediaSel::Both, Interval::whole(dur))
            .unwrap();
        assert!(!sched.items.is_empty());
    }
}

//! Parameter bundles for the analytic model, following Table 1 of the
//! paper. [`DiskParams`] is also the disk side of admission control's
//! `α` and `β` (Eqs. 12–13): the MSM derives one per volume and hands it
//! to its `AdmissionController`.

use strandfs_disk::SimDisk;
use strandfs_media::{AudioFormat, VideoCodec};
use strandfs_units::{BitRate, Bits, FrameRate, SampleRate, Seconds};

/// Disk characteristics as the model and admission control see them.
#[derive(Clone, Copy, Debug)]
pub struct DiskParams {
    /// Sustained transfer rate, the paper's `R_dt` (bits/s).
    pub r_dt: BitRate,
    /// Worst-case positioning (full-stroke seek + one rotation), the
    /// paper's `l_seek_max`.
    pub l_seek_max: Seconds,
    /// Average positioning time between blocks placed under the
    /// scattering bound — the paper's `l_ds_avg` used in Eq. 13's `β`.
    pub l_ds_avg: Seconds,
}

impl DiskParams {
    /// Extract model parameters from a simulated disk, assuming blocks
    /// are scattered with an average cylinder separation of
    /// `avg_gap_cylinders`.
    pub fn from_disk(disk: &SimDisk, avg_gap_cylinders: u64) -> Self {
        DiskParams {
            r_dt: disk.geometry().track_transfer_rate(),
            l_seek_max: disk.max_positioning_time(),
            l_ds_avg: disk.positioning_time(avg_gap_cylinders),
        }
    }
}

/// A video stream's layout-relevant parameters.
#[derive(Clone, Copy, Debug)]
pub struct VideoStream {
    /// Granularity `q_vs`: frames per media block.
    pub q: u64,
    /// Frame size `s_vf` in bits (use the mean for VBR streams and the
    /// max for worst-case guarantees).
    pub s: Bits,
    /// Recording rate `R_vr`.
    pub rate: FrameRate,
    /// Display-path bandwidth `R_vd`.
    pub r_vd: BitRate,
}

impl VideoStream {
    /// A stream description from a codec, using mean frame size over the
    /// first `sample_frames` frames and the given display bandwidth.
    pub fn from_codec(codec: &VideoCodec, sample_frames: u64, r_vd: BitRate, q: u64) -> Self {
        VideoStream {
            q,
            s: codec.mean_frame_bits(sample_frames),
            rate: codec.format().rate,
            r_vd,
        }
    }

    /// Playback duration of one block: `q / R_vr` (also its recording
    /// duration).
    #[inline]
    pub fn block_playback(&self) -> Seconds {
        self.rate.duration_of(self.q)
    }

    /// Bits per block: `q · s_vf`.
    #[inline]
    pub fn block_bits(&self) -> Bits {
        Bits::new(self.q * self.s.get())
    }

    /// Transfer time of one block from disk: `q·s_vf / R_dt`.
    #[inline]
    pub fn block_transfer(&self, r_dt: BitRate) -> Seconds {
        r_dt.transfer_time(self.block_bits())
    }

    /// Display time of one block: `q·s_vf / R_vd`.
    #[inline]
    pub fn block_display(&self) -> Seconds {
        self.r_vd.transfer_time(self.block_bits())
    }
}

/// An audio stream's layout-relevant parameters.
#[derive(Clone, Copy, Debug)]
pub struct AudioStream {
    /// Granularity `q_as`: samples per media block.
    pub q: u64,
    /// Sample size `s_as` in bits.
    pub s: Bits,
    /// Recording rate `R_ar`.
    pub rate: SampleRate,
}

impl AudioStream {
    /// A stream description from an audio format with `q` samples per
    /// block.
    pub fn from_format(format: &AudioFormat, q: u64) -> Self {
        AudioStream {
            q,
            s: format.sample_bits(),
            rate: format.sample_rate,
        }
    }

    /// Playback duration of one block: `q / R_ar`.
    #[inline]
    pub fn block_playback(&self) -> Seconds {
        self.rate.duration_of(self.q)
    }

    /// Bits per block: `q · s_as`.
    #[inline]
    pub fn block_bits(&self) -> Bits {
        Bits::new(self.q * self.s.get())
    }

    /// Transfer time of one block from disk.
    #[inline]
    pub fn block_transfer(&self, r_dt: BitRate) -> Seconds {
        r_dt.transfer_time(self.block_bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strandfs_disk::{DiskGeometry, SeekModel};

    fn stream() -> VideoStream {
        VideoStream {
            q: 3,
            s: Bits::new(96_000), // 12 KB frames
            rate: FrameRate::NTSC,
            r_vd: BitRate::mbit_per_sec(100.0),
        }
    }

    #[test]
    fn video_block_quantities() {
        let v = stream();
        assert!((v.block_playback().get() - 0.1).abs() < 1e-12);
        assert_eq!(v.block_bits(), Bits::new(288_000));
        let t = v.block_transfer(BitRate::mbit_per_sec(2.88));
        assert!((t.get() - 0.1).abs() < 1e-12);
        let d = v.block_display();
        assert!((d.get() - 288_000.0 / 100e6).abs() < 1e-12);
    }

    #[test]
    fn audio_block_quantities() {
        let a = AudioStream::from_format(&AudioFormat::UVC_TELEPHONE, 800);
        assert!((a.block_playback().get() - 0.1).abs() < 1e-12);
        assert_eq!(a.block_bits(), Bits::new(6_400));
    }

    #[test]
    fn disk_params_from_disk() {
        let d = SimDisk::new(DiskGeometry::vintage_1991(), SeekModel::vintage_1991());
        let p = DiskParams::from_disk(&d, 10);
        assert!(p.r_dt.is_valid());
        assert!(p.l_seek_max > p.l_ds_avg);
        assert!(p.l_ds_avg.get() > 0.0);
    }

    #[test]
    fn from_codec_uses_mean() {
        let codec = VideoCodec::uvc_ntsc(0);
        let v = VideoStream::from_codec(&codec, 30, BitRate::mbit_per_sec(100.0), 5);
        assert_eq!(v.q, 5);
        assert_eq!(v.s, codec.mean_frame_bits(30));
    }
}

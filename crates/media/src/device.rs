//! Media device models: the display peripheral and the retrieval
//! architectures that feed it.
//!
//! §3.3.4 of the paper derives storage granularity from the *internal
//! buffers of the display device*: with `f` frame buffers, a pipelined
//! device splits them into two halves of `f/2`, and a `p`-way concurrent
//! device into `p` groups of `f/p`; granularity `q_vs` may then be chosen
//! anywhere in `1..=f/2` (or `1..=f/p`). These types carry exactly that
//! information.

use crate::codec::CodecTiming;
use crate::format::VideoFormat;
use strandfs_units::{BitRate, Seconds};

/// The disk-to-display organization of §3.1 (Figs. 1–3).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RetrievalArchitecture {
    /// Read a block, then display it, strictly alternating (Fig. 1).
    Sequential,
    /// Read block `i+1` while displaying block `i` (Fig. 2).
    Pipelined,
    /// `p` concurrent disk accesses feeding one display (Fig. 3).
    Concurrent {
        /// Degree of concurrency (number of simultaneous disk accesses).
        p: u32,
    },
}

impl RetrievalArchitecture {
    /// Buffers required to satisfy *strict* continuity (§3.3.2):
    /// 1, 2 and `p` blocks respectively.
    pub fn strict_buffers(&self) -> u32 {
        match *self {
            RetrievalArchitecture::Sequential => 1,
            RetrievalArchitecture::Pipelined => 2,
            RetrievalArchitecture::Concurrent { p } => p,
        }
    }

    /// Read-ahead (blocks) required when continuity is satisfied over an
    /// average of `k` successive blocks: `k`, `k` and `p·k` (§3.3.2).
    pub fn read_ahead(&self, k: u32) -> u32 {
        match *self {
            RetrievalArchitecture::Sequential | RetrievalArchitecture::Pipelined => k,
            RetrievalArchitecture::Concurrent { p } => p * k,
        }
    }

    /// Buffers required under `k`-averaged continuity: `k`, `2k` and
    /// `p·k` (§3.3.2 — pipelined doubles the read-ahead because one set
    /// displays while the other fills).
    pub fn averaged_buffers(&self, k: u32) -> u32 {
        match *self {
            RetrievalArchitecture::Sequential => k,
            RetrievalArchitecture::Pipelined => 2 * k,
            RetrievalArchitecture::Concurrent { p } => p * k,
        }
    }
}

/// A display peripheral: decompress + D/A hardware with `f` internal
/// frame buffers fed directly from disk.
#[derive(Clone, Debug)]
pub struct DisplayDevice {
    /// The video format the device displays.
    pub format: VideoFormat,
    /// Codec timing (the display direction is used).
    pub timing: CodecTiming,
    /// Internal buffer capacity in frames (the paper's `f`).
    pub frame_buffers: u32,
    /// Effective display-path bandwidth (the paper's `R_vd`).
    pub display_rate: BitRate,
}

impl DisplayDevice {
    /// A device matching the paper's UVC display hardware, generalized to
    /// `frame_buffers` internal buffers. Display bandwidth is set to 4×
    /// the raw stream rate: decompression hardware must outpace the
    /// stream or it could never sustain real time.
    pub fn uvc(frame_buffers: u32) -> Self {
        let format = VideoFormat::UVC_NTSC;
        DisplayDevice {
            format,
            timing: CodecTiming::real_time(&format, 0.5),
            frame_buffers,
            display_rate: format.raw_bit_rate() * 4.0,
        }
    }

    /// Maximum storage granularity (frames/block) usable with this device
    /// under `arch` (§3.3.4): `f` for sequential (single buffer set),
    /// `f/2` for pipelined, `f/p` for concurrent. At least 1 when any
    /// buffer exists.
    pub fn max_granularity(&self, arch: RetrievalArchitecture) -> u32 {
        let f = self.frame_buffers;
        let q = match arch {
            RetrievalArchitecture::Sequential => f,
            RetrievalArchitecture::Pipelined => f / 2,
            RetrievalArchitecture::Concurrent { p } => f / p.max(1),
        };
        q.max(1)
    }

    /// Time for this device to display one block of `q` frames of mean
    /// size `mean_frame_bits`: the `q·s_vf / R_vd` term of Eq. 1.
    pub fn block_display_time(&self, q: u32, mean_frame_bits: strandfs_units::Bits) -> Seconds {
        self.display_rate
            .transfer_time(strandfs_units::Bits::new(mean_frame_bits.get() * q as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strict_buffer_counts_match_paper() {
        assert_eq!(RetrievalArchitecture::Sequential.strict_buffers(), 1);
        assert_eq!(RetrievalArchitecture::Pipelined.strict_buffers(), 2);
        assert_eq!(
            RetrievalArchitecture::Concurrent { p: 8 }.strict_buffers(),
            8
        );
    }

    #[test]
    fn averaged_requirements_match_paper() {
        let k = 5;
        assert_eq!(RetrievalArchitecture::Sequential.read_ahead(k), 5);
        assert_eq!(RetrievalArchitecture::Pipelined.read_ahead(k), 5);
        assert_eq!(RetrievalArchitecture::Concurrent { p: 4 }.read_ahead(k), 20);
        assert_eq!(RetrievalArchitecture::Sequential.averaged_buffers(k), 5);
        assert_eq!(RetrievalArchitecture::Pipelined.averaged_buffers(k), 10);
        assert_eq!(
            RetrievalArchitecture::Concurrent { p: 4 }.averaged_buffers(k),
            20
        );
    }

    #[test]
    fn granularity_from_device_buffers() {
        let dev = DisplayDevice::uvc(16);
        assert_eq!(dev.max_granularity(RetrievalArchitecture::Sequential), 16);
        assert_eq!(dev.max_granularity(RetrievalArchitecture::Pipelined), 8);
        assert_eq!(
            dev.max_granularity(RetrievalArchitecture::Concurrent { p: 4 }),
            4
        );
        // Degenerate devices still admit q = 1.
        let tiny = DisplayDevice::uvc(1);
        assert_eq!(tiny.max_granularity(RetrievalArchitecture::Pipelined), 1);
    }

    #[test]
    fn display_time_scales_with_block() {
        let dev = DisplayDevice::uvc(8);
        let s = strandfs_units::Bits::new(1_000_000);
        let t1 = dev.block_display_time(1, s);
        let t4 = dev.block_display_time(4, s);
        assert!((t4.get() - 4.0 * t1.get()).abs() < 1e-12);
        // Display hardware outpaces real time: one frame displays faster
        // than one frame period.
        let frame = dev.format.raw_frame_bits();
        assert!(dev.block_display_time(1, frame) < dev.format.rate.frame_time());
    }
}

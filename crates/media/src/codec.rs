//! Synthetic video compression.
//!
//! The UVC boards of the paper compressed NTSC in real time; the paper's
//! future-work section anticipates *variable-rate* compression
//! (inter-frame differencing). [`VideoCodec`] models both regimes: a
//! fixed compression ratio, or scene-structured variable sizes where
//! intra-coded frames at scene starts are large and difference-coded
//! frames shrink with temporal stability. Sizes are a pure function of
//! `(seed, frame index)`, so every run of an experiment sees the same
//! stream.

use crate::format::VideoFormat;
use strandfs_units::{Bits, Prng, Seconds};

/// How compressed frame sizes vary over time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FrameSizeModel {
    /// Every frame compresses to exactly `ratio` of its raw size.
    ConstantRate {
        /// Compressed size / raw size, in `(0, 1]`.
        ratio: f64,
    },
    /// Scene-structured variable bit rate: each scene opens with an
    /// intra-coded frame near `intra_ratio` of raw size, followed by
    /// difference frames near `inter_ratio`, with multiplicative jitter.
    Variable {
        /// Compression ratio of scene-opening (intra) frames.
        intra_ratio: f64,
        /// Compression ratio of difference (inter) frames.
        inter_ratio: f64,
        /// Mean scene length in frames (geometric distribution).
        mean_scene_len: u32,
        /// Multiplicative jitter half-width, e.g. 0.2 for ±20 %.
        jitter: f64,
    },
}

/// Service times of the media hardware path.
///
/// The paper assumes capture (digitize + compress) and display
/// (decompress + DAC) take approximately equal time; both default to a
/// fixed fraction of the frame period, as real-time codec hardware must
/// sustain.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CodecTiming {
    /// Time to digitize and compress one frame.
    pub capture_per_frame: Seconds,
    /// Time to decompress and convert one frame for display.
    pub display_per_frame: Seconds,
}

impl CodecTiming {
    /// Real-time hardware: both directions take `fraction` of the frame
    /// period at `format`'s rate.
    pub fn real_time(format: &VideoFormat, fraction: f64) -> Self {
        let t = format.rate.frame_time() * fraction;
        CodecTiming {
            capture_per_frame: t,
            display_per_frame: t,
        }
    }
}

/// A deterministic synthetic video compressor.
#[derive(Clone, Debug)]
pub struct VideoCodec {
    format: VideoFormat,
    model: FrameSizeModel,
    timing: CodecTiming,
    seed: u64,
}

impl VideoCodec {
    /// A codec for `format` with the given size model and timing.
    pub fn new(format: VideoFormat, model: FrameSizeModel, timing: CodecTiming, seed: u64) -> Self {
        if let FrameSizeModel::ConstantRate { ratio } = model {
            assert!(ratio > 0.0 && ratio <= 1.0, "ratio must be in (0,1]");
        }
        VideoCodec {
            format,
            model,
            timing,
            seed,
        }
    }

    /// The paper's UVC board: NTSC compressed ~12:1 at a constant rate,
    /// real-time (half a frame period each way).
    pub fn uvc_ntsc(seed: u64) -> Self {
        let format = VideoFormat::UVC_NTSC;
        VideoCodec::new(
            format,
            FrameSizeModel::ConstantRate { ratio: 1.0 / 12.0 },
            CodecTiming::real_time(&format, 0.5),
            seed,
        )
    }

    /// A variable-bit-rate variant of the UVC board, for the paper's
    /// future-work experiments on compression-aware bounds.
    pub fn uvc_ntsc_vbr(seed: u64) -> Self {
        let format = VideoFormat::UVC_NTSC;
        VideoCodec::new(
            format,
            FrameSizeModel::Variable {
                intra_ratio: 1.0 / 6.0,
                inter_ratio: 1.0 / 20.0,
                mean_scene_len: 90,
                jitter: 0.2,
            },
            CodecTiming::real_time(&format, 0.5),
            seed,
        )
    }

    /// The video format being compressed.
    pub fn format(&self) -> &VideoFormat {
        &self.format
    }

    /// The codec's timing model.
    pub fn timing(&self) -> &CodecTiming {
        &self.timing
    }

    /// Compressed size of frame `index`, in bits. Deterministic in
    /// `(seed, index)`; at least 8 bits (a degenerate all-black frame
    /// still carries a header).
    pub fn frame_bits(&self, index: u64) -> Bits {
        let raw = self.format.raw_frame_bits().as_f64();
        let bits = match self.model {
            FrameSizeModel::ConstantRate { ratio } => raw * ratio,
            FrameSizeModel::Variable {
                intra_ratio,
                inter_ratio,
                mean_scene_len,
                jitter,
            } => {
                // Derive this frame's scene phase by walking a seeded
                // geometric scene process. To stay O(1) per query we hash
                // the scene grid: frame `i` is intra iff a per-frame coin
                // with probability 1/mean_scene_len lands heads.
                let mut rng = self.frame_rng(index);
                let is_intra = index == 0 || rng.gen_range(0..mean_scene_len.max(1)) == 0;
                let base = if is_intra { intra_ratio } else { inter_ratio };
                let j = 1.0 + rng.gen_range(-jitter..=jitter);
                raw * base * j
            }
        };
        Bits::new((bits.max(8.0)) as u64)
    }

    /// Mean compressed frame size over the first `n` frames.
    pub fn mean_frame_bits(&self, n: u64) -> Bits {
        assert!(n > 0, "mean over zero frames");
        let total: u64 = (0..n).map(|i| self.frame_bits(i).get()).sum();
        Bits::new(total / n)
    }

    /// Largest compressed frame among the first `n`.
    pub fn max_frame_bits(&self, n: u64) -> Bits {
        (0..n)
            .map(|i| self.frame_bits(i))
            .max()
            .unwrap_or(Bits::ZERO)
    }

    /// A synthetic payload for frame `index` of the given size in bytes.
    /// Deterministic; used when actually storing frames on the simulated
    /// disk so read-back verification is meaningful.
    pub fn frame_payload(&self, index: u64, bytes: usize) -> Vec<u8> {
        let mut out = Vec::new();
        self.frame_payload_into(index, bytes, &mut out);
        out
    }

    /// [`Self::frame_payload`] into a caller-owned buffer, replacing
    /// its contents: a recording loop reuses one buffer for every frame
    /// instead of allocating, filling and freeing one each.
    pub fn frame_payload_into(&self, index: u64, bytes: usize, out: &mut Vec<u8>) {
        out.resize(bytes, 0);
        self.frame_rng(index ^ 0x5061_796c_6f61_6421)
            .fill_bytes(out);
    }

    fn frame_rng(&self, index: u64) -> Prng {
        // Mix seed and index through splitmix64 for decorrelated streams.
        Prng::seed_from_u64(strandfs_units::prng::mix_seed(self.seed, index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_rate_is_exact() {
        let c = VideoCodec::uvc_ntsc(1);
        let raw = c.format().raw_frame_bits().as_f64();
        for i in 0..10 {
            let b = c.frame_bits(i).as_f64();
            assert!((b - raw / 12.0).abs() <= 1.0, "frame {i}: {b}");
        }
    }

    #[test]
    fn uvc_rate_is_sub_3_mbit_per_frame_pair() {
        // 34.56 Mbit/s / 12 = 2.88 Mbit/s compressed stream.
        let c = VideoCodec::uvc_ntsc(0);
        let per_sec = c.frame_bits(0).as_f64() * 30.0;
        assert!((per_sec - 2.88e6).abs() < 1e3, "{per_sec}");
    }

    #[test]
    fn vbr_is_deterministic_per_seed() {
        let a = VideoCodec::uvc_ntsc_vbr(7);
        let b = VideoCodec::uvc_ntsc_vbr(7);
        let c = VideoCodec::uvc_ntsc_vbr(8);
        let va: Vec<_> = (0..50).map(|i| a.frame_bits(i)).collect();
        let vb: Vec<_> = (0..50).map(|i| b.frame_bits(i)).collect();
        let vc: Vec<_> = (0..50).map(|i| c.frame_bits(i)).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn vbr_first_frame_is_intra_sized() {
        let c = VideoCodec::uvc_ntsc_vbr(3);
        let raw = c.format().raw_frame_bits().as_f64();
        let first = c.frame_bits(0).as_f64();
        // intra ratio 1/6 with ±20 % jitter.
        assert!(first > raw / 6.0 * 0.79 && first < raw / 6.0 * 1.21);
    }

    #[test]
    fn vbr_sizes_vary() {
        let c = VideoCodec::uvc_ntsc_vbr(11);
        let sizes: Vec<_> = (0..200).map(|i| c.frame_bits(i).get()).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max > min * 2, "expected intra/inter spread: {min}..{max}");
    }

    #[test]
    fn aggregates() {
        let c = VideoCodec::uvc_ntsc_vbr(5);
        let mean = c.mean_frame_bits(100);
        let max = c.max_frame_bits(100);
        assert!(max >= mean);
        assert!(mean.get() > 0);
    }

    #[test]
    fn payload_deterministic_and_sized() {
        let c = VideoCodec::uvc_ntsc(9);
        let p1 = c.frame_payload(4, 256);
        let p2 = c.frame_payload(4, 256);
        let p3 = c.frame_payload(5, 256);
        assert_eq!(p1.len(), 256);
        assert_eq!(p1, p2);
        assert_ne!(p1, p3);
        // A reused buffer holds exactly the frame asked for, whatever
        // it held before — longer, shorter or empty.
        let mut buf = vec![0xEE; 999];
        for (index, bytes) in [(4, 256), (5, 256), (4, 0), (4, 256), (7, 1001)] {
            c.frame_payload_into(index, bytes, &mut buf);
            assert_eq!(buf, c.frame_payload(index, bytes));
        }
    }

    #[test]
    fn real_time_timing() {
        let t = CodecTiming::real_time(&VideoFormat::UVC_NTSC, 0.5);
        assert!((t.capture_per_frame.get() - 0.5 / 30.0).abs() < 1e-12);
        assert_eq!(t.capture_per_frame, t.display_per_frame);
    }

    #[test]
    #[should_panic(expected = "ratio must be in (0,1]")]
    fn bad_ratio_rejected() {
        VideoCodec::new(
            VideoFormat::UVC_NTSC,
            FrameSizeModel::ConstantRate { ratio: 1.5 },
            CodecTiming::real_time(&VideoFormat::UVC_NTSC, 0.5),
            0,
        );
    }
}

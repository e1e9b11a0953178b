//! Raw media formats and presets.

use strandfs_units::{BitRate, Bits, FrameRate, SampleRate};

/// Which medium a strand or block carries.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Medium {
    /// Motion video (sequences of frames).
    Video,
    /// Audio (sequences of samples).
    Audio,
}

impl Medium {
    /// Both media, video first: the order a rope segment lists them in.
    pub const ALL: [Medium; 2] = [Medium::Video, Medium::Audio];

    /// The other medium: the companion track beside this one.
    pub fn other(self) -> Medium {
        match self {
            Medium::Video => Medium::Audio,
            Medium::Audio => Medium::Video,
        }
    }
}

impl std::fmt::Display for Medium {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Medium::Video => write!(f, "video"),
            Medium::Audio => write!(f, "audio"),
        }
    }
}

/// Geometry and rate of an uncompressed video stream.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VideoFormat {
    /// Horizontal resolution in pixels.
    pub width: u32,
    /// Vertical resolution in pixels.
    pub height: u32,
    /// Colour depth in bits per pixel.
    pub bits_per_pixel: u32,
    /// Recording/display rate (the paper's `R_vr`).
    pub rate: FrameRate,
}

impl VideoFormat {
    /// The paper's UVC capture hardware: NTSC broadcast at 480×200 pixels,
    /// 12 bits of colour per pixel, 30 frames/s.
    pub const UVC_NTSC: VideoFormat = VideoFormat {
        width: 480,
        height: 200,
        bits_per_pixel: 12,
        rate: FrameRate::NTSC,
    };

    /// An HDTV-class stream, the paper's high-end example requiring up to
    /// 2.5 Gbit/s uncompressed.
    pub const HDTV: VideoFormat = VideoFormat {
        width: 1920,
        height: 1080,
        bits_per_pixel: 24,
        rate: FrameRate::HDTV60,
    };

    /// Bits per uncompressed frame (the paper's `s_vf` before
    /// compression).
    #[inline]
    pub fn raw_frame_bits(&self) -> Bits {
        Bits::new(self.width as u64 * self.height as u64 * self.bits_per_pixel as u64)
    }

    /// Uncompressed stream rate: `raw_frame_bits × R_vr`.
    #[inline]
    pub fn raw_bit_rate(&self) -> BitRate {
        BitRate::bits_per_sec(self.raw_frame_bits().as_f64() * self.rate.get())
    }
}

/// Sample geometry and rate of an audio stream.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AudioFormat {
    /// Sampling rate (the paper's `R_ar`).
    pub sample_rate: SampleRate,
    /// Bits per sample (the paper's `s_as`).
    pub bits_per_sample: u32,
}

impl AudioFormat {
    /// The paper's audio hardware: 8 KBytes/s = 8 kHz × 8-bit samples.
    pub const UVC_TELEPHONE: AudioFormat = AudioFormat {
        sample_rate: SampleRate::TELEPHONE,
        bits_per_sample: 8,
    };

    /// Bits per sample as a size.
    #[inline]
    pub fn sample_bits(&self) -> Bits {
        Bits::new(self.bits_per_sample as u64)
    }

    /// Stream rate: `bits_per_sample × R_ar`.
    #[inline]
    pub fn bit_rate(&self) -> BitRate {
        BitRate::bits_per_sec(self.bits_per_sample as f64 * self.sample_rate.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uvc_ntsc_matches_paper_hardware() {
        let f = VideoFormat::UVC_NTSC;
        assert_eq!(f.raw_frame_bits(), Bits::new(480 * 200 * 12));
        // 1.152 Mbit/frame at 30 fps = 34.56 Mbit/s raw.
        assert!((f.raw_bit_rate().as_mbit_per_sec() - 34.56).abs() < 1e-9);
    }

    #[test]
    fn hdtv_is_gigabit_class() {
        let f = VideoFormat::HDTV;
        // 1920*1080*24*60 ≈ 2.99 Gbit/s raw — the paper quotes "up to
        // 2.5 Gbit/s" for HDTV-quality strands.
        let gbit = f.raw_bit_rate().get() / 1e9;
        assert!(gbit > 2.0 && gbit < 3.5, "{gbit}");
    }

    #[test]
    fn telephone_audio_is_8_kbytes_per_sec() {
        let a = AudioFormat::UVC_TELEPHONE;
        assert!((a.bit_rate().get() - 64_000.0).abs() < 1e-9); // 8 KB/s
    }

    #[test]
    fn medium_display() {
        assert_eq!(Medium::Video.to_string(), "video");
        assert_eq!(Medium::Audio.to_string(), "audio");
    }
}

//! Rates: data transfer, video frame and audio sample rates.

use crate::{Bits, Seconds};
use std::fmt;
use std::ops::{Div, Mul};

/// A data rate in bits per second (the paper's `R_dt`, `R_vd`).
#[derive(Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct BitRate(f64);

impl BitRate {
    /// `n` bits per second.
    #[inline]
    pub const fn bits_per_sec(n: f64) -> Self {
        BitRate(n)
    }

    /// `n` megabits per second (decimal, 10⁶).
    #[inline]
    pub fn mbit_per_sec(n: f64) -> Self {
        BitRate(n * 1e6)
    }

    /// `n` gigabits per second (decimal, 10⁹).
    #[inline]
    pub fn gbit_per_sec(n: f64) -> Self {
        BitRate(n * 1e9)
    }

    /// `n` bytes per second.
    #[inline]
    pub fn bytes_per_sec(n: f64) -> Self {
        BitRate(n * 8.0)
    }

    /// The rate in bits per second.
    #[inline]
    pub const fn get(self) -> f64 {
        self.0
    }

    /// The rate in megabits per second.
    #[inline]
    pub fn as_mbit_per_sec(self) -> f64 {
        self.0 / 1e6
    }

    /// Time to transfer `size` at this rate.
    #[inline]
    pub fn transfer_time(self, size: Bits) -> Seconds {
        Seconds(size.as_f64() / self.0)
    }

    /// True if the rate is finite and strictly positive.
    #[inline]
    pub fn is_valid(self) -> bool {
        self.0.is_finite() && self.0 > 0.0
    }
}

impl Mul<f64> for BitRate {
    type Output = BitRate;
    #[inline]
    fn mul(self, rhs: f64) -> BitRate {
        BitRate(self.0 * rhs)
    }
}

impl Div<f64> for BitRate {
    type Output = BitRate;
    #[inline]
    fn div(self, rhs: f64) -> BitRate {
        BitRate(self.0 / rhs)
    }
}

impl fmt::Debug for BitRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}bit/s", self.0)
    }
}

impl fmt::Display for BitRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let r = self.0;
        if r >= 1e9 {
            write!(f, "{:.3}Gbit/s", r / 1e9)
        } else if r >= 1e6 {
            write!(f, "{:.3}Mbit/s", r / 1e6)
        } else if r >= 1e3 {
            write!(f, "{:.3}Kbit/s", r / 1e3)
        } else {
            write!(f, "{r:.1}bit/s")
        }
    }
}

/// A video recording/display rate in frames per second (the paper's `R_vr`).
#[derive(Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct FrameRate(f64);

impl FrameRate {
    /// NTSC broadcast frame rate.
    pub const NTSC: FrameRate = FrameRate(30.0);
    /// HDTV (progressive 60 Hz) frame rate.
    pub const HDTV60: FrameRate = FrameRate(60.0);

    /// `n` frames per second.
    #[inline]
    pub const fn per_sec(n: f64) -> Self {
        FrameRate(n)
    }

    /// The rate in frames per second.
    #[inline]
    pub const fn get(self) -> f64 {
        self.0
    }

    /// Playback duration of `frames` consecutive frames at this rate —
    /// the paper's `q_vs / R_vr` when `frames = q_vs`.
    #[inline]
    pub fn duration_of(self, frames: u64) -> Seconds {
        Seconds(frames as f64 / self.0)
    }

    /// The duration of a single frame.
    #[inline]
    pub fn frame_time(self) -> Seconds {
        Seconds(1.0 / self.0)
    }

    /// True if the rate is finite and strictly positive.
    #[inline]
    pub fn is_valid(self) -> bool {
        self.0.is_finite() && self.0 > 0.0
    }
}

impl Mul<f64> for FrameRate {
    type Output = FrameRate;
    #[inline]
    fn mul(self, rhs: f64) -> FrameRate {
        FrameRate(self.0 * rhs)
    }
}

impl fmt::Debug for FrameRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}fps", self.0)
    }
}

impl fmt::Display for FrameRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}fps", self.0)
    }
}

/// An audio recording rate in samples per second (the paper's `R_ar`).
#[derive(Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SampleRate(f64);

impl SampleRate {
    /// Telephone-quality 8 kHz (the paper's UVC hardware digitized at
    /// 8 KBytes/s with 8-bit samples).
    pub const TELEPHONE: SampleRate = SampleRate(8_000.0);

    /// `n` samples per second.
    #[inline]
    pub const fn per_sec(n: f64) -> Self {
        SampleRate(n)
    }

    /// The rate in samples per second.
    #[inline]
    pub const fn get(self) -> f64 {
        self.0
    }

    /// Playback duration of `samples` consecutive samples at this rate.
    #[inline]
    pub fn duration_of(self, samples: u64) -> Seconds {
        Seconds(samples as f64 / self.0)
    }

    /// True if the rate is finite and strictly positive.
    #[inline]
    pub fn is_valid(self) -> bool {
        self.0.is_finite() && self.0 > 0.0
    }
}

impl fmt::Debug for SampleRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}Hz", self.0)
    }
}

impl fmt::Display for SampleRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.0}Hz", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitrate_constructors() {
        assert_eq!(BitRate::mbit_per_sec(1.0).get(), 1e6);
        assert_eq!(BitRate::gbit_per_sec(2.5).get(), 2.5e9);
        assert_eq!(BitRate::bytes_per_sec(1000.0).get(), 8000.0);
    }

    #[test]
    fn transfer_time() {
        // 8 Mbit at 8 Mbit/s takes exactly 1 second.
        let r = BitRate::mbit_per_sec(8.0);
        let t = r.transfer_time(Bits::new(8_000_000));
        assert!((t.get() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn frame_rate_durations() {
        let ntsc = FrameRate::NTSC;
        assert!((ntsc.duration_of(30).get() - 1.0).abs() < 1e-12);
        assert!((ntsc.frame_time().get() - 1.0 / 30.0).abs() < 1e-12);
    }

    #[test]
    fn sample_rate_durations() {
        let tel = SampleRate::TELEPHONE;
        assert!((tel.duration_of(8_000).get() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn validity() {
        assert!(BitRate::mbit_per_sec(1.0).is_valid());
        assert!(!BitRate::bits_per_sec(0.0).is_valid());
        assert!(!BitRate::bits_per_sec(f64::NAN).is_valid());
        assert!(FrameRate::NTSC.is_valid());
        assert!(!FrameRate::per_sec(-1.0).is_valid());
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", BitRate::gbit_per_sec(2.5)), "2.500Gbit/s");
        assert_eq!(format!("{}", FrameRate::NTSC), "30.00fps");
        assert_eq!(format!("{}", SampleRate::TELEPHONE), "8000Hz");
    }
}

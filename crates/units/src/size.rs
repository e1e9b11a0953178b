//! Data sizes: bits and bytes.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A size in whole bytes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bytes(u64);

impl Bytes {
    /// The zero size.
    pub const ZERO: Bytes = Bytes(0);

    /// `n` bytes.
    #[inline]
    pub const fn new(n: u64) -> Self {
        Bytes(n)
    }

    /// `n` kibibytes (1024 bytes).
    #[inline]
    pub const fn kib(n: u64) -> Self {
        Bytes(n * 1024)
    }

    /// The value in bytes.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// The value in bits.
    #[inline]
    pub const fn to_bits(self) -> Bits {
        Bits(self.0 * 8)
    }

    /// The value as `f64` bytes (for rate arithmetic).
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Ceiling division: the number of `unit`-sized chunks needed to hold
    /// this many bytes. `unit` must be non-zero.
    #[inline]
    pub const fn div_ceil(self, unit: Bytes) -> u64 {
        self.0.div_ceil(unit.0)
    }

    /// True if the size is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[inline]
    pub const fn saturating_sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Bytes {
    type Output = Bytes;
    #[inline]
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl AddAssign for Bytes {
    #[inline]
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 += rhs.0;
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    #[inline]
    fn sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 - rhs.0)
    }
}

impl Mul<u64> for Bytes {
    type Output = Bytes;
    #[inline]
    fn mul(self, rhs: u64) -> Bytes {
        Bytes(self.0 * rhs)
    }
}

impl Div<u64> for Bytes {
    type Output = Bytes;
    #[inline]
    fn div(self, rhs: u64) -> Bytes {
        Bytes(self.0 / rhs)
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        iter.fold(Bytes::ZERO, Add::add)
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}B", self.0)
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        if b >= 1 << 30 {
            write!(f, "{:.2}GiB", b as f64 / (1u64 << 30) as f64)
        } else if b >= 1 << 20 {
            write!(f, "{:.2}MiB", b as f64 / (1u64 << 20) as f64)
        } else if b >= 1 << 10 {
            write!(f, "{:.2}KiB", b as f64 / 1024.0)
        } else {
            write!(f, "{b}B")
        }
    }
}

/// A size in whole bits.
///
/// The paper expresses frame sizes (`s_vf`) and sample sizes (`s_as`) in
/// bits, and disk transfer rates in bits per second; `Bits` keeps those
/// formulas literal.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bits(u64);

impl Bits {
    /// The zero size.
    pub const ZERO: Bits = Bits(0);

    /// `n` bits.
    #[inline]
    pub const fn new(n: u64) -> Self {
        Bits(n)
    }

    /// The value in bits.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// The number of whole bytes needed to store this many bits.
    #[inline]
    pub const fn to_bytes_ceil(self) -> Bytes {
        Bytes(self.0.div_ceil(8))
    }

    /// The value as `f64` bits.
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }
}

impl Add for Bits {
    type Output = Bits;
    #[inline]
    fn add(self, rhs: Bits) -> Bits {
        Bits(self.0 + rhs.0)
    }
}

impl Sub for Bits {
    type Output = Bits;
    #[inline]
    fn sub(self, rhs: Bits) -> Bits {
        Bits(self.0 - rhs.0)
    }
}

impl Mul<u64> for Bits {
    type Output = Bits;
    #[inline]
    fn mul(self, rhs: u64) -> Bits {
        Bits(self.0 * rhs)
    }
}

impl Sum for Bits {
    fn sum<I: Iterator<Item = Bits>>(iter: I) -> Bits {
        iter.fold(Bits::ZERO, Add::add)
    }
}

impl fmt::Debug for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}b", self.0)
    }
}

impl fmt::Display for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        if b >= 1_000_000_000 {
            write!(f, "{:.2}Gbit", b as f64 / 1e9)
        } else if b >= 1_000_000 {
            write!(f, "{:.2}Mbit", b as f64 / 1e6)
        } else if b >= 1_000 {
            write!(f, "{:.2}Kbit", b as f64 / 1e3)
        } else {
            write!(f, "{b}bit")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_constructors() {
        assert_eq!(Bytes::kib(4), Bytes::new(4096));
    }

    #[test]
    fn bytes_bits_round_trip() {
        assert_eq!(Bytes::new(100).to_bits(), Bits::new(800));
        assert_eq!(Bits::new(800).to_bytes_ceil(), Bytes::new(100));
        assert_eq!(Bits::new(801).to_bytes_ceil(), Bytes::new(101));
        assert_eq!(Bits::new(0).to_bytes_ceil(), Bytes::ZERO);
    }

    #[test]
    fn bytes_div_ceil() {
        assert_eq!(Bytes::new(1000).div_ceil(Bytes::new(512)), 2);
        assert_eq!(Bytes::new(1024).div_ceil(Bytes::new(512)), 2);
        assert_eq!(Bytes::new(1025).div_ceil(Bytes::new(512)), 3);
    }

    #[test]
    fn bytes_arithmetic() {
        assert_eq!(Bytes::new(3) + Bytes::new(4), Bytes::new(7));
        assert_eq!(Bytes::new(10) - Bytes::new(4), Bytes::new(6));
        assert_eq!(Bytes::new(4).saturating_sub(Bytes::new(10)), Bytes::ZERO);
        assert_eq!(Bytes::new(3) * 4, Bytes::new(12));
        assert_eq!(Bytes::new(12) / 4, Bytes::new(3));
    }

    #[test]
    fn display_human_readable() {
        assert_eq!(format!("{}", Bytes::new(512)), "512B");
        assert_eq!(format!("{}", Bytes::kib(4)), "4.00KiB");
        assert_eq!(format!("{}", Bytes::kib(3 * 1024)), "3.00MiB");
        assert_eq!(format!("{}", Bits::new(2_500_000_000)), "2.50Gbit");
    }
}

//! Virtual time for the discrete-event simulation and analytic time for the
//! continuity model.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A span of virtual time, in integer nanoseconds.
///
/// All simulated disk service times, playback durations and round lengths
/// are expressed as `Nanos` so that event ordering is exact and
/// reproducible. Arithmetic is checked in debug builds (standard integer
/// overflow semantics).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(u64);

impl Nanos {
    /// The zero span.
    pub const ZERO: Nanos = Nanos(0);
    /// The maximum representable span (used as an "infinite" sentinel).
    pub const MAX: Nanos = Nanos(u64::MAX);

    /// A span of `n` nanoseconds.
    #[inline]
    pub const fn from_nanos(n: u64) -> Self {
        Nanos(n)
    }

    /// A span of `n` microseconds.
    #[inline]
    pub const fn from_micros(n: u64) -> Self {
        Nanos(n * 1_000)
    }

    /// A span of `n` milliseconds.
    #[inline]
    pub const fn from_millis(n: u64) -> Self {
        Nanos(n * 1_000_000)
    }

    /// A span of `n` whole seconds.
    #[inline]
    pub const fn from_secs(n: u64) -> Self {
        Nanos(n * 1_000_000_000)
    }

    /// A span from fractional seconds, rounding to the nearest nanosecond.
    ///
    /// Negative or non-finite inputs saturate to zero: analytic formulas
    /// occasionally produce tiny negative slack which, as a time span,
    /// means "no time at all".
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        if s.is_nan() || s <= 0.0 {
            return Nanos::ZERO;
        }
        let ns = s * 1e9;
        if ns >= u64::MAX as f64 {
            Nanos::MAX
        } else {
            Nanos(ns.round() as u64)
        }
    }

    /// The span as integer nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The span as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction: returns zero instead of underflowing.
    #[inline]
    pub const fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }

    /// Multiply the span by an integer count (e.g. `k` blocks × per-block time).
    #[inline]
    pub const fn mul_u64(self, k: u64) -> Nanos {
        Nanos(self.0 * k)
    }

    /// The larger of two spans.
    #[inline]
    pub fn max(self, other: Nanos) -> Nanos {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The smaller of two spans.
    #[inline]
    pub fn min(self, other: Nanos) -> Nanos {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// True if this is the zero span.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for Nanos {
    type Output = Nanos;
    #[inline]
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    #[inline]
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    #[inline]
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl SubAssign for Nanos {
    #[inline]
    fn sub_assign(&mut self, rhs: Nanos) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;
    #[inline]
    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0 * rhs)
    }
}

impl Div<u64> for Nanos {
    type Output = Nanos;
    #[inline]
    fn div(self, rhs: u64) -> Nanos {
        Nanos(self.0 / rhs)
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        iter.fold(Nanos::ZERO, Add::add)
    }
}

impl fmt::Debug for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

/// A point in virtual time: nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Instant(u64);

impl Instant {
    /// The simulation epoch.
    pub const EPOCH: Instant = Instant(0);

    /// An instant `n` nanoseconds after the epoch.
    #[inline]
    pub const fn from_nanos(n: u64) -> Self {
        Instant(n)
    }

    /// Nanoseconds since the epoch.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds since the epoch.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The span from `earlier` to `self`; zero if `earlier` is later.
    #[inline]
    pub const fn since(self, earlier: Instant) -> Nanos {
        Nanos(self.0.saturating_sub(earlier.0))
    }
}

impl Add<Nanos> for Instant {
    type Output = Instant;
    #[inline]
    fn add(self, rhs: Nanos) -> Instant {
        Instant(self.0 + rhs.as_nanos())
    }
}

impl AddAssign<Nanos> for Instant {
    #[inline]
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.as_nanos();
    }
}

impl Sub<Instant> for Instant {
    type Output = Nanos;
    #[inline]
    fn sub(self, rhs: Instant) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl Sub<Nanos> for Instant {
    type Output = Instant;
    #[inline]
    fn sub(self, rhs: Nanos) -> Instant {
        Instant(self.0 - rhs.as_nanos())
    }
}

impl fmt::Debug for Instant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", Nanos(self.0))
    }
}

impl fmt::Display for Instant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", Nanos(self.0))
    }
}

/// Analytic-model time in fractional seconds.
///
/// The continuity equations (Eqs. 1–6 of the paper) are relations between
/// real-valued durations; `Seconds` keeps them readable while staying a
/// distinct type from raw `f64`.
#[derive(Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Seconds(pub f64);

impl Seconds {
    /// The zero duration.
    pub const ZERO: Seconds = Seconds(0.0);

    /// Construct from fractional seconds.
    #[inline]
    pub const fn new(s: f64) -> Self {
        Seconds(s)
    }

    /// Construct from milliseconds.
    #[inline]
    pub fn from_millis(ms: f64) -> Self {
        Seconds(ms / 1e3)
    }

    /// The value in fractional seconds.
    #[inline]
    pub const fn get(self) -> f64 {
        self.0
    }

    /// Convert to exact nanoseconds, rounding (negative saturates to zero).
    #[inline]
    pub fn to_nanos(self) -> Nanos {
        Nanos::from_secs_f64(self.0)
    }

    /// True if the value is finite and non-negative.
    #[inline]
    pub fn is_valid(self) -> bool {
        self.0.is_finite() && self.0 >= 0.0
    }

    /// The larger of two durations.
    #[inline]
    pub fn max(self, other: Seconds) -> Seconds {
        Seconds(self.0.max(other.0))
    }

    /// The smaller of two durations.
    #[inline]
    pub fn min(self, other: Seconds) -> Seconds {
        Seconds(self.0.min(other.0))
    }
}

impl Add for Seconds {
    type Output = Seconds;
    #[inline]
    fn add(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 + rhs.0)
    }
}

impl Sub for Seconds {
    type Output = Seconds;
    #[inline]
    fn sub(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 - rhs.0)
    }
}

impl Mul<f64> for Seconds {
    type Output = Seconds;
    #[inline]
    fn mul(self, rhs: f64) -> Seconds {
        Seconds(self.0 * rhs)
    }
}

impl Div<f64> for Seconds {
    type Output = Seconds;
    #[inline]
    fn div(self, rhs: f64) -> Seconds {
        Seconds(self.0 / rhs)
    }
}

impl Div<Seconds> for Seconds {
    /// Dimensionless ratio of two durations.
    type Output = f64;
    #[inline]
    fn div(self, rhs: Seconds) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Seconds {
    fn sum<I: Iterator<Item = Seconds>>(iter: I) -> Seconds {
        iter.fold(Seconds::ZERO, Add::add)
    }
}

impl fmt::Debug for Seconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}s", self.0)
    }
}

impl fmt::Display for Seconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.abs() >= 1.0 {
            write!(f, "{:.4}s", self.0)
        } else {
            write!(f, "{:.4}ms", self.0 * 1e3)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nanos_constructors_agree() {
        assert_eq!(Nanos::from_secs(2), Nanos::from_nanos(2_000_000_000));
        assert_eq!(Nanos::from_millis(3), Nanos::from_micros(3_000));
        assert_eq!(Nanos::from_secs_f64(0.5), Nanos::from_millis(500));
    }

    #[test]
    fn nanos_from_secs_f64_saturates() {
        assert_eq!(Nanos::from_secs_f64(-1.0), Nanos::ZERO);
        assert_eq!(Nanos::from_secs_f64(f64::NAN), Nanos::ZERO);
        assert_eq!(Nanos::from_secs_f64(f64::INFINITY), Nanos::MAX);
    }

    #[test]
    fn nanos_arithmetic() {
        let a = Nanos::from_millis(10);
        let b = Nanos::from_millis(4);
        assert_eq!(a + b, Nanos::from_millis(14));
        assert_eq!(a - b, Nanos::from_millis(6));
        assert_eq!(b.saturating_sub(a), Nanos::ZERO);
        assert_eq!(a * 3, Nanos::from_millis(30));
        assert_eq!(a / 2, Nanos::from_millis(5));
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn nanos_sum() {
        let total: Nanos = (1..=4).map(Nanos::from_millis).sum();
        assert_eq!(total, Nanos::from_millis(10));
    }

    #[test]
    fn instant_arithmetic() {
        let t0 = Instant::EPOCH;
        let t1 = t0 + Nanos::from_secs(1);
        assert_eq!(t1 - t0, Nanos::from_secs(1));
        assert_eq!(t1.since(t0), Nanos::from_secs(1));
        assert_eq!(t0.since(t1), Nanos::ZERO);
        assert_eq!(t1 - Nanos::from_millis(500), t0 + Nanos::from_millis(500));
    }

    #[test]
    fn seconds_round_trip_through_nanos() {
        let s = Seconds::new(0.123_456_789);
        let ns = s.to_nanos();
        assert!((ns.as_secs_f64() - s.get()).abs() < 1e-9);
    }

    #[test]
    fn seconds_arithmetic_and_ratio() {
        let a = Seconds::new(1.5);
        let b = Seconds::new(0.5);
        assert_eq!((a + b).get(), 2.0);
        assert_eq!((a - b).get(), 1.0);
        assert_eq!((a * 2.0).get(), 3.0);
        assert_eq!((a / 3.0).get(), 0.5);
        assert_eq!(a / b, 3.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Nanos::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", Nanos::from_micros(12)), "12.000us");
        assert_eq!(format!("{}", Nanos::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", Nanos::from_secs(12)), "12.000s");
    }
}

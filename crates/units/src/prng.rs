//! A small, seeded, dependency-free pseudo-random number generator.
//!
//! The whole workspace must build and test with zero external crates and
//! no network, so the `rand` crate is replaced by this module: a
//! SplitMix64 seeder feeding xoshiro256** (Blackman & Vigna), which is
//! fast, passes BigCrush, and — crucially for reproducible experiments —
//! produces an identical stream for an identical seed on every platform.
//!
//! The API mirrors the handful of `rand` operations strandfs actually
//! uses: [`Prng::gen_range`] over integer and float ranges,
//! [`Prng::gen_f64`], [`Prng::gen_bool`] (Bernoulli trials),
//! [`Prng::fill_bytes`], [`Prng::shuffle`] and [`Prng::choose`].

use std::ops::{Range, RangeInclusive};

/// Advance a SplitMix64 state and return the next output.
///
/// Also useful on its own for decorrelating seeds (e.g. deriving a
/// per-frame stream from `(seed, frame index)`).
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash a seed and a stream label into a decorrelated sub-seed.
///
/// Used wherever one logical seed must drive several independent
/// streams (per-frame payloads, per-test-case inputs, …).
#[inline]
pub fn mix_seed(seed: u64, stream: u64) -> u64 {
    let mut s = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    splitmix64(&mut s)
}

/// A seeded xoshiro256** generator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Prng {
    s: [u64; 4],
}

impl Prng {
    /// A generator seeded from one `u64` via SplitMix64 (the seeding
    /// procedure recommended by the xoshiro authors).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Prng { s }
    }

    /// The next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform `f64` in `[0, 1)` with 53 random mantissa bits.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A Bernoulli trial: `true` with probability `p` (clamped to
    /// `[0, 1]`).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// A uniform value in a half-open or inclusive range, e.g.
    /// `rng.gen_range(0..n)` or `rng.gen_range(-1.0..=1.0)`.
    ///
    /// Panics on an empty range, like `rand`.
    #[inline]
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// Uniform `u64` in `[0, bound)` via Lemire-style rejection (exact,
    /// unbiased).
    #[inline]
    pub fn bounded_u64(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "cannot sample an empty range");
        // Rejection zone keeps the multiply-shift reduction unbiased.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Fill a byte slice with uniform random bytes: one output per
    /// started group of 8, little-endian, a short last group taking the
    /// low bytes. Every recorded payload byte is synthesized here.
    pub fn fill_bytes(&mut self, out: &mut [u8]) {
        let mut words = out.chunks_exact_mut(8);
        for word in &mut words {
            word.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let tail = words.into_remainder();
        if !tail.is_empty() {
            let v = self.next_u64().to_le_bytes();
            tail.copy_from_slice(&v[..tail.len()]);
        }
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.bounded_u64(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// A uniformly-chosen element (`None` for an empty slice).
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.bounded_u64(slice.len() as u64) as usize])
        }
    }
}

/// Ranges [`Prng::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Draw one uniform value.
    fn sample(self, rng: &mut Prng) -> T;
}

macro_rules! int_sample_range {
    ($($t:ty => $wide:ty),* $(,)?) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample(self, rng: &mut Prng) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as $wide).wrapping_sub(self.start as $wide) as u64;
                (self.start as $wide).wrapping_add(rng.bounded_u64(span) as $wide) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample(self, rng: &mut Prng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as $wide).wrapping_sub(lo as $wide) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (lo as $wide).wrapping_add(rng.bounded_u64(span + 1) as $wide) as $t
            }
        }
    )*};
}

int_sample_range!(
    u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64,
    i8 => i64, i16 => i64, i32 => i64, i64 => i64, isize => i64,
);

impl SampleRange<f64> for Range<f64> {
    #[inline]
    fn sample(self, rng: &mut Prng) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + rng.gen_f64() * (self.end - self.start)
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    #[inline]
    fn sample(self, rng: &mut Prng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "cannot sample empty range");
        lo + rng.gen_f64() * (hi - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut r = Prng::seed_from_u64(42);
            (0..100).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Prng::seed_from_u64(42);
            (0..100).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Prng::seed_from_u64(43);
            (0..100).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn known_answer_xoshiro256starstar() {
        // Reference: seeding state directly with {1,2,3,4} must produce
        // the published xoshiro256** sequence prefix.
        let mut r = Prng { s: [1, 2, 3, 4] };
        let got: Vec<u64> = (0..5).map(|_| r.next_u64()).collect();
        assert_eq!(
            got,
            vec![
                11520,
                0,
                1509978240,
                1215971899390074240,
                1216172134540287360
            ]
        );
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = Prng::seed_from_u64(7);
        for _ in 0..2_000 {
            let v = r.gen_range(10u64..20);
            assert!((10..20).contains(&v));
            let w = r.gen_range(-5i32..=5);
            assert!((-5..=5).contains(&w));
            let f = r.gen_range(-0.25f64..=0.25);
            assert!((-0.25..=0.25).contains(&f));
            let u = r.gen_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn bounded_is_roughly_uniform() {
        let mut r = Prng::seed_from_u64(1);
        let mut counts = [0u32; 10];
        for _ in 0..10_000 {
            counts[r.bounded_u64(10) as usize] += 1;
        }
        for c in counts {
            assert!((700..1300).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn bernoulli_matches_probability() {
        let mut r = Prng::seed_from_u64(3);
        let heads = (0..10_000).filter(|_| r.gen_bool(0.3)).count();
        assert!((2_700..3_300).contains(&heads), "{heads}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Prng::seed_from_u64(9);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements virtually never shuffle to identity");
    }

    #[test]
    fn choose_covers_slice() {
        let mut r = Prng::seed_from_u64(4);
        assert_eq!(r.choose::<u8>(&[]), None);
        let items = [1u8, 2, 3];
        let mut seen = [false; 3];
        for _ in 0..100 {
            seen[(*r.choose(&items).unwrap() - 1) as usize] = true;
        }
        assert_eq!(seen, [true; 3]);
    }

    #[test]
    fn fill_bytes_deterministic() {
        let mut a = vec![0u8; 37];
        let mut b = vec![0u8; 37];
        Prng::seed_from_u64(5).fill_bytes(&mut a);
        Prng::seed_from_u64(5).fill_bytes(&mut b);
        assert_eq!(a, b);
        assert!(a.iter().any(|&x| x != 0));
    }

    /// Content seeds, fault schedules and every image fingerprint sit
    /// downstream of both the bytes a fill writes and the state it
    /// leaves, so both are held to a byte-serial reference.
    #[test]
    fn fill_bytes_matches_the_byte_serial_stream_and_state() {
        for seed in [0, 1, 5, 41, u64::MAX] {
            for len in 0..=40usize {
                let mut reference = Prng::seed_from_u64(seed);
                let mut want = vec![0u8; len];
                let mut word = [0u8; 8];
                for (i, b) in want.iter_mut().enumerate() {
                    if i % 8 == 0 {
                        word = reference.next_u64().to_le_bytes();
                    }
                    *b = word[i % 8];
                }
                let mut rng = Prng::seed_from_u64(seed);
                let mut got = vec![0xA5u8; len];
                rng.fill_bytes(&mut got);
                assert_eq!(got, want, "seed {seed}, {len} bytes");
                assert_eq!(
                    rng.next_u64(),
                    reference.next_u64(),
                    "state after {len} bytes, seed {seed}"
                );
            }
        }
    }

    #[test]
    fn mix_seed_decorrelates_streams() {
        let a = mix_seed(1, 0);
        let b = mix_seed(1, 1);
        let c = mix_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, mix_seed(1, 0));
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        Prng::seed_from_u64(0).gen_range(5u32..5);
    }
}

//! The benchmark's own seeded generator: every input a workload hands
//! the system — clip seeds and lengths, viewer order, victims, flips —
//! is drawn from `--seed` through this.

/// SplitMix64.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, purpose)`; distinct purposes are independent.
    pub fn new(seed: u64, purpose: u64) -> Rng {
        let mut r = Rng(seed ^ purpose.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant at the
    /// sizes used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    /// A clip length in blocks: `nominal` ± `jitter`, so that virtual
    /// time depends on the seed the way it would on a real catalogue.
    pub fn clip_blocks(&mut self, nominal: u64, jitter: u64) -> u64 {
        nominal - jitter + self.below(2 * jitter + 1)
    }
}

//! A mergeable quantile sketch over signed nanosecond samples.
//!
//! The windowed monitor needs per-window margin quantiles at 100k
//! streams, which rules out holding samples. The classic choices are
//! P² (five markers, interpolated) and log₂ bucketing; P²'s markers
//! shift with arrival order, so merging two windows is lossy and the
//! result depends on fold order. The log₂ variant is deterministic and
//! mergeable — bucket counts add — at the cost of one-octave value
//! resolution, which is plenty for "is the p1 margin collapsing"
//! questions. Margins are *signed* (negative = late), so the buckets
//! mirror on both sides of zero; the duration distributions of
//! [`crate::ObsMetrics`] use the positive half and the exact total.

/// Log₂ buckets per sign, plus the zero bucket: indices `0..=63` hold
/// negative values (most negative lowest; `i64::MIN` needs exponent
/// 63), index 64 holds exact zeros, and `65..=127` hold positives
/// (exponents 0..=62 — positive `i64` tops out below 2⁶³, so the last
/// slot is spare symmetry padding).
const BUCKETS: usize = 129;

/// Index of the zero bucket.
const ZERO: usize = 64;

/// A fixed-size mergeable sketch of signed i64 samples.
///
/// Quantile answers are bucket lower bounds clamped to the exact
/// tracked min/max, so `quantile(0.0)` and `quantile(1.0)` are exact
/// and interior quantiles are within one octave of the true value.
/// The running total is exact (`i128` cannot overflow under `u64`-many
/// `i64` samples), so the mean is too.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuantileSketch {
    buckets: [u64; BUCKETS],
    count: u64,
    total: i128,
    min: i64,
    max: i64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        QuantileSketch {
            buckets: [0; BUCKETS],
            count: 0,
            total: 0,
            min: 0,
            max: 0,
        }
    }
}

/// Bucket index for a signed sample. Positive `v` lands in
/// `65 + floor(log2 v)`; negative `v` mirrors to `63 − floor(log2 |v|)`
/// so bucket order equals numeric order.
fn index_of(v: i64) -> usize {
    match v {
        0 => ZERO,
        v if v > 0 => ZERO + 1 + (63 - (v as u64).leading_zeros() as usize),
        v => ZERO - 1 - (63 - (v.unsigned_abs().leading_zeros() as usize)),
    }
}

/// The numeric lower bound of bucket `i` (the most pessimistic value
/// the bucket can hold): negative bucket `ZERO−1−e` covers
/// `[−(2^(e+1)−1), −2^e]`, the zero bucket is 0, positive bucket
/// `ZERO+1+e` covers `[2^e, 2^(e+1)−1]`.
fn lower_bound_of(i: usize) -> i64 {
    use std::cmp::Ordering;
    match i.cmp(&ZERO) {
        Ordering::Equal => 0,
        Ordering::Greater => 1i64 << (i - ZERO - 1),
        Ordering::Less => {
            let e = (ZERO - 1 - i) as u32;
            // −(2^(e+1) − 1), saturating at i64::MIN for the e = 63
            // bucket (computed in i128 to survive the negation).
            (-(((1u128 << (e + 1)) - 1) as i128)).max(i64::MIN as i128) as i64
        }
    }
}

impl QuantileSketch {
    /// An empty sketch.
    pub fn new() -> QuantileSketch {
        QuantileSketch::default()
    }

    /// Fold one signed sample in.
    #[inline]
    pub fn record(&mut self, v: i64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.total += v as i128;
        self.buckets[index_of(v)] += 1;
    }

    /// Samples recorded so far.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of every sample recorded so far.
    pub fn total(&self) -> i128 {
        self.total
    }

    /// Mean sample, rounded toward zero (zero when empty).
    pub fn mean(&self) -> i64 {
        (self.total / self.count.max(1) as i128) as i64
    }

    /// Smallest sample (zero when empty).
    pub fn min(&self) -> i64 {
        self.min
    }

    /// Largest sample (zero when empty).
    pub fn max(&self) -> i64 {
        self.max
    }

    /// Merge another sketch in: bucket counts and totals add, min/max
    /// widen. The result is identical to having recorded both sample
    /// sets into one sketch, in any order.
    pub fn merge(&mut self, other: &QuantileSketch) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.total += other.total;
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }

    /// The `q`-quantile (`0.0 ≤ q ≤ 1.0`) as a conservative (lower
    /// octave bound) estimate, clamped to the exact min/max. Returns 0
    /// when empty.
    pub fn quantile(&self, q: f64) -> i64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // The extremes are tracked exactly.
        if q >= 1.0 {
            return self.max;
        }
        // Rank of the requested quantile, 1-based; q = 0 → rank 1
        // (the minimum), q = 1 → rank count (the maximum).
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return lower_bound_of(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// The sketch as a hand-rolled JSON object: exact summary plus the
    /// non-empty buckets keyed by lower bound in nanoseconds.
    pub fn to_json(&self) -> String {
        let buckets: Vec<String> = (0..BUCKETS)
            .filter(|&i| self.buckets[i] > 0)
            .map(|i| format!("\"{}\":{}", lower_bound_of(i), self.buckets[i]))
            .collect();
        format!(
            "{{\"summary\":{{\"count\":{},\"min_ns\":{},\"max_ns\":{},\"mean_ns\":{}}},\"buckets\":{{{}}}}}",
            self.count,
            self.min,
            self.max,
            self.mean(),
            buckets.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_order_is_numeric_order() {
        let samples = [-1000, -17, -2, -1, 0, 1, 2, 17, 1000, i64::MIN, i64::MAX];
        let mut indexed: Vec<(usize, i64)> = samples.iter().map(|&v| (index_of(v), v)).collect();
        indexed.sort();
        let by_bucket: Vec<i64> = indexed.iter().map(|&(_, v)| v).collect();
        let mut by_value = samples.to_vec();
        by_value.sort_unstable();
        assert_eq!(by_bucket, by_value);
        for &v in &samples {
            let i = index_of(v);
            assert!(lower_bound_of(i) <= v, "lower bound of bucket {i} vs {v}");
        }
    }

    #[test]
    fn extremes_stay_in_range() {
        assert_eq!(index_of(i64::MIN), 0);
        assert_eq!(index_of(-1), ZERO - 1);
        assert_eq!(index_of(1), ZERO + 1);
        assert_eq!(index_of(i64::MAX), BUCKETS - 2);
        assert_eq!(lower_bound_of(0), i64::MIN);
        assert_eq!(lower_bound_of(ZERO - 1), -1);
        assert_eq!(lower_bound_of(ZERO + 1), 1);
    }

    #[test]
    fn quantiles_bound_the_truth() {
        let mut s = QuantileSketch::new();
        for v in [-900, -40, -3, 0, 5, 5, 80, 2000] {
            s.record(v);
        }
        assert_eq!(s.count(), 8);
        assert_eq!(s.quantile(0.0), -900);
        assert_eq!(s.quantile(1.0), 2000);
        // Interior quantiles are within one octave below the true rank
        // value and never exceed it.
        let sorted = [-900, -40, -3, 0, 5, 5, 80, 2000];
        for (k, &truth) in sorted.iter().enumerate() {
            let q = (k + 1) as f64 / sorted.len() as f64;
            let est = s.quantile(q);
            assert!(est <= truth, "q={q}: {est} > {truth}");
            if truth > 0 {
                assert!(est * 2 > truth, "q={q}: {est} too far below {truth}");
            }
        }
    }

    #[test]
    fn empty_sketch_is_all_zero() {
        let s = QuantileSketch::new();
        assert_eq!(s.count(), 0);
        assert_eq!((s.min(), s.max()), (0, 0));
        assert_eq!(s.quantile(0.5), 0);
    }

    #[test]
    fn merge_equals_combined_record() {
        let samples_a = [-50, -1, 7, 300];
        let samples_b = [0, 0, -9999, 12];
        let mut a = QuantileSketch::new();
        let mut b = QuantileSketch::new();
        let mut both = QuantileSketch::new();
        for v in samples_a {
            a.record(v);
            both.record(v);
        }
        for v in samples_b {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
        assert_eq!(a.total(), -50 - 1 + 7 + 300 - 9999 + 12);
        // Merging an empty sketch changes nothing, in either direction.
        let mut c = both.clone();
        c.merge(&QuantileSketch::new());
        assert_eq!(c, both);
        let mut empty = QuantileSketch::new();
        empty.merge(&both);
        assert_eq!(empty, both);
    }

    #[test]
    fn total_and_mean_are_exact() {
        let mut s = QuantileSketch::new();
        assert_eq!((s.total(), s.mean()), (0, 0));
        s.record(0);
        assert_eq!((s.count(), s.total(), s.mean()), (1, 0, 0));
        s.record(1);
        s.record(1 << 62);
        s.record(1 << 62);
        s.record(1 << 62);
        // 3·2⁶² + 1 is past i64::MAX; the total holds it exactly.
        assert_eq!(s.total(), 3 * (1i128 << 62) + 1);
        assert_eq!(s.mean(), ((3 * (1i128 << 62) + 1) / 5) as i64);
        let mut neg = QuantileSketch::new();
        for v in [-7, -2, 3, i64::MIN] {
            neg.record(v);
        }
        assert_eq!(neg.total(), i64::MIN as i128 - 6);
        // Rounded toward zero.
        assert_eq!(neg.mean(), ((i64::MIN as i128 - 6) / 4) as i64);
        let mut small = QuantileSketch::new();
        small.record(-3);
        small.record(0);
        assert_eq!(small.mean(), -1);
    }

    #[test]
    fn durations_bucket_by_log2_with_sparse_json() {
        // [0], [1,2), [4,8) twice, [1024,2048). Byte for byte: the
        // committed `sections/obs` leaves are keyed by these strings.
        let mut s = QuantileSketch::new();
        for v in [0, 1, 5, 7, 1024] {
            s.record(v);
        }
        assert_eq!(
            s.to_json(),
            "{\"summary\":{\"count\":5,\"min_ns\":0,\"max_ns\":1024,\"mean_ns\":207},\
             \"buckets\":{\"0\":1,\"1\":1,\"4\":2,\"1024\":1}}"
        );
        let mut one = QuantileSketch::new();
        one.record(4);
        assert!(one.to_json().ends_with("\"buckets\":{\"4\":1}}"));
        // A duration past i64::MAX ns arrives saturated, in the top octave.
        let mut top = QuantileSketch::new();
        top.record(i64::MAX);
        assert!(top
            .to_json()
            .ends_with(&format!("\"buckets\":{{\"{}\":1}}}}", 1u64 << 62)));
        // Late margins render under their (negative) lower bounds.
        let mut late = QuantileSketch::new();
        late.record(-5);
        assert!(late.to_json().ends_with("\"buckets\":{\"-7\":1}}"));
        assert_eq!(
            QuantileSketch::new().to_json(),
            "{\"summary\":{\"count\":0,\"min_ns\":0,\"max_ns\":0,\"mean_ns\":0},\"buckets\":{}}"
        );
    }
}

//! Aggregate statistics: summaries and streaming accumulators.
//!
//! [`NanosSummary`] is the workspace's canonical duration summary (it
//! was born in `strandfs-sim` and now lives here so every layer can use
//! it); [`U64Acc`], and [`NanosAcc`] over it, build one incrementally
//! without holding samples. Distributions are [`crate::QuantileSketch`]es.

use strandfs_units::Nanos;

/// Summary statistics over a set of durations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NanosSummary {
    /// Number of samples.
    pub count: u64,
    /// Smallest sample (zero when empty).
    pub min: Nanos,
    /// Largest sample (zero when empty).
    pub max: Nanos,
    /// Mean sample (zero when empty).
    pub mean: Nanos,
}

impl NanosSummary {
    /// Summarize an iterator of durations.
    pub fn of(samples: impl IntoIterator<Item = Nanos>) -> NanosSummary {
        let mut acc = NanosAcc::default();
        for s in samples {
            acc.record(s);
        }
        acc.summary()
    }

    /// The summary as a hand-rolled JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"count\":{},\"min_ns\":{},\"max_ns\":{},\"mean_ns\":{}}}",
            self.count,
            self.min.as_nanos(),
            self.max.as_nanos(),
            self.mean.as_nanos()
        )
    }
}

/// Streaming accumulator for durations: a [`U64Acc`] over nanoseconds
/// that yields a [`NanosSummary`] at any point.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NanosAcc(U64Acc);

impl NanosAcc {
    /// Fold one sample in.
    #[inline]
    pub fn record(&mut self, sample: Nanos) {
        self.0.record(sample.as_nanos());
    }

    /// Samples recorded so far.
    #[inline]
    pub fn count(&self) -> u64 {
        self.0.count()
    }

    /// Sum of all samples.
    #[inline]
    pub fn total(&self) -> Nanos {
        Nanos::from_nanos(self.0.total)
    }

    /// The summary of everything recorded so far.
    pub fn summary(&self) -> NanosSummary {
        NanosSummary {
            count: self.0.count(),
            min: Nanos::from_nanos(self.0.min()),
            max: Nanos::from_nanos(self.0.max()),
            mean: Nanos::from_nanos(self.0.mean()),
        }
    }
}

/// Streaming accumulator for dimensionless counts (sectors, gaps, …).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct U64Acc {
    count: u64,
    min: u64,
    max: u64,
    total: u64,
}

impl U64Acc {
    /// Fold one sample in.
    #[inline]
    pub fn record(&mut self, sample: u64) {
        if self.count == 0 {
            self.min = sample;
            self.max = sample;
        } else {
            self.min = self.min.min(sample);
            self.max = self.max.max(sample);
        }
        self.count += 1;
        self.total += sample;
    }

    /// Samples recorded so far.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest sample (zero when empty).
    #[inline]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample (zero when empty).
    #[inline]
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Mean sample, rounded down (zero when empty).
    #[inline]
    pub fn mean(&self) -> u64 {
        self.total.checked_div(self.count).unwrap_or(0)
    }

    /// The accumulator as a hand-rolled JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"count\":{},\"min\":{},\"max\":{},\"mean\":{}}}",
            self.count,
            self.min(),
            self.max(),
            self.mean()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_samples() {
        let s = NanosSummary::of([
            Nanos::from_millis(2),
            Nanos::from_millis(8),
            Nanos::from_millis(5),
        ]);
        assert_eq!(s.count, 3);
        assert_eq!(s.min, Nanos::from_millis(2));
        assert_eq!(s.max, Nanos::from_millis(8));
        assert_eq!(s.mean, Nanos::from_millis(5));
        assert_eq!(NanosSummary::of([]), NanosSummary::default());
    }

    #[test]
    fn acc_matches_batch_summary() {
        let samples = [
            Nanos::from_micros(3),
            Nanos::ZERO,
            Nanos::from_millis(40),
            Nanos::from_nanos(7),
        ];
        let mut acc = NanosAcc::default();
        for s in samples {
            acc.record(s);
        }
        assert_eq!(acc.summary(), NanosSummary::of(samples));
        assert_eq!(acc.total(), samples.into_iter().sum());
    }

    #[test]
    fn u64_acc_basics() {
        let mut acc = U64Acc::default();
        assert_eq!((acc.min(), acc.max(), acc.mean()), (0, 0, 0));
        for v in [10, 2, 6] {
            acc.record(v);
        }
        assert_eq!(acc.count(), 3);
        assert_eq!(acc.min(), 2);
        assert_eq!(acc.max(), 10);
        assert_eq!(acc.mean(), 6);
    }

    #[test]
    fn json_shapes() {
        let s = NanosSummary::of([Nanos::from_nanos(4)]);
        assert_eq!(
            s.to_json(),
            "{\"count\":1,\"min_ns\":4,\"max_ns\":4,\"mean_ns\":4}"
        );
        let mut u = U64Acc::default();
        u.record(9);
        assert_eq!(u.to_json(), "{\"count\":1,\"min\":9,\"max\":9,\"mean\":9}");
    }
}

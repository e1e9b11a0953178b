//! Outcome statistics for playback simulations.

use std::fmt::Write as _;

use strandfs_units::Nanos;

// `NanosSummary` was born here and now lives in `strandfs-obs` so every
// layer can aggregate durations; re-exported for compatibility.
pub use strandfs_obs::NanosSummary;

/// Per-stream outcome of a playback simulation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StreamOutcome {
    /// Scheduled items (blocks), silence holes included.
    pub blocks: u64,
    /// Blocks actually fetched from disk (non-silence).
    pub fetched: u64,
    /// Blocks whose fetch completed after their playback deadline.
    pub violations: u64,
    /// Lateness over all violating blocks.
    pub lateness: NanosSummary,
    /// Virtual time between the stream's service start and its display
    /// start (the anti-jitter read-ahead delay actually incurred).
    pub start_latency: Nanos,
    /// Largest fetched-but-unplayed backlog — the buffers a closed-loop
    /// display subsystem would need.
    pub max_buffered: u64,
    /// The tightest of the stream's per-round margins, in nanoseconds.
    /// A round's margin is the tightest signed deadline margin among
    /// the items it fetched for the stream (positive = early, negative
    /// = late), 0 if it fetched only drops or items of an epoch that
    /// never displayed; 0 for a stream no round served.
    pub worst_margin_ns: i64,
    /// The 99th-percentile margin pressure: 99% of the stream's n
    /// round margins are at least this value — the `(n − 1)/100`-th
    /// smallest. With at most 100 rounds it equals the worst margin.
    pub p99_margin_ns: i64,
    /// The longest run of consecutive schedule items that were dropped
    /// or arrived late (trailing never-serviced items count as dropped)
    /// — the visible glitch length.
    pub miss_burst: u64,
    /// Virtual time from the stream's display start to the deadline of
    /// its first late block — the continuity horizon actually
    /// delivered. `None` when the stream played without violations.
    pub first_violation: Option<Nanos>,
    /// Blocks the degradation policy dropped (silence/freeze-frame
    /// holes spliced over faulted fetches), plus any items never
    /// serviced because the stream stayed revoked to the end.
    pub dropped_blocks: u64,
    /// Transient-fault retries spent on this stream's fetches.
    pub retries: u64,
    /// Times the stream was revoked through admission control.
    pub revokes: u64,
    /// Total virtual time the stream spent revoked before re-admission.
    pub recovery_time: Nanos,
}

impl StreamOutcome {
    /// True if the stream played with full continuity.
    pub fn continuous(&self) -> bool {
        self.violations == 0
    }
}

/// Whole-simulation report.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SimReport {
    /// Per-stream outcomes in request order.
    pub streams: Vec<StreamOutcome>,
    /// Total simulated disk busy time.
    pub disk_busy: Nanos,
    /// Number of service rounds executed.
    pub rounds: u64,
}

impl SimReport {
    /// Total continuity violations across all streams.
    pub fn total_violations(&self) -> u64 {
        self.streams.iter().map(|s| s.violations).sum()
    }

    /// True if every stream played with full continuity.
    pub fn all_continuous(&self) -> bool {
        self.streams.iter().all(StreamOutcome::continuous)
    }

    /// Total blocks dropped by the degradation policy.
    pub fn total_dropped(&self) -> u64 {
        self.streams.iter().map(|s| s.dropped_blocks).sum()
    }

    /// Total transient-fault retries spent.
    pub fn total_retries(&self) -> u64 {
        self.streams.iter().map(|s| s.retries).sum()
    }

    /// The largest buffer backlog any stream needed.
    pub fn max_buffered(&self) -> u64 {
        self.streams
            .iter()
            .map(|s| s.max_buffered)
            .max()
            .unwrap_or(0)
    }

    /// Scheduled blocks across all streams, silence included.
    pub fn total_blocks(&self) -> u64 {
        self.streams.iter().map(|s| s.blocks).sum()
    }

    /// Deadline misses as a fraction of all scheduled blocks (the
    /// paper's continuity guarantee is per block, silence included — a
    /// silence hole "arrives" instantly but still has a deadline).
    pub fn miss_rate(&self) -> f64 {
        miss_rate(self.total_violations(), self.total_blocks())
    }

    /// The tightest margin any stream saw in any round.
    pub fn worst_margin_ns(&self) -> i64 {
        self.streams
            .iter()
            .map(|s| s.worst_margin_ns)
            .min()
            .unwrap_or(0)
    }

    /// The worst per-stream p99 margin.
    pub fn p99_margin_ns(&self) -> i64 {
        self.streams
            .iter()
            .map(|s| s.p99_margin_ns)
            .min()
            .unwrap_or(0)
    }

    /// Total virtual time streams spent revoked.
    pub fn recovery_time(&self) -> Nanos {
        self.streams.iter().map(|s| s.recovery_time).sum()
    }

    /// The continuity SLO report as a hand-rolled JSON object (the
    /// `"slo"` section merged into `BENCH_*.json`): the aggregate view a
    /// capacity planner reads first, then one entry per stream.
    /// `time_to_first_violation_ns` is the continuous playback delivered
    /// before the first violation, from display start — null when
    /// there was none; in the aggregate, the shortest any stream
    /// delivered.
    pub fn slo_json(&self) -> String {
        fn opt(v: Option<Nanos>) -> String {
            v.map_or_else(|| "null".to_string(), |n| n.as_nanos().to_string())
        }
        let mut out = format!(
            concat!(
                "{{\"total\":{{\"blocks\":{},\"violations\":{},",
                "\"miss_rate\":{:.9},\"worst_margin_ns\":{},",
                "\"p99_margin_ns\":{},\"time_to_first_violation_ns\":{},",
                "\"dropped_blocks\":{},\"retries\":{},",
                "\"recovery_time_ns\":{}}},",
                "\"streams\":["
            ),
            self.total_blocks(),
            self.total_violations(),
            self.miss_rate(),
            self.worst_margin_ns(),
            self.p99_margin_ns(),
            opt(self.streams.iter().filter_map(|s| s.first_violation).min()),
            self.total_dropped(),
            self.total_retries(),
            self.recovery_time().as_nanos(),
        );
        for (i, s) in self.streams.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                concat!(
                    "{{\"stream\":{},\"blocks\":{},\"violations\":{},",
                    "\"miss_rate\":{:.9},\"worst_margin_ns\":{},",
                    "\"p99_margin_ns\":{},\"time_to_first_violation_ns\":{},",
                    "\"dropped_blocks\":{},\"retries\":{},",
                    "\"recovery_time_ns\":{}}}"
                ),
                i,
                s.blocks,
                s.violations,
                miss_rate(s.violations, s.blocks),
                s.worst_margin_ns,
                s.p99_margin_ns,
                opt(s.first_violation),
                s.dropped_blocks,
                s.retries,
                s.recovery_time.as_nanos(),
            );
        }
        out.push_str("]}");
        out
    }
}

fn miss_rate(violations: u64, blocks: u64) -> f64 {
    if blocks == 0 {
        0.0
    } else {
        violations as f64 / blocks as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_rates() {
        let o = StreamOutcome {
            blocks: 10,
            fetched: 8,
            violations: 2,
            ..Default::default()
        };
        assert!(!o.continuous());
        let idle = StreamOutcome::default();
        assert!(idle.continuous());
    }

    #[test]
    fn report_aggregates() {
        let r = SimReport {
            streams: vec![
                StreamOutcome {
                    violations: 1,
                    max_buffered: 4,
                    ..Default::default()
                },
                StreamOutcome {
                    violations: 0,
                    max_buffered: 7,
                    ..Default::default()
                },
            ],
            ..Default::default()
        };
        assert_eq!(r.total_violations(), 1);
        assert!(!r.all_continuous());
        assert_eq!(r.max_buffered(), 7);
    }

    #[test]
    fn slo_aggregates_fold_the_outcomes() {
        let r = SimReport {
            streams: vec![
                StreamOutcome {
                    blocks: 4,
                    fetched: 4,
                    violations: 1,
                    worst_margin_ns: -200,
                    p99_margin_ns: -200,
                    first_violation: Some(Nanos::from_millis(3)),
                    recovery_time: Nanos::from_millis(5),
                    ..Default::default()
                },
                StreamOutcome {
                    blocks: 4,
                    fetched: 4,
                    worst_margin_ns: 700,
                    p99_margin_ns: 900,
                    recovery_time: Nanos::from_millis(2),
                    ..Default::default()
                },
            ],
            ..Default::default()
        };
        assert!(!r.all_continuous());
        assert_eq!(r.total_blocks(), 8);
        assert!((r.miss_rate() - 0.125).abs() < 1e-12);
        assert_eq!(r.worst_margin_ns(), -200);
        assert_eq!(r.p99_margin_ns(), -200);
        assert_eq!(r.recovery_time(), Nanos::from_millis(7));
        let json = r.slo_json();
        assert!(json.starts_with(concat!(
            r#"{"total":{"blocks":8,"violations":1,"miss_rate":0.125000000,"#,
            r#""worst_margin_ns":-200,"p99_margin_ns":-200,"#,
            r#""time_to_first_violation_ns":3000000,"#
        )));
        assert!(json.contains(concat!(
            r#"{"stream":1,"blocks":4,"violations":0,"miss_rate":0.000000000,"#,
            r#""worst_margin_ns":700,"p99_margin_ns":900,"#,
            r#""time_to_first_violation_ns":null,"#,
            r#""dropped_blocks":0,"retries":0,"recovery_time_ns":2000000}"#
        )));
    }

    #[test]
    fn slo_json_is_balanced_and_null_safe() {
        let r = SimReport {
            streams: vec![StreamOutcome {
                blocks: 2,
                fetched: 2,
                worst_margin_ns: 42,
                p99_margin_ns: 42,
                ..Default::default()
            }],
            ..Default::default()
        };
        let json = r.slo_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"time_to_first_violation_ns\":null"));
        assert!(json.contains("\"worst_margin_ns\":42"));
        assert!(!json.contains("NaN"));
    }

    #[test]
    fn empty_report_slo_is_clean() {
        let r = SimReport::default();
        assert!(r.all_continuous());
        assert_eq!(r.miss_rate(), 0.0);
        assert_eq!((r.worst_margin_ns(), r.p99_margin_ns()), (0, 0));
        assert!(r.slo_json().contains("\"time_to_first_violation_ns\":null"));
    }
}

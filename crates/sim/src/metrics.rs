//! Outcome statistics for playback simulations.

use std::fmt::Write as _;

use strandfs_units::Nanos;

// `NanosSummary` was born here and now lives in `strandfs-obs` so every
// layer can aggregate durations; re-exported for compatibility.
pub use strandfs_obs::NanosSummary;

/// One round's worth of a stream's time series: how close the stream
/// sailed to its deadlines in that round and how much buffer it held
/// when the round's service turn ended.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundSample {
    /// The service round this sample describes.
    pub round: u64,
    /// Schedule items the round fetched for this stream (silence
    /// included).
    pub blocks: u64,
    /// Tightest signed deadline margin among those items, in
    /// nanoseconds: positive = the fetch beat its deadline by this
    /// much, negative = it was late.
    pub worst_margin_ns: i64,
    /// Fetched-but-unplayed backlog right after the round's last fetch
    /// for this stream (clamped at zero for starved streams, matching
    /// [`StreamOutcome::max_buffered`] semantics).
    pub buffered: u64,
}

/// Per-stream outcome of a playback simulation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StreamOutcome {
    /// Scheduled items (blocks), silence holes included.
    pub blocks: u64,
    /// Blocks actually fetched from disk (non-silence).
    pub fetched: u64,
    /// Blocks whose fetch completed after their playback deadline.
    pub violations: u64,
    /// How late the latest block was.
    pub max_lateness: Nanos,
    /// Lateness over all violating blocks.
    pub lateness: NanosSummary,
    /// Virtual time between the stream's service start and its display
    /// start (the anti-jitter read-ahead delay actually incurred).
    pub start_latency: Nanos,
    /// Largest fetched-but-unplayed backlog — the buffers a closed-loop
    /// display subsystem would need.
    pub max_buffered: u64,
    /// Per-round time series: one [`RoundSample`] for every round that
    /// serviced this stream, in round order. Empty for streams whose
    /// display never started.
    pub series: Vec<RoundSample>,
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

    /// Derive the continuity SLO report from the per-stream time
    /// series.
    pub fn slo(&self) -> ContinuitySloReport {
        ContinuitySloReport::of(self)
    }
}

/// One stream's continuity service-level summary, derived from its
/// per-round [`RoundSample`] series and violation counts.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamSlo {
    /// Stream index (report order).
    pub stream: usize,
    /// Scheduled items, silence included.
    pub blocks: u64,
    /// Blocks that missed their playback deadline.
    pub violations: u64,
    /// Violations as a fraction of all scheduled blocks (the paper's
    /// continuity guarantee is per block, silence included — a silence
    /// hole "arrives" instantly but still has a deadline).
    pub miss_rate: f64,
    /// The tightest signed per-round margin seen, in nanoseconds
    /// (negative = the worst round was late by this much).
    pub worst_margin_ns: i64,
    /// The 99th-percentile margin pressure: 99% of this stream's round
    /// margins are at least this value. With fewer than 100 rounds this
    /// equals the worst margin.
    pub p99_margin_ns: i64,
    /// Virtual nanoseconds of continuous playback delivered before the
    /// first violation (from display start); `None` if none occurred.
    pub time_to_first_violation_ns: Option<u64>,
    /// Blocks the degradation policy dropped for this stream.
    pub dropped_blocks: u64,
    /// Transient-fault retries spent on this stream.
    pub retries: u64,
    /// Virtual nanoseconds the stream spent revoked before re-admission.
    pub recovery_time_ns: u64,
}

/// The continuity SLO report for a whole simulation: per-stream
/// summaries plus the aggregate view a capacity planner reads first.
#[derive(Clone, Debug, PartialEq)]
pub struct ContinuitySloReport {
    /// Per-stream summaries, in report order.
    pub streams: Vec<StreamSlo>,
    /// Scheduled blocks across all streams.
    pub total_blocks: u64,
    /// Deadline misses across all streams.
    pub total_violations: u64,
    /// Aggregate miss rate over all scheduled blocks.
    pub miss_rate: f64,
    /// The tightest margin any stream saw in any round.
    pub worst_margin_ns: i64,
    /// The worst per-stream p99 margin.
    pub p99_margin_ns: i64,
    /// The shortest continuous-playback horizon any stream delivered
    /// before violating; `None` when every stream was continuous.
    pub time_to_first_violation_ns: Option<u64>,
    /// Blocks dropped by the degradation policy across all streams.
    pub dropped_blocks: u64,
    /// Transient-fault retries spent across all streams.
    pub retries: u64,
    /// Total virtual nanoseconds streams spent revoked.
    pub recovery_time_ns: u64,
}

impl ContinuitySloReport {
    /// Build the report from a simulation's per-stream series.
    pub fn of(report: &SimReport) -> ContinuitySloReport {
        let streams: Vec<StreamSlo> = report
            .streams
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut margins: Vec<i64> = s.series.iter().map(|r| r.worst_margin_ns).collect();
                margins.sort_unstable();
                let worst = margins.first().copied().unwrap_or(0);
                // The margin that 99% of round samples meet or beat:
                // the 1st percentile of the sorted (ascending) margins.
                let p99 = if margins.is_empty() {
                    0
                } else {
                    margins[(margins.len() - 1) / 100]
                };
                StreamSlo {
                    stream: i,
                    blocks: s.blocks,
                    violations: s.violations,
                    miss_rate: if s.blocks == 0 {
                        0.0
                    } else {
                        s.violations as f64 / s.blocks as f64
                    },
                    worst_margin_ns: worst,
                    p99_margin_ns: p99,
                    time_to_first_violation_ns: s.first_violation.map(Nanos::as_nanos),
                    dropped_blocks: s.dropped_blocks,
                    retries: s.retries,
                    recovery_time_ns: s.recovery_time.as_nanos(),
                }
            })
            .collect();
        let total_blocks: u64 = streams.iter().map(|s| s.blocks).sum();
        let total_violations: u64 = streams.iter().map(|s| s.violations).sum();
        ContinuitySloReport {
            total_blocks,
            total_violations,
            dropped_blocks: streams.iter().map(|s| s.dropped_blocks).sum(),
            retries: streams.iter().map(|s| s.retries).sum(),
            recovery_time_ns: streams.iter().map(|s| s.recovery_time_ns).sum(),
            miss_rate: if total_blocks == 0 {
                0.0
            } else {
                total_violations as f64 / total_blocks as f64
            },
            worst_margin_ns: streams.iter().map(|s| s.worst_margin_ns).min().unwrap_or(0),
            p99_margin_ns: streams.iter().map(|s| s.p99_margin_ns).min().unwrap_or(0),
            time_to_first_violation_ns: streams
                .iter()
                .filter_map(|s| s.time_to_first_violation_ns)
                .min(),
            streams,
        }
    }

    /// True if every stream met a zero-miss SLO.
    pub fn clean(&self) -> bool {
        self.total_violations == 0
    }

    /// The report as a hand-rolled JSON object (the `"slo"` section
    /// merged into `BENCH_*.json`).
    pub fn to_json(&self) -> String {
        fn opt(v: Option<u64>) -> String {
            v.map_or_else(|| "null".to_string(), |n| n.to_string())
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
            self.total_blocks,
            self.total_violations,
            self.miss_rate,
            self.worst_margin_ns,
            self.p99_margin_ns,
            opt(self.time_to_first_violation_ns),
            self.dropped_blocks,
            self.retries,
            self.recovery_time_ns,
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
                s.stream,
                s.blocks,
                s.violations,
                s.miss_rate,
                s.worst_margin_ns,
                s.p99_margin_ns,
                opt(s.time_to_first_violation_ns),
                s.dropped_blocks,
                s.retries,
                s.recovery_time_ns,
            );
        }
        out.push_str("]}");
        out
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

    fn sampled(round: u64, margin: i64) -> RoundSample {
        RoundSample {
            round,
            blocks: 2,
            worst_margin_ns: margin,
            buffered: 1,
        }
    }

    #[test]
    fn slo_report_derives_from_series() {
        let r = SimReport {
            streams: vec![
                StreamOutcome {
                    blocks: 4,
                    fetched: 4,
                    violations: 1,
                    series: vec![sampled(0, 500), sampled(1, -200)],
                    first_violation: Some(Nanos::from_millis(3)),
                    ..Default::default()
                },
                StreamOutcome {
                    blocks: 4,
                    fetched: 4,
                    violations: 0,
                    series: vec![sampled(0, 900), sampled(1, 700)],
                    first_violation: None,
                    ..Default::default()
                },
            ],
            ..Default::default()
        };
        let slo = r.slo();
        assert!(!slo.clean());
        assert_eq!(slo.total_blocks, 8);
        assert_eq!(slo.total_violations, 1);
        assert!((slo.miss_rate - 0.125).abs() < 1e-12);
        assert_eq!(slo.worst_margin_ns, -200);
        // Fewer than 100 samples: the p99 margin collapses to the worst.
        assert_eq!(slo.streams[0].p99_margin_ns, -200);
        assert_eq!(slo.streams[1].p99_margin_ns, 700);
        assert_eq!(slo.p99_margin_ns, -200);
        assert_eq!(
            slo.time_to_first_violation_ns,
            Some(Nanos::from_millis(3).as_nanos())
        );
        assert_eq!(slo.streams[1].time_to_first_violation_ns, None);
    }

    #[test]
    fn slo_p99_uses_the_first_percentile_of_margins() {
        let series: Vec<RoundSample> = (0..200).map(|i| sampled(i, i as i64 * 10)).collect();
        let r = SimReport {
            streams: vec![StreamOutcome {
                blocks: 400,
                fetched: 400,
                series,
                ..Default::default()
            }],
            ..Default::default()
        };
        let slo = r.slo();
        assert_eq!(slo.streams[0].worst_margin_ns, 0);
        // (200 - 1) / 100 = index 1 of the ascending sort.
        assert_eq!(slo.streams[0].p99_margin_ns, 10);
    }

    #[test]
    fn slo_json_is_balanced_and_null_safe() {
        let r = SimReport {
            streams: vec![StreamOutcome {
                blocks: 2,
                fetched: 2,
                series: vec![sampled(0, 42)],
                ..Default::default()
            }],
            ..Default::default()
        };
        let json = r.slo().to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"time_to_first_violation_ns\":null"));
        assert!(json.contains("\"worst_margin_ns\":42"));
        assert!(!json.contains("NaN"));
    }

    #[test]
    fn empty_report_slo_is_clean() {
        let slo = SimReport::default().slo();
        assert!(slo.clean());
        assert_eq!(slo.miss_rate, 0.0);
        assert_eq!(slo.time_to_first_violation_ns, None);
    }
}

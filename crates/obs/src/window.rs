//! Windowed live health monitoring with an anomaly-triggered flight
//! recorder.
//!
//! The cumulative [`crate::ObsMetrics`] answer "how did the whole run
//! go"; a 2-second outage inside a 10-minute run vanishes into the
//! averages, and a full raw trace of 100k streams does not fit in
//! memory. [`WindowedMonitor`] closes that gap: it folds the same event
//! stream, through the same [`Tally`], into fixed-width windows of
//! service rounds, each summarised by O(1)-size [`WindowStats`]
//! (miss rate, margin quantiles via the mergeable
//! [`QuantileSketch`], disk utilization, live Eq. 18 slack, fault and
//! degradation rates, admission churn). Closed windows are retained as
//! a bounded series, declarative [`SloRule`]s are evaluated at every
//! window close, and the first breach of each rule snapshots the raw
//! event ring plus the surrounding window series into a self-contained
//! [`FlightDump`] — black-box tracing that still works at a scale where
//! whole-run traces cannot.

use std::collections::VecDeque;

use strandfs_units::{Instant, Nanos};

use crate::alert::{Alert, SloRule};
use crate::event::Event;
use crate::recorder::{EventRing, Recorder, Tally};
use crate::sketch::QuantileSketch;

/// Configuration for a [`WindowedMonitor`].
#[derive(Clone, Debug)]
pub struct MonitorConfig {
    /// Service rounds per window (window = `round / width`).
    pub width: u64,
    /// Closed windows retained in the series (older ones are evicted
    /// but stay counted).
    pub retain: usize,
    /// Raw-event ring capacity backing the flight recorder.
    pub ring_cap: usize,
    /// SLO rules evaluated at every window close.
    pub rules: Vec<SloRule>,
    /// Flight dumps captured at most this many times (first alerts
    /// win; later alerts are still recorded, just not dumped).
    pub max_dumps: usize,
}

impl MonitorConfig {
    /// Round-indexed windows of `rounds` service rounds each.
    pub fn rounds(rounds: u64) -> MonitorConfig {
        MonitorConfig {
            width: rounds,
            retain: 256,
            ring_cap: 4096,
            rules: Vec::new(),
            max_dumps: 1,
        }
    }

    /// Keep at most `n` closed windows in the series.
    pub fn retain(mut self, n: usize) -> MonitorConfig {
        self.retain = n.max(1);
        self
    }

    /// Size the flight-recorder event ring.
    pub fn ring_cap(mut self, cap: usize) -> MonitorConfig {
        self.ring_cap = cap;
        self
    }

    /// Add one SLO rule.
    pub fn rule(mut self, rule: SloRule) -> MonitorConfig {
        self.rules.push(rule);
        self
    }

    /// Capture at most `n` flight dumps.
    pub fn max_dumps(mut self, n: usize) -> MonitorConfig {
        self.max_dumps = n;
        self
    }
}

/// O(1)-size health summary of one window: its [`Tally`] plus the
/// window's own bounds, margin sketch and slack.
#[derive(Clone, Debug, Default)]
pub struct WindowStats {
    /// Window index (`round / width`).
    pub index: u64,
    /// Events folded into this window.
    pub events: u64,
    /// First round id seen in the window, if any round event arrived.
    pub start_round: Option<u64>,
    /// Last round id seen in the window.
    pub end_round: Option<u64>,
    /// Instant of the first anchored event folded in.
    pub first_at: Option<Instant>,
    /// Instant of the last anchored event folded in.
    pub last_at: Option<Instant>,
    /// The window's counters, counted by the rule the whole run's
    /// [`crate::ObsMetrics`] use.
    pub tally: Tally,
    /// Signed deadline margins (ns; negative = late).
    pub margins: QuantileSketch,
    /// Live Eq. 18 slack: the last admission's slack observed at or
    /// before this window (carried forward across windows with no
    /// admission activity; `None` until the first admission).
    pub slack: Option<Nanos>,
}

impl WindowStats {
    /// Deadline miss rate in the window (0.0 when no deadlines).
    pub fn miss_rate(&self) -> f64 {
        let t = &self.tally;
        if t.deadline_blocks == 0 {
            0.0
        } else {
            t.deadline_late as f64 / t.deadline_blocks as f64
        }
    }

    /// Disk utilization over the observed span of the window: service
    /// time consumed divided by first-to-last event time (0.0 when the
    /// span is degenerate).
    pub fn utilization(&self) -> f64 {
        match (self.first_at, self.last_at) {
            (Some(a), Some(b)) if b > a => {
                self.tally.disk_busy.as_nanos() as f64 / (b - a).as_nanos() as f64
            }
            _ => 0.0,
        }
    }

    fn fold(&mut self, event: &Event) {
        self.events += 1;
        if let Some(at) = event.at() {
            self.first_at.get_or_insert(at);
            self.last_at = Some(at);
        }
        self.tally.fold(event);
        match *event {
            Event::RoundStart { round, .. }
            | Event::RoundIdle { round, .. }
            | Event::RoundEnd { round, .. } => {
                self.start_round.get_or_insert(round);
                self.end_round = Some(round);
            }
            Event::Deadline { .. } => self.margins.record(event.deadline_margin()),
            Event::Admit { slack, .. } => self.slack = Some(slack),
            _ => {}
        }
    }

    /// The window as a hand-rolled JSON object.
    pub fn to_json(&self) -> String {
        let t = &self.tally;
        let opt_u64 = |v: Option<u64>| match v {
            Some(n) => n.to_string(),
            None => "null".into(),
        };
        format!(
            concat!(
                "{{\"index\":{},\"events\":{},",
                "\"start_round\":{},\"end_round\":{},",
                "\"first_at_ns\":{},\"last_at_ns\":{},",
                "\"rounds\":{},\"idle_rounds\":{},",
                "\"blocks\":{},\"late\":{},\"miss_rate\":{:.6},",
                "\"margin_min_ns\":{},\"margin_p1_ns\":{},\"margin_p50_ns\":{},",
                "\"disk_ops\":{},\"disk_busy_ns\":{},\"utilization\":{:.6},",
                "\"slack_ns\":{},",
                "\"faults\":{},\"retries\":{},\"drops\":{},\"revokes\":{},\"readmits\":{},",
                "\"admits\":{},\"rejects\":{},\"releases\":{},\"display_starts\":{},",
                "\"scrubbed\":{},\"scrub_corrupt\":{},",
                "\"hedges\":{},\"hedge_wins\":{},\"quarantines\":{}}}"
            ),
            self.index,
            self.events,
            opt_u64(self.start_round),
            opt_u64(self.end_round),
            opt_u64(self.first_at.map(|i| i.as_nanos())),
            opt_u64(self.last_at.map(|i| i.as_nanos())),
            t.rounds,
            t.idle_rounds,
            t.deadline_blocks,
            t.deadline_late,
            self.miss_rate(),
            self.margins.min(),
            self.margins.quantile(0.01),
            self.margins.quantile(0.50),
            t.disk_reads + t.disk_writes,
            t.disk_busy.as_nanos(),
            self.utilization(),
            opt_u64(self.slack.map(|s| s.as_nanos())),
            t.faults,
            t.retries,
            t.drops,
            t.revokes,
            t.readmits,
            t.admits,
            t.rejects,
            t.releases,
            t.display_starts,
            t.scrubbed,
            t.scrub_corrupt,
            t.hedges,
            t.hedge_wins,
            t.quarantines,
        )
    }
}

/// A self-contained black-box snapshot captured when an alert fires:
/// the raw-event ring at that moment plus the retained window series
/// (the offending window last). `strandfs-trace` renders it as a
/// Perfetto-loadable excerpt of just the anomalous span.
#[derive(Clone, Debug)]
pub struct FlightDump {
    /// The alert that triggered the capture.
    pub alert: Alert,
    /// The window series at capture time, oldest first; the final
    /// entry is the window whose close fired the rule.
    pub windows: Vec<WindowStats>,
    /// The raw events retained in the flight ring, oldest first.
    pub events: Vec<Event>,
    /// Events the ring had evicted before capture (the excerpt's
    /// prefix is truncated when this is non-zero).
    pub dropped: u64,
}

impl FlightDump {
    /// The virtual-time span covered by the captured raw events.
    pub fn span(&self) -> Option<(Instant, Instant)> {
        let mut anchored = self.events.iter().filter_map(|e| e.at());
        let first = anchored.next()?;
        let last = anchored.next_back().unwrap_or(first);
        Some((first, last))
    }

    /// The round-id range covered by the captured raw events.
    pub fn rounds_covered(&self) -> Option<(u64, u64)> {
        let mut range: Option<(u64, u64)> = None;
        for e in &self.events {
            let round = match *e {
                Event::RoundStart { round, .. }
                | Event::RoundEnd { round, .. }
                | Event::RoundIdle { round, .. } => round,
                _ => continue,
            };
            range = Some(match range {
                Some((lo, hi)) => (lo.min(round), hi.max(round)),
                None => (round, round),
            });
        }
        range
    }

    /// Summary JSON (the raw events themselves are rendered by
    /// `strandfs-trace`, not serialized here).
    pub fn to_json(&self) -> String {
        let span = self.span();
        let rounds = self.rounds_covered();
        let opt = |v: Option<u64>| match v {
            Some(n) => n.to_string(),
            None => "null".into(),
        };
        format!(
            concat!(
                "{{\"alert\":{},\"windows\":{},\"events\":{},\"dropped\":{},",
                "\"span_begin_ns\":{},\"span_end_ns\":{},",
                "\"first_round\":{},\"last_round\":{}}}"
            ),
            self.alert.to_json(),
            self.windows.len(),
            self.events.len(),
            self.dropped,
            opt(span.map(|(a, _)| a.as_nanos())),
            opt(span.map(|(_, b)| b.as_nanos())),
            opt(rounds.map(|(a, _)| a)),
            opt(rounds.map(|(_, b)| b)),
        )
    }
}

/// A [`Recorder`] that folds the event stream into fixed-width windows
/// with O(1) memory per window, evaluates SLO rules at window close,
/// and captures flight dumps on alert.
#[derive(Debug)]
pub struct WindowedMonitor {
    width: u64,
    retain: usize,
    rules: Vec<SloRule>,
    /// Edge-trigger latches, one per rule: a latched rule re-arms only
    /// after a window in which its condition is false.
    latched: Vec<bool>,
    max_dumps: usize,
    ring: EventRing,
    cur: WindowStats,
    series: VecDeque<WindowStats>,
    /// Closed windows evicted from the bounded series.
    evicted: u64,
    /// Windows closed so far (including evicted and fast-forwarded).
    closed: u64,
    alerts: Vec<Alert>,
    dumps: Vec<FlightDump>,
    finished: bool,
}

impl WindowedMonitor {
    /// A monitor per `config`.
    pub fn new(config: MonitorConfig) -> WindowedMonitor {
        let latched = vec![false; config.rules.len()];
        WindowedMonitor {
            width: config.width.max(1),
            retain: config.retain.max(1),
            rules: config.rules,
            latched,
            max_dumps: config.max_dumps,
            ring: EventRing::new(config.ring_cap),
            cur: WindowStats::default(),
            series: VecDeque::new(),
            evicted: 0,
            closed: 0,
            alerts: Vec::new(),
            dumps: Vec::new(),
            finished: false,
        }
    }

    /// The closed-window series, oldest first (bounded by `retain`).
    pub fn windows(&self) -> impl Iterator<Item = &WindowStats> {
        self.series.iter()
    }

    /// All alerts raised so far, in firing order.
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// Flight dumps captured so far (≤ `max_dumps`).
    pub fn dumps(&self) -> &[FlightDump] {
        &self.dumps
    }

    /// Windows closed so far (evicted ones included).
    pub fn closed(&self) -> u64 {
        self.closed
    }

    /// Closed windows evicted from the bounded series.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Close the final partial window (if it holds any events) and
    /// stop accepting input. Idempotent.
    pub fn finish(&mut self) {
        if self.finished {
            return;
        }
        if self.cur.events > 0 {
            self.close_current();
        }
        self.finished = true;
    }

    /// Which window a round event belongs to; every other event folds
    /// into the current window.
    fn target_window(&self, event: &Event) -> Option<u64> {
        match *event {
            Event::RoundStart { round, .. } | Event::RoundIdle { round, .. } => {
                Some(round / self.width)
            }
            _ => None,
        }
    }

    /// Advance the current window to `target`, closing every window in
    /// between. A gap wider than the retained series fast-forwards: the
    /// intermediate empty windows would all be evicted anyway, so one
    /// representative empty window is closed (which re-arms edge
    /// triggers) and the rest are counted without being materialized.
    fn seek_window(&mut self, target: u64) {
        if target <= self.cur.index {
            return;
        }
        let max_steps = self.retain as u64 + 1;
        if target - self.cur.index > max_steps {
            // Close the live window plus one empty successor, then jump.
            self.close_current();
            self.close_current();
            let skipped = target - self.cur.index;
            self.closed += skipped;
            self.evicted += skipped;
            self.cur.index = target;
        }
        while self.cur.index < target {
            self.close_current();
        }
    }

    /// Close `cur`: evaluate rules, capture dumps, push into the
    /// bounded series, open the successor window.
    fn close_current(&mut self) {
        let history: Vec<&WindowStats> = self.series.iter().collect();
        let mut fired: Vec<Alert> = Vec::new();
        for (i, rule) in self.rules.iter().enumerate() {
            match rule.check(&history, &self.cur) {
                Some((value, threshold)) => {
                    if !self.latched[i] {
                        self.latched[i] = true;
                        fired.push(Alert {
                            rule: rule.label(),
                            kind: rule.kind(),
                            window: self.cur.index,
                            at: self.cur.last_at.unwrap_or(Instant::EPOCH),
                            value,
                            threshold,
                        });
                    }
                }
                None => self.latched[i] = false,
            }
        }
        for alert in fired {
            if self.dumps.len() < self.max_dumps {
                let mut windows: Vec<WindowStats> = self.series.iter().cloned().collect();
                windows.push(self.cur.clone());
                self.dumps.push(FlightDump {
                    alert,
                    windows,
                    events: self.ring.events().copied().collect(),
                    dropped: self.ring.dropped(),
                });
            }
            self.alerts.push(alert);
        }
        let next = WindowStats {
            index: self.cur.index + 1,
            slack: self.cur.slack,
            ..WindowStats::default()
        };
        let closed = std::mem::replace(&mut self.cur, next);
        self.series.push_back(closed);
        if self.series.len() > self.retain {
            self.series.pop_front();
            self.evicted += 1;
        }
        self.closed += 1;
    }

    /// The monitor state as a hand-rolled JSON object.
    pub fn to_json(&self) -> String {
        let windows: Vec<String> = self.series.iter().map(|w| w.to_json()).collect();
        let alerts: Vec<String> = self.alerts.iter().map(|a| a.to_json()).collect();
        let dumps: Vec<String> = self.dumps.iter().map(|d| d.to_json()).collect();
        format!(
            concat!(
                "{{\"mode\":\"rounds\",\"width\":{},\"closed\":{},\"evicted\":{},",
                "\"ring_dropped\":{},",
                "\"windows\":[{}],\"alerts\":[{}],\"dumps\":[{}]}}"
            ),
            self.width,
            self.closed,
            self.evicted,
            self.ring.dropped(),
            windows.join(","),
            alerts.join(","),
            dumps.join(","),
        )
    }
}

impl Recorder for WindowedMonitor {
    fn record(&mut self, event: Event) {
        if self.finished {
            return;
        }
        if let Some(target) = self.target_window(&event) {
            self.seek_window(target);
        }
        self.cur.fold(&event);
        self.ring.record(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::AccessDir;

    fn round_start(round: u64, at_ns: u64) -> Event {
        Event::RoundStart {
            round,
            active: 1,
            k: 1,
            at: Instant::from_nanos(at_ns),
        }
    }

    fn deadline(at_ns: u64, margin: i64) -> Event {
        let deadline = Instant::from_nanos((at_ns as i64 + margin).max(0) as u64);
        Event::Deadline {
            stream: 0,
            item: 0,
            round: 0,
            deadline,
            completed: Instant::from_nanos(at_ns),
        }
    }

    fn disk_op(at_ns: u64) -> Event {
        Event::DiskOp {
            dir: AccessDir::Read,
            lba: 0,
            sectors: 8,
            cylinder: 0,
            cyl_distance: 0,
            issued: Instant::from_nanos(at_ns),
            seek: Nanos::from_nanos(5),
            rotation: Nanos::from_nanos(3),
            transfer: Nanos::from_nanos(2),
        }
    }

    #[test]
    fn round_windows_split_on_round_index() {
        let mut m = WindowedMonitor::new(MonitorConfig::rounds(2));
        for r in 0..5 {
            m.record(round_start(r, r * 100));
            m.record(deadline(r * 100 + 10, 50));
        }
        m.finish();
        // Rounds 0–1, 2–3 closed; round 4 is the final partial window.
        let windows: Vec<&WindowStats> = m.windows().collect();
        assert_eq!(windows.len(), 3);
        assert_eq!(windows[0].tally.rounds, 2);
        assert_eq!(windows[1].tally.rounds, 2);
        assert_eq!(windows[2].tally.rounds, 1);
        assert_eq!(windows[0].start_round, Some(0));
        assert_eq!(windows[1].start_round, Some(2));
        assert_eq!(windows[2].start_round, Some(4));
        assert_eq!(m.closed(), 3);
    }

    #[test]
    fn time_gaps_synthesize_empty_windows() {
        let mut m = WindowedMonitor::new(MonitorConfig::rounds(1).retain(100));
        m.record(round_start(0, 0));
        m.record(round_start(4, 1)); // windows 1–3 are empty
        m.finish();
        let windows: Vec<&WindowStats> = m.windows().collect();
        assert_eq!(windows.len(), 5);
        assert_eq!(
            windows.iter().map(|w| w.events).collect::<Vec<_>>(),
            vec![1, 0, 0, 0, 1]
        );
    }

    #[test]
    fn huge_time_gap_fast_forwards_in_bounded_steps() {
        let mut m = WindowedMonitor::new(MonitorConfig::rounds(1).retain(4));
        m.record(round_start(0, 0));
        m.record(round_start(1_000_000_000, 1)); // a billion empty windows
        m.finish();
        // Series stays bounded, the closed count is exact, and the
        // final event landed in its correct window.
        assert!(m.windows().count() <= 5);
        assert_eq!(m.closed(), 1_000_000_001);
        let last = m.windows().last().unwrap();
        assert_eq!(last.index, 1_000_000_000);
        assert_eq!(last.tally.rounds, 1);
    }

    #[test]
    fn series_is_bounded_and_evictions_counted() {
        let mut m = WindowedMonitor::new(MonitorConfig::rounds(1).retain(3));
        for r in 0..10 {
            m.record(round_start(r, r * 100));
        }
        m.finish();
        assert_eq!(m.windows().count(), 3);
        assert_eq!(m.closed(), 10);
        assert_eq!(m.evicted(), 7);
        let indexes: Vec<u64> = m.windows().map(|w| w.index).collect();
        assert_eq!(indexes, vec![7, 8, 9]);
    }

    #[test]
    fn finish_without_events_closes_nothing() {
        let mut m = WindowedMonitor::new(MonitorConfig::rounds(2));
        m.finish();
        assert_eq!(m.windows().count(), 0);
        assert_eq!(m.closed(), 0);
        // Idempotent and inert afterwards.
        m.finish();
        m.record(round_start(0, 0));
        assert_eq!(m.closed(), 0);
    }

    #[test]
    fn slack_carries_forward_across_quiet_windows() {
        let mut m = WindowedMonitor::new(MonitorConfig::rounds(1));
        m.record(round_start(0, 0));
        m.record(Event::Admit {
            request: 1,
            n: 1,
            k_old: 0,
            k_new: 1,
            slack: Nanos::from_millis(7),
        });
        m.record(round_start(1, 100));
        m.record(round_start(2, 200));
        m.finish();
        let windows: Vec<&WindowStats> = m.windows().collect();
        assert_eq!(windows.len(), 3);
        assert_eq!(windows[0].slack, Some(Nanos::from_millis(7)));
        assert_eq!(windows[1].slack, Some(Nanos::from_millis(7)));
        assert_eq!(windows[2].slack, Some(Nanos::from_millis(7)));
    }

    #[test]
    fn burn_rate_alert_fires_once_and_captures_a_dump() {
        let rule = SloRule::BurnRate {
            label: "miss-burn",
            short_windows: 1,
            long_windows: 2,
            short_rate: 0.5,
            long_rate: 0.25,
        };
        let mut m = WindowedMonitor::new(MonitorConfig::rounds(1).rule(rule));
        // Window 0: clean. Windows 1 and 2: fully late.
        m.record(round_start(0, 0));
        m.record(deadline(10, 50));
        m.record(round_start(1, 100));
        m.record(deadline(110, -40));
        m.record(round_start(2, 200));
        m.record(deadline(210, -40));
        m.record(round_start(3, 300));
        m.finish();
        // Edge-triggered: one alert despite two breaching windows.
        assert_eq!(m.alerts().len(), 1);
        let alert = m.alerts()[0];
        assert_eq!(alert.rule, "miss-burn");
        assert_eq!(alert.kind, "burn_rate");
        assert_eq!(alert.window, 1);
        assert_eq!(m.dumps().len(), 1);
        let dump = &m.dumps()[0];
        assert_eq!(dump.alert, alert);
        // The dump holds the offending window last and the raw events
        // covering it.
        assert_eq!(dump.windows.last().unwrap().index, 1);
        assert!(dump.events.len() >= 4);
        assert_eq!(dump.rounds_covered(), Some((0, 1)));
    }

    #[test]
    fn latched_rule_rearms_after_a_clean_window() {
        let rule = SloRule::FaultStorm {
            label: "storm",
            max_faults: 0,
        };
        let mut m = WindowedMonitor::new(MonitorConfig::rounds(1).rule(rule).max_dumps(2));
        let fault = |at: u64| Event::Fault {
            class: crate::event::FaultClass::Transient,
            dir: AccessDir::Read,
            lba: 0,
            sectors: 8,
            issued: Instant::from_nanos(at),
            detected: Instant::from_nanos(at + 1),
            penalty: Nanos::from_nanos(1),
        };
        m.record(round_start(0, 0));
        m.record(fault(10));
        m.record(round_start(1, 100)); // closes window 0 → alert
        m.record(round_start(2, 200)); // closes clean window 1 → re-arm
        m.record(fault(210));
        m.record(round_start(3, 300)); // closes window 2 → second alert
        m.finish();
        assert_eq!(m.alerts().len(), 2);
        assert_eq!(m.alerts()[0].window, 0);
        assert_eq!(m.alerts()[1].window, 2);
        assert_eq!(m.dumps().len(), 2);
    }

    #[test]
    fn volume_slow_rule_fires_on_hedge_burst() {
        let rule = SloRule::VolumeSlow {
            label: "vol-slow",
            max_hedges: 1,
        };
        let mut m = WindowedMonitor::new(MonitorConfig::rounds(1).rule(rule));
        let hedge = |at: u64, won: bool| Event::Hedge {
            stream: 0,
            volume: 0,
            hedge_volume: 1,
            primary: Nanos::from_nanos(500),
            won,
            at: Instant::from_nanos(at),
        };
        m.record(round_start(0, 0));
        m.record(hedge(10, true));
        m.record(round_start(1, 100)); // closes window 0: one hedge, under threshold
        m.record(hedge(110, true));
        m.record(hedge(120, false));
        m.record(round_start(2, 200)); // closes window 1: two hedges → alert
        m.finish();
        assert_eq!(m.alerts().len(), 1);
        let alert = m.alerts()[0];
        assert_eq!(alert.rule, "vol-slow");
        assert_eq!(alert.kind, "volume_slow");
        assert_eq!(alert.window, 1);
        let windows: Vec<&WindowStats> = m.windows().collect();
        assert_eq!(windows[1].tally.hedges, 2);
        assert_eq!(windows[1].tally.hedge_wins, 1);
    }

    #[test]
    fn monitor_json_is_parseable_shape() {
        let mut m = WindowedMonitor::new(MonitorConfig::rounds(1));
        m.record(round_start(0, 0));
        m.record(disk_op(10));
        m.finish();
        let json = m.to_json();
        for key in [
            "\"mode\":\"rounds\"",
            "\"width\":1",
            "\"closed\":1",
            "\"windows\":[",
            "\"alerts\":[]",
            "\"dumps\":[]",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}

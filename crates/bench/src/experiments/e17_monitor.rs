//! **E17 — live monitoring**: the windowed health monitor watching a
//! fault storm, with SLO burn-rate alerting and an anomaly-triggered
//! flight dump.
//!
//! E13 established *whole-run* fault outcomes; E17 asks the monitoring
//! question: watching the same kind of faulty run live, does the
//! windowed fold spot the outage, raise a burn-rate alert, and capture
//! a flight dump whose raw events cover the offending rounds? The
//! scenario is the E13 transient sweep's worst cell (20 % fault rate,
//! ladder policy) with the buffer margin stripped — `k = 1` and
//! read-ahead of one block — because E13 showed read-ahead `k` absorbs
//! the entire fault latency: at the stock settings not a single
//! window-level miss survives to monitor. With the margin gone, the
//! same fault pattern turns into deadline misses that only the faults
//! cause (the clean control run at these settings has zero).
//!
//! The monitored and unmonitored runs must produce byte-identical
//! reports (the zero-perturbation pin), and the wall-clock ratio
//! between them is the monitoring overhead the scale suite bounds.

use std::rc::Rc;
use std::time::Duration;

use crate::experiments::e13_faults;
use crate::table::Table;
use strandfs_core::mrs::{Mrs, PlaySchedule};
use strandfs_core::rope::edit::MediaSel;
use strandfs_disk::FaultPlan;
use strandfs_obs::{MonitorConfig, ObsSink, SloRule, WindowedMonitor};
use strandfs_sim::playback::{simulate_playback, PlaybackConfig};
use strandfs_sim::{faulty_volume, ClipSpec, SimReport};
use strandfs_units::Nanos;

/// Transient-fault probability of the monitored scenario (the E13
/// sweep's worst cell).
pub const RATE: f64 = 0.2;

/// Round size (blocks fetched per stream per round): one block, so no
/// buffered margin hides the fault latency.
const K: u64 = 1;

/// Seconds of video per clip (longer than E13's 4 s, so the window
/// series is long enough for the burn rate's slow span to mean
/// something).
const CLIP_SECONDS: f64 = 8.0;

/// Service rounds per monitoring window.
pub const WINDOW_ROUNDS: u64 = 4;

/// Fault seed — same as the E13 sweep, so the fault pattern is the
/// one the committed baseline already pins.
const SEED: u64 = 99;

/// The monitor watching the scenario: two-round windows, the classic
/// fast/slow burn-rate pair on deadline miss rate, a fault-storm
/// tripwire, and Eq. 18 slack exhaustion (armed but quiet here — the
/// scenario bypasses admission control, so no slack is ever observed).
pub fn monitor_config() -> MonitorConfig {
    MonitorConfig::rounds(WINDOW_ROUNDS)
        .max_dumps(2)
        .rule(SloRule::BurnRate {
            label: "miss-burn",
            short_windows: 1,
            long_windows: 3,
            short_rate: 0.10,
            long_rate: 0.05,
        })
        .rule(SloRule::FaultStorm {
            label: "fault-storm",
            max_faults: 3,
        })
        .rule(SloRule::SlackExhaustion {
            label: "slack-floor",
            min_slack: Nanos::from_millis(1),
        })
}

/// Everything the monitored run produced, next to an unmonitored
/// control run of the identical scenario.
pub struct Outcome {
    /// The monitored run's report.
    pub report: SimReport,
    /// The unmonitored control run's report (must equal `report`).
    pub noop_report: SimReport,
    /// The monitor after `finish()`.
    pub monitor: WindowedMonitor,
    /// Wall-clock of the monitored service loop.
    pub wall_monitored: Duration,
    /// Wall-clock of the unmonitored service loop.
    pub wall_noop: Duration,
}

impl Outcome {
    /// Monitored-over-unmonitored wall-clock ratio.
    pub fn overhead(&self) -> f64 {
        self.wall_monitored.as_secs_f64() / self.wall_noop.as_secs_f64().max(1e-9)
    }
}

fn build_scenario() -> (Mrs, Vec<PlaySchedule>) {
    let clips = [ClipSpec::video_seconds(CLIP_SECONDS); e13_faults::STREAMS];
    let (mut mrs, ropes) = faulty_volume(&clips, SEED).expect("build faulty volume");
    let scheds: Vec<PlaySchedule> = ropes
        .iter()
        .map(|r| mrs.schedule(*r, MediaSel::Both))
        .collect::<Result<_, _>>()
        .expect("compile schedules");
    mrs.msm_mut()
        .arm_faults(FaultPlan::clean().with_random_transients(RATE, 1));
    (mrs, scheds)
}

fn run_once(obs: ObsSink) -> (SimReport, Duration) {
    let (mut mrs, scheds) = build_scenario();
    mrs.set_obs(obs);
    let cfg = PlaybackConfig {
        read_ahead: 1,
        ..PlaybackConfig::with_k(K)
    }
    .degraded(e13_faults::ladder());
    let begin = std::time::Instant::now();
    let report = simulate_playback(&mut mrs, scheds, cfg).expect("simulate");
    let wall = begin.elapsed();
    (report, wall)
}

/// Run the scenario twice — monitored, then bare — and return both
/// sides.
pub fn run() -> Outcome {
    let monitor = Rc::new(std::cell::RefCell::new(WindowedMonitor::new(
        monitor_config(),
    )));
    let (report, wall_monitored) = run_once(ObsSink::shared(&monitor));
    monitor.borrow_mut().finish();
    let (noop_report, wall_noop) = run_once(ObsSink::noop());
    let monitor = Rc::try_unwrap(monitor)
        .expect("run dropped its sink")
        .into_inner();
    Outcome {
        report,
        noop_report,
        monitor,
        wall_monitored,
        wall_noop,
    }
}

/// The `sections/monitor` JSON merged into `BENCH_core.json`: scenario
/// parameters plus the full monitor state (window series, alerts,
/// flight-dump summaries). Everything is virtual-time deterministic.
pub fn section_json() -> String {
    let out = run();
    format!(
        concat!(
            "{{\"scenario\":{{\"streams\":{},\"rate\":{:.3},\"k\":{},",
            "\"read_ahead\":1,\"window_rounds\":{}}},",
            "\"run\":{{\"miss_rate\":{:.9},\"rounds\":{}}},",
            "\"monitor\":{}}}"
        ),
        e13_faults::STREAMS,
        RATE,
        K,
        WINDOW_ROUNDS,
        out.report.miss_rate(),
        out.report.rounds,
        out.monitor.to_json(),
    )
}

/// Render the window series and the alerts.
pub fn table() -> Table {
    let out = run();
    let mut t = Table::new(
        "E17 — live monitoring of a 20% fault storm \
         (2 streams, k=1, read_ahead=1, 4-round windows)",
        &[
            "window",
            "rounds",
            "blocks",
            "late",
            "miss rate",
            "faults",
            "p1 margin",
        ],
    );
    for w in out.monitor.windows() {
        t.row(vec![
            w.index.to_string(),
            w.tally.rounds.to_string(),
            w.tally.deadline_blocks.to_string(),
            w.tally.deadline_late.to_string(),
            format!("{:.3}", w.miss_rate()),
            w.tally.faults.to_string(),
            format!("{} ns", w.margins.quantile(0.01)),
        ]);
    }
    for a in out.monitor.alerts() {
        t.note(format!(
            "ALERT {} ({}) at window {}: {:.3} breached {:.3}",
            a.rule, a.kind, a.window, a.value, a.threshold
        ));
    }
    for d in out.monitor.dumps() {
        let rounds = d
            .rounds_covered()
            .map(|(a, b)| format!("rounds {a}–{b}"))
            .unwrap_or_else(|| "no rounds".into());
        t.note(format!(
            "flight dump for `{}`: {} raw events covering {} ({} dropped)",
            d.alert.rule,
            d.events.len(),
            rounds,
            d.dropped
        ));
    }
    t.note(format!(
        "monitoring overhead: {:.2}x wall-clock (reports byte-identical)",
        out.overhead()
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_storm_raises_burn_rate_alert_with_dump() {
        let out = run();
        // The tightened read-ahead makes the storm visible at window
        // granularity…
        assert!(
            out.report.total_violations() > 0,
            "scenario must produce window-level misses"
        );
        // …and the monitor converts it into a deterministic burn-rate
        // alert plus a flight dump.
        assert!(
            out.monitor.alerts().iter().any(|a| a.rule == "miss-burn"),
            "expected a miss-burn alert, got {:?}",
            out.monitor.alerts()
        );
        // The fault storm itself trips the per-window tripwire too.
        assert!(out.monitor.alerts().iter().any(|a| a.rule == "fault-storm"));
        assert_eq!(out.monitor.dumps().len(), 2);
        let dump = &out.monitor.dumps()[0];
        assert_eq!(dump.alert.rule, "miss-burn");
        assert!(!dump.events.is_empty());
        // The dump's raw events cover the offending window's rounds.
        let (first, last) = dump.rounds_covered().expect("dump holds round events");
        let alert_window = dump.alert.window;
        assert!(
            first / WINDOW_ROUNDS <= alert_window && alert_window <= last / WINDOW_ROUNDS,
            "dump rounds {first}–{last} must cover window {alert_window}"
        );
        // The quiet slack rule never fired (no admission in scenario).
        assert!(out.monitor.alerts().iter().all(|a| a.rule != "slack-floor"));
    }

    #[test]
    fn monitoring_perturbs_nothing() {
        let out = run();
        assert_eq!(out.report, out.noop_report);
    }

    #[test]
    fn section_json_is_balanced_and_deterministic() {
        let json = section_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(!json.contains("NaN"));
        assert_eq!(json, section_json(), "same seed must give same bytes");
    }
}

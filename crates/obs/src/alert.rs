//! Declarative SLO rules evaluated at window close.
//!
//! Rules look only at the closed window series — never at raw events —
//! so evaluation cost is independent of stream count. The monitor
//! evaluates every rule each time a window closes and latches fired
//! rules edge-triggered: a rule that stays breached across consecutive
//! windows raises one [`Alert`], and re-arms only after a window in
//! which its condition is false.

use strandfs_units::{Instant, Nanos};

use crate::window::WindowStats;

/// One declarative SLO rule.
#[derive(Clone, Debug)]
pub enum SloRule {
    /// Multi-window burn rate on deadline miss rate: fires when the
    /// miss rate over the last `short_windows` windows reaches
    /// `short_rate` *and* the rate over the last `long_windows` windows
    /// reaches `long_rate`. The fast window catches the outage, the
    /// slow window filters one-window blips — the classic fast/slow
    /// burn-rate pair.
    BurnRate {
        /// Stable name carried into the alert.
        label: &'static str,
        /// Fast-window span, in windows (includes the closing window).
        short_windows: usize,
        /// Slow-window span, in windows.
        long_windows: usize,
        /// Miss-rate threshold over the fast span (0.0–1.0).
        short_rate: f64,
        /// Miss-rate threshold over the slow span (0.0–1.0).
        long_rate: f64,
    },
    /// Eq. 18 slack exhaustion: fires when the window's live admission
    /// slack has been observed and sits below `min_slack`.
    SlackExhaustion {
        /// Stable name carried into the alert.
        label: &'static str,
        /// Minimum tolerable slack.
        min_slack: Nanos,
    },
    /// Fault storm: fires when a single window sees more than
    /// `max_faults` fault events.
    FaultStorm {
        /// Stable name carried into the alert.
        label: &'static str,
        /// Largest tolerable per-window fault count.
        max_faults: u64,
    },
    /// Fail-slow volume: fires when a single window sees more than
    /// `max_hedges` hedged reads — some member is breaching its
    /// read-latency SLO without erroring.
    VolumeSlow {
        /// Stable name carried into the alert.
        label: &'static str,
        /// Largest tolerable per-window hedged-read count.
        max_hedges: u64,
    },
}

impl SloRule {
    /// The rule's stable name.
    pub fn label(&self) -> &'static str {
        match self {
            SloRule::BurnRate { label, .. }
            | SloRule::SlackExhaustion { label, .. }
            | SloRule::FaultStorm { label, .. }
            | SloRule::VolumeSlow { label, .. } => label,
        }
    }

    /// The rule's kind label for JSON and trace names.
    pub fn kind(&self) -> &'static str {
        match self {
            SloRule::BurnRate { .. } => "burn_rate",
            SloRule::SlackExhaustion { .. } => "slack",
            SloRule::FaultStorm { .. } => "fault_storm",
            SloRule::VolumeSlow { .. } => "volume_slow",
        }
    }

    /// Evaluate against the closing window, with `history` holding the
    /// previously closed windows oldest-first. Returns the observed
    /// `(value, threshold)` pair when the rule is breached.
    pub fn check(&self, history: &[&WindowStats], closing: &WindowStats) -> Option<(f64, f64)> {
        let t = &closing.tally;
        match *self {
            SloRule::BurnRate {
                short_windows,
                long_windows,
                short_rate,
                long_rate,
                ..
            } => {
                let rate_over = |span: usize| -> Option<f64> {
                    let tail = span.saturating_sub(1).min(history.len());
                    let (mut blocks, mut late) = (t.deadline_blocks, t.deadline_late);
                    for w in history.iter().rev().take(tail) {
                        blocks += w.tally.deadline_blocks;
                        late += w.tally.deadline_late;
                    }
                    (blocks > 0).then(|| late as f64 / blocks as f64)
                };
                let short = rate_over(short_windows)?;
                let long = rate_over(long_windows)?;
                (short >= short_rate && long >= long_rate).then_some((short, short_rate))
            }
            SloRule::SlackExhaustion { min_slack, .. } => {
                let slack = closing.slack?;
                (slack < min_slack)
                    .then_some((slack.as_nanos() as f64, min_slack.as_nanos() as f64))
            }
            SloRule::FaultStorm { max_faults, .. } => {
                (t.faults > max_faults).then_some((t.faults as f64, max_faults as f64))
            }
            SloRule::VolumeSlow { max_hedges, .. } => {
                (t.hedges > max_hedges).then_some((t.hedges as f64, max_hedges as f64))
            }
        }
    }
}

/// A fired SLO rule, stamped with the window that closed it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Alert {
    /// The breached rule's label.
    pub rule: &'static str,
    /// The rule kind (`burn_rate`, `slack`, `fault_storm`,
    /// `volume_slow`).
    pub kind: &'static str,
    /// Index of the window whose close fired the rule.
    pub window: u64,
    /// Virtual time of that window's last event.
    pub at: Instant,
    /// The observed value that breached the threshold.
    pub value: f64,
    /// The threshold it breached.
    pub threshold: f64,
}

impl Alert {
    /// The alert as a hand-rolled JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"rule\":\"{}\",\"kind\":\"{}\",\"window\":{},\"at_ns\":{},\"value\":{:.6},\"threshold\":{:.6}}}",
            self.rule,
            self.kind,
            self.window,
            self.at.as_nanos(),
            self.value,
            self.threshold
        )
    }
}

//! What one repetition and one whole run report.

use crate::spec::{WorkloadId, END_TO_END, PER_LAYER};
use std::fmt::Write as _;

/// The virtual-time results of one repetition: integers, so two runs of
/// one seed compare exactly.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Virt {
    /// Blocks due to every viewer offered to the front door.
    pub blocks_due: u64,
    /// Blocks of refused viewers + blocks dropped + blocks served corrupt
    /// (fetch errors abort the repetition instead).
    pub failed_blocks: u64,
    /// Blocks delivered, on time or late.
    pub delivered: u64,
    /// Delivered blocks that completed after their deadline.
    pub late: u64,
    pub start_latency_mean_ns: u64,
    pub start_latency_tail10_ns: u64,
    /// Virtual instant of the last event the run emitted.
    pub makespan_ns: u64,
}

impl Virt {
    /// Fill the latency statistics from per-viewer start latencies.
    ///
    /// Disk rotation quantizes start latency, so the median of many
    /// viewers is one number on every seed, and the single worst viewer
    /// of a seeded fault storm swings by a fifth between seeds. The mean
    /// answers for every viewer and the mean of the slowest tenth for
    /// the tail; both move with any viewer they cover.
    pub fn set_latencies(&mut self, latencies_ns: &[u64]) {
        let mean = |v: &[u64]| v.iter().sum::<u64>() / v.len().max(1) as u64;
        let mut sorted = latencies_ns.to_vec();
        sorted.sort_unstable();
        self.start_latency_mean_ns = mean(&sorted);
        self.start_latency_tail10_ns = mean(&sorted[sorted.len() - sorted.len().div_ceil(10)..]);
    }

    pub fn delivered_share(&self) -> f64 {
        1.0 - self.failed_blocks as f64 / self.blocks_due.max(1) as f64
    }

    pub fn on_time_share(&self) -> f64 {
        1.0 - self.late as f64 / self.delivered.max(1) as f64
    }
}

/// Counts made by the system during one repetition; they repeat exactly
/// for one seed.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Counts {
    pub rounds: u64,
    pub blocks_fetched: u64,
    pub failovers: u64,
    pub hedges: u64,
    pub hedge_wins: u64,
    pub quarantines: u64,
    pub read_repairs: u64,
    pub scrubbed_blocks: u64,
    pub scrub_repaired: u64,
    pub restored_blocks: u64,
    pub admits: u64,
    pub rejects: u64,
    /// Round size the admission controller held on a serving member
    /// after the front door closed.
    pub k: u64,
    pub alerts: u64,
    pub flight_dumps: u64,
    /// Events the system emitted (0 when no sink was attached).
    pub events: u64,
    pub disk_ops: u64,
    pub disk_busy_ns: u64,
    pub disk_positioning_ns: u64,
}

/// One repetition's result.
#[derive(Clone, Copy, Debug, Default)]
pub struct RepOutcome {
    /// Host seconds of the timed part: front-door admit + serve + release.
    pub wall_s: f64,
    /// Host seconds of the `serve` call alone.
    pub serve_s: f64,
    /// Host seconds of untimed per-repetition preparation (the
    /// `volume_overload` schedule fan-out).
    pub prep_s: f64,
    pub virt: Virt,
    pub counts: Counts,
}

/// A named value; the unit comes from [`crate::spec`].
pub type Metric = (&'static str, f64);

/// Everything one run of one workload produced.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub workload: WorkloadId,
    pub seed: u64,
    pub smoke: bool,
    pub traced: bool,
    /// Fold of the first stored block of every title: differs between
    /// seeds, repeats for one seed.
    pub fingerprint: u64,
    /// Which repetition the virtual-time metrics and counts come from:
    /// always 0, the observed repetition that precedes the timed ones.
    pub virtual_rep: u32,
    pub virt: Virt,
    pub counts: Counts,
    /// Blocks due / blocks failed, summed over every repetition run.
    pub attempted: u64,
    pub failed: u64,
    pub reps: usize,
    pub setups: usize,
    /// Per-repetition wall times of the timed phase, in seconds.
    pub rep_walls_s: Vec<f64>,
    pub setup_walls_s: Vec<f64>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Traced runs: the median repetition split into its layers.
    pub shares: Vec<crate::driver::Share>,
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.0 == name).map(|m| m.1))
        .unwrap_or_else(|| panic!("metric {name} is not declared in spec"))
}

/// A float as JSON: every digit measured, never NaN or infinite.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

impl Outcome {
    /// The metrics this run reports to the driver: end-to-end when
    /// untraced, per-layer when traced.
    pub fn reported(&self) -> &[Metric] {
        if self.traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// `workload metric value unit` lines, one per metric.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for (name, value) in self.end_to_end.iter().chain(&self.per_layer) {
            let _ = writeln!(
                out,
                "{} {} {} {}",
                self.workload.name(),
                name,
                json_num(*value),
                unit_of(name)
            );
        }
        out
    }

    /// `# share` lines: the median repetition split into its layers.
    pub fn share_lines(&self) -> String {
        let mut out = String::new();
        for s in &self.shares {
            let _ = writeln!(
                out,
                "# share {} {:<34} {:>10} x {:>12.1} ns = {:>10.3} ms  {:>6.2}%",
                self.workload.name(),
                s.layer,
                s.count,
                s.ns_each,
                s.seconds * 1e3,
                s.share * 100.0
            );
        }
        out
    }

    fn shares_json(&self) -> String {
        let rows: Vec<String> = self
            .shares
            .iter()
            .map(|s| {
                format!(
                    "{{\"layer\": \"{}\", \"count\": {}, \"ns_each\": {}, \"seconds\": {}, \"share\": {}}}",
                    s.layer,
                    s.count,
                    json_num(s.ns_each),
                    json_num(s.seconds),
                    json_num(s.share)
                )
            })
            .collect();
        format!("[{}]", rows.join(", "))
    }

    fn metrics_json(metrics: &[Metric]) -> String {
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, value)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    json_num(*value),
                    unit_of(name)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// The driver's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn driver_json(&self) -> String {
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.attempted,
            self.failed,
            Self::metrics_json(self.reported())
        )
    }

    /// The run as one object of the result document.
    pub fn document_json(&self) -> String {
        let floats = |v: &[f64]| -> String {
            let parts: Vec<String> = v.iter().map(|x| json_num(*x)).collect();
            format!("[{}]", parts.join(", "))
        };
        let v = &self.virt;
        let c = &self.counts;
        format!(
            concat!(
                "{{\"workload\": \"{}\", \"seed\": {}, \"smoke\": {}, \"traced\": {}, ",
                "\"fingerprint\": \"{:016x}\", \"virtual_rep\": {}, ",
                "\"attempted\": {}, \"failed\": {}, \"reps\": {}, \"setups\": {}, ",
                "\"rep_walls_s\": {}, \"setup_walls_s\": {}, ",
                "\"virt\": {{\"blocks_due\": {}, \"failed_blocks\": {}, \"delivered\": {}, \"late\": {}, ",
                "\"start_latency_mean_ns\": {}, \"start_latency_tail10_ns\": {}, \"makespan_ns\": {}}}, ",
                "\"counts\": {{\"rounds\": {}, \"blocks_fetched\": {}, \"failovers\": {}, \"hedges\": {}, ",
                "\"hedge_wins\": {}, \"quarantines\": {}, \"read_repairs\": {}, \"scrubbed_blocks\": {}, ",
                "\"scrub_repaired\": {}, \"restored_blocks\": {}, \"admits\": {}, \"rejects\": {}, \"k\": {}, ",
                "\"alerts\": {}, \"flight_dumps\": {}, \"events\": {}, \"disk_ops\": {}, ",
                "\"disk_busy_ns\": {}, \"disk_positioning_ns\": {}}}, ",
                "\"end_to_end\": {}, \"per_layer\": {}, \"shares\": {}}}"
            ),
            self.workload.name(),
            self.seed,
            self.smoke,
            self.traced,
            self.fingerprint,
            self.virtual_rep,
            self.attempted,
            self.failed,
            self.reps,
            self.setups,
            floats(&self.rep_walls_s),
            floats(&self.setup_walls_s),
            v.blocks_due,
            v.failed_blocks,
            v.delivered,
            v.late,
            v.start_latency_mean_ns,
            v.start_latency_tail10_ns,
            v.makespan_ns,
            c.rounds,
            c.blocks_fetched,
            c.failovers,
            c.hedges,
            c.hedge_wins,
            c.quarantines,
            c.read_repairs,
            c.scrubbed_blocks,
            c.scrub_repaired,
            c.restored_blocks,
            c.admits,
            c.rejects,
            c.k,
            c.alerts,
            c.flight_dumps,
            c.events,
            c.disk_ops,
            c.disk_busy_ns,
            c.disk_positioning_ns,
            Self::metrics_json(&self.end_to_end),
            Self::metrics_json(&self.per_layer),
            self.shares_json(),
        )
    }
}

//! The load generator: one thread, fixed work, closed loop.
//!
//! A run of one workload, in this order:
//!
//! 1. **set-up** — one discarded warm-up build, then `setup_builds`
//!    timed ones (`setup_s` is their median);
//! 2. **observed repetition** (repetition 0) — the harness recorder is
//!    attached, so the run's makespan is known; every virtual-time
//!    metric and every count comes from this repetition;
//! 3. **timed repetitions** — the workload's own configuration, each
//!    starting when the previous one returned, until `--seconds` have
//!    passed (`viewers_per_s` divides by their median wall time);
//! 4. with `--trace 1` only: stamped repetitions, repetitions with the
//!    monitor flipped, the workload's ladders and the isolated probes.
//!
//! Every repetition's outcome is checked; a failed check ends the run
//! without a result.

use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;
use std::time::Instant as Wall;

use strandfs_core::msm::Msm;

use crate::cluster_wl::ClusterWorkload;
use crate::outcome::{Metric, Outcome, RepOutcome};
use crate::overload::OverloadWorkload;
use crate::probes;
use crate::spec::{Scale, WorkloadId, PER_LAYER};
use crate::stats::median;
use crate::tracer::{StampRecorder, Tracer};

/// Raw events the stamped recorder keeps for the export probes.
pub const RING_CAP: usize = 1 << 16;

/// Repetitions per phase at smoke scale; full scale runs by the clock.
const SMOKE_REPS: usize = 2;

/// Overrides of the `failover_storm` script, for reproducing the
/// findings listed in the README. `None` keeps the committed script.
#[derive(Clone, Copy, Debug, Default)]
pub struct StormOverrides {
    pub k: Option<u64>,
    pub restore: Option<u64>,
    pub quarantine_after: Option<u64>,
    /// Latency multiplier of the fail-slow member; 1 switches the leg off.
    pub slow_factor: Option<f64>,
}

#[derive(Clone, Debug)]
pub struct RunArgs {
    pub workload: WorkloadId,
    pub seed: u64,
    /// Length of the timed phase, in seconds (ignored at smoke scale).
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Where the traced run writes `<workload>.trace.json`.
    pub out_dir: PathBuf,
    pub storm: StormOverrides,
}

/// How a repetition is observed.
#[derive(Clone)]
pub enum Sink {
    /// The workload's own configuration: its monitor if it has one, no
    /// sink at all otherwise.
    Default,
    /// The harness recorder in front of the workload's own sink.
    Stamped(Rc<RefCell<StampRecorder>>),
    /// The workload's configuration with its monitor flipped: attached
    /// where the workload runs without, detached where it runs with.
    FlipMonitor,
}

/// The per-layer metrics of a traced run, every name present from the
/// start so that a layer a workload bypasses reads 0.
pub struct LayerMetrics(Vec<Metric>);

impl LayerMetrics {
    fn new() -> LayerMetrics {
        LayerMetrics(PER_LAYER.iter().map(|m| (m.0, 0.0)).collect())
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .iter_mut()
            .find(|m| m.0 == name)
            .unwrap_or_else(|| panic!("per-layer metric {name} is not declared in spec"));
        slot.1 = value;
    }

    fn get(&self, name: &str) -> f64 {
        self.0.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1)
    }
}

/// One estimated child of the workload's median repetition: a layer
/// that has no span of its own inside `serve`, priced as the count the
/// system reported times the isolated probe's cost per call.
#[derive(Clone, Debug)]
pub struct Share {
    pub layer: &'static str,
    pub count: u64,
    pub ns_each: f64,
    /// Estimated seconds, and their share of the median repetition.
    pub seconds: f64,
    pub share: f64,
}

/// Split the median repetition of the workload's own configuration
/// into its layers: the front door from its spans' share, the children
/// of `serve` that have no span as count x cost per call, and the rest
/// of `serve` — the round engine's self time plus the pricing error.
///
/// A payload hash is priced at the gap between consecutive `scrub`
/// stamps where the workload scrubs: memory is cold there, as it is for
/// a verified read, and the isolated probe (hot in cache, a quarter
/// cheaper) would leave the difference on the round engine.
fn breakdown(
    wl: &dyn Workload,
    tr: &Tracer,
    observed: &RepOutcome,
    plain: &[RepOutcome],
    m: &LayerMetrics,
) -> Vec<Share> {
    let rep_s = median(&walls(plain));
    let serve_s = median(&plain.iter().map(|r| r.serve_s).collect::<Vec<_>>());
    let c = &observed.counts;
    let (scrub_ns, scrub_gaps) = tr
        .spans()
        .iter()
        .filter(|s| s.name == "scrub")
        .fold((0u64, 0u64), |a, s| (a.0 + s.dur_ns(), a.1 + s.count - 1));
    let check = if scrub_gaps > 0 {
        scrub_ns as f64 / scrub_gaps as f64
    } else {
        m.get("core.msm.check_sum_ns")
    };
    let mut rows = vec![
        ("front door (admit + release)", 1, (rep_s - serve_s) * 1e9),
        (
            "verified reads (hash per fetch)",
            c.blocks_fetched * wl.hashes_per_fetch(),
            check,
        ),
        ("scrub probes (hash per block)", c.scrubbed_blocks, check),
        ("disk timing model", c.disk_ops, m.get("disk.access_ns")),
    ];
    if wl.monitored() {
        rows.push((
            "monitor fold",
            c.events,
            m.get("obs.monitor_fold_ns_per_event"),
        ));
    }
    let priced: f64 = rows.iter().skip(1).map(|r| r.1 as f64 * r.2).sum();
    rows.push((
        "round engine (serve self time)",
        1,
        (serve_s * 1e9 - priced).max(0.0),
    ));
    rows.into_iter()
        .map(|(layer, count, ns_each)| {
            let seconds = count as f64 * ns_each / 1e9;
            Share {
                layer,
                count,
                ns_each,
                seconds,
                share: seconds / rep_s,
            }
        })
        .collect()
}

/// What a traced run hands a workload to derive its layers' metrics.
pub struct LayerCx<'a> {
    pub tr: &'a mut Tracer,
    pub out: &'a mut LayerMetrics,
    pub scale: Scale,
    pub observed: RepOutcome,
    /// Repetitions in the workload's own configuration.
    pub plain: &'a [RepOutcome],
}

/// One of the four workloads behind the driver's loop.
pub trait Workload {
    /// Build the system under test from the seed, through the full
    /// RECORD path, and arm its faults. Counted as set-up.
    fn build(&mut self, tr: &mut Tracer) -> Result<(), String>;
    /// True when a repetition leaves the system unfit for the next one,
    /// so every repetition gets a fresh (timed) build.
    fn rebuild_each_rep(&self) -> bool;
    /// Viewers one repetition plays to their outcome.
    fn viewers(&self) -> u64;
    /// Fold of the first stored block of every title.
    fn fingerprint(&self) -> u64;
    /// Sectors holding payload across every device after set-up.
    fn sectors_written(&self) -> u64;
    /// Whether the workload's own configuration attaches a monitor.
    fn monitored(&self) -> bool;
    /// Payload hashes the workload's own configuration spends per block
    /// fetched (verified read, served-payload audit).
    fn hashes_per_fetch(&self) -> u64;
    /// One repetition: front door, serve, release, then the checks.
    fn rep(&mut self, sink: &Sink, tr: &mut Tracer) -> Result<RepOutcome, String>;
    /// A storage manager holding the workload's own data, for the
    /// isolated probes (run after the last repetition).
    fn probe_msm(&mut self) -> &mut Msm;
    /// The metrics of the layers only this workload knows about.
    fn layer_metrics(&mut self, cx: &mut LayerCx) -> Result<(), String>;
}

fn make(args: &RunArgs, scale: Scale) -> Box<dyn Workload> {
    match args.workload {
        WorkloadId::VolumeOverload => Box::new(OverloadWorkload::new(args.seed, scale)),
        w => Box::new(ClusterWorkload::new(w, args.seed, scale, args.storm)),
    }
}

/// `VmHWM` of this process, in MB (0 where `/proc` is absent).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The repetition loop and what it accumulates.
struct Phase<'a> {
    wl: &'a mut dyn Workload,
    tr: &'a mut Tracer,
    /// Wall seconds of every timed build.
    setups: Vec<f64>,
    /// Blocks due and blocks failed over every repetition run.
    attempted: u64,
    failed: u64,
    next_rep: u32,
}

impl Phase<'_> {
    /// One repetition; `fresh` says the system was built just now.
    fn one(&mut self, sink: &Sink, fresh: bool) -> Result<RepOutcome, String> {
        self.tr.set_rep(self.next_rep);
        self.next_rep += 1;
        if self.wl.rebuild_each_rep() && !fresh {
            let t = Wall::now();
            self.wl.build(self.tr)?;
            self.setups.push(t.elapsed().as_secs_f64());
        }
        let r = self.wl.rep(sink, self.tr)?;
        self.attempted += r.virt.blocks_due;
        self.failed += r.virt.failed_blocks;
        Ok(r)
    }

    /// At least `reps.start` repetitions, then more until `seconds` have
    /// passed or `reps.end` is reached.
    fn run(
        &mut self,
        sink: &Sink,
        seconds: f64,
        reps: std::ops::Range<usize>,
    ) -> Result<Vec<RepOutcome>, String> {
        let begin = Wall::now();
        let mut done = Vec::new();
        while done.len() < reps.start
            || (done.len() < reps.end && begin.elapsed().as_secs_f64() < seconds)
        {
            done.push(self.one(sink, false)?);
        }
        Ok(done)
    }
}

fn walls(reps: &[RepOutcome]) -> Vec<f64> {
    reps.iter().map(|r| r.wall_s).collect()
}

/// Run one workload and return everything it measured.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let scale = if args.smoke {
        Scale::smoke()
    } else {
        Scale::full()
    };
    let mut wl = make(args, scale);
    let mut tr = Tracer::new(args.trace);

    // Set-up: the first build pays for page faults and allocator growth
    // the later ones do not, so it is discarded.
    let mut setups = Vec::new();
    for i in 0..=scale.setup_builds {
        tr.set_rep(i as u32);
        let t = Wall::now();
        wl.build(&mut tr)?;
        if i > 0 {
            setups.push(t.elapsed().as_secs_f64());
        }
    }
    let fingerprint = wl.fingerprint();
    let sectors_written = wl.sectors_written();

    let recorder = Rc::new(RefCell::new(if args.trace {
        StampRecorder::stamping(tr.origin(), RING_CAP)
    } else {
        StampRecorder::counting(tr.origin())
    }));
    let stamped_sink = Sink::Stamped(Rc::clone(&recorder));
    let mut phase = Phase {
        wl: wl.as_mut(),
        tr: &mut tr,
        setups,
        attempted: 0,
        failed: 0,
        next_rep: 0,
    };
    let observed = phase.one(&stamped_sink, true)?;

    let by_clock = |min: usize, max: usize| {
        if scale.smoke {
            SMOKE_REPS..SMOKE_REPS
        } else {
            min..max
        }
    };
    let timed_seconds = if args.trace {
        args.seconds / 3.0
    } else {
        args.seconds
    };
    let plain = phase.run(&Sink::Default, timed_seconds, by_clock(3, usize::MAX))?;

    let mut per_layer = Vec::new();
    let mut shares = Vec::new();
    if args.trace {
        // A stamped repetition leaves a span per round; a few dozen
        // repetitions are plenty and keep the span file small.
        let stamped = phase.run(&stamped_sink, args.seconds / 3.0, by_clock(2, 32))?;
        let flipped = phase.run(&Sink::FlipMonitor, args.seconds / 6.0, by_clock(3, 200))?;
        let mut out = LayerMetrics::new();
        let mut cx = LayerCx {
            tr: &mut *phase.tr,
            out: &mut out,
            scale,
            observed,
            plain: &plain,
        };
        let (with, without) = if phase.wl.monitored() {
            (&plain, &flipped)
        } else {
            (&flipped, &plain)
        };
        cx.out.set(
            "obs.overhead_ratio",
            median(&walls(with)) / median(&walls(without)),
        );
        cx.out.set(
            "bench.trace_overhead_ratio",
            median(&walls(&stamped)) / median(&walls(&plain)),
        );
        let watched = if phase.wl.monitored() {
            observed.counts
        } else {
            flipped[0].counts
        };
        cx.out.set("obs.alerts", watched.alerts as f64);
        cx.out.set("obs.flight_dumps", watched.flight_dumps as f64);
        cx.out
            .set("obs.events_per_rep", observed.counts.events as f64);
        cx.out.set("disk.ops", observed.counts.disk_ops as f64);
        cx.out.set(
            "disk.busy_virt_s",
            observed.counts.disk_busy_ns as f64 / 1e9,
        );
        cx.out.set(
            "disk.positioning_fraction",
            observed.counts.disk_positioning_ns as f64 / observed.counts.disk_busy_ns.max(1) as f64,
        );
        cx.out.set("disk.sectors_written", sectors_written as f64);
        cx.out
            .set("core.admission.admits", observed.counts.admits as f64);
        cx.out
            .set("core.admission.rejects", observed.counts.rejects as f64);
        cx.out.set("core.admission.k", observed.counts.k as f64);
        phase.wl.layer_metrics(&mut cx)?;
        probes::common(&mut *phase.wl, &recorder.borrow(), &mut cx, args.seed);
        shares = breakdown(&*phase.wl, phase.tr, &observed, &plain, &out);
        per_layer = out.0;
    }

    let Phase {
        setups,
        attempted,
        failed,
        ..
    } = phase;
    let v = observed.virt;
    let rep_walls_s = walls(&plain);
    let end_to_end: Vec<Metric> = vec![
        ("setup_s", median(&setups)),
        ("viewers_per_s", wl.viewers() as f64 / median(&rep_walls_s)),
        ("peak_rss_mb", peak_rss_mb()),
        ("delivered_share", v.delivered_share()),
        ("on_time_share", v.on_time_share()),
        (
            "start_latency_ms_mean",
            v.start_latency_mean_ns as f64 / 1e6,
        ),
        (
            "start_latency_ms_tail10",
            v.start_latency_tail10_ns as f64 / 1e6,
        ),
        ("virt_makespan_s", v.makespan_ns as f64 / 1e9),
    ];
    let outcome = Outcome {
        workload: args.workload,
        seed: args.seed,
        smoke: args.smoke,
        traced: args.trace,
        fingerprint,
        virtual_rep: 0,
        virt: v,
        counts: observed.counts,
        attempted,
        failed,
        reps: rep_walls_s.len(),
        setups: setups.len(),
        rep_walls_s,
        setup_walls_s: setups,
        end_to_end,
        per_layer,
        shares,
    };
    if args.trace {
        crate::report::write_trace(&args.out_dir, &outcome, &tr)?;
    }
    Ok(outcome)
}

//! `volume_overload`: one standard volume, far more streams than Eq. 17
//! admits, through the single-volume round engine under CSCAN.
//!
//! The front door is bypassed on purpose — this is E16's raw-loop
//! regime, kept as the number that guards the engine PR 7 tuned — so
//! most deadlines are missed by design (`on_time_share` ≈ 0.12) while
//! every block must still be fetched (`delivered_share` = 1).

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant as Wall;

use strandfs_core::mrs::{compile_schedule, Mrs, PlaySchedule};
use strandfs_core::msm::Msm;
use strandfs_core::rope::edit::{Interval, MediaSel};
use strandfs_obs::{MonitorConfig, ObsSink, SloRule, WindowedMonitor};
use strandfs_sim::playback::{simulate_playback, PlaybackConfig};
use strandfs_sim::{standard_volume, ClipSpec};

use crate::cluster_wl::{first_block_sum, vbr_clip};
use crate::driver::{LayerCx, Sink, Workload};
use crate::outcome::{Counts, RepOutcome, Virt};
use crate::seeded::Rng;
use crate::spec::Scale;
use crate::stats::median;
use crate::tracer::Tracer;

/// Round size: E16's five blocks per stream per round.
const K: u64 = 5;

/// The monitor attached for `obs.overhead_ratio`: E16's
/// `run_monitored` configuration.
fn monitor_config() -> MonitorConfig {
    MonitorConfig::rounds(4)
        .retain(64)
        .ring_cap(4096)
        .rule(SloRule::BurnRate {
            label: "miss-burn",
            short_windows: 1,
            long_windows: 4,
            short_rate: 0.5,
            long_rate: 0.25,
        })
}

struct State {
    mrs: Mrs,
    schedules: Vec<PlaySchedule>,
    /// The clip each stream plays.
    assignment: Vec<u32>,
    /// The next repetition's streams, fanned out ahead of it.
    streams: Option<Vec<PlaySchedule>>,
    fingerprint: u64,
}

impl State {
    fn fan_out(&self) -> Vec<PlaySchedule> {
        self.assignment
            .iter()
            .map(|&c| self.schedules[c as usize].clone())
            .collect()
    }
}

pub struct OverloadWorkload {
    seed: u64,
    scale: Scale,
    state: Option<State>,
}

impl OverloadWorkload {
    pub fn new(seed: u64, scale: Scale) -> Self {
        OverloadWorkload {
            seed,
            scale,
            state: None,
        }
    }
}

impl Workload for OverloadWorkload {
    fn build(&mut self, tr: &mut Tracer) -> Result<(), String> {
        self.state = None;
        let mut rng = Rng::new(self.seed, 0x0E);
        let build = tr.begin("build");
        let clips: Vec<ClipSpec> = (0..self.scale.overload_clips)
            .map(|_| {
                let blocks = rng.clip_blocks(self.scale.overload_blocks, self.scale.jitter_blocks);
                // `standard_volume` adds the clip index to the seed.
                vbr_clip(blocks, rng.next_u64() >> 8)
            })
            .collect();
        let span = tr.begin("ingest");
        let (mrs, ropes) = standard_volume(&clips).map_err(|e| format!("standard_volume: {e}"))?;
        let span_blocks = clips
            .iter()
            .map(|c| (c.seconds * 10.0).round() as u64)
            .sum();
        tr.end_counted(span, span_blocks);

        let span = tr.begin("compile");
        let mut schedules = Vec::new();
        for id in &ropes {
            let rope = mrs.rope(*id).map_err(|e| format!("rope: {e}"))?;
            let mut s = compile_schedule(rope, MediaSel::Both, Interval::whole(rope.duration()))
                .map_err(|e| format!("compile_schedule: {e}"))?;
            mrs.resolve_silence(&mut s)
                .map_err(|e| format!("resolve_silence: {e}"))?;
            schedules.push(s);
        }
        tr.end_counted(span, schedules.len() as u64);

        // `standard_volume` seeds clip `i` with `seed + i`.
        let mut fingerprint = 0u64;
        for (i, (clip, schedule)) in clips.iter().zip(&schedules).enumerate() {
            let sum = first_block_sum(mrs.msm(), schedule.items[0].strand, clip.seed + i as u64)
                .map_err(|e| format!("clip {i}: {e}"))?;
            fingerprint = fingerprint.rotate_left(7) ^ sum;
        }

        let clips_n = schedules.len() as u64;
        let assignment: Vec<u32> = (0..self.scale.overload_streams)
            .map(|_| rng.below(clips_n) as u32)
            .collect();
        let mut st = State {
            mrs,
            schedules,
            assignment,
            streams: None,
            fingerprint,
        };
        let span = tr.begin("fanout");
        st.streams = Some(st.fan_out());
        tr.end_counted(span, st.assignment.len() as u64);
        tr.end(build);
        self.state = Some(st);
        Ok(())
    }

    fn rebuild_each_rep(&self) -> bool {
        false
    }

    fn viewers(&self) -> u64 {
        self.scale.overload_streams as u64
    }

    fn fingerprint(&self) -> u64 {
        self.state.as_ref().map_or(0, |s| s.fingerprint)
    }

    fn sectors_written(&self) -> u64 {
        self.state
            .as_ref()
            .map_or(0, |s| s.mrs.msm().disk().sectors_written() as u64)
    }

    fn monitored(&self) -> bool {
        false
    }

    fn hashes_per_fetch(&self) -> u64 {
        0
    }

    fn rep(&mut self, sink: &Sink, tr: &mut Tracer) -> Result<RepOutcome, String> {
        let st = self.state.as_mut().expect("build() precedes every use");
        // Each repetition consumes its streams; fanning the next set
        // out is preparation, not service.
        let prep = Wall::now();
        let streams = match st.streams.take() {
            Some(s) => s,
            None => {
                let span = tr.begin("fanout");
                let s = st.fan_out();
                tr.end_counted(span, s.len() as u64);
                s
            }
        };
        let prep_s = prep.elapsed().as_secs_f64();
        let due: Vec<u64> = streams.iter().map(|s| s.items.len() as u64).collect();

        let monitor = matches!(sink, Sink::FlipMonitor)
            .then(|| Rc::new(RefCell::new(WindowedMonitor::new(monitor_config()))));
        match (sink, &monitor) {
            (Sink::Stamped(rec), _) => {
                rec.borrow_mut().reset();
                st.mrs.set_obs(ObsSink::shared(rec));
            }
            (_, Some(m)) => st.mrs.set_obs(ObsSink::shared(m)),
            (_, None) => st.mrs.set_obs(ObsSink::noop()),
        }
        let before = st.mrs.msm().disk().stats().clone();

        let span = tr.begin("serve");
        let begin = Wall::now();
        let report = simulate_playback(&mut st.mrs, streams, PlaybackConfig::with_k(K).cscan())
            .map_err(|e| format!("simulate_playback: {e}"))?;
        if let Some(m) = &monitor {
            m.borrow_mut().finish();
        }
        let wall_s = begin.elapsed().as_secs_f64();
        let fetched: u64 = report.streams.iter().map(|s| s.fetched).sum();
        tr.end_counted(span, fetched);
        if let Sink::Stamped(rec) = sink {
            tr.absorb_rounds(span, &rec.borrow().stamps);
        }
        st.mrs.set_obs(ObsSink::noop());

        let mut counts = Counts {
            rounds: report.rounds,
            blocks_fetched: fetched,
            ..Counts::default()
        };
        let mut makespan_ns = 0;
        if let Sink::Stamped(rec) = sink {
            let r = rec.borrow();
            counts.events = r.events;
            makespan_ns = r.virt_end_ns;
        }
        if let Some(m) = &monitor {
            let m = m.borrow();
            counts.alerts = m.alerts().len() as u64;
            counts.flight_dumps = m.dumps().len() as u64;
        }
        let after = st.mrs.msm().disk().stats();
        counts.disk_ops = after.ops() - before.ops();
        counts.disk_busy_ns = (after.busy_time() - before.busy_time()).as_nanos();
        counts.disk_positioning_ns = ((after.seek_time + after.rotation_time)
            - (before.seek_time + before.rotation_time))
            .as_nanos();

        // Checks: strict service returned, every stream was handed its
        // whole schedule, nothing was dropped.
        if report.streams.len() != due.len() {
            return Err("the report lost streams".into());
        }
        for (i, (s, &n)) in report.streams.iter().zip(&due).enumerate() {
            if s.blocks != n || s.fetched != n || s.dropped_blocks != 0 {
                return Err(format!(
                    "stream {i}: {} of {n} blocks scheduled, {} fetched, {} dropped",
                    s.blocks, s.fetched, s.dropped_blocks
                ));
            }
        }
        let blocks_due: u64 = due.iter().sum();
        let mut virt = Virt {
            blocks_due,
            failed_blocks: 0,
            delivered: blocks_due,
            late: report.total_violations(),
            makespan_ns,
            ..Virt::default()
        };
        let latencies: Vec<u64> = report
            .streams
            .iter()
            .map(|s| s.start_latency.as_nanos())
            .collect();
        virt.set_latencies(&latencies);
        Ok(RepOutcome {
            wall_s,
            serve_s: wall_s,
            prep_s,
            virt,
            counts,
        })
    }

    fn probe_msm(&mut self) -> &mut Msm {
        self.state
            .as_mut()
            .expect("build() precedes every use")
            .mrs
            .msm_mut()
    }

    fn layer_metrics(&mut self, cx: &mut LayerCx) -> Result<(), String> {
        let walls_ms: Vec<f64> = cx.plain.iter().map(|r| r.wall_s * 1e3).collect();
        cx.out.set("sim.playback.rep_ms_p50", median(&walls_ms));
        let rounds_ms: Vec<f64> = cx.tr.durations("round").iter().map(|ns| ns / 1e6).collect();
        cx.out.set("sim.playback.round_ms_p50", median(&rounds_ms));
        // Shares of a stamped `serve`: `order` spans run from a round's
        // end to the next `round_start` (stream bookkeeping and the
        // CSCAN sort, which the engine finishes *before* it emits
        // `round_start`), `round` spans from `round_start` to
        // `round_end`.
        let total = |name: &str| -> f64 { cx.tr.durations(name).iter().sum() };
        let stamped_serve = cx.tr.total_with_child("order");
        cx.out.set(
            "sim.playback.order_share",
            total("order") / stamped_serve.max(1.0),
        );
        cx.out.set(
            "sim.playback.service_share",
            total("round") / stamped_serve.max(1.0),
        );
        let serve_s: Vec<f64> = cx.plain.iter().map(|r| r.serve_s).collect();
        cx.out.set(
            "sim.playback.ns_per_block",
            median(&serve_s) * 1e9 / cx.observed.counts.blocks_fetched.max(1) as f64,
        );
        // The first timed repetition's streams were fanned out by
        // set-up; its preparation is empty.
        let fanout_ms: Vec<f64> = cx.plain.iter().skip(1).map(|r| r.prep_s * 1e3).collect();
        cx.out.set("sim.playback.fanout_ms", median(&fanout_ms));
        cx.out.set(
            "disk.util",
            cx.observed.counts.disk_busy_ns as f64 / cx.observed.virt.makespan_ns.max(1) as f64,
        );
        Ok(())
    }
}

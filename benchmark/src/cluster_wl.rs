//! The three cluster workloads: `vod_defended`, `vod_bare` and
//! `failover_storm`. They share one front door (Eq. 18 admission on the
//! serving member), one serve call (`simulate_cluster`) and one release
//! path, and differ in the defenses switched on and the faults armed.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant as Wall;

use strandfs_cluster::{
    simulate_cluster, standard_spec, Cluster, ClusterAction, ClusterConfig, ClusterPlayback,
    ClusterReport, Placement, ReplicaState, ScriptedAction, TitleId, VolumeLoad,
};
use strandfs_core::msm::Msm;
use strandfs_core::{FsError, RequestId, StrandId};
use strandfs_disk::{fnv1a, FaultPlan};
use strandfs_media::VideoCodec;
use strandfs_obs::{MonitorConfig, ObsSink, SloRule, WindowedMonitor};
use strandfs_sim::ClipSpec;
use strandfs_units::{Instant, Nanos};

use crate::driver::{LayerCx, Sink, StormOverrides, Workload};
use crate::outcome::{Counts, RepOutcome, Virt};
use crate::probes::per_call;
use crate::seeded::Rng;
use crate::spec::{Scale, WorkloadId};
use crate::stats::{median, p99_if_supported, quantile};
use crate::tracer::Tracer;

/// Round size of the `vod_*` workloads (blocks per stream per round).
const VOD_K: u64 = 2;
/// Scrub budget per volume per round, in blocks.
const SCRUB_BLOCKS: u64 = 4;
/// Latency multiplier of the storm's fail-slow member.
const SLOW_FACTOR: f64 = 10.0;
/// Request ids of the one-too-many viewers the front door must refuse.
const EXTRA_ID_BASE: u64 = 1 << 32;
/// A virtual instant past every run, for end-of-run fsck.
const FAR: Instant = Instant::from_nanos(u64::MAX / 4);

/// Which defenses a repetition runs with. The workloads' own
/// configurations are all-on (`vod_defended`, `failover_storm`) and
/// all-off (`vod_bare`); the `cluster.defense` ladder walks between.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Defenses {
    pub verify: bool,
    pub scrub: bool,
    pub hedge: bool,
    pub monitor: bool,
}

impl Defenses {
    pub const NONE: Defenses = Defenses {
        verify: false,
        scrub: false,
        hedge: false,
        monitor: false,
    };
    pub const ALL: Defenses = Defenses {
        verify: true,
        scrub: true,
        hedge: true,
        monitor: true,
    };
}

/// The monitor the defended workloads run under: the miss burn-rate
/// pair of E17, and the zero-tolerance `volume-down` and `volume-slow`
/// tripwires of E18 and E19.
pub fn monitor_config() -> MonitorConfig {
    MonitorConfig::rounds(2)
        .retain(64)
        .ring_cap(4096)
        .max_dumps(2)
        .rule(SloRule::BurnRate {
            label: "miss-burn",
            short_windows: 1,
            long_windows: 4,
            short_rate: 0.5,
            long_rate: 0.25,
        })
        .rule(SloRule::FaultStorm {
            label: "volume-down",
            max_faults: 0,
        })
        .rule(SloRule::VolumeSlow {
            label: "volume-slow",
            max_hedges: 0,
        })
}

/// A video clip of `blocks` 100 ms blocks under the variable-rate codec:
/// frame sizes, and with them block extents and every fetch time, are a
/// function of the content seed. (Under the constant-rate codec virtual
/// time is the same for every seed.)
pub fn vbr_clip(blocks: u64, seed: u64) -> ClipSpec {
    ClipSpec {
        vbr: true,
        ..ClipSpec::video_seconds(blocks as f64 / 10.0).with_seed(seed)
    }
}

/// The output check at the storage boundary, shared by every workload:
/// block 0 of a recorded strand, read back from the device, begins with
/// the codec's frame 0 and verifies against its checksum stamp. Returns
/// the block's FNV-1a sum; the fold of those sums over every title is
/// the run's fingerprint.
pub fn first_block_sum(msm: &Msm, strand: StrandId, clip_seed: u64) -> Result<u64, String> {
    let extent = msm
        .strand(strand)
        .and_then(|s| s.block(0))
        .map_err(|e| fs("first block", e))?
        .ok_or("video blocks are stored, not silence")?;
    let payload = msm
        .disk()
        .try_fetch(extent)
        .ok_or("first block lies off the device")?;
    let codec = VideoCodec::uvc_ntsc_vbr(clip_seed);
    let frame = codec.frame_payload(0, codec.frame_bits(0).to_bytes_ceil().get() as usize);
    if !payload.starts_with(&frame) {
        return Err("stored block 0 is not the recorded frame".into());
    }
    if msm.check_block_sum(strand, 0) != Ok(Some(true)) {
        return Err("block 0 fails its checksum stamp".into());
    }
    Ok(fnv1a(&payload))
}

struct State {
    cluster: Cluster,
    /// One title per viewer, in the order handed to `simulate_cluster`.
    viewers: Vec<TitleId>,
    /// The member each viewer starts on (`i % replicas`).
    serving: Vec<usize>,
    script: Vec<ScriptedAction>,
    /// Members the script rejoins; their admission state does not
    /// survive the remount.
    rejoined: Vec<usize>,
    k: u64,
    flips: u64,
    fingerprint: u64,
    /// Stored (checksum-stamped) blocks over every replica.
    stamped_blocks: u64,
}

pub struct ClusterWorkload {
    id: WorkloadId,
    seed: u64,
    scale: Scale,
    storm: StormOverrides,
    own: Defenses,
    state: Option<State>,
}

fn fs(context: &str, e: FsError) -> String {
    format!("{context}: {e}")
}

impl ClusterWorkload {
    pub fn new(id: WorkloadId, seed: u64, scale: Scale, storm: StormOverrides) -> Self {
        ClusterWorkload {
            id,
            seed,
            scale,
            storm,
            own: if id == WorkloadId::VodBare {
                Defenses::NONE
            } else {
                Defenses::ALL
            },
            state: None,
        }
    }

    fn is_storm(&self) -> bool {
        self.id == WorkloadId::FailoverStorm
    }

    fn volumes(&self) -> usize {
        if self.is_storm() {
            self.scale.storm_volumes
        } else {
            self.scale.vod_volumes
        }
    }

    fn state(&mut self) -> &mut State {
        self.state.as_mut().expect("build() precedes every use")
    }

    /// The round size the admission controller grants a member filled
    /// to `n_max` — what a front door that plans for failover serves
    /// with, since a survivor then carries `n_max` streams.
    fn k_at_n_max(cluster: &mut Cluster) -> Result<u64, String> {
        let adm = cluster.member_mut(0).mrs_mut().msm_mut().admission();
        let mut admitted = 0u64;
        while adm
            .try_admit(
                RequestId::from_raw(EXTRA_ID_BASE + admitted),
                standard_spec(),
            )
            .is_ok()
        {
            admitted += 1;
        }
        let k = adm.k();
        for i in 0..admitted {
            adm.release(RequestId::from_raw(EXTRA_ID_BASE + i))
                .map_err(|e| fs("release after k probe", e))?;
        }
        Ok(k)
    }

    /// Kill `storm_victims` serving members one round apart and rejoin
    /// them later (half with their media, half wiped), make one more
    /// serving member fail-slow, and flip bits under a replica a third
    /// one is serving. All six sit in different volume pairs, so every
    /// title keeps one healthy replica throughout.
    fn arm_storm(&self, st: &mut State, rng: &mut Rng) -> Result<(), String> {
        let victims = self.scale.storm_victims;
        let mut pairs: Vec<usize> = (0..self.volumes() / 2).collect();
        rng.shuffle(&mut pairs);
        if pairs.len() < victims + 2 {
            return Err("failover_storm needs victims + 2 volume pairs".into());
        }
        let mut members: Vec<usize> = pairs[..victims + 2]
            .iter()
            .map(|p| 2 * p + rng.below(2) as usize)
            .collect();
        // The fail-slow member is its pair's odd one, served after its
        // partner in every round: the seed moves where the gray failure
        // lands, not its place in the service order. Left to a coin, the
        // worst start latency is bimodal across seeds (the hedge read
        // queues behind the partner's own stream or ahead of it).
        members[victims] |= 1;
        for (j, &v) in members[..victims].iter().enumerate() {
            st.script.push(ScriptedAction {
                at_round: self.scale.storm_kill_round + j as u64,
                action: ClusterAction::Kill(v),
            });
            st.script.push(ScriptedAction {
                at_round: self.scale.storm_rejoin_round + j as u64,
                action: if j < victims / 2 {
                    ClusterAction::Rejoin(v)
                } else {
                    ClusterAction::RejoinWiped(v)
                },
            });
            st.rejoined.push(v);
        }
        let (slow, rotten) = (members[victims], members[victims + 1]);
        if !st.cluster.arm_member_faults(
            slow,
            FaultPlan::clean().with_fail_slow(self.storm.slow_factor.unwrap_or(SLOW_FACTOR)),
        ) {
            return Err("member device cannot arm faults".into());
        }
        let viewer = st
            .serving
            .iter()
            .position(|&v| v == rotten)
            .ok_or("every storm member serves one viewer")?;
        let title = st.cluster.catalog().title(st.viewers[viewer]);
        let loc = title.replicas[viewer % title.replicas.len()].strands[0];
        // Flips land past the first two rounds: a flip inside the
        // read-ahead window adds a read-around repair to that viewer's
        // start latency, which then swings between seeds with whether
        // one of the flips happened to fall there.
        let mut blocks: Vec<u64> = (2 * st.k.min(loc.blocks / 4)..loc.blocks).collect();
        rng.shuffle(&mut blocks);
        let mut plan = FaultPlan::clean();
        for &n in blocks.iter().take(self.scale.storm_flips as usize) {
            let extent = st.cluster.members()[rotten]
                .mrs()
                .msm()
                .strand(loc.strand)
                .and_then(|s| s.block(n))
                .map_err(|e| fs("flip target", e))?
                .ok_or("video blocks are stored, not silence")?;
            plan = plan.with_silent_corruption(extent);
            st.flips += 1;
        }
        if !st.cluster.arm_member_faults(rotten, plan) {
            return Err("member device cannot arm faults".into());
        }
        Ok(())
    }

    /// One repetition under `d`, observed through `sink`.
    fn rep_with(
        &mut self,
        d: Defenses,
        sink: &Sink,
        tr: &mut Tracer,
    ) -> Result<RepOutcome, String> {
        let storm = self.is_storm();
        let quarantine_after = self.storm.quarantine_after.unwrap_or(1);
        let restore = self.storm.restore.unwrap_or(1);
        let st = self.state();
        let volumes = st.cluster.members().len();

        st.cluster.set_verify_reads(d.verify);
        let monitor = d
            .monitor
            .then(|| Rc::new(RefCell::new(WindowedMonitor::new(monitor_config()))));
        match (sink, &monitor) {
            (Sink::Stamped(rec), _) => {
                let mut r = rec.borrow_mut();
                r.reset();
                r.forward_to(monitor.clone());
                drop(r);
                st.cluster.set_obs(&ObsSink::shared(rec));
            }
            (_, Some(m)) => st.cluster.set_obs(&ObsSink::shared(m)),
            (_, None) => st.cluster.set_obs(&ObsSink::noop()),
        }
        let mut cfg = ClusterPlayback::with_k(st.k);
        if d.scrub {
            cfg = cfg.scrub(SCRUB_BLOCKS);
        }
        if d.hedge {
            cfg = cfg.hedged();
        }
        if storm {
            // The audit is what makes `corrupt_served == 0` a check
            // rather than a constant: flips are armed here.
            cfg = cfg.restore(restore).audited();
            cfg.quarantine_after_rounds = quarantine_after;
        }
        let disk_before = disk_totals(&st.cluster);

        let begin = Wall::now();
        // Front door: Eq. 18 admission on the member each viewer starts
        // on; where members are filled to n_max, one viewer more per
        // member must be refused.
        let span = tr.begin("admit");
        let spec = standard_spec();
        let mut counts = Counts::default();
        for (i, &v) in st.serving.iter().enumerate() {
            st.cluster
                .member_mut(v)
                .mrs_mut()
                .msm_mut()
                .admission()
                .try_admit(RequestId::from_raw(i as u64), spec)
                .map_err(|e| fs("front door refused a viewer within n_max", e))?;
            counts.admits += 1;
        }
        if !storm {
            for v in 0..volumes {
                let adm = st.cluster.member_mut(v).mrs_mut().msm_mut().admission();
                match adm.try_admit(RequestId::from_raw(EXTRA_ID_BASE + v as u64), spec) {
                    Err(FsError::AdmissionRejected { .. }) => counts.rejects += 1,
                    other => {
                        return Err(format!(
                            "member {v} is at n_max and must refuse one more viewer, got {other:?}"
                        ))
                    }
                }
            }
        }
        counts.k = st.cluster.members()[st.serving[0]]
            .mrs()
            .msm()
            .admission_ref()
            .k();
        tr.end_counted(span, counts.admits + counts.rejects);

        let span = tr.begin("serve");
        let serve_begin = Wall::now();
        let report = simulate_cluster(&mut st.cluster, &st.viewers, &st.script, &cfg)
            .map_err(|e| fs("simulate_cluster", e))?;
        if let Some(m) = &monitor {
            m.borrow_mut().finish();
        }
        let serve_s = serve_begin.elapsed().as_secs_f64();
        let fetched: u64 = report.volumes.iter().map(|v| v.fetched).sum();
        tr.end_counted(span, fetched);
        if let Sink::Stamped(rec) = sink {
            tr.absorb_rounds(span, &rec.borrow().stamps);
        }

        let span = tr.begin("release");
        for (i, &v) in st.serving.iter().enumerate() {
            let released = st
                .cluster
                .member_mut(v)
                .mrs_mut()
                .msm_mut()
                .admission()
                .release(RequestId::from_raw(i as u64));
            match released {
                Ok(()) => {}
                Err(FsError::UnknownRequest(_)) if st.rejoined.contains(&v) => {}
                Err(e) => return Err(fs("release", e)),
            }
        }
        tr.end_counted(span, counts.admits);
        let wall_s = begin.elapsed().as_secs_f64();

        st.cluster.set_obs(&ObsSink::noop());
        let mut makespan_ns = 0;
        if let Sink::Stamped(rec) = sink {
            let mut r = rec.borrow_mut();
            r.forward_to(None);
            counts.events = r.events;
            makespan_ns = r.virt_end_ns;
        }
        if let Some(m) = &monitor {
            let m = m.borrow();
            counts.alerts = m.alerts().len() as u64;
            counts.flight_dumps = m.dumps().len() as u64;
        }

        let streams = &report.sim.streams;
        let blocks_due: u64 = streams.iter().map(|s| s.blocks).sum();
        let dropped = report.sim.total_dropped();
        let mut virt = Virt {
            blocks_due,
            failed_blocks: dropped + report.corrupt_served,
            delivered: blocks_due - dropped,
            late: report.sim.total_violations(),
            makespan_ns,
            ..Virt::default()
        };
        let latencies: Vec<u64> = streams.iter().map(|s| s.start_latency.as_nanos()).collect();
        virt.set_latencies(&latencies);

        counts.rounds = report.sim.rounds;
        counts.blocks_fetched = fetched;
        counts.failovers = report.failovers;
        counts.hedges = report.hedges;
        counts.hedge_wins = report.hedge_wins;
        counts.quarantines = report.quarantines;
        counts.read_repairs = report.read_repairs;
        counts.scrubbed_blocks = report.scrubbed_blocks;
        counts.scrub_repaired = report.scrub_repaired;
        counts.restored_blocks = report.restored_blocks;
        counts.disk_busy_ns = report.sim.disk_busy.as_nanos();
        let disk_after = disk_totals(&st.cluster);
        counts.disk_ops = disk_after.0.saturating_sub(disk_before.0);
        counts.disk_positioning_ns = disk_after.1.saturating_sub(disk_before.1);

        let watched = monitor.as_ref().map(|m| m.borrow());
        if storm {
            check_storm(st, &report, watched.as_deref(), tr)?;
        } else {
            check_vod(st, &report, d, &counts)?;
        }
        Ok(RepOutcome {
            wall_s,
            serve_s,
            prep_s: 0.0,
            virt,
            counts,
        })
    }

    /// Median wall time of repetitions under `d`, in seconds, and the last
    /// repetition's outcome: at least `n` repetitions, and as many more
    /// (to 200) as fit in 0.3 s, so that a 2 ms variant is not judged on
    /// three samples.
    fn time_variant(
        &mut self,
        d: Defenses,
        n: usize,
        tr: &mut Tracer,
    ) -> Result<(f64, RepOutcome), String> {
        let begin = Wall::now();
        let mut walls = Vec::new();
        let mut last = RepOutcome::default();
        while walls.len() < n
            || (!self.scale.smoke && walls.len() < 200 && begin.elapsed().as_secs_f64() < 0.3)
        {
            last = self.rep_with(d, &Sink::Default, tr)?;
            walls.push(last.wall_s);
        }
        Ok((median(&walls), last))
    }

    /// `cluster.defense`: the cost of each defense alone and of all of
    /// them, as a ratio to the bare run on this workload's own cluster.
    fn defense_ladder(&mut self, cx: &mut LayerCx) -> Result<(), String> {
        let n = if cx.scale.smoke { 1 } else { 3 };
        let (bare, _) = self.time_variant(Defenses::NONE, n, cx.tr)?;
        let one = |f: fn(&mut Defenses)| {
            let mut d = Defenses::NONE;
            f(&mut d);
            d
        };
        let (verify, v) = self.time_variant(one(|d| d.verify = true), n, cx.tr)?;
        let (scrub, s) = self.time_variant(one(|d| d.scrub = true), n, cx.tr)?;
        let (hedge, _) = self.time_variant(one(|d| d.hedge = true), n, cx.tr)?;
        let (monitor, _) = self.time_variant(one(|d| d.monitor = true), n, cx.tr)?;
        let all = median(&cx.plain.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        cx.out.set("cluster.defense.verify_ratio", verify / bare);
        cx.out.set("cluster.defense.scrub_ratio", scrub / bare);
        cx.out.set("cluster.defense.hedge_ratio", hedge / bare);
        cx.out.set("cluster.defense.monitor_ratio", monitor / bare);
        cx.out.set("cluster.defense.all_ratio", all / bare);
        cx.out.set(
            "cluster.defense.verify_us_per_block",
            (verify - bare) * 1e6 / v.counts.blocks_fetched.max(1) as f64,
        );
        cx.out.set(
            "cluster.defense.scrub_us_per_block",
            (scrub - bare) * 1e6 / s.counts.scrubbed_blocks.max(1) as f64,
        );
        Ok(())
    }

    /// `cluster.scale`: host time per viewer of a bare repetition as
    /// volumes are added at two viewers per volume. Flat is the target.
    fn scale_ladder(&mut self, cx: &mut LayerCx) -> Result<(), String> {
        for (volumes, name) in [
            (8, "cluster.scale.us_per_viewer.v8"),
            (16, "cluster.scale.us_per_viewer.v16"),
            (32, "cluster.scale.us_per_viewer.v32"),
            (64, "cluster.scale.us_per_viewer.v64"),
        ] {
            let per_viewer = if volumes == self.volumes() {
                median(&cx.plain.iter().map(|r| r.wall_s).collect::<Vec<_>>())
                    / self.viewers() as f64
            } else {
                let scale = Scale {
                    vod_volumes: volumes,
                    ..self.scale
                };
                let mut wl = ClusterWorkload::new(self.id, self.seed, scale, self.storm);
                wl.build(cx.tr)?;
                // One warm-up repetition first.
                wl.rep_with(Defenses::NONE, &Sink::Default, cx.tr)?;
                let (wall, _) = wl.time_variant(Defenses::NONE, 3, cx.tr)?;
                wall / wl.viewers() as f64
            };
            cx.out.set(name, per_viewer * 1e6);
        }
        Ok(())
    }
}

/// `(operations, positioning ns)` summed over every member's device.
fn disk_totals(cluster: &Cluster) -> (u64, u64) {
    cluster.members().iter().fold((0, 0), |acc, m| {
        let s = m.mrs().msm().disk().stats();
        (
            acc.0 + s.reads + s.writes,
            acc.1 + (s.seek_time + s.rotation_time).as_nanos(),
        )
    })
}

fn check_vod(
    st: &State,
    report: &ClusterReport,
    d: Defenses,
    counts: &Counts,
) -> Result<(), String> {
    let sim = &report.sim;
    if sim.total_violations() != 0 || sim.total_dropped() != 0 || report.corrupt_served != 0 {
        return Err(format!(
            "admitted viewers must play clean: {} late, {} dropped, {} corrupt",
            sim.total_violations(),
            sim.total_dropped(),
            report.corrupt_served
        ));
    }
    for (i, s) in sim.streams.iter().enumerate() {
        if s.fetched != s.blocks {
            return Err(format!(
                "viewer {i} fetched {} of {} blocks",
                s.fetched, s.blocks
            ));
        }
    }
    if counts.alerts != 0 {
        return Err(format!("{} alerts on a healthy cluster", counts.alerts));
    }
    if d.scrub && report.scrubbed_blocks < st.stamped_blocks {
        return Err(format!(
            "scrub verified {} of {} stamped blocks",
            report.scrubbed_blocks, st.stamped_blocks
        ));
    }
    Ok(())
}

fn check_storm(
    st: &mut State,
    report: &ClusterReport,
    monitor: Option<&WindowedMonitor>,
    tr: &mut Tracer,
) -> Result<(), String> {
    if report.replicated_dropped() != 0 || report.corrupt_served != 0 {
        return Err(format!(
            "the storm cost replicated viewers {} dropped and {} corrupt blocks",
            report.replicated_dropped(),
            report.corrupt_served
        ));
    }
    if report.rejoins.len() != st.rejoined.len() {
        return Err(format!(
            "{} of {} scripted rejoins ran",
            report.rejoins.len(),
            st.rejoined.len()
        ));
    }
    if let Some(r) = report.rejoins.iter().find(|r| r.fsck_findings != 0) {
        return Err(format!(
            "member {} rejoined with {} fsck findings",
            r.volume, r.fsck_findings
        ));
    }
    if report.read_repairs + report.scrub_repaired != st.flips {
        return Err(format!(
            "{} flips armed, {} repaired on read and {} by scrub",
            st.flips, report.read_repairs, report.scrub_repaired
        ));
    }
    let lost = st
        .cluster
        .catalog()
        .titles()
        .iter()
        .flat_map(|t| &t.replicas)
        .filter(|r| r.state != ReplicaState::Live)
        .count();
    if lost != 0 {
        return Err(format!("{lost} replicas still lost after the storm"));
    }
    let span = tr.begin("fsck");
    let volumes = st.cluster.members().len();
    let dirty = (0..volumes)
        .filter(|&v| !st.cluster.fsck_member(v, FAR).clean())
        .count();
    tr.end_counted(span, volumes as u64);
    if dirty != 0 {
        return Err(format!(
            "{dirty} members are not fsck-clean after the storm"
        ));
    }
    if let Some(m) = monitor {
        if !m.alerts().iter().any(|a| a.rule == "volume-down") {
            return Err("the kills raised no volume-down alert".into());
        }
    }
    Ok(())
}

impl Workload for ClusterWorkload {
    fn build(&mut self, tr: &mut Tracer) -> Result<(), String> {
        // Drop the previous cluster first, so two never coexist in
        // `peak_rss_mb`.
        self.state = None;
        let volumes = self.volumes();
        let nominal = if self.is_storm() {
            self.scale.storm_blocks
        } else {
            self.scale.vod_blocks
        };
        let mut rng = Rng::new(self.seed, 0xC1);
        let build = tr.begin("build");

        let span = tr.begin("new");
        let mut cluster = Cluster::new(ClusterConfig {
            volumes,
            placement: Placement::RoundRobin,
            base_replicas: 2,
            seed: rng.next_u64(),
        })
        .map_err(|e| fs("Cluster::new", e))?;
        tr.end(span);

        // One title per volume, two replicas each, recorded through the
        // full RECORD path. Lengths and content are seeded.
        let mut titles = Vec::new();
        let mut clip_seeds = Vec::new();
        let mut stamped_blocks = 0;
        for i in 0..volumes {
            let blocks = rng.clip_blocks(nominal, self.scale.jitter_blocks);
            let clip_seed = rng.next_u64();
            let span = tr.begin("ingest");
            let id = cluster
                .ingest(&format!("title-{i}"), &vbr_clip(blocks, clip_seed), 0.0)
                .map_err(|e| fs("ingest", e))?;
            let replicas = cluster.catalog().title(id).replicas.len() as u64;
            tr.end_counted(span, blocks * replicas);
            stamped_blocks += blocks * replicas;
            titles.push(id);
            clip_seeds.push(clip_seed);
        }

        let mut fingerprint = 0u64;
        for (&id, &clip_seed) in titles.iter().zip(&clip_seeds) {
            let replica = &cluster.catalog().title(id).replicas[0];
            let msm = cluster.members()[replica.volume].mrs().msm();
            let sum = first_block_sum(msm, replica.strands[0].strand, clip_seed)
                .map_err(|e| format!("title {id}: {e}"))?;
            fingerprint = fingerprint.rotate_left(7) ^ sum;
        }

        // Viewer order. `simulate_cluster` starts viewer `i` on replica
        // `i % 2`, and round-robin placement puts titles `p` and
        // `p + volumes/2` on the volume pair `(2p, 2p+1)`.
        let half = volumes / 2;
        let mut pairs: Vec<usize> = (0..half).collect();
        rng.shuffle(&mut pairs);
        let mut viewers = Vec::new();
        for &p in &pairs {
            let mut two = [titles[p], titles[p + half]];
            if rng.below(2) == 1 {
                two.swap(0, 1);
            }
            if self.is_storm() {
                // One viewer per title, the pair's titles on opposite
                // parities: one stream per member, half of n_max, so a
                // survivor absorbs its partner's stream under Eq. 18.
                viewers.extend(two);
            } else {
                // Two viewers per title, adjacent: one per replica, so
                // every member carries exactly n_max = 2 streams.
                viewers.extend([two[0], two[0], two[1], two[1]]);
            }
        }
        let serving: Vec<usize> = viewers
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                let replicas = &cluster.catalog().title(t).replicas;
                replicas[i % replicas.len()].volume
            })
            .collect();
        let per_member = if self.is_storm() { 1 } else { 2 };
        for v in 0..volumes {
            let n = serving.iter().filter(|&&s| s == v).count();
            if n != per_member {
                return Err(format!(
                    "member {v} starts {n} streams, planned {per_member}"
                ));
            }
        }

        let k = if self.is_storm() {
            match self.storm.k {
                Some(k) => k,
                None => Self::k_at_n_max(&mut cluster)?,
            }
        } else {
            VOD_K
        };
        let mut st = State {
            cluster,
            viewers,
            serving,
            script: Vec::new(),
            rejoined: Vec::new(),
            k,
            flips: 0,
            fingerprint,
            stamped_blocks,
        };
        if self.is_storm() {
            let span = tr.begin("arm");
            self.arm_storm(&mut st, &mut rng)?;
            tr.end(span);
        }
        tr.end(build);
        self.state = Some(st);
        Ok(())
    }

    fn rebuild_each_rep(&self) -> bool {
        self.is_storm()
    }

    fn viewers(&self) -> u64 {
        if self.is_storm() {
            self.volumes() as u64
        } else {
            2 * self.volumes() as u64
        }
    }

    fn fingerprint(&self) -> u64 {
        self.state.as_ref().map_or(0, |s| s.fingerprint)
    }

    fn sectors_written(&self) -> u64 {
        self.state.as_ref().map_or(0, |s| {
            s.cluster
                .members()
                .iter()
                .map(|m| m.mrs().msm().disk().sectors_written() as u64)
                .sum()
        })
    }

    fn monitored(&self) -> bool {
        self.own.monitor
    }

    fn hashes_per_fetch(&self) -> u64 {
        // The storm audits every served payload on top of verifying it.
        u64::from(self.own.verify) + u64::from(self.is_storm())
    }

    fn rep(&mut self, sink: &Sink, tr: &mut Tracer) -> Result<RepOutcome, String> {
        let mut d = self.own;
        if matches!(sink, Sink::FlipMonitor) {
            d.monitor = !d.monitor;
        }
        self.rep_with(d, sink, tr)
    }

    fn probe_msm(&mut self) -> &mut Msm {
        self.state().cluster.member_mut(0).mrs_mut().msm_mut()
    }

    fn layer_metrics(&mut self, cx: &mut LayerCx) -> Result<(), String> {
        let volumes = self.volumes();
        let ms =
            |reps: &[RepOutcome]| -> Vec<f64> { reps.iter().map(|r| r.wall_s * 1e3).collect() };
        let rep_ms = ms(cx.plain);
        cx.out.set("cluster.service.rep_ms_p50", median(&rep_ms));
        cx.out
            .set("cluster.service.rep_ms_p99", p99_if_supported(&rep_ms));
        let rounds_us: Vec<f64> = cx.tr.durations("round").iter().map(|ns| ns / 1e3).collect();
        cx.out
            .set("cluster.service.round_us_p50", median(&rounds_us));
        cx.out
            .set("cluster.service.round_us_p99", p99_if_supported(&rounds_us));
        let idle_us: Vec<f64> = cx
            .tr
            .durations("idle_round")
            .iter()
            .map(|ns| ns / 1e3)
            .collect();
        cx.out
            .set("cluster.service.idle_round_us_p50", quantile(&idle_us, 0.5));
        let serve_s: Vec<f64> = cx.plain.iter().map(|r| r.serve_s).collect();
        let c = cx.observed.counts;
        cx.out.set(
            "cluster.service.us_per_block",
            median(&serve_s) * 1e6 / c.blocks_fetched.max(1) as f64,
        );
        for (name, value) in [
            ("cluster.service.rounds", c.rounds),
            ("cluster.service.blocks_fetched", c.blocks_fetched),
            ("cluster.service.failovers", c.failovers),
            ("cluster.service.hedges", c.hedges),
            ("cluster.service.hedge_wins", c.hedge_wins),
            ("cluster.service.quarantines", c.quarantines),
            ("cluster.service.read_repairs", c.read_repairs),
            ("cluster.service.scrubbed_blocks", c.scrubbed_blocks),
            ("cluster.service.scrub_repaired", c.scrub_repaired),
            ("cluster.service.restored_blocks", c.restored_blocks),
        ] {
            cx.out.set(name, value as f64);
        }
        cx.out.set(
            "disk.util",
            c.disk_busy_ns as f64 / (cx.observed.virt.makespan_ns.max(1) as f64 * volumes as f64),
        );

        match self.id {
            WorkloadId::VodDefended => self.defense_ladder(cx)?,
            WorkloadId::VodBare => self.scale_ladder(cx)?,
            _ => {}
        }

        // cluster.cluster: construction and ingest from the build spans,
        // then a timed kill → mark_down → rejoin and an fsck on member 0.
        let new_ms: Vec<f64> = cx.tr.durations("new").iter().map(|ns| ns / 1e6).collect();
        cx.out.set("cluster.cluster.new_ms", median(&new_ms));
        let (ingest_ns, ingest_blocks) = cx
            .tr
            .spans()
            .iter()
            .filter(|s| s.name == "ingest")
            .fold((0u64, 0u64), |a, s| (a.0 + s.dur_ns(), a.1 + s.count));
        cx.out.set(
            "cluster.cluster.ingest_us_per_block",
            ingest_ns as f64 / 1e3 / ingest_blocks.max(1) as f64,
        );
        let st = self.state();
        let span = cx.tr.begin("rejoin");
        let t = Wall::now();
        st.cluster.kill(0);
        st.cluster.mark_down(0);
        let rejoin = st
            .cluster
            .rejoin(0, Instant::EPOCH)
            .map_err(|e| fs("rejoin probe", e))?;
        cx.out
            .set("cluster.cluster.rejoin_ms", t.elapsed().as_secs_f64() * 1e3);
        cx.tr.end(span);
        let span = cx.tr.begin("fsck");
        let t = Wall::now();
        let clean = st.cluster.fsck_member(0, FAR).clean();
        cx.out.set(
            "cluster.cluster.fsck_member_ms",
            t.elapsed().as_secs_f64() * 1e3,
        );
        cx.tr.end(span);
        if rejoin.fsck_findings != 0 || rejoin.reconcile.lost != 0 || !clean {
            return Err("member 0 did not rejoin clean".into());
        }

        let budget = cx.scale.probe_budget();
        let catalog = st.cluster.catalog();
        let titles = catalog.titles().len() as u64;
        let span = cx.tr.begin("probe.live_replica");
        let (ns, calls) = per_call(budget, |i| {
            std::hint::black_box(catalog.live_replica((i % titles) as usize, None, |_| true));
        });
        cx.tr.end_counted(span, calls);
        cx.out.set("cluster.catalog.live_replica_ns", ns);
        let loads: Vec<VolumeLoad> = (0..volumes)
            .map(|volume| VolumeLoad {
                volume,
                up: true,
                placed: 2,
                slack: Nanos::from_millis(1),
            })
            .collect();
        let mut cursor = 0;
        let span = cx.tr.begin("probe.choose");
        let (ns, calls) = per_call(budget, |_| {
            std::hint::black_box(Placement::RoundRobin.choose(&mut cursor, 2, &loads));
        });
        cx.tr.end_counted(span, calls);
        cx.out.set("cluster.placement.choose_ns", ns);
        Ok(())
    }
}

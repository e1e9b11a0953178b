//! The cluster service loop: synchronized rounds across member
//! volumes, with mid-playback failover to surviving replicas.
//!
//! Time model: all volumes start round `r` at the same instant `T_r`
//! and serve their pinned streams on their own disks concurrently
//! (each volume has its own clock within the round); `T_{r+1}` is the
//! latest clock when every volume — and the round's background
//! re-replication budget — is done. Deadlines stay coherent across a
//! failover because replica schedules are structurally identical: a
//! stream switching volumes keeps its epochs, completions and item
//! offsets, only the strand/block addresses change.
//!
//! The per-stream bookkeeping (epochs, deadline accounting, the
//! degradation ladder) is not re-grown here: each viewer is a
//! [`strandfs_sim::StreamState`] — the same value the single-volume
//! loop drives — wrapped in the cluster's replica pin. This module
//! owns only what happens between a stream's `begin_turn` and
//! `end_turn`: which member a fetch goes to, and what failover,
//! hedging, read-around, scrub and quarantine do about its outcome.

use crate::catalog::{ReplicaState, TitleId};
use crate::cluster::{Cluster, RejoinReport};
use std::collections::BTreeMap;
use strandfs_core::msm::{BlockFetch, FetchFailure, Msm};
use strandfs_core::strand::index::NO_SUM;
use strandfs_core::{FsError, StrandId};
use strandfs_disk::{stamp_batch, Extent, PayloadView, StampJob};
use strandfs_obs::{Event, ObsSink};
use strandfs_sim::metrics::SimReport;
use strandfs_sim::StreamState;
use strandfs_units::{Instant, Nanos};

/// Configuration of a cluster playback run.
#[derive(Clone, Copy, Debug)]
pub struct ClusterPlayback {
    /// Blocks per stream per round (the paper's `k`).
    pub k: u64,
    /// Blocks buffered before a stream's display starts — and the
    /// bound on the glitch a failover can cost a replicated stream.
    pub read_ahead: u64,
    /// Drops a stream tolerates (since admission) before revocation.
    pub revoke_after_drops: u64,
    /// Consecutive fault-free rounds before revoked streams return.
    pub readmit_clean_rounds: u64,
    /// Background re-replication budget per round, in media blocks
    /// (0 disables the restore pass).
    pub restore_blocks_per_round: u64,
    /// Background scrub budget per volume per round, in probes
    /// (0 disables the scrubber). Scrub probes verify checksum stamps
    /// in place and are charged against spare round slack only — they
    /// never extend a round or move the disk arm. A block a verified
    /// read already checked this pass is covered without a probe and
    /// spends none of the budget. A member whose pass is complete is
    /// left alone until its image is suspect again: it was killed or
    /// rejoined, a restore completed a replica on it, or a verified
    /// read of it came back corrupt.
    pub scrub_blocks_per_round: u64,
    /// Race a replica when a primary fetch exceeds its block's play
    /// duration (the fail-slow defense): the hedge read issues at the
    /// threshold and the earlier completion wins.
    pub hedge: bool,
    /// Consecutive rounds a volume fires hedges before it is
    /// quarantined — taken out of placement and serving while it is
    /// probed (0 disables quarantine).
    pub quarantine_after_rounds: u64,
    /// Consecutive on-time probes before a quarantined volume is
    /// re-admitted.
    pub readmit_probe_rounds: u64,
    /// Audit every payload served to a viewer against its checksum
    /// stamp (an untimed oracle for experiments; counts what silent
    /// corruption actually reached the audience).
    pub audit_integrity: bool,
    /// Hard bound on simulated rounds (a stuck-scenario backstop).
    pub max_rounds: u64,
}

impl ClusterPlayback {
    /// The standard configuration: read-ahead equal to the round size,
    /// a short ladder, restore off.
    pub fn with_k(k: u64) -> ClusterPlayback {
        ClusterPlayback {
            k,
            read_ahead: k,
            revoke_after_drops: 3,
            readmit_clean_rounds: 2,
            restore_blocks_per_round: 0,
            scrub_blocks_per_round: 0,
            hedge: false,
            quarantine_after_rounds: 3,
            readmit_probe_rounds: 2,
            audit_integrity: false,
            max_rounds: 100_000,
        }
    }

    /// Enable the per-round background restore budget.
    pub fn restore(mut self, blocks_per_round: u64) -> ClusterPlayback {
        self.restore_blocks_per_round = blocks_per_round;
        self
    }

    /// Enable the slack-budgeted background scrubber.
    pub fn scrub(mut self, blocks_per_round: u64) -> ClusterPlayback {
        self.scrub_blocks_per_round = blocks_per_round;
        self
    }

    /// Enable hedged reads against fail-slow members.
    pub fn hedged(mut self) -> ClusterPlayback {
        self.hedge = true;
        self
    }

    /// Enable the served-payload integrity audit.
    pub fn audited(mut self) -> ClusterPlayback {
        self.audit_integrity = true;
        self
    }
}

/// A scripted membership change.
#[derive(Clone, Copy, Debug)]
pub enum ClusterAction {
    /// Arm a whole-device fault plan on the member (failure is then
    /// *detected* by the read path, not announced).
    Kill(usize),
    /// Rejoin the member with surviving media (`Msm::recover` + fsck +
    /// catalog reconciliation).
    Rejoin(usize),
    /// Rejoin the member with fresh media (all its replicas lost, to
    /// be re-replicated in the background).
    RejoinWiped(usize),
}

/// A membership change scheduled for the start of a round.
#[derive(Clone, Copy, Debug)]
pub struct ScriptedAction {
    /// The round at whose start the action fires.
    pub at_round: u64,
    /// What happens.
    pub action: ClusterAction,
}

/// Per-volume service statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct VolumeStats {
    /// Media blocks fetched from the volume for playback.
    pub fetched: u64,
    /// Rounds the volume spent marked down.
    pub rounds_down: u64,
    /// Stamped blocks the scrub cursor covered on the volume: probed
    /// (hashed by the scrubber) or credited (see
    /// [`ClusterReport::scrub_credited`]).
    pub scrubbed: u64,
    /// Hedged reads fired because this volume's fetch ran slow.
    pub hedged: u64,
}

/// The result of a cluster playback run.
#[derive(Clone, Debug, Default)]
pub struct ClusterReport {
    /// The per-stream outcomes and totals, in viewer order — the same
    /// shape single-volume simulations report, so SLO tooling applies.
    pub sim: SimReport,
    /// Per stream: did its title have ≥ 2 replicas at start?
    pub replicated: Vec<bool>,
    /// Per stream: the longest consecutive run of schedule items that
    /// were dropped or arrived late — the visible glitch length.
    pub miss_bursts: Vec<u64>,
    /// Mid-playback replica switches across all streams.
    pub failovers: u64,
    /// Rejoin reports, in script order.
    pub rejoins: Vec<RejoinReport>,
    /// Media blocks copied by background re-replication.
    pub restored_blocks: u64,
    /// Replicas brought back live by background re-replication.
    pub restored_replicas: u64,
    /// Stamped blocks the scrub cursors *covered*: every block a cursor
    /// passed that was either probed — hashed by the scrubber, one
    /// `Event::Scrub` and one unit of budget and slack each — or
    /// credited. Probes = `scrubbed_blocks - scrub_credited`.
    pub scrubbed_blocks: u64,
    /// The covered blocks that cost the scrubber nothing: a verified
    /// read had already passed them, on the bytes now stored, earlier in
    /// the same scrub pass. Always 0 unless verified reads and scrub
    /// are both on.
    pub scrub_credited: u64,
    /// Corrupt blocks the scrubber detected.
    pub scrub_corrupt: u64,
    /// Corrupt blocks rewritten in place from a clean replica.
    pub scrub_repaired: u64,
    /// Replicas the scrubber invalidated for re-replication (the
    /// fallback when no in-place repair source exists).
    pub scrub_invalidated: u64,
    /// Corrupt blocks a viewer read detected and repaired in place via
    /// read-around (served from a clean replica, rewritten locally).
    pub read_repairs: u64,
    /// Payloads served to viewers that failed the integrity audit
    /// (only counted with `audit_integrity`).
    pub corrupt_served: u64,
    /// Hedged reads issued.
    pub hedges: u64,
    /// Hedged reads the replica won.
    pub hedge_wins: u64,
    /// Members quarantined for breaching the read-latency SLO.
    pub quarantines: u64,
    /// Quarantined members re-admitted after clean probes.
    pub quarantine_readmits: u64,
    /// Per-volume service statistics.
    pub volumes: Vec<VolumeStats>,
}

impl ClusterReport {
    /// Blocks dropped by streams of replicated titles (0 is the
    /// failover guarantee).
    pub fn replicated_dropped(&self) -> u64 {
        self.zip_dropped(true)
    }

    /// Blocks dropped by streams of single-replica titles.
    pub fn unreplicated_dropped(&self) -> u64 {
        self.zip_dropped(false)
    }

    fn zip_dropped(&self, replicated: bool) -> u64 {
        self.sim
            .streams
            .iter()
            .zip(&self.replicated)
            .filter(|(_, r)| **r == replicated)
            .map(|(s, _)| s.dropped_blocks)
            .sum()
    }

    /// The worst glitch any replicated stream saw, in schedule items.
    pub fn replicated_miss_burst(&self) -> u64 {
        self.miss_bursts
            .iter()
            .zip(&self.replicated)
            .filter(|(_, r)| **r)
            .map(|(b, _)| *b)
            .max()
            .unwrap_or(0)
    }
}

/// A viewer stream: the shared per-stream service state plus the
/// cluster's pin — which title it plays, from which replica (on which
/// volume), and how often that changed mid-playback.
struct CStream {
    title: TitleId,
    replica: usize,
    /// The volume holding `replica`; follows every re-pin.
    vol: usize,
    failovers: u64,
    state: StreamState,
}

/// One member volume's lane through a run: its clock within the round
/// and the bookkeeping of every per-volume defense.
#[derive(Default)]
struct Lane {
    /// The volume's clock within the current round. Every lane starts a
    /// round at the same instant; the round ends at the latest one.
    clock: Instant,
    /// Disk busy time already booked into the report.
    busy_mark: Nanos,
    stats: VolumeStats,
    /// Sitting out — no serving where an alternative exists — for
    /// breaching the read-latency SLO.
    quarantined: bool,
    /// Consecutive on-time probes while quarantined.
    clean_probes: u64,
    /// Consecutive rounds in which the volume fired hedges.
    hedged_rounds: u64,
    /// Hedges the volume fired this round.
    round_hedges: u64,
    /// The scrubber's position: `(strand raw id, block)`.
    scrub_cursor: (u64, u64),
    /// What verified reads already checked during the current pass.
    credits: Credits,
    /// The last pass is complete and nothing has made the member's image
    /// suspect since ([`Run::suspect`]): the scrubber leaves it alone.
    resting: bool,
    /// Full scrub passes over the member's strands completed.
    scrub_passes: u64,
    /// The conservative slack charge for one scrub probe: worst-case
    /// positioning plus one revolution. Scrub only runs while the
    /// volume's clock plus this charge stays inside the already-decided
    /// round end, so it can never extend a round.
    scrub_cost: Nanos,
    /// The member's disk may hold sums hashed ahead; in an idle round,
    /// the rest of the lane's pass is among them ([`Run::scrub_ahead`]).
    offered: bool,
}

/// The blocks of one member that passed read verification during its
/// current scrub pass, as one bitset per strand raw id. A stamp check is
/// a stamp check whoever asked for it: the cursor covers a marked block
/// without hashing it again. Marks are only ever set by a verification
/// that passed on the bytes now stored, and are dropped whenever those
/// bytes or the meaning of a strand id may have changed under them — at
/// the end of the pass and again when a rested lane's next one opens,
/// when the member is killed, rejoined or wiped (strand ids restart on
/// fresh media), when a strand is deleted.
#[derive(Default)]
struct Credits {
    strands: BTreeMap<u64, Vec<u64>>,
}

impl Credits {
    fn mark(&mut self, strand: u64, block: u64) {
        let bits = self.strands.entry(strand).or_default();
        let word = (block / 64) as usize;
        if bits.len() <= word {
            bits.resize(word + 1, 0);
        }
        bits[word] |= 1 << (block % 64);
    }

    /// One strand's marks, for [`marked`].
    fn of(&self, strand: u64) -> &[u64] {
        self.strands.get(&strand).map_or(&[], Vec::as_slice)
    }

    fn drop_strand(&mut self, strand: u64) {
        self.strands.remove(&strand);
    }

    /// Forget every mark, keeping the bitsets: a run's passes reuse them.
    fn clear(&mut self) {
        for bits in self.strands.values_mut() {
            bits.fill(0);
        }
    }
}

fn marked(bits: &[u64], block: u64) -> bool {
    bits.get((block / 64) as usize)
        .is_some_and(|w| w >> (block % 64) & 1 == 1)
}

/// `views` emptied and free to borrow anew, in the same allocation: a
/// vector collected from its own iterator keeps its buffer.
fn recycle<'b>(mut views: Vec<PayloadView<'_>>) -> Vec<PayloadView<'b>> {
    views.clear();
    views.into_iter().map(|_| unreachable!()).collect()
}

/// How far one [`scrub_step`] got.
struct ScrubStep {
    /// Stamped blocks the cursor passed on their read credit.
    credited: u64,
    /// The block a probe owes, `(strand, block, extent, stamp)`; `None`
    /// when the cursor wrapped instead: one full pass over the member is
    /// complete.
    owed: Option<(StrandId, u64, Extent, u64)>,
}

/// Advance a member's scrub cursor `(strand raw id, block)` to the next
/// stored block no verified read has credited this pass: what
/// [`Run::scrub_pass`] probes and [`Run::scrub_ahead`] hashes ahead.
/// Silence holes (sum [`NO_SUM`]) store nothing to verify and credited
/// blocks are already verified: the cursor walks both for free, within
/// the same budget unit.
fn scrub_step(msm: &Msm, cursor: &mut (u64, u64), credits: &Credits) -> ScrubStep {
    let mut credited = 0;
    while let Some(strand) = msm.next_strand(StrandId::from_raw(cursor.0)) {
        let id = strand.id();
        if id.raw() != cursor.0 {
            *cursor = (id.raw(), 0);
        }
        let (sums, marks) = (strand.sums(), credits.of(id.raw()));
        while let Some(&sum) = sums.get(cursor.1 as usize) {
            let n = cursor.1;
            cursor.1 += 1;
            if sum == NO_SUM {
                continue; // a silence hole
            }
            if marked(marks, n) {
                credited += 1;
                continue;
            }
            if let Some(&Some(extent)) = strand.blocks().get(n as usize) {
                let owed = Some((id, n, extent, sum));
                return ScrubStep { credited, owed };
            }
        }
        *cursor = (id.raw() + 1, 0);
    }
    *cursor = (0, 0);
    ScrubStep {
        credited,
        owed: None,
    }
}

/// What the scrubber did about a corrupt block.
enum ScrubRepair {
    /// The block was rewritten in place from a clean replica.
    Repaired,
    /// In-place repair was impossible; the whole replica was
    /// invalidated for background re-replication and its viewers
    /// re-pinned off it.
    Invalidated,
    /// No live copy to repair from: detected, not repairable.
    Skipped,
}

/// How the cross-replica fetch of one block ended.
enum Fetched {
    /// The block was resident at this instant.
    Served(Instant),
    /// No replica could supply it; the stream gave up at this instant.
    Lost(Instant),
}

/// One `simulate_cluster` run: the cluster, its viewers and lanes, the
/// round clock and the report being built. Every step of a round, and
/// every defense, is one method.
///
/// Within a round the engine is *viewer-major*: streams take their
/// turns in viewer order and each turn charges the clock of whichever
/// lane it lands on. That order is observable — a hedge issues at the
/// other lane's clock, a read-around charges its source lane — so a
/// lane's clock mid-round depends on which viewers ran before.
struct Run<'a> {
    cluster: &'a mut Cluster,
    cfg: &'a ClusterPlayback,
    script: &'a [ScriptedAction],
    /// Script entries already fired, parallel to `script`.
    applied: Vec<bool>,
    obs: ObsSink,
    k: u64,
    streams: Vec<CStream>,
    lanes: Vec<Lane>,
    report: ClusterReport,
    /// The instant the current round started on every volume.
    t: Instant,
    round: u64,
    /// Consecutive fault-free rounds — the ladder's re-admission signal.
    clean_streak: u64,
    round_faults: bool,
    /// The last batch hashed ahead ([`Run::hash_ahead`],
    /// [`Run::scrub_ahead`]).
    stamp_jobs: Vec<StampJob>,
    /// Empty between rounds, kept for its capacity ([`recycle`]).
    views: Vec<PayloadView<'static>>,
}

impl<'a> Run<'a> {
    /// Pin one stream per viewer — viewers of a multi-replica title
    /// spread across its replicas round-robin — and open a lane per
    /// member.
    fn new(
        cluster: &'a mut Cluster,
        viewers: &[TitleId],
        script: &'a [ScriptedAction],
        cfg: &'a ClusterPlayback,
    ) -> Result<Run<'a>, FsError> {
        let mut streams = Vec::with_capacity(viewers.len());
        for (i, &title) in viewers.iter().enumerate() {
            let replicas = &cluster.catalog().title(title).replicas;
            let nrep = replicas.len();
            let start = i % nrep.max(1);
            let replica = (0..nrep)
                .map(|d| (start + d) % nrep)
                .find(|&r| {
                    replicas[r].state == ReplicaState::Live && cluster.is_up(replicas[r].volume)
                })
                .ok_or(FsError::InvalidScenario {
                    reason: "viewer title has no live replica on an up member",
                })?;
            let schedule = replicas[replica].schedule.clone();
            streams.push(CStream {
                title,
                replica,
                vol: replicas[replica].volume,
                failovers: 0,
                state: StreamState::new(i, schedule, cfg.read_ahead.max(1)),
            });
        }
        let lanes = cluster
            .members()
            .iter()
            .map(|m| {
                let d = m.mrs().msm().disk();
                Lane {
                    busy_mark: d.stats().busy_time(),
                    scrub_cost: (d.max_positioning_time() + d.geometry().rotation_time())
                        .to_nanos(),
                    ..Lane::default()
                }
            })
            .collect();
        let report = ClusterReport {
            replicated: viewers
                .iter()
                .map(|&t| cluster.catalog().title(t).replicas.len() >= 2)
                .collect(),
            ..ClusterReport::default()
        };
        Ok(Run {
            obs: cluster.obs(),
            cluster,
            cfg,
            script,
            applied: vec![false; script.len()],
            k: cfg.k.max(1),
            streams,
            lanes,
            report,
            t: Instant::EPOCH,
            round: 0,
            clean_streak: 0,
            round_faults: false,
            stamp_jobs: Vec::new(),
            views: Vec::new(),
        })
    }

    fn msm_mut(&mut self, v: usize) -> &mut Msm {
        self.cluster.member_mut(v).mrs_mut().msm_mut()
    }

    /// A read of `(strand, block)` on volume `v` came back
    /// [`BlockFetch::Data`]. If `v` verifies reads, that block has had
    /// this scrub pass's check: credit it.
    fn credit(&mut self, v: usize, strand: StrandId, block: u64) {
        let verified = self.cluster.members()[v].mrs().msm().verify_reads();
        if verified && self.cfg.scrub_blocks_per_round > 0 {
            self.lanes[v].credits.mark(strand.raw(), block);
        }
    }

    /// Member `v`'s image is suspect — it was killed or rejoined, a
    /// restore finished a replica on it, or a verified read of it came
    /// back corrupt: a scrub pass must be open on it. A lane mid-pass has
    /// one (strand ids only grow, so whatever was written lies ahead of
    /// the cursor); a resting lane opens a new pass from the start, and
    /// that pass owes nothing to reads verified before the suspicion.
    fn suspect(&mut self, v: usize) {
        let lane = &mut self.lanes[v];
        if std::mem::take(&mut lane.resting) {
            lane.credits.clear();
        }
    }

    fn busy_time(&self, v: usize) -> Nanos {
        self.cluster.members()[v]
            .mrs()
            .msm()
            .disk()
            .stats()
            .busy_time()
    }

    /// Unfinished streams sitting revoked.
    fn revoked(&self) -> impl Iterator<Item = &CStream> {
        self.streams
            .iter()
            .filter(|s| !s.state.finished() && s.state.is_revoked())
    }

    /// The first live replica of `title` on an up, unquarantined member,
    /// excluding `not`.
    fn healthy_replica(&self, title: TitleId, not: Option<usize>) -> Option<usize> {
        self.cluster.catalog().live_replica(title, not, |v| {
            self.cluster.is_up(v) && !self.lanes[v].quarantined
        })
    }

    /// The replica of `title` to play from, excluding `not`: a healthy
    /// one, else — when every healthy copy is quarantined — any live
    /// replica on an up member (serving slow beats not serving at all).
    fn find_replica(&self, title: TitleId, not: Option<usize>) -> Option<usize> {
        self.healthy_replica(title, not).or_else(|| {
            self.cluster
                .catalog()
                .live_replica(title, not, |v| self.cluster.is_up(v))
        })
    }

    /// Re-pin stream `idx` to replica `r` of its title: swap in the
    /// replica's schedule in place, keeping every completion, epoch and
    /// item offset.
    fn repin(&mut self, idx: usize, r: usize) -> Result<(), FsError> {
        let s = &mut self.streams[idx];
        let rep = &self.cluster.catalog().title(s.title).replicas[r];
        s.state.repin(&rep.schedule)?;
        (s.replica, s.vol) = (r, rep.volume);
        Ok(())
    }

    /// Re-pin a stream mid-playback, counting the switch.
    fn fail_over(&mut self, idx: usize, r: usize) -> Result<(), FsError> {
        self.repin(idx, r)?;
        self.streams[idx].failovers += 1;
        Ok(())
    }

    /// Fire the scripted membership changes due at this round boundary.
    fn apply_script(&mut self) -> Result<(), FsError> {
        let script = self.script;
        for (si, a) in script.iter().enumerate() {
            if self.applied[si] || a.at_round > self.round {
                continue;
            }
            self.applied[si] = true;
            use ClusterAction::{Kill, Rejoin, RejoinWiped};
            let (Kill(v) | Rejoin(v) | RejoinWiped(v)) = a.action;
            // Whatever was verified on `v` was verified on media, and
            // under strand ids, that may not be there afterwards: the
            // pass in progress, if any, starts over.
            self.lanes[v].credits.clear();
            self.lanes[v].scrub_cursor = (0, 0);
            self.drop_offers(v);
            self.suspect(v);
            let rejoin = match a.action {
                Kill(_) => {
                    self.cluster.kill(v);
                    continue;
                }
                Rejoin(_) => self.cluster.rejoin(v, self.t)?,
                RejoinWiped(_) => self.cluster.rejoin_wiped(v),
            };
            self.report.rejoins.push(rejoin);
            // Recovery I/O is mount work, not playback service.
            self.lanes[v].busy_mark = self.busy_time(v);
        }
        Ok(())
    }

    /// Ladder re-admission: the fault window stayed clear long enough
    /// AND the stream has somewhere live to play from.
    fn readmit(&mut self) -> Result<(), FsError> {
        if self.clean_streak < self.cfg.readmit_clean_rounds {
            return Ok(());
        }
        for idx in 0..self.streams.len() {
            let s = &self.streams[idx];
            if !s.state.is_revoked() || s.state.finished() {
                continue;
            }
            let Some(r) = self.find_replica(s.title, None) else {
                continue;
            };
            if r != s.replica {
                self.repin(idx, r)?;
            }
            self.streams[idx]
                .state
                .readmit(self.round, self.t, &self.obs);
        }
        Ok(())
    }

    /// With nobody in service, is anything left worth running rounds
    /// for — a scripted action, a restorable replica, a first scrub
    /// pass, a revoked stream with somewhere to return to?
    fn drained(&self) -> bool {
        let script_pending = self.applied.iter().any(|done| !done);
        let restore_pending =
            self.cfg.restore_blocks_per_round > 0 && self.cluster.restorable_lost();
        let scrub_pending = self.cfg.scrub_blocks_per_round > 0
            && (0..self.lanes.len())
                .any(|v| self.cluster.is_up(v) && self.lanes[v].scrub_passes == 0);
        let can_return = self
            .revoked()
            .any(|s| self.find_replica(s.title, None).is_some());
        !(script_pending || restore_pending || scrub_pending || can_return)
    }

    /// Every volume starts the round at `t`.
    fn start_lanes(&mut self) {
        for lane in &mut self.lanes {
            lane.clock = self.t;
            lane.round_hedges = 0;
        }
    }

    /// A round with nobody in service: no playback I/O, but revoked
    /// viewers' displays sit frozen while it passes — advance the clock
    /// so recovery accounting sees the outage. The whole advanced window
    /// is spare slack: it belongs to the scrubber and the quarantine
    /// probes.
    fn idle_round(&mut self) -> Result<(), FsError> {
        let min_dur = self
            .revoked()
            .map(|s| s.state.next_item().duration)
            .min()
            .unwrap_or(Nanos::from_millis(100));
        let advanced = Nanos::from_nanos(self.k.saturating_mul(min_dur.as_nanos()));
        let (round, at) = (self.round, self.t);
        self.obs.emit(|| Event::RoundIdle {
            round,
            at,
            advanced,
        });
        self.start_lanes();
        self.scrub_ahead(None);
        self.scrub_pass(at + advanced)?;
        self.probe_quarantined(at);
        self.t = self.restore_pass(at + advanced)?;
        self.clean_streak += 1;
        Ok(())
    }

    /// A service round for the `active` streams, up to the barrier: open
    /// it, hash its stamp checks ahead, and serve the turns in order.
    fn serve_round(&mut self, active: &[usize]) -> Result<(), FsError> {
        let (round, k, at) = (self.round, self.k, self.t);
        self.obs.emit(|| Event::RoundStart {
            round,
            active: active.len(),
            k,
            at,
        });
        self.start_lanes();
        self.round_faults = false;
        self.hash_ahead(active);
        for &idx in active {
            self.serve_turn(idx)?;
        }
        Ok(())
    }

    /// Hash ahead the stamp checks the round's turns will make — each
    /// `active` stream's next `k` stored items on its pinned member, if up
    /// and verifying — in one [`stamp_batch`], joined before the first
    /// turn, and offer each sum to its member's disk: twice in an audited
    /// run, whose audit checks what its read checked. An offer answers
    /// one check on the bytes it was hashed from, so no output can tell.
    fn hash_ahead(&mut self, active: &[usize]) {
        self.stamp_jobs.clear();
        let members = self.cluster.members();
        if !members.iter().any(|m| m.mrs().msm().verify_reads()) {
            return;
        }
        for s in active.iter().map(|&idx| &self.streams[idx]) {
            let msm = members[s.vol].mrs().msm();
            if !self.cluster.is_up(s.vol) || !msm.verify_reads() {
                continue;
            }
            let turn = s.state.pending_items().iter().take(self.k as usize);
            for item in turn.filter(|i| !i.silence) {
                let extent = msm.strand(item.strand).and_then(|st| st.block(item.block));
                if let Ok(Some(extent)) = extent {
                    self.stamp_jobs.push(StampJob::new(s.vol, extent));
                }
            }
        }
        self.offer_ahead(if self.cfg.audit_integrity { 2 } else { 1 });
    }

    /// Hash ahead the scrub probes whose blocks are already known, for
    /// [`Run::scrub_pass`] to take: at a barrier ending at `t_next`, each
    /// open lane's exact probes (budget and slack allowing); in an idle
    /// round, where no read can credit a block, the rest of every open
    /// pass not on offer yet, the offers lasting across idle rounds.
    fn scrub_ahead(&mut self, t_next: Option<Instant>) {
        let budget = self.cfg.scrub_blocks_per_round;
        if budget == 0 {
            return;
        }
        self.stamp_jobs.clear();
        let members = self.cluster.members();
        for (v, lane) in self.lanes.iter().enumerate() {
            if !self.cluster.is_up(v) || lane.resting || lane.offered {
                continue;
            }
            let cost = lane.scrub_cost.as_nanos().max(1);
            let probes = t_next.map_or(u64::MAX, |t| {
                (t.since(lane.clock).as_nanos() / cost).min(budget)
            });
            let (msm, mut cursor) = (members[v].mrs().msm(), lane.scrub_cursor);
            for _ in 0..probes {
                let Some((.., extent, _)) = scrub_step(msm, &mut cursor, &lane.credits).owed else {
                    break;
                };
                self.stamp_jobs.push(StampJob::new(v, extent));
            }
        }
        self.offer_ahead(1);
    }

    /// Hash `stamp_jobs` in one [`stamp_batch`], joined before it
    /// returns, and offer each sum `uses` times to its member's disk.
    fn offer_ahead(&mut self, uses: usize) {
        let members = self.cluster.members();
        let mut views = recycle(std::mem::take(&mut self.views));
        views.extend(members.iter().map(|m| m.mrs().msm().disk().payload()));
        stamp_batch(&views, &mut self.stamp_jobs);
        self.views = recycle(views);
        for job in &self.stamp_jobs {
            self.lanes[job.store].offered = true;
            let disk = members[job.store].mrs().msm().disk();
            for _ in 0..uses {
                disk.offer_sum(job.extent, job.sum);
            }
        }
    }

    /// Drop the offers member `v`'s disk still holds.
    fn drop_offers(&mut self, v: usize) {
        if std::mem::take(&mut self.lanes[v].offered) {
            self.cluster.members()[v].mrs().msm().disk().drop_offered();
        }
    }

    /// Drop the offers a failover, hedge, drop or repair left unused.
    fn drop_unconsumed(&mut self) {
        for v in 0..self.lanes.len() {
            self.drop_offers(v);
        }
    }

    /// One stream's turn: up to `k` blocks, each served on the clock of
    /// the volume the stream is pinned to by then — a failover or a won
    /// hedge moves the pin mid-turn. That clock is also where a display
    /// epoch opens and the turn ends, and after a read-around it is
    /// *not* the completion just recorded.
    fn serve_turn(&mut self, idx: usize) -> Result<(), FsError> {
        let clock = self.lanes[self.streams[idx].vol].clock;
        self.streams[idx]
            .state
            .begin_turn(self.round, self.t, clock);
        for _ in 0..self.k {
            let s = &self.streams[idx];
            if !s.state.in_service() {
                break;
            }
            let fetched = if s.state.next_item().silence {
                Fetched::Served(self.lanes[s.vol].clock.max(s.state.last_completion()))
            } else {
                self.fetch(idx)?
            };
            let s = &mut self.streams[idx];
            let clock = self.lanes[s.vol].clock;
            match fetched {
                Fetched::Served(done) => s.state.record(done, clock, &self.obs),
                Fetched::Lost(at) => {
                    self.round_faults = true;
                    s.state
                        .record_drop(at, clock, self.cfg.revoke_after_drops, &self.obs);
                }
            }
        }
        let s = &mut self.streams[idx];
        s.state.end_turn(self.lanes[s.vol].clock, &self.obs);
        Ok(())
    }

    /// Fetch stream `idx`'s next (stored) block, crossing replicas as
    /// the fetch demands: a media error downs the volume and fails the
    /// stream over — the glitch stays bounded by read-ahead because the
    /// re-fetch happens in the same round — and a corrupt payload is
    /// read around.
    fn fetch(&mut self, idx: usize) -> Result<Fetched, FsError> {
        let floor = self.streams[idx].state.last_completion();
        let mut fail_at = self.lanes[self.streams[idx].vol].clock.max(floor);
        for _attempt in 0..=self.lanes.len() {
            let s = &self.streams[idx];
            let vol = s.vol;
            if self.cluster.is_up(vol) {
                let (item, deadline) = (s.state.next_item(), s.state.next_deadline());
                let issue = self.lanes[vol].clock.max(fail_at);
                let budget = item.duration;
                let (reason, at, retries) = match self.msm_mut(vol).fetch_block(
                    item.strand,
                    item.block,
                    issue,
                    budget,
                    deadline,
                    false,
                )? {
                    BlockFetch::Silence => {
                        return Err(FsError::InvalidScenario {
                            reason: "non-silence schedule item resolves to a silence hole",
                        })
                    }
                    BlockFetch::Data { op, retries, .. } => {
                        self.credit(vol, item.strand, item.block);
                        let done = self.served(idx, issue, op.completed, retries)?;
                        return Ok(Fetched::Served(done));
                    }
                    BlockFetch::Failed {
                        reason,
                        at,
                        retries,
                    } => (reason, at, retries),
                };
                self.round_faults = true;
                self.streams[idx].state.add_retries(retries);
                fail_at = fail_at.max(at);
                self.lanes[vol].clock = self.lanes[vol].clock.max(at);
                match reason {
                    // Volume-failure detection: the read path, not an
                    // oracle.
                    FetchFailure::Media => self.cluster.mark_down(vol),
                    // The deadline is gone on every volume — drop, don't
                    // failover.
                    FetchFailure::Abandoned => break,
                    FetchFailure::RetriesExhausted => {}
                    // A corrupt payload is a replica problem, not a
                    // member problem: only when no verifiable copy
                    // exists does the stream switch replicas below.
                    FetchFailure::Corrupt => {
                        self.suspect(vol);
                        if let Some(done) = self.read_around(idx, fail_at) {
                            return Ok(Fetched::Served(done));
                        }
                    }
                }
            }
            let s = &self.streams[idx];
            let Some(r) = self.find_replica(s.title, Some(s.replica)) else {
                break;
            };
            self.fail_over(idx, r)?;
        }
        let clock = self.lanes[self.streams[idx].vol].clock;
        Ok(Fetched::Lost(clock.max(fail_at).max(floor)))
    }

    /// Stream `idx`'s pinned volume delivered the block, issued at
    /// `issue`, at `done`: book it, race a hedge if it ran slow, audit
    /// what the viewer got. Returns when the block was resident.
    fn served(
        &mut self,
        idx: usize,
        issue: Instant,
        mut done: Instant,
        retries: u32,
    ) -> Result<Instant, FsError> {
        let vol = self.streams[idx].vol;
        self.lanes[vol].clock = done;
        self.lanes[vol].stats.fetched += 1;
        if retries > 0 {
            self.round_faults = true;
            self.streams[idx].state.add_retries(retries);
        }
        if self.cfg.hedge && done - issue > self.streams[idx].state.next_item().duration {
            if let Some(hedged) = self.hedge(idx, issue, done)? {
                done = hedged;
            }
        }
        if self.cfg.audit_integrity {
            // After a won hedge the pin names the copy that was served.
            let s = &self.streams[idx];
            let item = s.state.next_item();
            let msm = self.cluster.members()[s.vol].mrs().msm();
            if let Ok(Some(false)) = msm.check_block_sum(item.strand, item.block) {
                self.report.corrupt_served += 1;
            }
        }
        Ok(done)
    }

    /// Fail-slow defense: stream `idx`'s fetch, issued at `issue` and
    /// done at `primary_done`, ran slower than its block's play
    /// duration, which cannot sustain continuity — race a healthy
    /// replica from the moment the threshold passed; the earlier
    /// completion wins. Returns the hedge's completion if it won; the
    /// stream then stays on the faster copy for the rest of the run.
    fn hedge(
        &mut self,
        idx: usize,
        issue: Instant,
        primary_done: Instant,
    ) -> Result<Option<Instant>, FsError> {
        let s = &self.streams[idx];
        let vol = s.vol;
        self.lanes[vol].round_hedges += 1;
        self.lanes[vol].stats.hedged += 1;
        let Some(r) = self.healthy_replica(s.title, Some(s.replica)) else {
            return Ok(None);
        };
        let (threshold, deadline) = (s.state.next_item().duration, s.state.next_deadline());
        let rep = &self.cluster.catalog().title(s.title).replicas[r];
        let (hv, item) = (rep.volume, rep.schedule.items[s.state.next_index()]);
        let h_issue = self.lanes[hv].clock.max(issue + threshold);
        let hedge = self.msm_mut(hv).fetch_block(
            item.strand,
            item.block,
            h_issue,
            threshold,
            deadline,
            false,
        )?;
        self.report.hedges += 1;
        let mut won = None;
        match hedge {
            BlockFetch::Data { op, .. } => {
                self.credit(hv, item.strand, item.block);
                self.lanes[hv].clock = op.completed;
                if op.completed < primary_done {
                    won = Some(op.completed);
                    self.lanes[hv].stats.fetched += 1;
                    self.report.hedge_wins += 1;
                }
            }
            BlockFetch::Failed {
                reason: FetchFailure::Corrupt,
                ..
            } => self.suspect(hv),
            _ => {}
        }
        self.obs.emit(|| Event::Hedge {
            stream: idx,
            volume: vol,
            hedge_volume: hv,
            primary: primary_done - issue,
            won: won.is_some(),
            at: won.unwrap_or(primary_done),
        });
        if won.is_some() {
            self.fail_over(idx, r)?;
        }
        Ok(won)
    }

    /// Where a corrupt block of `title`'s replica `rep` can be repaired
    /// from: every other live copy on an up member, healthy members
    /// before quarantined ones, as `(volume, replica)`.
    fn repair_sources(&self, title: TitleId, rep: usize) -> Vec<(usize, usize)> {
        let replicas = &self.cluster.catalog().title(title).replicas;
        let mut sources: Vec<(usize, usize)> = (0..replicas.len())
            .filter(|&r| {
                r != rep
                    && replicas[r].state == ReplicaState::Live
                    && self.cluster.is_up(replicas[r].volume)
            })
            .map(|r| (replicas[r].volume, r))
            .collect();
        sources.sort_by_key(|&(sv, _)| self.lanes[sv].quarantined);
        sources
    }

    /// Read a repair payload from volume `sv`, issued no earlier than
    /// `not_before` and charged to `sv`'s clock. Refuses a copy that
    /// fails (or cannot pass) verification itself — repair must never
    /// serve or launder corruption. Returns the payload and when it
    /// arrived.
    fn read_clean_copy(
        &mut self,
        sv: usize,
        strand: StrandId,
        block: u64,
        not_before: Instant,
    ) -> Option<(Vec<u8>, Instant)> {
        let src = self.cluster.members()[sv].mrs().msm();
        match src.check_block_sum(strand, block) {
            Ok(Some(true)) => {}
            Ok(Some(false)) => {
                self.suspect(sv);
                return None;
            }
            _ => return None,
        }
        let issue = self.lanes[sv].clock.max(not_before);
        let Ok((Some(payload), Some(op))) = self.msm_mut(sv).read_block(strand, block, issue)
        else {
            return None;
        };
        self.lanes[sv].clock = op.completed;
        Some((payload, op.completed))
    }

    /// Overwrite a corrupt block on volume `v` in place, on `v`'s clock.
    /// False when the payload does not hash to the block's stamp — the
    /// copies diverged.
    fn rewrite(&mut self, v: usize, strand: StrandId, block: u64, payload: &[u8]) -> bool {
        let at = self.lanes[v].clock;
        match self.msm_mut(v).rewrite_block(strand, block, at, payload) {
            Ok(op) => {
                self.lanes[v].clock = op.completed;
                true
            }
            Err(_) => false,
        }
    }

    /// A viewer read hit a corrupt payload: serve that one block from
    /// another live replica and rewrite the corrupt extent in place
    /// (read-around repair). The stream keeps its pin — one corrupt
    /// block costs one remote read instead of a permanent switch onto
    /// whatever replica remains, which may sit on a quarantined
    /// fail-slow member. The remote read cannot be issued before the
    /// corrupt local read failed (`not_before` keeps completions
    /// monotonic), and the stream's next fetch is issued after this
    /// serve — the pinned volume's own clock is not charged for the
    /// remote read. Returns the completion, or `None` when no other
    /// replica holds a verifiable copy of the block.
    fn read_around(&mut self, idx: usize, not_before: Instant) -> Option<Instant> {
        let s = &self.streams[idx];
        let (title, rep, j) = (s.title, s.replica, s.state.next_index());
        let dst = &self.cluster.catalog().title(title).replicas[rep];
        let (dst_vol, dst_item) = (dst.volume, dst.schedule.items[j]);
        for (sv, r) in self.repair_sources(title, rep) {
            let src = self.cluster.catalog().title(title).replicas[r]
                .schedule
                .items[j];
            let Some((payload, done)) = self.read_clean_copy(sv, src.strand, src.block, not_before)
            else {
                continue;
            };
            // Best effort: a failed rewrite (diverged stamp) still
            // served a verified payload; the scrubber deals with the bad
            // copy later.
            self.rewrite(dst_vol, dst_item.strand, dst_item.block, &payload);
            self.lanes[sv].stats.fetched += 1;
            self.report.read_repairs += 1;
            return Some(done);
        }
        None
    }

    /// Scrub found a corrupt block on volume `v`: repair it surgically
    /// by fetching the true payload of the same block from a clean live
    /// replica and rewriting the corrupt extent in place — viewers stay
    /// pinned, nothing moves. Only when no source payload hashes to the
    /// stamped checksum (a diverged or doubly-corrupt copy) does the
    /// repair fall back to invalidating the whole replica so background
    /// re-replication rebuilds it — the same path a wiped rejoin uses.
    fn repair_corrupt_block(
        &mut self,
        v: usize,
        strand: StrandId,
        block: u64,
    ) -> Result<ScrubRepair, FsError> {
        // The live replica on `v` that owns `strand`, and the strand's
        // slot in it: `(title, replica, slot)`.
        let titles = self.cluster.catalog().titles().iter().enumerate();
        let owner = titles
            .flat_map(|(t, title)| {
                let live = title.replicas.iter().enumerate();
                live.filter(|(_, r)| r.volume == v && r.state == ReplicaState::Live)
                    .filter_map(move |(i, r)| {
                        let slot = r.strands.iter().position(|l| l.strand == strand)?;
                        Some((t, i, slot))
                    })
            })
            .last();
        let Some((title, rep, slot)) = owner else {
            return Ok(ScrubRepair::Skipped);
        };
        let sources = self.repair_sources(title, rep);
        if sources.is_empty() {
            return Ok(ScrubRepair::Skipped);
        }
        for (sv, r) in sources {
            let src = self.cluster.catalog().title(title).replicas[r].strands[slot].strand;
            let Some((payload, _)) = self.read_clean_copy(sv, src, block, Instant::EPOCH) else {
                continue;
            };
            // A diverged source: try the next one, or fall through to
            // the wholesale rebuild.
            if self.rewrite(v, strand, block, &payload) {
                return Ok(ScrubRepair::Repaired);
            }
        }
        // Every source is unreadable or diverged: rebuild the replica
        // wholesale through the restore path.
        for idx in 0..self.streams.len() {
            let s = &self.streams[idx];
            if s.title != title || s.replica != rep || s.state.finished() {
                continue;
            }
            if let Some(r) = self.find_replica(title, Some(rep)) {
                self.fail_over(idx, r)?;
            }
        }
        self.cluster.invalidate_replica(title, rep)?;
        for loc in &self.cluster.catalog().title(title).replicas[rep].strands {
            self.lanes[v].credits.drop_strand(loc.strand.raw());
        }
        Ok(ScrubRepair::Invalidated)
    }

    /// One budgeted scrub pass over every up volume, charged strictly
    /// against the slack between each volume's clock and `t_next` — the
    /// round end playback already decided — so scrub can never extend a
    /// round or perturb a deadline. Budget and slack are spent by
    /// probes; blocks covered on read credit are counted and nothing
    /// else. A probe checks the stored payload against its stamp in
    /// place — no device access, no arm movement, no virtual time of its
    /// own — with the sum hashed ahead for it if one is on offer.
    fn scrub_pass(&mut self, t_next: Instant) -> Result<(), FsError> {
        if self.cfg.scrub_blocks_per_round == 0 {
            return Ok(());
        }
        for v in 0..self.lanes.len() {
            if !self.cluster.is_up(v) || self.lanes[v].resting {
                continue;
            }
            let mut budget = self.cfg.scrub_blocks_per_round;
            while budget > 0 && self.lanes[v].clock + self.lanes[v].scrub_cost <= t_next {
                let lane = &mut self.lanes[v];
                let msm = self.cluster.members()[v].mrs().msm();
                let step = scrub_step(msm, &mut lane.scrub_cursor, &lane.credits);
                let covered = step.credited + u64::from(step.owed.is_some());
                lane.stats.scrubbed += covered;
                self.report.scrubbed_blocks += covered;
                self.report.scrub_credited += step.credited;
                let Some((strand, block, extent, stamp)) = step.owed else {
                    lane.scrub_passes += 1;
                    lane.credits.clear();
                    lane.resting = true;
                    self.drop_offers(v);
                    break;
                };
                let ok = msm.disk().fetch_sum(extent) == Some(stamp);
                budget -= 1;
                lane.clock += lane.scrub_cost;
                let (at, sid) = (lane.clock, strand.raw());
                self.obs.emit(|| Event::Scrub {
                    volume: v,
                    strand: sid,
                    block,
                    ok,
                    at,
                });
                if !ok {
                    self.report.scrub_corrupt += 1;
                    match self.repair_corrupt_block(v, strand, block)? {
                        ScrubRepair::Repaired => self.report.scrub_repaired += 1,
                        ScrubRepair::Invalidated => {
                            self.report.scrub_invalidated += 1;
                            // The replica's strands just vanished from
                            // under the cursor; resume next round.
                            break;
                        }
                        ScrubRepair::Skipped => {}
                    }
                }
            }
        }
        Ok(())
    }

    /// One budgeted background re-replication pass starting at `now`;
    /// returns the instant it is done.
    fn restore_pass(&mut self, now: Instant) -> Result<Instant, FsError> {
        if self.cfg.restore_blocks_per_round == 0 {
            return Ok(now);
        }
        let p = self
            .cluster
            .re_replicate(now, self.cfg.restore_blocks_per_round)?;
        self.report.restored_blocks += p.copied_blocks;
        self.report.restored_replicas += p.completed_on.len() as u64;
        for &v in &p.completed_on {
            self.suspect(v);
        }
        Ok(now.max(p.finished_at))
    }

    /// Fail-slow quarantine: a member that kept firing hedges sits out —
    /// no placement, no serving where an alternative exists — until
    /// probes come back on time.
    fn quarantine_slow_members(&mut self) -> Result<(), FsError> {
        if self.cfg.quarantine_after_rounds == 0 {
            return Ok(());
        }
        for v in 0..self.lanes.len() {
            let lane = &mut self.lanes[v];
            if lane.quarantined {
                continue;
            }
            lane.hedged_rounds = if lane.round_hedges > 0 {
                lane.hedged_rounds + 1
            } else {
                0
            };
            if lane.hedged_rounds < self.cfg.quarantine_after_rounds || !self.cluster.is_up(v) {
                continue;
            }
            lane.quarantined = true;
            lane.clean_probes = 0;
            let (rounds, at) = (std::mem::take(&mut lane.hedged_rounds), self.t);
            self.report.quarantines += 1;
            self.obs.emit(|| Event::Quarantine {
                volume: v,
                entered: true,
                rounds,
                at,
            });
            // Walk every pinned stream off the slow member; sole-copy
            // streams stay as a fallback.
            for idx in 0..self.streams.len() {
                let s = &self.streams[idx];
                if s.state.finished() || s.vol != v {
                    continue;
                }
                if let Some(r) = self.healthy_replica(s.title, Some(s.replica)) {
                    self.fail_over(idx, r)?;
                }
            }
        }
        Ok(())
    }

    /// Probe quarantined members at `now` and re-admit after enough
    /// consecutive on-time probes. A probe that surfaces a media error
    /// converts the quarantine into a detected failure (`Down`).
    fn probe_quarantined(&mut self, now: Instant) {
        for v in 0..self.lanes.len() {
            if !self.lanes[v].quarantined {
                continue;
            }
            if !self.cluster.is_up(v) {
                // Down supersedes quarantine; rejoin handles the return.
                self.lanes[v].quarantined = false;
                continue;
            }
            // Probe target: the first stored block of a live replica.
            let target = self.cluster.catalog().titles().iter().find_map(|t| {
                t.replicas
                    .iter()
                    .find(|r| r.volume == v && r.state == ReplicaState::Live)
                    .and_then(|r| r.schedule.items.iter().find(|i| !i.silence).copied())
            });
            let on_time = match target {
                // Nothing servable to probe; an empty member is harmless.
                None => true,
                // Only the probe's timing is consumed, so no payload.
                Some(item) => match self.msm_mut(v).fetch_block(
                    item.strand,
                    item.block,
                    now,
                    Nanos::ZERO,
                    None,
                    false,
                ) {
                    Ok(BlockFetch::Data { op, .. }) => {
                        self.credit(v, item.strand, item.block);
                        op.completed - now <= item.duration
                    }
                    Ok(BlockFetch::Silence) => true,
                    Ok(BlockFetch::Failed {
                        reason: FetchFailure::Corrupt,
                        ..
                    }) => {
                        self.suspect(v);
                        false
                    }
                    Ok(BlockFetch::Failed { .. }) | Err(_) => {
                        self.cluster.mark_down(v);
                        self.lanes[v].quarantined = false;
                        continue;
                    }
                },
            };
            let lane = &mut self.lanes[v];
            lane.clean_probes = if on_time { lane.clean_probes + 1 } else { 0 };
            if lane.clean_probes >= self.cfg.readmit_probe_rounds.max(1) {
                lane.quarantined = false;
                self.report.quarantine_readmits += 1;
                let rounds = lane.clean_probes;
                self.obs.emit(|| Event::Quarantine {
                    volume: v,
                    entered: false,
                    rounds,
                    at: now,
                });
            }
        }
    }

    /// The round barrier. The cluster round ends when the slowest
    /// volume — and the round's background restore budget — is done;
    /// with that instant decided, whatever slack remains on each lane
    /// belongs to the scrubber; then slow members are quarantined or
    /// probed and each disk's busy time is booked.
    fn barrier(&mut self) -> Result<(), FsError> {
        self.drop_unconsumed();
        let slowest = self.lanes.iter().map(|l| l.clock).max().unwrap_or(self.t);
        let t_next = self.restore_pass(slowest)?;
        self.scrub_ahead(Some(t_next));
        self.scrub_pass(t_next)?;
        self.drop_unconsumed();
        let round = self.round;
        self.obs.emit(|| Event::RoundEnd { round, at: t_next });
        self.t = t_next;
        self.quarantine_slow_members()?;
        self.probe_quarantined(t_next);
        for v in 0..self.lanes.len() {
            let busy = self.busy_time(v);
            self.report.sim.disk_busy += busy - self.lanes[v].busy_mark;
            self.lanes[v].busy_mark = busy;
            if !self.cluster.is_up(v) {
                self.lanes[v].stats.rounds_down += 1;
            }
        }
        self.clean_streak = if self.round_faults {
            0
        } else {
            self.clean_streak + 1
        };
        Ok(())
    }

    /// Play rounds until nobody is in service and nothing else is
    /// pending, or until the round bound.
    fn play(&mut self) -> Result<(), FsError> {
        // The streams in service this round: a buffer the run reuses.
        let mut active: Vec<usize> = Vec::with_capacity(self.streams.len());
        loop {
            self.apply_script()?;
            self.readmit()?;
            active.clear();
            active.extend((0..self.streams.len()).filter(|&i| self.streams[i].state.in_service()));
            if active.is_empty() {
                if self.drained() {
                    return Ok(());
                }
                self.idle_round()?;
            } else {
                self.serve_round(&active)?;
                self.barrier()?;
            }
            self.round += 1;
            if self.round >= self.cfg.max_rounds {
                return Ok(());
            }
        }
    }

    fn finish(mut self) -> ClusterReport {
        let streams = &self.streams;
        (self.report.sim.streams, self.report.miss_bursts) = streams
            .iter()
            .map(|s| s.state.outcome_and_miss_burst(&self.obs))
            .unzip();
        self.report.sim.rounds = self.round;
        self.report.failovers = streams.iter().map(|s| s.failovers).sum();
        self.report.volumes = self.lanes.iter().map(|l| l.stats).collect();
        self.report
    }
}

/// Simulate cluster playback: one viewer stream per entry of
/// `viewers` (each a catalog title), with `script` driving member
/// kills and rejoins at round boundaries.
///
/// Viewers of a multi-replica title are spread across its replicas
/// round-robin. Install a shared sink via [`Cluster::set_obs`] before
/// calling to observe the whole cluster in one monitor.
pub fn simulate_cluster(
    cluster: &mut Cluster,
    viewers: &[TitleId],
    script: &[ScriptedAction],
    cfg: &ClusterPlayback,
) -> Result<ClusterReport, FsError> {
    let mut run = Run::new(cluster, viewers, script, cfg)?;
    let played = run.play();
    // A round an error cut short leaves its offers behind.
    run.drop_unconsumed();
    played.map(|()| run.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::ReplicaState;
    use crate::cluster::{ClusterConfig, MemberState};
    use crate::placement::Placement;
    use strandfs_disk::FaultPlan;
    use strandfs_sim::scenario::ClipSpec;

    fn cluster(volumes: usize, base_replicas: usize) -> Cluster {
        Cluster::new(ClusterConfig {
            volumes,
            placement: Placement::RoundRobin,
            base_replicas,
            seed: 42,
        })
        .expect("cluster")
    }

    #[test]
    fn viewers_of_one_replica_share_its_schedule_items() {
        let mut c = cluster(1, 1);
        let id = c
            .ingest("a", &ClipSpec::video_seconds(1.0).with_seed(1), 0.0)
            .unwrap();
        let cfg = ClusterPlayback::with_k(3);
        let run = Run::new(&mut c, &[id, id], &[], &cfg).expect("run");
        let items = |i: usize| run.streams[i].state.pending_items().as_ptr();
        let catalogued = &run.cluster.catalog().title(id).replicas[0].schedule.items;
        assert_eq!(items(0), items(1));
        assert_eq!(items(0), catalogued.as_ptr());
    }

    #[test]
    fn recycled_views_keep_their_allocation() {
        let c = cluster(3, 1);
        let mut views: Vec<_> = c
            .members()
            .iter()
            .map(|m| m.mrs().msm().disk().payload())
            .collect();
        let heap = views.as_ptr() as usize;
        views = recycle(views);
        assert!(views.is_empty() && views.capacity() >= 3);
        assert_eq!(views.as_ptr() as usize, heap);
    }

    #[test]
    fn a_clean_run_uses_every_sum_it_hashes_ahead() {
        let mut c = cluster(2, 2);
        let a = c
            .ingest("a", &ClipSpec::video_seconds(2.0).with_seed(31), 1.0)
            .unwrap();
        let b = c
            .ingest("b", &ClipSpec::video_seconds(3.0).with_seed(32), 1.0)
            .unwrap();
        c.set_verify_reads(true);
        let cfg = ClusterPlayback::with_k(3).scrub(4).audited();
        let mut run = Run::new(&mut c, &[a, a, b, b], &[], &cfg).expect("run");
        // `Run::play`, looking at every disk before each barrier.
        let (mut active, mut hashed) = (Vec::new(), 0);
        loop {
            run.apply_script().unwrap();
            run.readmit().unwrap();
            active.clear();
            active.extend((0..run.streams.len()).filter(|&i| run.streams[i].state.in_service()));
            if active.is_empty() {
                if run.drained() {
                    break;
                }
                run.idle_round().unwrap();
            } else {
                run.serve_round(&active).unwrap();
                hashed += run.stamp_jobs.len() as u64;
                let members = run.cluster.members();
                let left: usize = members
                    .iter()
                    .map(|m| m.mrs().msm().disk().drop_offered())
                    .sum();
                assert_eq!(left, 0, "round {} left offers unused", run.round);
                run.barrier().unwrap();
            }
            run.round += 1;
        }
        let report = run.finish();
        assert!(report.sim.all_continuous());
        assert_eq!(report.corrupt_served, 0);
        let fetched: u64 = report.volumes.iter().map(|v| v.fetched).sum();
        assert_eq!(hashed, fetched, "every read was hashed ahead, once");
    }

    #[test]
    fn a_known_pass_is_hashed_once() {
        // A storm in small: member 3 dies at round 2 and rejoins with
        // its media at round 5, so its pass reopens from the start;
        // reads are verified and audited, the scrubber probes at every
        // barrier with slack and through the idle tail, and no restore
        // writes beside it.
        let mut c = cluster(4, 2);
        let titles: Vec<_> = (0..4)
            .map(|i| {
                let clip = ClipSpec::video_seconds(2.0 + i as f64).with_seed(40 + i);
                c.ingest("t", &clip, 1.0).unwrap()
            })
            .collect();
        c.set_verify_reads(true);
        let script = [
            ScriptedAction {
                at_round: 2,
                action: ClusterAction::Kill(3),
            },
            ScriptedAction {
                at_round: 5,
                action: ClusterAction::Rejoin(3),
            },
        ];
        let cfg = ClusterPlayback::with_k(3).scrub(4).audited();
        let viewers = [titles[0], titles[1], titles[1], titles[3]];
        let mut run = Run::new(&mut c, &viewers, &script, &cfg).expect("run");
        let left = |run: &Run| -> usize {
            let members = run.cluster.members();
            members
                .iter()
                .map(|m| m.mrs().msm().disk().drop_offered())
                .sum()
        };
        let probes = |run: &Run| run.report.scrubbed_blocks - run.report.scrub_credited;
        // `Run::play`, counting the sums each barrier and idle round
        // hashes ahead against the probes they answer.
        let (mut active, mut idle, mut at_barriers) = (Vec::new(), 0, 0);
        loop {
            run.apply_script().unwrap();
            run.readmit().unwrap();
            active.clear();
            active.extend((0..run.streams.len()).filter(|&i| run.streams[i].state.in_service()));
            if active.is_empty() {
                if run.drained() {
                    break;
                }
                run.idle_round().unwrap();
                idle += run.stamp_jobs.len() as u64;
            } else {
                assert_eq!(
                    left(&run),
                    0,
                    "round {}: offers outlived an idle round",
                    run.round
                );
                run.serve_round(&active).unwrap();
                let before = probes(&run);
                run.barrier().unwrap();
                let hashed = run.stamp_jobs.len() as u64;
                let probed = probes(&run) - before;
                assert_eq!(hashed, probed, "round {}: the barrier's probes", run.round);
                at_barriers += hashed;
            }
            run.round += 1;
        }
        assert_eq!(left(&run), 0, "a pass on offer outlived the run");
        let report = run.finish();
        assert!(report.failovers > 0 && report.rejoins.len() == 1);
        assert!(
            idle > 0 && at_barriers > 0,
            "{idle} idle, {at_barriers} at barriers"
        );
        let probed = report.scrubbed_blocks - report.scrub_credited;
        assert_eq!(
            idle + at_barriers,
            probed,
            "every probe was hashed ahead, once"
        );
    }

    #[test]
    fn clean_cluster_plays_every_stream_continuously() {
        let mut c = cluster(2, 1);
        let a = c
            .ingest("a", &ClipSpec::video_seconds(1.0).with_seed(1), 0.0)
            .unwrap();
        let b = c
            .ingest("b", &ClipSpec::video_seconds(1.0).with_seed(2), 0.0)
            .unwrap();
        let report =
            simulate_cluster(&mut c, &[a, b], &[], &ClusterPlayback::with_k(3)).expect("sim");
        assert!(report.sim.all_continuous());
        assert_eq!(report.sim.total_dropped(), 0);
        assert_eq!(report.failovers, 0);
        // Each title landed on its own volume; both volumes served.
        assert!(report.volumes.iter().all(|v| v.fetched > 0));
    }

    #[test]
    fn replicated_stream_survives_a_volume_kill_without_losing_blocks() {
        let mut c = cluster(2, 2);
        let id = c
            .ingest("hot", &ClipSpec::video_seconds(2.0).with_seed(5), 1.0)
            .unwrap();
        let script = [ScriptedAction {
            at_round: 2,
            action: ClusterAction::Kill(0),
        }];
        let report =
            simulate_cluster(&mut c, &[id, id], &script, &ClusterPlayback::with_k(3)).expect("sim");
        assert_eq!(
            report.replicated_dropped(),
            0,
            "failover must lose 0 blocks"
        );
        assert!(report.failovers >= 1, "the kill must force a failover");
        // The glitch is bounded by the read-ahead.
        assert!(
            report.replicated_miss_burst() <= 3,
            "miss burst {} exceeds read-ahead",
            report.replicated_miss_burst()
        );
        // Detection happened through the read path.
        assert_eq!(c.members()[0].state(), MemberState::Down);
        assert!(report.volumes[0].rounds_down > 0);
    }

    #[test]
    fn unreplicated_stream_rides_the_ladder_and_returns_after_rejoin() {
        let mut c = cluster(2, 1);
        let a = c
            .ingest("solo", &ClipSpec::video_seconds(2.0).with_seed(3), 0.0)
            .unwrap();
        // Volume 0 holds "solo"; kill it early, rejoin later.
        let script = [
            ScriptedAction {
                at_round: 1,
                action: ClusterAction::Kill(0),
            },
            ScriptedAction {
                at_round: 6,
                action: ClusterAction::Rejoin(0),
            },
        ];
        let mut cfg = ClusterPlayback::with_k(3);
        cfg.revoke_after_drops = 2;
        cfg.readmit_clean_rounds = 1;
        let report = simulate_cluster(&mut c, &[a], &script, &cfg).expect("sim");
        let s = &report.sim.streams[0];
        assert!(s.dropped_blocks > 0, "the unreplicated stream must drop");
        assert!(s.revokes >= 1, "the ladder must revoke it");
        assert!(
            s.recovery_time > Nanos::ZERO,
            "revocation must cost recovery time"
        );
        // After the rejoin it finished its schedule.
        assert_eq!(s.blocks, s.dropped_blocks + report.sim.streams[0].fetched);
        assert_eq!(report.rejoins.len(), 1);
        assert_eq!(report.rejoins[0].fsck_findings, 0);
        assert_eq!(report.rejoins[0].reconcile.lost, 0);
    }

    /// Flip one bit in each of the first `blocks` stored blocks of the
    /// title's replica on volume 0, invisibly to the device.
    fn corrupt_first_blocks(c: &mut Cluster, id: crate::catalog::TitleId, blocks: u64) {
        let loc = {
            let rep = &c.catalog().title(id).replicas[0];
            assert_eq!(rep.volume, 0);
            rep.strands[0]
        };
        let mut plan = FaultPlan::clean();
        for n in 0..blocks.min(loc.blocks) {
            let e = c.members()[0]
                .mrs()
                .msm()
                .strand(loc.strand)
                .expect("strand")
                .block(n)
                .expect("block")
                .expect("stored block");
            plan = plan.with_silent_corruption(e);
        }
        assert!(c.arm_member_faults(0, plan));
    }

    #[test]
    fn scrub_detects_repairs_and_keeps_viewers_clean() {
        let mut c = cluster(2, 2);
        let id = c
            .ingest("hot", &ClipSpec::video_seconds(2.0).with_seed(21), 1.0)
            .unwrap();
        c.set_verify_reads(true);
        corrupt_first_blocks(&mut c, id, 3);
        let cfg = ClusterPlayback::with_k(3).scrub(4).restore(2).audited();
        let report = simulate_cluster(&mut c, &[id], &[], &cfg).expect("sim");
        assert!(report.scrubbed_blocks > 0);
        // The viewer reaches the bad run before the scrub cursor does:
        // each verified read detects the flip, serves the clean copy and
        // rewrites the extent in place — scrub then finds nothing left.
        assert_eq!(report.read_repairs, 3, "read-around must repair each flip");
        assert_eq!(report.scrub_corrupt, 0, "nothing left for the scrubber");
        assert_eq!(report.scrub_invalidated, 0, "no wholesale rebuild needed");
        assert_eq!(
            report.corrupt_served, 0,
            "verified reads must keep corrupt payloads off the wire"
        );
        assert_eq!(report.replicated_dropped(), 0);
        assert!(c.is_up(0), "silent corruption must not down the member");
        // The corrupt copy was rebuilt from the live replica and the
        // member converged to fsck-clean.
        assert!(c
            .catalog()
            .title(id)
            .replicas
            .iter()
            .all(|r| r.state == ReplicaState::Live));
        assert!(c.fsck_member(0, Instant::from_nanos(u64::MAX / 4)).clean());
    }

    #[test]
    fn scrubber_repairs_in_place_without_viewer_traffic() {
        // No viewers: only the slack-budgeted scrubber walks the
        // extents, so the detection and in-place repair are entirely
        // its own.
        let mut c = cluster(2, 2);
        let id = c
            .ingest("hot", &ClipSpec::video_seconds(2.0).with_seed(21), 1.0)
            .unwrap();
        c.set_verify_reads(true);
        corrupt_first_blocks(&mut c, id, 3);
        let cfg = ClusterPlayback::with_k(3).scrub(4).restore(2).audited();
        let report = simulate_cluster(&mut c, &[], &[], &cfg).expect("sim");
        assert!(report.scrubbed_blocks > 0);
        assert_eq!(report.scrub_corrupt, 3, "scrub must detect every bit flip");
        assert_eq!(report.scrub_repaired, 3, "each block is rewritten in place");
        assert_eq!(report.scrub_invalidated, 0, "no wholesale rebuild needed");
        assert_eq!(report.read_repairs, 0, "no viewer reads, no read-around");
        assert!(c
            .catalog()
            .title(id)
            .replicas
            .iter()
            .all(|r| r.state == ReplicaState::Live));
        assert!(c.fsck_member(0, Instant::from_nanos(u64::MAX / 4)).clean());
    }

    #[test]
    fn without_scrub_or_verification_corruption_reaches_viewers() {
        let mut c = cluster(2, 2);
        let id = c
            .ingest("hot", &ClipSpec::video_seconds(2.0).with_seed(21), 1.0)
            .unwrap();
        corrupt_first_blocks(&mut c, id, 3);
        let cfg = ClusterPlayback::with_k(3).audited();
        let report = simulate_cluster(&mut c, &[id], &[], &cfg).expect("sim");
        assert!(
            report.corrupt_served > 0,
            "with defenses off the audience gets the bit flips"
        );
        assert_eq!(report.scrubbed_blocks, 0);
        assert_eq!(report.replicated_dropped(), 0, "nothing even notices");
    }

    #[test]
    fn hedged_reads_ride_out_a_fail_slow_member() {
        let fail_slow = FaultPlan::clean().with_fail_slow(10.0);
        let mut c = cluster(2, 2);
        let id = c
            .ingest("hot", &ClipSpec::video_seconds(2.0).with_seed(23), 1.0)
            .unwrap();
        assert!(c.arm_member_faults(0, fail_slow.clone()));
        let mut cfg = ClusterPlayback::with_k(3).hedged();
        cfg.quarantine_after_rounds = 1;
        let hedged = simulate_cluster(&mut c, &[id, id], &[], &cfg).expect("sim");
        assert!(hedged.hedges > 0, "slow primaries must fire hedges");
        assert!(hedged.hedge_wins > 0, "the healthy replica must win");
        assert!(hedged.quarantines >= 1, "the slow member must sit out");
        assert_eq!(hedged.replicated_dropped(), 0);
        assert!(c.is_up(0), "fail-slow is gray: the member never errors");
        // The same scenario without hedging: the round barrier waits on
        // the 10x member every round and deadlines collapse.
        let mut c2 = cluster(2, 2);
        let id2 = c2
            .ingest("hot", &ClipSpec::video_seconds(2.0).with_seed(23), 1.0)
            .unwrap();
        assert!(c2.arm_member_faults(0, fail_slow));
        let bare =
            simulate_cluster(&mut c2, &[id2, id2], &[], &ClusterPlayback::with_k(3)).expect("sim");
        assert!(
            bare.sim.total_violations() > hedged.sim.total_violations(),
            "non-hedged must miss more deadlines ({} vs {})",
            bare.sim.total_violations(),
            hedged.sim.total_violations()
        );
    }

    #[test]
    fn scrub_off_vs_on_is_zero_perturbation_for_healthy_streams() {
        // Identical clusters, identical viewers; the only difference is
        // the scrub budget — against unverified reads, and against
        // verified reads, whose credits change what the scrubber does
        // with its slack. Per-stream outcomes must match exactly: scrub
        // runs strictly inside slack the round already paid for, and a
        // credit moves no clock.
        let run = |verify: bool, scrub: u64| {
            let mut c = cluster(2, 2);
            let id = c
                .ingest("hot", &ClipSpec::video_seconds(2.0).with_seed(29), 1.0)
                .unwrap();
            c.set_verify_reads(verify);
            let cfg = ClusterPlayback::with_k(3).scrub(scrub);
            simulate_cluster(&mut c, &[id, id], &[], &cfg).expect("sim")
        };
        for verify in [false, true] {
            let off = run(verify, 0);
            let on = run(verify, 4);
            assert!(on.scrubbed_blocks > 0);
            assert_eq!(on.scrub_credited > 0, verify, "credits need verified reads");
            assert_eq!(off.sim.streams, on.sim.streams, "verify {verify}");
        }
    }

    /// `(strand, block, ok)` of every scrub probe on `volume`, in order.
    fn probes(ring: &strandfs_obs::RingRecorder, volume: usize) -> Vec<(u64, u64, bool)> {
        let scrubs = ring.events().filter_map(|e| match *e {
            Event::Scrub {
                volume: v,
                strand,
                block,
                ok,
                ..
            } if v == volume => Some((strand, block, ok)),
            _ => None,
        });
        scrubs.collect()
    }

    #[test]
    fn a_read_that_fails_verification_earns_no_credit() {
        // One copy only, so the flip under block 0 cannot be repaired:
        // the viewer's verified read fails and drops the block, then
        // reads blocks 1 and 2 clean. Only those two are credited — the
        // scrubber's first probe of the pass is block 0, and it reports
        // the corruption the read already tripped over.
        let mut c = cluster(2, 1);
        let (sink, ring) = ObsSink::ring(1 << 12);
        c.set_obs(&sink);
        let id = c
            .ingest("solo", &ClipSpec::video_seconds(2.0).with_seed(21), 0.0)
            .unwrap();
        c.set_verify_reads(true);
        corrupt_first_blocks(&mut c, id, 1);
        // A second title's viewer keeps volume 1 the slower lane, so
        // volume 0 has slack to scrub in from round 0 on.
        let other = c
            .ingest("other", &ClipSpec::video_seconds(2.0).with_seed(22), 0.0)
            .unwrap();
        let cfg = ClusterPlayback::with_k(3).scrub(4);
        let report = simulate_cluster(&mut c, &[id, other, other], &[], &cfg).expect("sim");
        assert_eq!(report.sim.streams[0].dropped_blocks, 1);
        assert!(report.scrub_corrupt >= 1, "scrub must still see the flip");
        assert_eq!(report.scrub_repaired, 0, "there is nothing to repair from");
        let strand = c.catalog().title(id).replicas[0].strands[0].strand.raw();
        let probed = probes(&ring.borrow(), 0);
        assert_eq!(probed[0], (strand, 0, false), "{probed:?}");
        assert!(
            probed[1].1 > 2,
            "blocks 1 and 2 ride their credit: {probed:?}"
        );
        assert_eq!(
            report.scrubbed_blocks - report.scrub_credited,
            ring.borrow().metrics().scrubbed,
            "probes are the scrub events"
        );
    }

    #[test]
    fn credits_do_not_survive_a_wiped_rejoin() {
        // The one viewer keeps volume 0 the slowest lane, so its
        // scrubber never finds slack and the credits of rounds 0 and 1
        // pile up ahead of the cursor. Then the member dies and comes
        // back on fresh media, where strand ids restart: the restore
        // pass of the rejoin round rebuilds the replica as strand 0
        // again, under a cursor that is still mid-pass. Every restored
        // block must be probed — the first of them first.
        let mut c = cluster(2, 2);
        let (sink, ring) = ObsSink::ring(1 << 12);
        c.set_obs(&sink);
        let id = c
            .ingest("hot", &ClipSpec::video_seconds(2.0).with_seed(9), 1.0)
            .unwrap();
        c.set_verify_reads(true);
        let strand = c.catalog().title(id).replicas[0].strands[0].strand;
        let script = [
            ScriptedAction {
                at_round: 2,
                action: ClusterAction::Kill(0),
            },
            ScriptedAction {
                at_round: 4,
                action: ClusterAction::RejoinWiped(0),
            },
        ];
        let cfg = ClusterPlayback::with_k(3).scrub(4).restore(64);
        let report = simulate_cluster(&mut c, &[id], &script, &cfg).expect("sim");
        assert_eq!(report.restored_replicas, 1);
        let restored = c.catalog().title(id).replicas[0].strands[0].strand;
        assert_eq!(restored, strand, "fresh media reuses the strand id");
        let probed = probes(&ring.borrow(), 0);
        assert_eq!(probed[0], (strand.raw(), 0, true), "{probed:?}");
    }

    #[test]
    fn a_rejoined_member_is_scrubbed_from_the_start() {
        // Volume 1's two viewers keep it the slower lane, so volume 0
        // scrubs from round 0 and is a few blocks into its first pass
        // when it dies. Journal recovery may hand back anything: the
        // pass after the rejoin owes the whole image a check, head
        // included, not just what lay ahead of the old cursor.
        let mut c = cluster(2, 1);
        let (sink, ring) = ObsSink::ring(1 << 12);
        c.set_obs(&sink);
        let solo = c
            .ingest("solo", &ClipSpec::video_seconds(2.0).with_seed(21), 0.0)
            .unwrap();
        let other = c
            .ingest("other", &ClipSpec::video_seconds(2.0).with_seed(22), 0.0)
            .unwrap();
        let script = [
            ScriptedAction {
                at_round: 2,
                action: ClusterAction::Kill(0),
            },
            ScriptedAction {
                at_round: 4,
                action: ClusterAction::Rejoin(0),
            },
        ];
        let cfg = ClusterPlayback::with_k(3).scrub(2);
        simulate_cluster(&mut c, &[solo, other, other], &script, &cfg).expect("sim");
        let loc = c.catalog().title(solo).replicas[0].strands[0];
        assert_eq!(c.members()[0].mrs().msm().strand_ids(), [loc.strand]);
        let probed = probes(&ring.borrow(), 0);
        let restart = probed.iter().rposition(|p| p.1 == 0).expect("block 0");
        let (before, after) = probed.split_at(restart);
        assert!(
            !before.is_empty() && (before.len() as u64) < loc.blocks,
            "the kill must land mid-pass: {probed:?}"
        );
        let whole: Vec<_> = (0..loc.blocks)
            .map(|n| (loc.strand.raw(), n, true))
            .collect();
        assert_eq!(after, whole, "one pass over the whole image: {probed:?}");
        assert!(before.iter().all(|p| after.contains(p)));
    }

    #[test]
    fn wiped_member_is_rebuilt_in_the_background_during_service() {
        let mut c = cluster(2, 2);
        let id = c
            .ingest("hot", &ClipSpec::video_seconds(2.0).with_seed(9), 1.0)
            .unwrap();
        let script = [
            ScriptedAction {
                at_round: 1,
                action: ClusterAction::Kill(0),
            },
            ScriptedAction {
                at_round: 3,
                action: ClusterAction::RejoinWiped(0),
            },
        ];
        // Restore budget small enough for the round slack to absorb —
        // restore I/O extends rounds, and a saturating budget would
        // push playback past its deadlines.
        let cfg = ClusterPlayback::with_k(3).restore(2);
        let report = simulate_cluster(&mut c, &[id], &script, &cfg).expect("sim");
        assert_eq!(report.replicated_dropped(), 0);
        assert!(report.restored_blocks > 0, "restore must copy blocks");
        assert_eq!(report.restored_replicas, 1);
        // The rebuilt replica is live and fsck finds the member clean.
        assert!(!c.restorable_lost());
        assert!(c
            .catalog()
            .title(id)
            .replicas
            .iter()
            .all(|r| r.state == crate::catalog::ReplicaState::Live));
        assert!(c.fsck_member(0, Instant::from_nanos(u64::MAX / 4)).clean());
    }
}

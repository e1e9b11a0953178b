//! One `simulate_cluster` run: the script, the rounds and their turns,
//! the stamp checks hashed ahead, the barrier — and the only code that
//! touches a lane other than the step's own. Turns run viewer-major,
//! each charging the lane it lands on, so a lane's clock mid-round
//! depends on which viewers ran before. Each cross-lane step takes the
//! issuing lane, the target lane and the issue instant: [`Run::hedge`],
//! [`Run::read_around`], the scrub repair ([`Run::scrub_repair`]
//! through [`Run::read_clean_copy`] and [`Run::rewrite`]), the re-pins
//! ([`Run::repin`], [`Run::fail_over`] and their walk-offs) and
//! [`Run::restore_pass`].
//!
//! A turn is one request ([`Run::serve_turn`]): its blocks after the
//! first chain onto the lane it began on, so `k` adjacent blocks cost one
//! positioning, as Eq. 15 and Eq. 18 price them. No cross-lane step chains.

use super::lane::{scrub_step, Lane};
use super::{ClusterAction, ClusterPlayback, ClusterReport, ScriptedAction};
use crate::catalog::{ReplicaState, TitleId};
use crate::cluster::Cluster;
use strandfs_core::msm::{BlockFetch, FetchFailure, Msm};
use strandfs_core::{FsError, StrandId};
use strandfs_disk::{stamp_batch, PayloadView, StampJob};
use strandfs_obs::{Event, ObsSink};
use strandfs_sim::StreamState;
use strandfs_units::{Instant, Nanos};

/// Hard bound on simulated rounds (a stuck-scenario backstop).
const MAX_ROUNDS: u64 = 100_000;

/// A viewer stream: the shared per-stream service state plus the
/// cluster's pin — the title it plays, from which replica, on which volume.
struct CStream {
    title: TitleId,
    replica: usize,
    /// The volume holding `replica`; follows every re-pin.
    vol: usize,
    state: StreamState,
}

/// `views` emptied and free to borrow anew, in the same allocation: a
/// vector collected from its own iterator keeps its buffer.
fn recycle<'b>(mut views: Vec<PayloadView<'_>>) -> Vec<PayloadView<'b>> {
    views.clear();
    views.into_iter().map(|_| unreachable!()).collect()
}

/// How the cross-replica fetch of one block ended.
enum Fetched {
    /// The block was resident at this instant.
    Served(Instant),
    /// No replica could supply it; the stream gave up at this instant.
    Lost(Instant),
}

/// The cluster, its viewers and lanes, the round clock and the report
/// being built. Every step of a round is one method here or on a lane.
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
    /// The frontier: the latest lane clock, where a lane no viewer served waits.
    t: Instant,
    round: u64,
    /// Consecutive fault-free rounds — the ladder's re-admission signal.
    clean_streak: u64,
    round_faults: bool,
    /// The last batch hashed ahead ([`Run::hash_ahead`], [`Run::scrub_ahead`]).
    stamp_jobs: Vec<StampJob>,
    /// Empty between rounds, kept for its capacity ([`recycle`]).
    views: Vec<PayloadView<'static>>,
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

impl<'a> Run<'a> {
    /// Pin one stream per viewer and open a lane per member.
    fn new(
        cluster: &'a mut Cluster,
        viewers: &[TitleId],
        script: &'a [ScriptedAction],
        cfg: &'a ClusterPlayback,
    ) -> Result<Run<'a>, FsError> {
        let mut streams = Vec::with_capacity(viewers.len());
        let mut report = ClusterReport::default();
        for (i, &title) in viewers.iter().enumerate() {
            let replicas = &cluster.catalog().title(title).replicas;
            let nrep = replicas.len();
            report.replicated.push(nrep >= 2);
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
                state: StreamState::new(i, schedule, cfg.read_ahead.max(1)),
            });
        }
        let members = cluster.members().iter();
        let lanes = members.map(|m| Lane::new(m.mrs().msm())).collect();
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

    fn lane(&mut self, v: usize) -> (&mut Lane, &mut Msm) {
        let msm = self.cluster.member_mut(v).mrs_mut().msm_mut();
        (&mut self.lanes[v], msm)
    }

    /// Service time every member's disk has lost to faults so far.
    fn fault_penalty(&self) -> Nanos {
        let disks = self.cluster.members().iter().map(|m| m.mrs().msm().disk());
        disks.map(|d| d.fault_stats().penalty).sum()
    }

    /// Unfinished streams sitting revoked.
    fn revoked(&self) -> impl Iterator<Item = &CStream> {
        self.streams
            .iter()
            .filter(|s| !s.state.finished() && s.state.is_revoked())
    }

    /// The first live replica of `title` on an up, unquarantined member, excluding `not`.
    fn healthy_replica(&self, title: TitleId, not: Option<usize>) -> Option<usize> {
        self.cluster.catalog().live_replica(title, not, |v| {
            self.cluster.is_up(v) && !self.lanes[v].quarantined
        })
    }

    /// The replica of `title` to play from, excluding `not`: a healthy
    /// one, else — when every healthy copy is quarantined — any live
    /// replica on an up member (serving slow beats not serving at all).
    fn find_replica(&self, title: TitleId, not: Option<usize>) -> Option<usize> {
        let up = |v| self.cluster.is_up(v);
        let any = || self.cluster.catalog().live_replica(title, not, up);
        self.healthy_replica(title, not).or_else(any)
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
        self.report.failovers += 1;
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
            let (lane, msm) = self.lane(v);
            lane.restart_pass(msm);
            let rejoin = match a.action {
                Kill(_) => {
                    self.cluster.kill(v);
                    continue;
                }
                Rejoin(_) => self.cluster.rejoin(v, self.t)?,
                RejoinWiped(_) => self.cluster.rejoin_wiped(v),
            };
            self.report.rejoins.push(rejoin);
            let t = self.t;
            let (lane, msm) = self.lane(v);
            lane.skip_busy(msm);
            // Back at the frontier: nothing lands on the member before it.
            lane.clock = lane.clock.max(t);
        }
        Ok(())
    }

    /// Ladder re-admission: the fault window stayed clear long enough
    /// AND the stream has somewhere live to play from, at its lane's
    /// clock but no earlier than its revocation.
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
            let (round, now) = (self.round, self.lanes[self.streams[idx].vol].clock);
            self.streams[idx].state.readmit(round, now, &self.obs);
        }
        Ok(())
    }

    /// With nobody in service, is anything left worth running rounds
    /// for — a scripted action, a restorable replica, a first scrub
    /// pass or a block waiting on its repair, a revoked stream with
    /// somewhere to return to?
    fn drained(&self) -> bool {
        let script_pending = self.applied.iter().any(|done| !done);
        let restore_pending =
            self.cfg.restore_blocks_per_round > 0 && self.cluster.restorable_lost();
        let scrub_pending = self.cfg.scrub_blocks_per_round > 0
            && (0..self.lanes.len()).any(|v| {
                let lane = &self.lanes[v];
                self.cluster.is_up(v) && (lane.scrub_passes == 0 || lane.unrepaired.is_some())
            });
        let can_return = self
            .revoked()
            .any(|s| self.find_replica(s.title, None).is_some());
        !(script_pending || restore_pending || scrub_pending || can_return)
    }

    /// A round with nobody in service, whose clock advances so recovery
    /// accounting sees the outage revoked viewers sit through. Background
    /// work runs from the window's start — restore bounded by its cap
    /// alone, so one copy may outlast the window, then scrub and the
    /// quarantine probes — and the round ends at the later of the
    /// window's end and the last copy, where every lane then stands.
    fn idle_round(&mut self) -> Result<(), FsError> {
        let durations = self.revoked().map(|s| s.state.next_item().duration);
        let min_dur = durations.min().unwrap_or(Nanos::from_millis(100));
        let advanced = Nanos::from_nanos(self.k.saturating_mul(min_dur.as_nanos()));
        let (round, at) = (self.round, self.t);
        self.obs.emit(|| Event::RoundIdle {
            round,
            at,
            advanced,
        });
        self.lanes.iter_mut().for_each(|l| l.start_round(Some(at)));
        let end = at + advanced;
        self.restore_pass(None)?;
        self.scrub_ahead(None);
        self.scrub_pass(end)?;
        self.probe_quarantined(at);
        self.t = self.lanes.iter().map(|l| l.clock).fold(end, Instant::max);
        let t = self.t;
        self.lanes.iter_mut().for_each(|l| l.clock = t);
        self.clean_streak += 1;
        Ok(())
    }

    /// A service round for the `active` streams, up to the barrier: open
    /// it on every lane at the lane's own clock, hash its stamp checks
    /// ahead, and serve the turns in order. It starts on its earliest
    /// serving lane.
    fn serve_round(&mut self, active: &[usize]) -> Result<(), FsError> {
        self.lanes.iter_mut().for_each(|l| l.start_round(None));
        let mut at = self.t;
        for &idx in active {
            let lane = &mut self.lanes[self.streams[idx].vol];
            lane.serving = true;
            at = at.min(lane.clock);
        }
        let (round, k) = (self.round, self.k);
        self.obs.emit(|| Event::RoundStart {
            round,
            active: active.len(),
            k,
            at,
        });
        self.round_faults = false;
        self.hash_ahead(active);
        for &idx in active {
            self.serve_turn(idx)?;
        }
        Ok(())
    }

    /// Hash ahead the stamp checks the round's turns will make — each
    /// `active` stream's next `k` stored items on its pinned member, if
    /// up and verifying — in one [`stamp_batch`] before the first turn,
    /// and offer each sum to its member's disk, twice in an audited run.
    /// An offer answers one check on the bytes it was hashed from, so no
    /// output can tell.
    fn hash_ahead(&mut self, active: &[usize]) {
        self.stamp_jobs.clear();
        if !self.cluster.reads(false).verify {
            return;
        }
        let members = self.cluster.members();
        let streams = active.iter().map(|&idx| &self.streams[idx]);
        for s in streams.filter(|s| self.cluster.is_up(s.vol)) {
            let msm = members[s.vol].mrs().msm();
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
            let busy = lane.serving || lane.unrepaired.is_some();
            if !self.cluster.is_up(v) || busy || lane.resting || lane.offered {
                continue;
            }
            let cost = lane.scrub_cost.as_nanos().max(1);
            let slack = |t: Instant| t.since(lane.clock).as_nanos() / cost;
            let probes = t_next.map_or(u64::MAX, |t| slack(t).min(budget));
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

    /// Drop the offers a failover, hedge, drop or repair left unused.
    fn drop_unconsumed(&mut self) {
        for (lane, m) in self.lanes.iter_mut().zip(self.cluster.members()) {
            lane.drop_offers(m.mrs().msm());
        }
    }

    /// One stream's turn: up to `k` blocks, each on the clock of the lane
    /// the stream is pinned to by then (a failover or a won hedge moves
    /// the pin mid-turn), where a display epoch opens and the turn ends —
    /// after a read-around, *not* the completion just recorded. A first
    /// turn is anchored where its lane opened the round. A turn is one
    /// request: every stored block after the first is chained onto the
    /// disk of the lane the turn began on while the pin stays there.
    fn serve_turn(&mut self, idx: usize) -> Result<(), FsError> {
        let (round, s) = (self.round, &mut self.streams[idx]);
        let (home, lane) = (s.vol, &self.lanes[s.vol]);
        s.state.begin_turn(round, lane.opened, lane.clock);
        let mut chain = false;
        for _ in 0..self.k {
            let s = &self.streams[idx];
            if !s.state.in_service() {
                break;
            }
            let fetched = if s.state.next_item().silence {
                Fetched::Served(self.lanes[s.vol].clock.max(s.state.last_completion()))
            } else {
                let fetched = self.fetch(idx, chain)?;
                chain = self.streams[idx].vol == home;
                fetched
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
        let lane = &mut self.lanes[s.vol];
        lane.serving = true;
        s.state.end_turn(lane.clock, &self.obs);
        Ok(())
    }

    /// Fetch stream `idx`'s next (stored) block, crossing replicas as the
    /// fetch demands: a media error downs the volume and fails the stream
    /// over, re-fetching in the same round so the glitch stays bounded by
    /// read-ahead, and a corrupt payload is read around. Only the read on
    /// the pin the fetch began with may be `chain`ed.
    fn fetch(&mut self, idx: usize, chain: bool) -> Result<Fetched, FsError> {
        let floor = self.streams[idx].state.last_completion();
        let mut fail_at = self.lanes[self.streams[idx].vol].clock.max(floor);
        for attempt in 0..=self.lanes.len() {
            let s = &self.streams[idx];
            let vol = s.vol;
            if self.cluster.is_up(vol) {
                let (item, deadline) = (s.state.next_item(), s.state.next_deadline());
                let issue = self.lanes[vol].clock.max(fail_at);
                let scrub = self.cfg.scrub_blocks_per_round > 0;
                let how = self.cluster.reads(chain && attempt == 0);
                let (lane, msm) = self.lane(vol);
                let got = lane.fetch(msm, item, issue, deadline, how, scrub)?;
                let (reason, at, retries) = match got {
                    BlockFetch::Silence => {
                        return Err(FsError::InvalidScenario {
                            reason: "non-silence schedule item resolves to a silence hole",
                        })
                    }
                    BlockFetch::Data { op, retries, .. } => {
                        if retries > 0 {
                            self.round_faults = true;
                            self.streams[idx].state.add_retries(retries);
                        }
                        let done = self.served(idx, issue, op.completed)?;
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
                match reason {
                    // Volume-failure detection: the read path, no oracle.
                    FetchFailure::Media => self.cluster.mark_down(vol),
                    // The deadline is gone on every volume: drop it.
                    FetchFailure::Abandoned => break,
                    FetchFailure::RetriesExhausted => {}
                    // A corrupt payload is a replica problem, not a
                    // member problem: only when no verifiable copy
                    // exists does the stream switch replicas below.
                    FetchFailure::Corrupt => {
                        self.lanes[vol].suspect();
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
    /// `issue`, at `done`: race a hedge if it ran slow, audit what the
    /// viewer got. Returns when the block was resident.
    fn served(&mut self, idx: usize, issue: Instant, done: Instant) -> Result<Instant, FsError> {
        let mut done = done;
        let s = &self.streams[idx];
        if self.cfg.hedge && done - issue > s.state.next_item().duration {
            // A slow primary counts toward quarantine whether or not a
            // healthy replica is there to race.
            self.lanes[s.vol].ran_slow();
            if let Some(r) = self.healthy_replica(s.title, Some(s.replica)) {
                done = self.hedge(idx, r, issue, done)?;
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

    /// Fail-slow defense: stream `idx`'s fetch, issued at `issue` and done
    /// at `primary_done`, ran slower than its block plays, which continuity
    /// cannot sustain — race replica `r`, issued on its lane once the
    /// threshold passed. The earlier completion wins and is returned; a
    /// won hedge keeps the stream on the faster copy.
    fn hedge(
        &mut self,
        idx: usize,
        r: usize,
        issue: Instant,
        primary_done: Instant,
    ) -> Result<Instant, FsError> {
        let s = &self.streams[idx];
        let (threshold, deadline) = (s.state.next_item().duration, s.state.next_deadline());
        let rep = &self.cluster.catalog().title(s.title).replicas[r];
        let (vol, hv, item) = (s.vol, rep.volume, rep.schedule.items[s.state.next_index()]);
        let h_issue = self.lanes[hv].clock.max(issue + threshold);
        let scrub = self.cfg.scrub_blocks_per_round > 0;
        let how = self.cluster.reads(false);
        let (lane, msm) = self.lane(hv);
        let got = msm.fetch_block(item.strand, item.block, h_issue, threshold, deadline, how)?;
        let mut won = None;
        match got {
            BlockFetch::Data { op, .. } => {
                lane.credit(how, item.strand, item.block, scrub);
                lane.clock = op.completed;
                if op.completed < primary_done {
                    won = Some(op.completed);
                    lane.stats.fetched += 1;
                }
            }
            BlockFetch::Failed {
                reason: FetchFailure::Corrupt,
                ..
            } => lane.suspect(),
            _ => {}
        }
        self.report.hedges += 1;
        self.report.hedge_wins += u64::from(won.is_some());
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
        Ok(won.unwrap_or(primary_done))
    }

    /// Where a corrupt block of `title`'s replica `rep` can be repaired
    /// from: every other live copy on an up member, healthy members
    /// before quarantined ones, as `(volume, replica)`.
    fn repair_sources(&self, title: TitleId, rep: usize) -> Vec<(usize, usize)> {
        let replicas = &self.cluster.catalog().title(title).replicas;
        let up = |r: usize| self.cluster.is_up(replicas[r].volume);
        let mut sources: Vec<(usize, usize)> = (0..replicas.len())
            .filter(|&r| r != rep && replicas[r].state == ReplicaState::Live && up(r))
            .map(|r| (replicas[r].volume, r))
            .collect();
        sources.sort_by_key(|&(sv, _)| self.lanes[sv].quarantined);
        sources
    }

    /// Read a repair payload from volume `sv`, issued no earlier than
    /// `not_before` on `sv`'s clock, refusing a copy that fails (or
    /// cannot pass) verification itself: repair must never serve or
    /// launder corruption. Returns the payload and when it arrived.
    fn read_clean_copy(
        &mut self,
        sv: usize,
        strand: StrandId,
        block: u64,
        not_before: Instant,
    ) -> Option<(Vec<u8>, Instant)> {
        let how = self.cluster.reads(false);
        let (lane, msm) = self.lane(sv);
        match msm.check_block_sum(strand, block) {
            Ok(Some(true)) => {}
            Ok(Some(false)) => {
                lane.suspect();
                return None;
            }
            _ => return None,
        }
        let issue = lane.clock.max(not_before);
        let Ok((Some(payload), Some(op))) = msm.read_block(strand, block, issue, how) else {
            return None;
        };
        lane.clock = op.completed;
        Some((payload, op.completed))
    }

    /// Overwrite a corrupt block on volume `v` in place, on `v`'s clock.
    /// False when the payload does not hash to the block's stamp — the
    /// copies diverged.
    fn rewrite(&mut self, v: usize, strand: StrandId, block: u64, payload: &[u8]) -> bool {
        let (lane, msm) = self.lane(v);
        match msm.rewrite_block(strand, block, lane.clock, payload) {
            Ok(op) => {
                lane.clock = op.completed;
                true
            }
            Err(_) => false,
        }
    }

    /// A viewer read hit a corrupt payload at `not_before`: serve that one
    /// block from another live replica, read on the source's lane no
    /// earlier (completions stay monotonic), and rewrite the corrupt extent
    /// in place on the pinned lane, which is not charged the remote read.
    /// The stream keeps its pin — one corrupt block costs one remote read
    /// instead of a permanent switch onto whatever replica remains, which
    /// may sit on a quarantined fail-slow member. Returns the completion,
    /// or `None` when no other replica holds a verifiable copy.
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

    /// Scrub found a corrupt block on volume `v`: read the same block
    /// from a clean live replica on its lane and rewrite it in place on
    /// `v`'s — viewers stay pinned; a serving lane is no source. Only when
    /// no source payload hashes to the stamp (a diverged or doubly-corrupt
    /// copy) is the whole replica invalidated, its viewers walked off,
    /// for re-replication to rebuild as after a wiped rejoin. True when
    /// `v`'s pass stops for the round: it was, or every clean copy sits
    /// on a serving lane and the block waits on `v`. With no live copy to
    /// repair from, the block stays detected, not repaired.
    fn scrub_repair(&mut self, v: usize, strand: StrandId, block: u64) -> Result<bool, FsError> {
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
            return Ok(false);
        };
        let sources = self.repair_sources(title, rep);
        if sources.is_empty() {
            return Ok(false);
        }
        let mut wait = false;
        for (sv, r) in sources {
            if self.lanes[sv].serving {
                wait = true;
                continue;
            }
            let src = self.cluster.catalog().title(title).replicas[r].strands[slot].strand;
            let Some((payload, _)) = self.read_clean_copy(sv, src, block, Instant::EPOCH) else {
                continue;
            };
            // A diverged source: try the next one, or fall through to
            // the wholesale rebuild.
            if self.rewrite(v, strand, block, &payload) {
                self.report.scrub_repaired += 1;
                return Ok(false);
            }
        }
        if wait {
            self.lanes[v].unrepaired = Some((strand, block));
            return Ok(true);
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
        self.report.scrub_invalidated += 1;
        Ok(true)
    }

    /// One budgeted scrub pass over every up volume no viewer served,
    /// each lane's probes charged strictly against its slack before
    /// `t_next` ([`Lane::scrub`]), each corrupt block they find repaired
    /// here — a block left waiting first, unless a read repaired it since.
    fn scrub_pass(&mut self, t_next: Instant) -> Result<(), FsError> {
        if self.cfg.scrub_blocks_per_round == 0 {
            return Ok(());
        }
        for v in 0..self.lanes.len() {
            if !self.cluster.is_up(v) || self.lanes[v].serving {
                continue;
            }
            let msm = self.cluster.members()[v].mrs().msm();
            let corrupt = |&(strand, block): &_| {
                matches!(msm.check_block_sum(strand, block), Ok(Some(false)))
            };
            let mut waiting = self.lanes[v].unrepaired.take().filter(corrupt);
            let mut budget = self.cfg.scrub_blocks_per_round;
            while let Some((strand, block)) = waiting.take().or_else(|| {
                let msm = self.cluster.members()[v].mrs().msm();
                let (report, obs) = (&mut self.report, &self.obs);
                self.lanes[v].scrub(msm, v, &mut budget, t_next, report, obs)
            }) {
                // The block waits, or an invalidated replica's strands
                // just vanished from under the cursor; resume next round.
                if self.scrub_repair(v, strand, block)? {
                    break;
                }
            }
        }
        Ok(())
    }

    /// One background re-replication step, each copy fitting its two
    /// lanes' slack before `round_end` (`None` in an idle round): every
    /// lane's clock goes to [`Cluster::re_replicate`] and comes back
    /// advanced by the copies it served; a serving lane goes in at
    /// `round_end`, lending nothing, and keeps its own.
    fn restore_pass(&mut self, round_end: Option<Instant>) -> Result<(), FsError> {
        let cap = self.cfg.restore_blocks_per_round;
        if cap == 0 {
            return Ok(());
        }
        let lend = |l: &Lane| round_end.filter(|_| l.serving).unwrap_or(l.clock);
        let mut clocks: Vec<Instant> = self.lanes.iter().map(lend).collect();
        let p = self.cluster.re_replicate(&mut clocks, round_end, cap)?;
        for (lane, clock) in self.lanes.iter_mut().zip(clocks) {
            if !lane.serving {
                lane.clock = clock;
            }
        }
        self.report.restored_blocks += p.copied_blocks;
        self.report.restored_replicas += p.completed_on.len() as u64;
        for &v in &p.completed_on {
            self.lanes[v].suspect();
        }
        Ok(())
    }

    /// Fail-slow quarantine: a member whose primary fetches kept running
    /// slow sits out — no placement, no serving where an alternative
    /// exists — until probes come back on time.
    fn quarantine_slow_members(&mut self) -> Result<(), FsError> {
        let after = self.cfg.quarantine_after_rounds;
        if after == 0 {
            return Ok(());
        }
        for v in 0..self.lanes.len() {
            let Some(rounds) = self.lanes[v].quarantine(after, self.cluster.is_up(v)) else {
                continue;
            };
            self.report.quarantines += 1;
            self.obs.emit(|| Event::Quarantine {
                volume: v,
                entered: true,
                rounds,
                at: self.t,
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

    /// Probe quarantined members at `now` ([`Lane::probe`]). A probe
    /// that surfaces a media error converts the quarantine into a
    /// detected failure (`Down`).
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
            let how = self.cluster.reads(false);
            let scrub = self.cfg.scrub_blocks_per_round > 0;
            let msm = self.cluster.member_mut(v).mrs_mut().msm_mut();
            let (report, obs) = (&mut self.report, &self.obs);
            if !self.lanes[v].probe(msm, v, target, now, how, scrub, report, obs) {
                self.cluster.mark_down(v);
            }
        }
    }

    /// The round barrier. The round ends at the frontier, the latest lane
    /// clock, and nothing moves it. A lane no viewer's turn was pinned to
    /// spends its slack before it on restore, then on the scrubber, and
    /// waits there. Then slow members are quarantined or probed and each
    /// disk's busy time is booked.
    fn barrier(&mut self) -> Result<(), FsError> {
        self.drop_unconsumed();
        let t_next = self.lanes.iter().map(|l| l.clock).max().unwrap_or(self.t);
        let penalty = cfg!(debug_assertions).then(|| self.fault_penalty());
        self.restore_pass(Some(t_next))?;
        // Copy charges are nominal: only a fault's stretch outruns one.
        debug_assert!(
            self.lanes.iter().all(|l| l.clock <= t_next) || Some(self.fault_penalty()) > penalty,
            "a restore copy overran its lane's slack on nominal timing"
        );
        self.scrub_ahead(Some(t_next));
        self.scrub_pass(t_next)?;
        self.drop_unconsumed();
        let round = self.round;
        self.obs.emit(|| Event::RoundEnd { round, at: t_next });
        self.t = t_next;
        for lane in self.lanes.iter_mut().filter(|l| !l.serving) {
            lane.clock = t_next;
        }
        self.quarantine_slow_members()?;
        self.probe_quarantined(t_next);
        for (v, lane) in self.lanes.iter_mut().enumerate() {
            self.report.sim.disk_busy += lane.book(self.cluster.members()[v].mrs().msm());
            lane.stats.rounds_down += u64::from(!self.cluster.is_up(v));
        }
        let clean = !self.round_faults;
        self.clean_streak = if clean { self.clean_streak + 1 } else { 0 };
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
            if self.round >= MAX_ROUNDS {
                return Ok(());
            }
        }
    }

    fn finish(mut self) -> ClusterReport {
        let streams = self.streams.iter();
        self.report.sim.streams = streams.map(|s| s.state.outcome(&self.obs)).collect();
        self.report.sim.rounds = self.round;
        self.report.volumes = self.lanes.iter().map(|l| l.stats).collect();
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::tests::cluster;
    use crate::service::ClusterAction;
    use strandfs_disk::FaultPlan;
    use strandfs_sim::scenario::ClipSpec;

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
    fn a_stream_behind_the_frontier_waits_from_its_own_lane() {
        // One title per volume, one viewer each. Volume 0's lane trails
        // the frontier volume 1's sets: the viewer first served there,
        // and again once re-admitted there, waits from its own lane's
        // clock — the frontier would have it displaying before it began.
        let mut c = cluster(2, 1);
        let (sink, ring) = ObsSink::ring(1 << 12);
        c.set_obs(&sink);
        let a = c
            .ingest("a", &ClipSpec::video_seconds(2.0).with_seed(1), 0.0)
            .unwrap();
        let b = c
            .ingest("b", &ClipSpec::video_seconds(2.0).with_seed(2), 0.0)
            .unwrap();
        let cfg = ClusterPlayback::with_k(3);
        let mut run = Run::new(&mut c, &[a, b], &[], &cfg).expect("run");
        assert_eq!((run.streams[0].vol, run.streams[1].vol), (0, 1));
        let ms = |n| Instant::EPOCH + Nanos::from_millis(n);
        (run.lanes[0].clock, run.lanes[1].clock, run.t) = (ms(200), ms(900), ms(900));
        let displays = |ring: &strandfs_obs::RingRecorder| -> Vec<(Instant, Nanos)> {
            let starts = ring.events().filter_map(|e| match *e {
                Event::DisplayStart {
                    stream: 0,
                    at,
                    latency,
                } => Some((at, latency)),
                _ => None,
            });
            starts.collect()
        };
        run.serve_round(&[0]).unwrap();
        let (at, latency) = displays(&ring.borrow())[0];
        assert!(at < run.t, "the viewer displays before the frontier");
        assert_eq!(latency, at - ms(200));
        // Revoke the viewer where its lane stands and re-admit it there.
        let revoked = run.lanes[0].clock;
        let quiet = ObsSink::noop();
        assert!(run.streams[0]
            .state
            .record_drop(revoked, revoked, 1, &quiet));
        run.clean_streak = cfg.readmit_clean_rounds;
        run.lanes[0].clock = revoked + Nanos::from_millis(50);
        run.readmit().unwrap();
        run.serve_round(&[0]).unwrap();
        let (at, latency) = displays(&ring.borrow())[1];
        assert!(at < run.t, "the viewer displays before the frontier");
        assert_eq!(latency, at - (revoked + Nanos::from_millis(50)));
        let s = &run.finish().sim.streams[0];
        assert_eq!(s.recovery_time, Nanos::from_millis(50));
    }

    #[test]
    fn a_stream_repinned_to_a_trailing_lane_resumes_no_earlier_than_its_revocation() {
        // The viewer is revoked on volume 0 at 900 ms; volume 0 is then
        // found down, so it is re-admitted onto the copy on volume 1, whose
        // clock trails at 200 ms. It resumes at the revocation, not on
        // the trailing clock: no recovery is counted before the freeze,
        // and its new display epoch opens after the re-admission.
        let mut c = cluster(2, 2);
        let (sink, ring) = ObsSink::ring(1 << 12);
        c.set_obs(&sink);
        let a = c
            .ingest("a", &ClipSpec::video_seconds(2.0).with_seed(1), 0.0)
            .unwrap();
        let cfg = ClusterPlayback::with_k(3);
        let mut run = Run::new(&mut c, &[a], &[], &cfg).expect("run");
        assert_eq!(run.streams[0].vol, 0);
        let ms = |n| Instant::EPOCH + Nanos::from_millis(n);
        (run.lanes[0].clock, run.lanes[1].clock, run.t) = (ms(900), ms(200), ms(900));
        let obs = run.obs.clone();
        assert!(run.streams[0].state.record_drop(ms(900), ms(900), 1, &obs));
        run.cluster.mark_down(0);
        run.clean_streak = cfg.readmit_clean_rounds;
        run.readmit().unwrap();
        assert_eq!(run.streams[0].vol, 1, "re-pinned to the trailing lane");
        run.serve_round(&[0]).unwrap();
        let ring = ring.borrow();
        let degrade = |want| {
            ring.events().find_map(|e| match *e {
                Event::Degrade { action, at, .. } if action == want => Some(at),
                _ => None,
            })
        };
        let revoked = degrade(strandfs_obs::DegradeAction::Revoke).expect("revoked");
        let readmitted = degrade(strandfs_obs::DegradeAction::Readmit).expect("re-admitted");
        assert_eq!((revoked, readmitted), (ms(900), ms(900)));
        let (at, latency) = ring
            .events()
            .filter_map(|e| match *e {
                Event::DisplayStart { at, latency, .. } => Some((at, latency)),
                _ => None,
            })
            .last()
            .expect("the resumed epoch displays");
        assert!(at >= readmitted);
        assert_eq!(latency, at - readmitted);
        drop(ring);
        let s = &run.finish().sim.streams[0];
        assert_eq!(s.recovery_time, Nanos::ZERO);
    }

    #[test]
    fn a_block_left_waiting_by_the_last_service_round_is_repaired() {
        // Both lanes have finished a pass, so only the waiting block can
        // hold the run open. The viewer's turn pins volume 0; volume 1,
        // free, scrubs its copy at the barrier and finds block 0 flipped,
        // with its one clean source on the serving lane. Once nobody is
        // in service the run is not drained: an idle round repairs it.
        let mut c = cluster(2, 2);
        let id = c
            .ingest("hot", &ClipSpec::video_seconds(2.0).with_seed(21), 1.0)
            .unwrap();
        c.set_verify_reads(true);
        crate::service::tests::corrupt_first_blocks(&mut c, id, 1, 1);
        let cfg = ClusterPlayback::with_k(3).scrub(4);
        let mut run = Run::new(&mut c, &[id], &[], &cfg).expect("run");
        assert_eq!(run.streams[0].vol, 0);
        run.lanes.iter_mut().for_each(|l| l.scrub_passes = 1);
        run.serve_round(&[0]).unwrap();
        run.barrier().unwrap();
        assert!(run.lanes[1].unrepaired.is_some(), "the repair waits");
        assert!(!run.drained(), "a waiting block holds the run open");
        run.idle_round().unwrap();
        assert_eq!(run.lanes[1].unrepaired, None);
        assert_eq!(
            (run.report.scrub_corrupt, run.report.scrub_repaired),
            (1, 1)
        );
        assert!(run.drained());
    }

    #[test]
    fn a_viewer_revoked_through_idle_rounds_resumes_at_the_last_ones_end() {
        // The sole copy's member dies in round 1 and the viewer is
        // revoked; the member rejoins in round 2, but re-admission waits
        // on five clean rounds, all idle. Every lane stands at the last
        // idle round's end: the viewer resumes there, its outage counts
        // the whole last window, and no turn begins inside it.
        let mut c = cluster(2, 1);
        let (sink, ring) = ObsSink::ring(1 << 14);
        c.set_obs(&sink);
        let a = c
            .ingest("a", &ClipSpec::video_seconds(2.0).with_seed(1), 0.0)
            .unwrap();
        let script = [
            ScriptedAction {
                at_round: 1,
                action: ClusterAction::Kill(0),
            },
            ScriptedAction {
                at_round: 2,
                action: ClusterAction::Rejoin(0),
            },
        ];
        let mut cfg = ClusterPlayback::with_k(3);
        cfg.readmit_clean_rounds = 5;
        let report = simulate_cluster(&mut c, &[a], &script, &cfg).expect("sim");
        let ring = ring.borrow();
        let degrade = |want| {
            ring.events().find_map(|e| match *e {
                Event::Degrade { action, at, .. } if action == want => Some(at),
                _ => None,
            })
        };
        let revoked = degrade(strandfs_obs::DegradeAction::Revoke).expect("revoked");
        let readmitted = degrade(strandfs_obs::DegradeAction::Readmit).expect("re-admitted");
        let readmit = |e: &Event| matches!(e, Event::Degrade { action, .. } if *action == strandfs_obs::DegradeAction::Readmit);
        let window_end = ring
            .events()
            .take_while(|e| !readmit(e))
            .filter_map(|e| match *e {
                Event::RoundIdle { at, advanced, .. } => Some(at + advanced),
                _ => None,
            })
            .last()
            .expect("idle rounds ran");
        assert_eq!(readmitted, window_end);
        assert_eq!(report.sim.streams[0].recovery_time, readmitted - revoked);
        let resumed = ring.events().filter_map(|e| match *e {
            Event::StreamService { begin, .. } if begin >= revoked => Some(begin),
            _ => None,
        });
        assert!(resumed.min().is_some_and(|begin| begin >= readmitted));
    }

    /// The disk ops `run` emits serving one round for `active`, as
    /// `(lba, sectors, op)`.
    fn round_ops(
        run: &mut Run,
        ring: &std::rc::Rc<std::cell::RefCell<strandfs_obs::RingRecorder>>,
        active: &[usize],
    ) -> Vec<(u64, u64, strandfs_disk::DiskOp)> {
        let recorded = ring.borrow().events().count();
        run.serve_round(active).unwrap();
        let ring = ring.borrow();
        let ops = ring.events().skip(recorded).filter_map(|e| match *e {
            Event::DiskOp {
                lba,
                sectors,
                issued,
                seek,
                rotation,
                transfer,
                ..
            } => Some((lba, sectors, issued, seek, rotation, transfer)),
            _ => None,
        });
        ops.map(|(lba, sectors, issued, seek, rotation, transfer)| {
            let op = strandfs_disk::DiskOp {
                extent: strandfs_disk::Extent::new(lba, sectors),
                kind: strandfs_disk::AccessKind::Read,
                issued,
                seek,
                rotation,
                transfer,
                completed: issued + seek + rotation + transfer,
            };
            (lba, sectors, op)
        })
        .collect()
    }

    #[test]
    fn a_turn_of_adjacent_blocks_completes_as_one_access() {
        let mut c = cluster(1, 1);
        let (sink, ring) = ObsSink::ring(1 << 12);
        c.set_obs(&sink);
        let a = c
            .ingest("a", &ClipSpec::video_seconds(2.0).with_seed(23), 0.0)
            .unwrap();
        let cfg = ClusterPlayback::with_k(3);
        let mut run = Run::new(&mut c, &[a], &[], &cfg).expect("run");
        let ops = round_ops(&mut run, &ring, &[0]);
        assert_eq!(ops.len(), 3, "{ops:?}");
        for w in ops.windows(2) {
            assert_eq!(w[1].0, w[0].0 + w[0].1, "the blocks lie end to end");
            assert_eq!(w[1].2.issued, w[0].2.completed);
        }
        let first = ops[0].2;
        let union = strandfs_disk::Extent::new(ops[0].0, ops.iter().map(|o| o.1).sum());
        let disk = run.cluster.members()[0].mrs().msm().disk();
        let whole = first.issued + first.positioning() + disk.transfer_time(union);
        assert_eq!(ops[2].2.completed, whole);
        // Without the chain, the blocks after a track boundary would each
        // have waited for their sector to come round.
        assert!(ops[1..].iter().all(|o| o.2.positioning() == Nanos::ZERO));
        assert_eq!(run.lanes[0].clock, whole);
    }

    #[test]
    fn a_block_whose_pin_moved_mid_turn_is_not_chained_on_its_new_lane() {
        // Title a sits on volumes 0 and 1; the viewer is pinned to 0.
        // Run 1: volume 0 runs 10x slow, so block 1 is hedged onto
        // volume 1, which wins. Run 2: block 2 of volume 0's copy is bad
        // media, so the stream fails over to volume 1 for it. Either way
        // blocks 2 and 3 of the turn are read on volume 1, each issued the
        // instant the read before it ended, at the next sector: a chain
        // would have charged them no positioning.
        for moved_by_hedge in [true, false] {
            let mut c = cluster(2, 2);
            let (sink, ring) = ObsSink::ring(1 << 12);
            c.set_obs(&sink);
            let a = c
                .ingest("a", &ClipSpec::video_seconds(2.0).with_seed(23), 1.0)
                .unwrap();
            let plan = if moved_by_hedge {
                FaultPlan::clean().with_fail_slow(10.0)
            } else {
                let loc = c.catalog().title(a).replicas[0].strands[0];
                let msm = c.members()[0].mrs().msm();
                let e = msm.strand(loc.strand).unwrap().block(1).unwrap().unwrap();
                FaultPlan::clean().with_bad_extent(e)
            };
            assert!(c.arm_member_faults(0, plan));
            let cfg = ClusterPlayback::with_k(3).hedged();
            let mut run = Run::new(&mut c, &[a], &[], &cfg).expect("run");
            assert_eq!(run.streams[0].vol, 0);
            let ops = round_ops(&mut run, &ring, &[0]);
            assert_eq!(run.streams[0].vol, 1, "the pin moved");
            assert_eq!(ops.len(), 4, "{ops:?}");
            // Volume 1 reads block 1 (the hedge) or block 2 (after the
            // failed read on volume 0), then the rest of the turn.
            let moved = &ops[if moved_by_hedge { 1 } else { 2 }..];
            for w in moved.windows(2) {
                assert_eq!(w[1].0, w[0].0 + w[0].1, "the blocks lie end to end");
                assert_eq!(w[1].2.issued, w[0].2.completed);
            }
            let (hedges, failovers) = (run.report.hedge_wins, run.report.failovers);
            assert_eq!((hedges, failovers), (u64::from(moved_by_hedge), 1));
            for (_, _, op) in &moved[1..] {
                assert!(op.positioning() > Nanos::ZERO, "chained: {op:?}");
            }
        }
    }

    #[test]
    fn cross_lane_charges_bill_the_lane_that_did_the_work() {
        // Title a sits on volumes 0 and 1, title b on 2 and 3. Volume 0
        // runs 10x slow, so viewer 0's one block is hedged onto volume
        // 1, which wins; viewer 1 is pinned to volume 3, whose copy of
        // b's first block is flipped, so its verified read fails and the
        // block is read around from volume 2 and rewritten on 3.
        let mut c = cluster(4, 2);
        let (sink, ring) = ObsSink::ring(1 << 12);
        c.set_obs(&sink);
        let a = c
            .ingest("a", &ClipSpec::video_seconds(2.0).with_seed(23), 1.0)
            .unwrap();
        let b = c
            .ingest("b", &ClipSpec::video_seconds(2.0).with_seed(21), 1.0)
            .unwrap();
        c.set_verify_reads(true);
        assert!(c.arm_member_faults(0, FaultPlan::clean().with_fail_slow(10.0)));
        let loc = c.catalog().title(b).replicas[1].strands[0];
        let msm = c.members()[3].mrs().msm();
        let e = msm.strand(loc.strand).unwrap().block(0).unwrap().unwrap();
        assert!(c.arm_member_faults(3, FaultPlan::clean().with_silent_corruption(e)));
        let cfg = ClusterPlayback::with_k(1).hedged();
        let mut run = Run::new(&mut c, &[a, b], &[], &cfg).expect("run");
        assert_eq!((run.streams[0].vol, run.streams[1].vol), (0, 3));
        let t = run.t;
        let busy_time = |run: &Run, v: usize| {
            run.cluster.members()[v]
                .mrs()
                .msm()
                .disk()
                .stats()
                .busy_time()
        };
        let busy: Vec<_> = (0..4).map(|v| busy_time(&run, v)).collect();
        let recorded = ring.borrow().events().count();
        run.serve_round(&[0, 1]).unwrap();
        let (mut ops, mut hedge) = (Vec::new(), None);
        for e in ring.borrow().events().skip(recorded) {
            match *e {
                Event::DiskOp {
                    dir,
                    issued,
                    seek,
                    rotation,
                    transfer,
                    ..
                } => ops.push((dir, issued, issued + seek + rotation + transfer)),
                Event::Hedge { won, at, .. } => hedge = Some((won, at)),
                _ => {}
            }
        }
        use strandfs_obs::AccessDir::{Read, Write};
        let dirs: Vec<_> = ops.iter().map(|op| op.0).collect();
        // Primary on 0, hedge on 1; corrupt read on 3, clean read on 2,
        // rewrite on 3.
        assert_eq!(dirs, [Read, Read, Read, Read, Write], "{ops:?}");
        let clock = |v: usize| run.lanes[v].clock;
        let moved = |v: usize| busy_time(&run, v) - busy[v];
        // The hedge's target lane ends at the hedge's completion.
        let (won, hedge_done) = hedge.expect("a hedge fired");
        assert!(won && run.streams[0].vol == 1);
        assert_eq!(clock(1), hedge_done);
        assert_eq!(clock(1), ops[1].2);
        assert_eq!(moved(1), ops[1].2 - ops[1].1);
        // The read-around's source lane moves by exactly its clean read,
        // issued when the corrupt local read failed; the viewer was
        // served at its completion.
        let (failed, clean, rewrite) = (ops[2], ops[3], ops[4]);
        assert_eq!((failed.1, clean.1), (t, failed.2));
        assert_eq!(clock(2), clean.2);
        assert_eq!(moved(2), clean.2 - clean.1);
        assert_eq!(run.streams[1].state.last_completion(), clean.2);
        // The pinned lane pays its failed read and its in-place rewrite,
        // issued when the read failed: not the remote read.
        assert_eq!(rewrite.1, failed.2);
        assert_eq!(clock(3), rewrite.2);
        assert_eq!(clock(3) - t, moved(3));
        assert!(clock(3) < clean.2 + (rewrite.2 - rewrite.1));
        assert_eq!((run.report.hedge_wins, run.report.read_repairs), (1, 1));
    }
}

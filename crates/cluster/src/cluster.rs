//! The cluster itself: N member volumes, ingest with replica
//! placement, volume kill/rejoin, and background re-replication.

use crate::catalog::{Catalog, ReconcileReport, Replica, ReplicaState, StrandLoc, TitleId};
use crate::placement::{hypothetical_slack, standard_spec, Placement, VolumeLoad};
use std::sync::Arc;
use strandfs_core::fsck;
use strandfs_core::journal::JournalConfig;
use strandfs_core::mrs::{Mrs, PlaySchedule};
use strandfs_core::msm::{Fetch, Msm, MsmConfig, RecoveryReport};
use strandfs_core::rope::edit::MediaSel;
use strandfs_core::{FsError, StrandId};
use strandfs_disk::{DiskGeometry, Extent, FaultPlan, GapBounds, SeekModel, SimDisk};
use strandfs_obs::ObsSink;
use strandfs_sim::scenario::{record_clip, ClipSpec};
use strandfs_units::prng::mix_seed;
use strandfs_units::{Instant, Nanos};

/// Whether a member is believed servable. `Down` is a *belief*, not a
/// command: [`Cluster::kill`] only arms the fault plan, and the member
/// stays `Up` until a read actually fails and the serving loop calls
/// [`Cluster::mark_down`] — failure is detected at the read path, as
/// on real hardware.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MemberState {
    /// Serving.
    Up,
    /// A read surfaced a media error; no I/O is sent until rejoin.
    Down,
}

/// One member volume: a full rope server over its own disk and fault
/// plan, with its own journal and admission controller.
pub struct Member {
    mrs: Mrs,
    state: MemberState,
}

impl Member {
    /// The member's rope server.
    pub fn mrs(&self) -> &Mrs {
        &self.mrs
    }

    /// Mutable access to the member's rope server.
    pub fn mrs_mut(&mut self) -> &mut Mrs {
        &mut self.mrs
    }

    /// The member's serving state.
    pub fn state(&self) -> MemberState {
        self.state
    }
}

/// Cluster construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// Member volume count.
    pub volumes: usize,
    /// Replica placement policy.
    pub placement: Placement,
    /// Replicas per title before any popularity boost.
    pub base_replicas: usize,
    /// Seed for the members' fault PRNGs.
    pub seed: u64,
}

impl ClusterConfig {
    /// `volumes` members, round-robin single-replica placement.
    pub fn round_robin(volumes: usize, seed: u64) -> ClusterConfig {
        ClusterConfig {
            volumes,
            placement: Placement::RoundRobin,
            base_replicas: 1,
            seed,
        }
    }
}

/// What a rejoin did: journal recovery, fsck, and catalog
/// reconciliation.
#[derive(Clone, Copy, Debug)]
pub struct RejoinReport {
    /// The member that rejoined.
    pub volume: usize,
    /// True for a wiped rejoin (fresh media, all replicas lost).
    pub wiped: bool,
    /// Journal recovery statistics (`None` for a wiped rejoin).
    pub recovery: Option<RecoveryReport>,
    /// Findings fsck's repair pass reported on the recovered image.
    pub fsck_findings: usize,
    /// What catalog reconciliation concluded.
    pub reconcile: ReconcileReport,
}

/// Progress of one background re-replication step.
#[derive(Clone, Debug, Default)]
pub struct RestoreProgress {
    /// Media blocks copied this step (silence holes included).
    pub copied_blocks: u64,
    /// The destination member of each replica brought back to `Live`
    /// this step.
    pub completed_on: Vec<usize>,
}

/// The one slack rule every background step obeys: a step charged
/// `charge` may start on a lane whose clock reads `clock` only while the
/// lane's slack, `round_end − clock`, covers it; a lane at the round end
/// has none, not even for a step charged nothing. A `None` round end is
/// an idle round's: no admitted stream waits on the lane.
pub(crate) fn fits(clock: Instant, charge: Nanos, round_end: Option<Instant>) -> bool {
    round_end.is_none_or(|end| clock < end && charge <= end - clock)
}

/// In-flight state of one replica restoration, kept across steps so a
/// long title copies a few blocks per service round. The cluster keeps
/// at most one per destination member.
#[derive(Default)]
struct RestoreJob {
    title: TitleId,
    /// Index of the lost replica being rebuilt.
    replica: usize,
    /// The live replica blocks are read from.
    src_replica: usize,
    /// Source strands already copied, as `(src, dst)` pairs.
    map: Vec<(StrandId, StrandId)>,
    /// Index into the source replica's strand list.
    cur: usize,
    /// Next block to copy within the current strand.
    block: u64,
    /// The destination strand currently recording.
    dst_open: Option<StrandId>,
}

/// A multi-volume cluster: members, master catalog, placement state
/// and the background restore queue.
pub struct Cluster {
    config: ClusterConfig,
    /// Never written: every member's disk is built like it, so all of
    /// them — a wiped member's replacement too — share one timing table.
    disk_model: SimDisk,
    members: Vec<Member>,
    catalog: Catalog,
    /// Round-robin placement rotation.
    cursor: usize,
    /// Replicas placed per member (the load input to placement).
    placed: Vec<usize>,
    /// In-flight restorations, at most one per destination member.
    restore: Vec<RestoreJob>,
    /// The shared sink, re-installed on members rebuilt by rejoin.
    obs: ObsSink,
    /// Whether reads of members verify payload checksums ([`Cluster::reads`]).
    verify_reads: bool,
}

impl Cluster {
    /// The standard per-member MSM configuration: constrained
    /// allocation with generous scattering bounds, journal on (rejoin
    /// runs `Msm::recover`, which requires one). The checkpoint slots
    /// are sized for a few dozen strands per member — short clips, not
    /// hour-long features.
    fn member_config() -> MsmConfig {
        MsmConfig::constrained(
            GapBounds {
                min_sectors: 0,
                max_sectors: 40_000,
            },
            1,
        )
        .with_journal(JournalConfig {
            slots: 256,
            ckpt_sectors: 64,
        })
    }

    fn fresh_member(disk_model: &SimDisk, seed: u64) -> Member {
        let disk = SimDisk::new_like(disk_model).with_fault_seed(seed);
        Member {
            mrs: Mrs::new(Msm::new(disk, Self::member_config())),
            state: MemberState::Up,
        }
    }

    /// Build a cluster of `config.volumes` fresh members.
    pub fn new(config: ClusterConfig) -> Result<Cluster, FsError> {
        if config.volumes == 0 {
            return Err(FsError::InvalidScenario {
                reason: "a cluster needs at least one volume",
            });
        }
        let disk_model = SimDisk::new(DiskGeometry::vintage_1991(), SeekModel::vintage_1991());
        let members = (0..config.volumes)
            .map(|v| Self::fresh_member(&disk_model, mix_seed(config.seed, v as u64)))
            .collect();
        Ok(Cluster {
            disk_model,
            placed: vec![0; config.volumes],
            config,
            members,
            catalog: Catalog::new(),
            cursor: 0,
            restore: Vec::new(),
            obs: ObsSink::noop(),
            verify_reads: false,
        })
    }

    /// The master catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The member volumes.
    pub fn members(&self) -> &[Member] {
        &self.members
    }

    /// One member, mutably (the serving loop's fetch path).
    pub fn member_mut(&mut self, volume: usize) -> &mut Member {
        &mut self.members[volume]
    }

    /// Install `obs` on every member volume (including members rebuilt
    /// by future rejoins). All members share the sink, so one monitor
    /// sees the whole cluster's event stream.
    pub fn set_obs(&mut self, obs: &ObsSink) {
        self.obs = obs.clone();
        for m in &mut self.members {
            m.mrs.set_obs(obs.clone());
        }
    }

    /// The cluster's shared sink (cheap to clone; noop by default).
    pub fn obs(&self) -> ObsSink {
        self.obs.clone()
    }

    /// Turn checksum-verified reads on or off on every member (sticky
    /// across rejoins). Verification re-hashes the fetched payload
    /// against the stamp in the strand index and surfaces a mismatch as
    /// [`FsError::ChecksumMismatch`] — the end-to-end defense against
    /// silent corruption the device itself never reports.
    pub fn set_verify_reads(&mut self, on: bool) {
        self.verify_reads = on;
    }

    /// How the serving layer reads a member: chained if `chain`, verified
    /// if [`Cluster::set_verify_reads`] turned verification on.
    pub(crate) fn reads(&self, chain: bool) -> Fetch {
        Fetch {
            chain,
            verify: self.verify_reads,
        }
    }

    /// True if the member is believed servable.
    pub fn is_up(&self, volume: usize) -> bool {
        self.members[volume].state == MemberState::Up
    }

    /// Record the detection of a member failure (a read surfaced a
    /// media error). Idempotent.
    pub fn mark_down(&mut self, volume: usize) {
        self.members[volume].state = MemberState::Down;
    }

    /// Per-member placement loads under the reference stream spec.
    fn loads(&self) -> Vec<VolumeLoad> {
        let spec = standard_spec();
        self.members
            .iter()
            .enumerate()
            .map(|(v, m)| VolumeLoad {
                volume: v,
                up: m.state == MemberState::Up,
                placed: self.placed[v],
                slack: hypothetical_slack(
                    m.mrs.msm().admission_ref().env(),
                    spec,
                    self.placed[v] + 1,
                )
                .unwrap_or(strandfs_units::Nanos::ZERO),
            })
            .collect()
    }

    /// Record `clip` onto one member and build its catalog replica.
    fn record_replica(
        member: &mut Member,
        volume: usize,
        clip: &ClipSpec,
    ) -> Result<Replica, FsError> {
        let rid = record_clip(&mut member.mrs, clip)?;
        let sel = match (clip.video, clip.audio) {
            (true, false) => MediaSel::Video,
            (false, true) => MediaSel::Audio,
            _ => MediaSel::Both,
        };
        let schedule = member.mrs.schedule(rid, sel)?;
        let mut strands: Vec<StrandLoc> = Vec::new();
        for item in schedule.items.iter().filter(|i| !i.silence) {
            if !strands.iter().any(|l| l.strand == item.strand) {
                strands.push(StrandLoc {
                    strand: item.strand,
                    blocks: member.mrs.msm().strand(item.strand)?.block_count(),
                });
            }
        }
        Ok(Replica {
            volume,
            schedule,
            strands,
            state: ReplicaState::Live,
        })
    }

    /// Ingest a title: pick volumes by policy and popularity, record
    /// the same clip on each (replicas are bit-for-bit the same
    /// content, so their schedules are structurally identical), and
    /// register the replicas in the catalog.
    pub fn ingest(
        &mut self,
        name: &str,
        clip: &ClipSpec,
        popularity: f64,
    ) -> Result<TitleId, FsError> {
        let want = self
            .config
            .placement
            .replica_count(self.config.base_replicas, popularity)
            .max(1);
        let loads = self.loads();
        let volumes = self.config.placement.choose(&mut self.cursor, want, &loads);
        if volumes.is_empty() {
            return Err(FsError::InvalidScenario {
                reason: "no live volume to place a replica on",
            });
        }
        let id = self.catalog.add_title(name, popularity);
        for v in volumes {
            let replica = Self::record_replica(&mut self.members[v], v, clip)?;
            self.placed[v] += 1;
            self.catalog.add_replica(id, replica);
        }
        Ok(id)
    }

    /// Kill a member: arm a whole-device bad-extent plan, so every
    /// future read on it surfaces a media error. The member is *not*
    /// marked down — detection happens at the read path.
    pub fn kill(&mut self, volume: usize) {
        // A member dying mid-restore must not strand the catalog
        // half-reconciled: drop the in-flight job before the device
        // starts failing, unwinding any half-written copies on the
        // surviving member.
        self.void_restore_for(volume);
        let m = &mut self.members[volume];
        let whole = Extent {
            start: 0,
            sectors: m.mrs.msm().disk().geometry().total_sectors(),
        };
        m.mrs
            .msm_mut()
            .arm_faults(FaultPlan::clean().with_bad_extent(whole));
    }

    /// Arm an arbitrary fault plan on one member's device — silent
    /// corruption, fail-slow stretch, latency shaping. Always `true`:
    /// the result stays because the benchmark harness tests it.
    pub fn arm_member_faults(&mut self, volume: usize, plan: FaultPlan) -> bool {
        self.members[volume].mrs.msm_mut().arm_faults(plan);
        true
    }

    /// Rejoin a downed member whose media survived: disarm the fault
    /// plan, remount the image through `Msm::recover` (journal replay),
    /// run fsck's repair pass, and reconcile the catalog against the
    /// recovered strand inventory. The member's rope layer (not its sink)
    /// does not survive the remount — by design, playback needs only the
    /// catalog's schedules.
    pub fn rejoin(&mut self, volume: usize, now: Instant) -> Result<RejoinReport, FsError> {
        // The remount drops a restore's open strands on the member.
        self.void_restore_for(volume);
        let placeholder = Self::fresh_member(&self.disk_model, 0);
        let old = std::mem::replace(&mut self.members[volume], placeholder);
        let mut msm = old.mrs.into_msm();
        let obs = msm.obs();
        // The media is repaired/replaced before remount; recovery must
        // be able to read the journal and every surviving block.
        msm.arm_faults(FaultPlan::clean());
        let (mut msm, recovery) = Msm::recover(msm.into_device(), Self::member_config(), now)?;
        let repair = fsck::repair_msm(&mut msm, recovery.finished_at);
        let mut mrs = Mrs::new(msm);
        mrs.set_obs(obs);
        self.members[volume] = Member {
            mrs,
            state: MemberState::Up,
        };
        let reconcile = self
            .catalog
            .reconcile(volume, self.members[volume].mrs.msm());
        Ok(RejoinReport {
            volume,
            wiped: false,
            recovery: Some(recovery),
            fsck_findings: repair.findings.len(),
            reconcile,
        })
    }

    /// Rejoin a downed member with *fresh* media (the disk was
    /// replaced), keeping its sink: every replica it held is marked lost,
    /// to be restored by background re-replication.
    pub fn rejoin_wiped(&mut self, volume: usize) -> RejoinReport {
        let obs = self.members[volume].mrs.msm().obs();
        self.members[volume] = Self::fresh_member(
            &self.disk_model,
            mix_seed(self.config.seed, 0x5749_5045 ^ volume as u64),
        );
        self.members[volume].mrs.set_obs(obs);
        let lost = self.catalog.mark_volume_lost(volume);
        self.placed[volume] = 0;
        // Any in-flight restore reading from or writing to this volume
        // is void: its source may be gone and its half-written
        // destination strands certainly are.
        self.void_restore_for(volume);
        RejoinReport {
            volume,
            wiped: true,
            recovery: None,
            fsck_findings: 0,
            reconcile: ReconcileReport {
                checked: lost,
                restored: 0,
                lost,
            },
        }
    }

    /// Run fsck (check only) over one member's volume.
    pub fn fsck_member(&mut self, volume: usize, now: Instant) -> fsck::Report {
        fsck::check_msm(self.members[volume].mrs.msm_mut(), now)
    }

    /// Aggregate admission capacity: the sum of every up member's
    /// Eq. 17 `n_max` for the given reference spec. Near-linear in the
    /// member count, since each volume admits independently.
    pub fn n_max(&self, spec: strandfs_core::admission::RequestSpec) -> usize {
        use strandfs_core::admission::Aggregates;
        self.members
            .iter()
            .filter(|m| m.state == MemberState::Up)
            .map(|m| {
                Aggregates::compute(m.mrs.msm().admission_ref().env(), &[spec])
                    .map(|a| a.n_max())
                    .unwrap_or(0)
            })
            .sum()
    }

    /// True if some lost replica could be restored right now (its
    /// volume is up and a live source exists on another up member).
    pub fn restorable_lost(&self) -> bool {
        let mut lost = self.catalog.lost_replicas().into_iter();
        lost.any(|(t, i)| self.restore_job(t, i).is_some())
    }

    /// The `(source, destination)` members of an in-flight job.
    fn job_volumes(&self, job: &RestoreJob) -> (usize, usize) {
        let r = &self.catalog.title(job.title).replicas;
        (r[job.src_replica].volume, r[job.replica].volume)
    }

    /// Drop the in-flight jobs `hit` names. Where it says `Some(true)`
    /// (the destination is still healthy) the job's half-written strands
    /// are deleted, so the member stays fsck-clean and leak-free; the
    /// replica stays `Lost` for a later step to restart.
    fn void_restores(&mut self, hit: impl Fn(&Self, &RestoreJob) -> Option<bool>) {
        for job in std::mem::take(&mut self.restore) {
            match hit(self, &job) {
                None => self.restore.push(job),
                Some(false) => {}
                Some(true) => {
                    let dst = self.job_volumes(&job).1;
                    let msm = self.members[dst].mrs.msm_mut();
                    for &(_, d) in &job.map {
                        let _ = msm.delete_strand(d);
                    }
                    let _ = job.dst_open.map(|open| msm.abort_strand(open));
                }
            }
        }
    }

    /// Void the in-flight restores touching `volume` (killed or wiped).
    /// A dying destination's half-written strands die with the device;
    /// a surviving destination (its *source* died) is unwound.
    fn void_restore_for(&mut self, volume: usize) {
        self.void_restores(|c, job| {
            let (src, dst) = c.job_volumes(job);
            (src == volume || dst == volume).then_some(dst != volume)
        });
    }

    /// Take a live replica out of service because scrub proved it
    /// corrupt: mark it lost, delete its strands from the (still
    /// healthy) member so the corrupt payloads can never be served
    /// again, and leave background re-replication to rebuild it from a
    /// live copy — the same path a wiped rejoin uses. Callers must
    /// first re-pin any streams playing from the replica.
    pub fn invalidate_replica(&mut self, title: TitleId, replica: usize) -> Result<(), FsError> {
        self.void_restores(|_, job| {
            let touched = job.replica == replica || job.src_replica == replica;
            (job.title == title && touched).then_some(job.replica != replica)
        });
        let (volume, strands, was_live) = {
            let r = &self.catalog.title(title).replicas[replica];
            (r.volume, r.strands.clone(), r.state == ReplicaState::Live)
        };
        if !was_live {
            return Ok(());
        }
        self.catalog.replica_mut(title, replica).state = ReplicaState::Lost;
        self.placed[volume] = self.placed[volume].saturating_sub(1);
        if self.is_up(volume) {
            let msm = self.members[volume].mrs.msm_mut();
            for loc in &strands {
                msm.delete_strand(loc.strand)?;
            }
        }
        Ok(())
    }

    /// The job rebuilding `title`'s replica `replica`, if it is lost, its
    /// member is up and a live copy sits on another up member.
    fn restore_job(&self, title: TitleId, replica: usize) -> Option<RestoreJob> {
        let r = &self.catalog.title(title).replicas[replica];
        if r.state != ReplicaState::Lost || !self.is_up(r.volume) {
            return None;
        }
        let up = |v| self.is_up(v) && v != r.volume;
        Some(RestoreJob {
            title,
            replica,
            src_replica: self.catalog.live_replica(title, Some(replica), up)?,
            ..RestoreJob::default()
        })
    }

    /// One step of background re-replication: every up member receives
    /// up to `cap` blocks of its lost replicas from live copies elsewhere,
    /// each read on the source's lane clock and written on the
    /// destination's (`clocks`, advanced in place), while both lanes'
    /// slack before `round_end` covers its charge. A replica whose last
    /// strand finishes gets the source's schedule, strand ids remapped.
    pub fn re_replicate(
        &mut self,
        clocks: &mut [Instant],
        round_end: Option<Instant>,
        cap: u64,
    ) -> Result<RestoreProgress, FsError> {
        let mut progress = RestoreProgress::default();
        let lost = self.catalog.lost_replicas();
        for dst in 0..self.members.len() {
            let mut copied = 0;
            while copied < cap {
                let running = self
                    .restore
                    .iter()
                    .position(|j| self.job_volumes(j).1 == dst);
                let Some(job) = running.map(|i| self.restore.swap_remove(i)).or_else(|| {
                    let mut mine = lost
                        .iter()
                        .filter(|&&(t, i)| self.catalog.title(t).replicas[i].volume == dst);
                    mine.find_map(|&(t, i)| self.restore_job(t, i))
                }) else {
                    break;
                };
                let (job, n) = self.copy_blocks(job, clocks, round_end, cap - copied)?;
                copied += n;
                let Some(job) = job else {
                    progress.completed_on.push(dst);
                    continue;
                };
                self.restore.push(job);
                break;
            }
            progress.copied_blocks += copied;
        }
        Ok(progress)
    }

    /// Copy up to `cap` blocks of `job` while they fit, each disk op
    /// charged worst-case positioning, a revolution and the transfer: the
    /// source's read; the destination's write, journal record and, at a
    /// strand's first block, `Begin` record. Returns the job (`None` once
    /// live) and the blocks copied.
    fn copy_blocks(
        &mut self,
        mut job: RestoreJob,
        clocks: &mut [Instant],
        round_end: Option<Instant>,
        cap: u64,
    ) -> Result<(Option<RestoreJob>, u64), FsError> {
        let (src_v, dst_v) = self.job_volumes(&job);
        let src_strands = self.catalog.title(job.title).replicas[job.src_replica]
            .strands
            .clone();
        let d = &self.disk_model;
        let positioning = (d.max_positioning_time() + d.geometry().rotation_time()).to_nanos();
        let journaled = u64::from(self.members[dst_v].mrs.msm().journal_region().is_some());
        let how = self.reads(false);
        let mut copied = 0;
        let [src, dst] = self
            .members
            .get_disjoint_mut([src_v, dst_v])
            .expect("two members");
        let (src, dst) = (src.mrs.msm_mut(), dst.mrs.msm_mut());
        while job.cur < src_strands.len() && copied < cap {
            let loc = src_strands[job.cur];
            let s = src.strand(loc.strand)?;
            let (meta, unit_count) = (*s.meta(), s.unit_count());
            while job.block < loc.blocks && copied < cap {
                let n = job.block;
                let extent = src.strand(loc.strand)?.block(n)?;
                let op = positioning + extent.map_or(Nanos::ZERO, |e| d.transfer_time(e));
                let read = if extent.is_some() { op } else { Nanos::ZERO };
                let writes = u64::from(extent.is_some()) + journaled * (1 + u64::from(n == 0));
                let (s0, d0) = (clocks[src_v], clocks[dst_v].max(clocks[src_v] + read));
                if !fits(s0, read, round_end) || !fits(d0, op.mul_u64(writes), round_end) {
                    return Ok((Some(job), copied));
                }
                let units = meta.granularity.min(unit_count - n * meta.granularity);
                // The strand opens at the first copy that fits.
                let dst_id = *job.dst_open.get_or_insert_with(|| dst.begin_strand(meta));
                match src.read_block(loc.strand, n, clocks[src_v], how)? {
                    (None, _) => {
                        let at = clocks[dst_v];
                        let (_, jop) = dst.append_silence(dst_id, units, at)?;
                        clocks[dst_v] = jop.map_or(at, |o| o.completed);
                    }
                    (Some(payload), op) => {
                        if let Some(op) = op {
                            clocks[src_v] = op.completed;
                        }
                        let at = clocks[dst_v].max(clocks[src_v]);
                        let (_, wop) = dst.append_block(dst_id, at, &payload, units)?;
                        clocks[dst_v] = wop.completed;
                    }
                }
                job.block += 1;
                copied += 1;
            }
            if job.block == loc.blocks {
                let dst_id = *job.dst_open.get_or_insert_with(|| dst.begin_strand(meta));
                dst.finish_strand(dst_id, clocks[dst_v])?;
                job.map.push((loc.strand, dst_id));
                job.dst_open = None;
                job.block = 0;
                job.cur += 1;
            }
        }
        if job.cur < src_strands.len() {
            return Ok((Some(job), copied));
        }
        // Rebuild the replica: the source schedule with strand ids
        // remapped; `make_mut` copies the items viewers share first.
        let mut schedule: PlaySchedule = self.catalog.title(job.title).replicas[job.src_replica]
            .schedule
            .clone();
        for item in Arc::make_mut(&mut schedule.items)
            .iter_mut()
            .filter(|i| !i.silence)
        {
            let (_, dst) = job
                .map
                .iter()
                .find(|(s, _)| *s == item.strand)
                .expect("every scheduled strand was copied");
            item.strand = *dst;
        }
        let strands = src_strands
            .iter()
            .zip(job.map.iter())
            .map(|(loc, (_, dst))| StrandLoc {
                strand: *dst,
                blocks: loc.blocks,
            })
            .collect();
        let replica = self.catalog.replica_mut(job.title, job.replica);
        replica.schedule = schedule;
        replica.strands = strands;
        replica.state = ReplicaState::Live;
        self.placed[dst_v] += 1;
        Ok((None, copied))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strandfs_units::Nanos;

    fn two_volume_cluster() -> Cluster {
        Cluster::new(ClusterConfig {
            volumes: 2,
            placement: Placement::RoundRobin,
            base_replicas: 2,
            seed: 7,
        })
        .expect("cluster")
    }

    /// Drain the restore queue in idle steps of `cap` blocks per
    /// destination, every lane starting a step 1 ms after the last one's
    /// latest copy. Returns the steps taken and the final instant.
    fn drain(c: &mut Cluster, cap: u64, mut t: Instant) -> (u64, Instant) {
        let mut steps = 0;
        while c.restorable_lost() {
            let mut clocks = vec![t; c.members().len()];
            c.re_replicate(&mut clocks, None, cap)
                .expect("restore step");
            t = clocks.into_iter().fold(t, Instant::max) + Nanos::from_millis(1);
            steps += 1;
            assert!(steps < 1_000, "restore did not converge");
        }
        (steps, t)
    }

    /// Four members, two titles replicated on the pairs (0, 1) and
    /// (2, 3), and members 0 and 2 rejoined wiped: two restore jobs, one
    /// per destination, read from 1 and 3.
    fn two_wiped_pairs() -> Cluster {
        let mut c = Cluster::new(ClusterConfig {
            volumes: 4,
            placement: Placement::RoundRobin,
            base_replicas: 2,
            seed: 7,
        })
        .expect("cluster");
        for seed in [13, 14] {
            c.ingest("clip", &ClipSpec::av_seconds(1.0).with_seed(seed), 0.0)
                .expect("ingest");
        }
        for v in [0, 2] {
            c.kill(v);
            c.mark_down(v);
            c.rejoin_wiped(v);
        }
        c
    }

    #[test]
    fn replicas_of_one_title_have_identical_schedules() {
        let mut c = two_volume_cluster();
        let id = c
            .ingest("clip", &ClipSpec::av_seconds(1.0).with_seed(3), 0.0)
            .expect("ingest");
        let t = c.catalog().title(id);
        assert_eq!(t.replicas.len(), 2);
        let (a, b) = (&t.replicas[0], &t.replicas[1]);
        assert_ne!(a.volume, b.volume);
        assert_eq!(a.schedule.items.len(), b.schedule.items.len());
        for (x, y) in a.schedule.items.iter().zip(b.schedule.items.iter()) {
            assert_eq!(x.at, y.at);
            assert_eq!(x.units, y.units);
            assert_eq!(x.silence, y.silence);
        }
    }

    #[test]
    fn killed_member_rejoins_fsck_clean_and_reconciled() {
        let mut c = two_volume_cluster();
        c.ingest("clip", &ClipSpec::video_seconds(1.0), 0.0)
            .expect("ingest");
        c.kill(0);
        // Detection: a read on the killed member fails.
        let loc = c.catalog().title(0).replicas[0].strands[0];
        let err = c
            .member_mut(0)
            .mrs_mut()
            .msm_mut()
            .read_block(loc.strand, 0, Instant::EPOCH, Fetch::default())
            .unwrap_err();
        assert!(matches!(err, FsError::MediaError { .. }), "got {err:?}");
        c.mark_down(0);
        assert!(!c.is_up(0));
        let report = c.rejoin(0, Instant::EPOCH).expect("rejoin");
        assert!(c.is_up(0));
        assert_eq!(report.fsck_findings, 0);
        assert_eq!(report.reconcile.lost, 0);
        assert!(c.fsck_member(0, Instant::EPOCH).clean());
        // The catalog's replica is servable again after recovery.
        let loc = c.catalog().title(0).replicas[0].strands[0];
        c.member_mut(0)
            .mrs_mut()
            .msm_mut()
            .read_block(loc.strand, 0, Instant::EPOCH, Fetch::default())
            .expect("read after rejoin");
    }

    #[test]
    fn wiped_member_is_restored_by_re_replication() {
        let mut c = two_volume_cluster();
        let id = c
            .ingest("clip", &ClipSpec::av_seconds(1.0).with_seed(11), 0.0)
            .expect("ingest");
        c.kill(0);
        c.mark_down(0);
        let report = c.rejoin_wiped(0);
        assert!(report.wiped);
        assert_eq!(report.reconcile.lost, 1);
        assert!(c.restorable_lost());
        // A viewer pinned to the surviving replica shares its items.
        let viewer = c.catalog().title(id).replicas[1].schedule.clone();
        let source_before = viewer.items.to_vec();
        // A service round's step spends only slack: none, no copy; a
        // little, a copy that ends inside it on both lanes.
        let end = Instant::from_nanos(1_000_000_000);
        let mut clocks = [end; 2];
        let p = c.re_replicate(&mut clocks, Some(end), 8).expect("no slack");
        assert_eq!(p.copied_blocks, 0);
        let mut clocks = [end - Nanos::from_millis(600); 2];
        let p = c
            .re_replicate(&mut clocks, Some(end), 1_000)
            .expect("some slack");
        assert!(p.copied_blocks > 0 && c.restore.len() == 1, "{p:?}");
        assert!(clocks.iter().all(|&t| t <= end), "{clocks:?}");
        // Drain the restore queue in small capped steps.
        let (steps, t) = drain(&mut c, 8, end);
        assert!(steps > 1, "the cap should split the copy across steps");
        let replica = &c.catalog().title(id).replicas[0];
        assert_eq!(replica.state, ReplicaState::Live);
        // The restore rewrote strand ids in a copy of its own: the
        // source replica and its viewer still share one untouched
        // allocation.
        let source = &c.catalog().title(id).replicas[1].schedule;
        assert!(Arc::ptr_eq(&source.items, &viewer.items));
        assert_eq!(source.items[..], source_before[..]);
        assert!(!Arc::ptr_eq(&replica.schedule.items, &source.items));
        assert_eq!(replica.schedule.items.len(), source.items.len());
        // The restored copy is servable block-for-block.
        let items: Vec<_> = replica
            .schedule
            .items
            .iter()
            .filter(|i| !i.silence)
            .cloned()
            .collect();
        for item in items {
            c.member_mut(0)
                .mrs_mut()
                .msm_mut()
                .read_block(item.strand, item.block, t, Fetch::default())
                .expect("restored block read");
        }
    }

    #[test]
    fn one_step_copies_onto_every_destination_member() {
        let mut c = two_wiped_pairs();
        let mut clocks = [Instant::EPOCH; 4];
        let p = c.re_replicate(&mut clocks, None, 1).expect("step");
        assert_eq!(p.copied_blocks, 2, "one block onto each destination");
        let mut dsts: Vec<usize> = c.restore.iter().map(|j| c.job_volumes(j).1).collect();
        dsts.sort_unstable();
        assert_eq!(dsts, [0, 2]);
        // Each copy ran on its own pair's lanes: every lane moved.
        assert!(clocks.iter().all(|&t| t > Instant::EPOCH), "{clocks:?}");
    }

    #[test]
    fn killing_the_restore_source_mid_copy_unwinds_cleanly() {
        let mut c = two_wiped_pairs();
        // One small step leaves both jobs in flight, each with a
        // half-written destination strand open.
        let mut clocks = [Instant::EPOCH; 4];
        let p = c.re_replicate(&mut clocks, None, 3).expect("first step");
        assert_eq!(p.copied_blocks, 6);
        assert_eq!(c.restore.len(), 2, "both jobs must be in flight");
        // Member 1, the source of member 0's copy, dies mid-copy. Its
        // job must be voided and its half-written copies unwound — not
        // resumed into a media error — and the other job left running.
        c.kill(1);
        c.mark_down(1);
        assert_eq!(c.restore.len(), 1, "kill must void only the job it touches");
        assert_eq!(c.job_volumes(&c.restore[0]), (3, 2));
        let t = Instant::from_nanos(1_000_000_000);
        // The surviving destination holds no leaked half-copies; the
        // other keeps its open strand.
        assert_eq!(c.members()[0].mrs().msm().strand_ids().len(), 0);
        for v in [0, 2] {
            assert!(c.fsck_member(v, t).clean(), "member {v}");
        }
        // No live source for title 0: member 2's copy alone converges.
        drain(&mut c, 100, t);
        let state = |c: &Cluster, title: TitleId| c.catalog().title(title).replicas[0].state;
        assert_eq!(
            state(&c, 0),
            ReplicaState::Lost,
            "lost until a source returns"
        );
        assert_eq!(state(&c, 1), ReplicaState::Live);
        // Once the source rejoins, restore restarts from scratch and
        // converges.
        c.rejoin(1, t).expect("rejoin source");
        let (_, t) = drain(&mut c, 8, t);
        assert_eq!(state(&c, 0), ReplicaState::Live);
        for v in [0, 2] {
            assert!(c.fsck_member(v, t).clean(), "member {v}");
        }
    }

    #[test]
    fn invalidated_replica_is_deleted_and_restored_from_the_live_copy() {
        let mut c = two_volume_cluster();
        let id = c
            .ingest("clip", &ClipSpec::video_seconds(1.0).with_seed(17), 0.0)
            .expect("ingest");
        let strands_before = c.members()[0].mrs().msm().strand_ids().len();
        assert!(strands_before > 0);
        c.invalidate_replica(id, 0).expect("invalidate");
        assert_eq!(c.catalog().title(id).replicas[0].state, ReplicaState::Lost);
        assert_eq!(
            c.members()[0].mrs().msm().strand_ids().len(),
            0,
            "corrupt strands must be deleted, not served"
        );
        assert!(c.fsck_member(0, Instant::EPOCH).clean());
        // The lost copy is rebuilt through the ordinary restore path.
        let (_, t) = drain(&mut c, 16, Instant::EPOCH);
        assert_eq!(c.catalog().title(id).replicas[0].state, ReplicaState::Live);
        assert!(c.fsck_member(0, t).clean());
    }

    #[test]
    fn n_max_scales_with_up_members() {
        let spec = standard_spec();
        let c1 = Cluster::new(ClusterConfig::round_robin(1, 1)).unwrap();
        let c4 = Cluster::new(ClusterConfig::round_robin(4, 1)).unwrap();
        let per = c1.n_max(spec);
        assert!(per >= 1);
        assert_eq!(c4.n_max(spec), 4 * per);
    }
}

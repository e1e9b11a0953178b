//! The cluster itself: N member volumes, ingest with replica
//! placement, volume kill/rejoin, and background re-replication.

use crate::catalog::{Catalog, ReconcileReport, Replica, ReplicaState, StrandLoc, TitleId};
use crate::placement::{hypothetical_slack, standard_spec, Placement, VolumeLoad};
use std::sync::Arc;
use strandfs_core::fsck;
use strandfs_core::journal::JournalConfig;
use strandfs_core::mrs::{Mrs, PlaySchedule};
use strandfs_core::msm::{Msm, MsmConfig, RecoveryReport};
use strandfs_core::rope::edit::MediaSel;
use strandfs_core::{FsError, StrandId};
use strandfs_disk::{DiskGeometry, Extent, FaultPlan, GapBounds, SeekModel, SimDisk};
use strandfs_obs::ObsSink;
use strandfs_sim::scenario::{record_clip, ClipSpec};
use strandfs_units::prng::mix_seed;
use strandfs_units::Instant;

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
    /// Virtual time the step's last disk operation completed (equals
    /// the step's start when nothing was copied).
    pub finished_at: Instant,
}

/// In-flight state of one replica restoration, kept across budgeted
/// steps so a long title copies a few blocks per service round.
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
    restore: Option<RestoreJob>,
    /// The shared sink, re-installed on members rebuilt by rejoin.
    obs: ObsSink,
    /// Whether member fetches verify payload checksums; re-applied to
    /// members rebuilt by rejoin.
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
            restore: None,
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
        for m in &mut self.members {
            m.mrs.msm_mut().set_verify_reads(on);
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
    /// recovered strand inventory. The member's rope layer does not
    /// survive the remount — by design, playback needs only the
    /// catalog's schedules.
    pub fn rejoin(&mut self, volume: usize, now: Instant) -> Result<RejoinReport, FsError> {
        let placeholder = Self::fresh_member(&self.disk_model, 0);
        let old = std::mem::replace(&mut self.members[volume], placeholder);
        let mut msm = old.mrs.into_msm();
        // The media is repaired/replaced before remount; recovery must
        // be able to read the journal and every surviving block.
        msm.arm_faults(FaultPlan::clean());
        let (mut msm, recovery) = Msm::recover(msm.into_device(), Self::member_config(), now)?;
        let repair = fsck::repair_msm(&mut msm, recovery.finished_at);
        let mut mrs = Mrs::new(msm);
        mrs.set_obs(self.obs.clone());
        mrs.msm_mut().set_verify_reads(self.verify_reads);
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
    /// replaced): every replica it held is marked lost, to be restored
    /// by background re-replication.
    pub fn rejoin_wiped(&mut self, volume: usize) -> RejoinReport {
        self.members[volume] = Self::fresh_member(
            &self.disk_model,
            mix_seed(self.config.seed, 0x5749_5045 ^ volume as u64),
        );
        self.members[volume].mrs.set_obs(self.obs.clone());
        self.members[volume]
            .mrs
            .msm_mut()
            .set_verify_reads(self.verify_reads);
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
        self.catalog.lost_replicas().iter().any(|&(t, i)| {
            let r = &self.catalog.title(t).replicas[i];
            self.is_up(r.volume)
                && self
                    .catalog
                    .live_replica(t, Some(i), |v| self.is_up(v) && v != r.volume)
                    .is_some()
        })
    }

    /// Drop the in-flight restore job. With `unwind_dst` (the
    /// destination member is still healthy) its half-written strands
    /// are deleted — completed copies and the open recording one — so
    /// the member stays fsck-clean and leak-free; the replica stays
    /// `Lost` and a later pass restarts it from another live source.
    fn void_restore(&mut self, unwind_dst: bool) {
        let Some(job) = self.restore.take() else {
            return;
        };
        if !unwind_dst {
            return;
        }
        let dst = self.catalog.title(job.title).replicas[job.replica].volume;
        let msm = self.members[dst].mrs.msm_mut();
        for (_, d) in &job.map {
            let _ = msm.delete_strand(*d);
        }
        if let Some(open) = job.dst_open {
            let _ = msm.abort_strand(open);
        }
    }

    /// Void an in-flight restore touching `volume` (killed or wiped).
    /// A dying destination's half-written strands die with the device;
    /// a surviving destination (its *source* died) is unwound.
    fn void_restore_for(&mut self, volume: usize) {
        let Some(job) = &self.restore else {
            return;
        };
        let dst = self.catalog.title(job.title).replicas[job.replica].volume;
        let src = self.catalog.title(job.title).replicas[job.src_replica].volume;
        if dst == volume || src == volume {
            self.void_restore(dst != volume);
        }
    }

    /// Take a live replica out of service because scrub proved it
    /// corrupt: mark it lost, delete its strands from the (still
    /// healthy) member so the corrupt payloads can never be served
    /// again, and leave background re-replication to rebuild it from a
    /// live copy — the same path a wiped rejoin uses. Callers must
    /// first re-pin any streams playing from the replica.
    pub fn invalidate_replica(&mut self, title: TitleId, replica: usize) -> Result<(), FsError> {
        let voids = self.restore.as_ref().map(|job| {
            (
                job.title == title && (job.replica == replica || job.src_replica == replica),
                job.replica != replica,
            )
        });
        if let Some((true, unwind_dst)) = voids {
            self.void_restore(unwind_dst);
        }
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

    fn next_restore_job(&self) -> Option<RestoreJob> {
        for (t, i) in self.catalog.lost_replicas() {
            let r = &self.catalog.title(t).replicas[i];
            if !self.is_up(r.volume) {
                continue;
            }
            if let Some(src) = self
                .catalog
                .live_replica(t, Some(i), |v| self.is_up(v) && v != r.volume)
            {
                return Some(RestoreJob {
                    title: t,
                    replica: i,
                    src_replica: src,
                    map: Vec::new(),
                    cur: 0,
                    block: 0,
                    dst_open: None,
                });
            }
        }
        None
    }

    /// One budgeted step of background re-replication: copy up to
    /// `max_blocks` media blocks of lost replicas from live copies on
    /// other members (reads bill the source volume, writes the
    /// destination). When a replica's last strand finishes, its
    /// schedule is rebuilt by strand-id remapping from the source
    /// replica and the copy goes live.
    pub fn re_replicate(
        &mut self,
        now: Instant,
        max_blocks: u64,
    ) -> Result<RestoreProgress, FsError> {
        let mut progress = RestoreProgress {
            finished_at: now,
            ..RestoreProgress::default()
        };
        while progress.copied_blocks < max_blocks {
            let Some(mut job) = self.restore.take().or_else(|| self.next_restore_job()) else {
                break;
            };
            let (src_v, dst_v, src_strands) = {
                let title = self.catalog.title(job.title);
                (
                    title.replicas[job.src_replica].volume,
                    title.replicas[job.replica].volume,
                    title.replicas[job.src_replica].strands.clone(),
                )
            };
            let mut t = progress.finished_at;
            // Split-borrow the two members involved.
            let (lo, hi) = (src_v.min(dst_v), src_v.max(dst_v));
            let (head, tail) = self.members.split_at_mut(hi);
            let (src_m, dst_m) = if src_v < dst_v {
                (&mut head[lo], &mut tail[0])
            } else {
                (&mut tail[0], &mut head[lo])
            };
            while job.cur < src_strands.len() && progress.copied_blocks < max_blocks {
                let loc = src_strands[job.cur];
                let (meta, unit_count) = {
                    let s = src_m.mrs.msm().strand(loc.strand)?;
                    (*s.meta(), s.unit_count())
                };
                let dst_id = match job.dst_open {
                    Some(id) => id,
                    None => {
                        let id = dst_m.mrs.msm_mut().begin_strand(meta);
                        job.dst_open = Some(id);
                        id
                    }
                };
                while job.block < loc.blocks && progress.copied_blocks < max_blocks {
                    let n = job.block;
                    let units = meta.granularity.min(unit_count - n * meta.granularity);
                    match src_m.mrs.msm_mut().read_block(loc.strand, n, t)? {
                        (None, _) => {
                            dst_m.mrs.msm_mut().append_silence(dst_id, units, t)?;
                        }
                        (Some(payload), op) => {
                            if let Some(op) = op {
                                t = t.max(op.completed);
                            }
                            let (_, wop) = dst_m
                                .mrs
                                .msm_mut()
                                .append_block(dst_id, t, &payload, units)?;
                            t = t.max(wop.completed);
                        }
                    }
                    job.block += 1;
                    progress.copied_blocks += 1;
                }
                if job.block == loc.blocks {
                    dst_m.mrs.msm_mut().finish_strand(dst_id, t)?;
                    job.map.push((loc.strand, dst_id));
                    job.dst_open = None;
                    job.block = 0;
                    job.cur += 1;
                }
            }
            progress.finished_at = progress.finished_at.max(t);
            if job.cur == src_strands.len() {
                // Rebuild the replica: the source schedule with strand
                // ids remapped onto the fresh copies. The clone shares
                // the source's items with every viewer pinned to it;
                // `make_mut` copies them before the first write.
                let mut schedule: PlaySchedule = self.catalog.title(job.title).replicas
                    [job.src_replica]
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
                progress.completed_on.push(dst_v);
            } else {
                self.restore = Some(job);
                break;
            }
        }
        Ok(progress)
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
            .read_block(loc.strand, 0, Instant::EPOCH)
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
            .read_block(loc.strand, 0, Instant::EPOCH)
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
        // Drain the restore queue in small budgeted steps.
        let mut t = Instant::EPOCH;
        let mut steps = 0;
        while c.restorable_lost() {
            let p = c.re_replicate(t, 8).expect("restore step");
            t = p.finished_at + Nanos::from_millis(1);
            steps += 1;
            assert!(steps < 1_000, "restore did not converge");
        }
        assert!(steps > 1, "budget should split the copy across steps");
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
                .read_block(item.strand, item.block, t)
                .expect("restored block read");
        }
    }

    #[test]
    fn killing_the_restore_source_mid_copy_unwinds_cleanly() {
        let mut c = two_volume_cluster();
        let id = c
            .ingest("clip", &ClipSpec::av_seconds(1.0).with_seed(13), 0.0)
            .expect("ingest");
        c.kill(0);
        c.mark_down(0);
        c.rejoin_wiped(0);
        // One tiny budgeted step leaves the job in flight with a
        // half-written destination strand open on volume 0.
        let p = c.re_replicate(Instant::EPOCH, 3).expect("first step");
        assert_eq!(p.copied_blocks, 3);
        assert!(c.restore.is_some(), "the job must be in flight");
        // The *source* dies mid-copy. The job must be voided and the
        // half-written copies unwound — not resumed into a media error.
        c.kill(1);
        c.mark_down(1);
        assert!(c.restore.is_none(), "kill must void the in-flight job");
        let t = Instant::from_nanos(1_000_000_000);
        let p = c.re_replicate(t, 100).expect("no live source: a no-op");
        assert_eq!(p.copied_blocks, 0);
        // The surviving destination holds no leaked half-copies.
        assert_eq!(c.members()[0].mrs().msm().strand_ids().len(), 0);
        assert!(c.fsck_member(0, t).clean());
        assert_eq!(
            c.catalog().title(id).replicas[0].state,
            ReplicaState::Lost,
            "the replica stays lost until a live source returns"
        );
        // Once the source rejoins, restore restarts from scratch and
        // converges.
        c.rejoin(1, t).expect("rejoin source");
        let mut t = t;
        let mut steps = 0;
        while c.restorable_lost() {
            let p = c.re_replicate(t, 8).expect("restore step");
            t = p.finished_at + Nanos::from_millis(1);
            steps += 1;
            assert!(steps < 1_000, "restore did not converge");
        }
        assert_eq!(c.catalog().title(id).replicas[0].state, ReplicaState::Live);
        assert!(c.fsck_member(0, t).clean());
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
        let mut t = Instant::EPOCH;
        while c.restorable_lost() {
            let p = c.re_replicate(t, 16).expect("restore step");
            t = p.finished_at + Nanos::from_millis(1);
        }
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

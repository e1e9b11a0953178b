//! The cluster service loop: numbered rounds across member volumes,
//! each on its own clock, with mid-playback failover to surviving replicas.
//!
//! Time model: each volume serves its pinned streams on its own disk and
//! clock. A volume that served a viewer in round `r` starts `r + 1`
//! where its turns ended; any other waits at the frontier, the latest
//! volume clock. Background work — restore first, scrub second — runs
//! only on a volume no viewer used, in its slack before the frontier,
//! so it never delays a viewer's next fetch. Deadlines stay
//! coherent across a failover because replica schedules are
//! structurally identical: a stream switching volumes keeps its epochs,
//! completions and item offsets, only the strand/block addresses
//! change.
//!
//! Each viewer is a [`strandfs_sim::StreamState`] — the value the
//! single-volume loop drives — wrapped in the cluster's replica pin;
//! this module owns only what happens between its `begin_turn` and
//! `end_turn`. A member's *lane* (`lane.rs`) holds its clock and every
//! step that touches only its own member; the *run* (`run.rs`) holds
//! the rounds, the barrier and every step that charges another lane.

use crate::cluster::RejoinReport;
use strandfs_sim::metrics::SimReport;

mod lane;
mod run;

pub use run::simulate_cluster;

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
    /// Background re-replication cap per round: the most media blocks
    /// each destination member receives, within its lanes' slack in a
    /// service round (0 disables the restore pass).
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
    /// Consecutive rounds with a slow primary fetch on a volume before it
    /// is quarantined — taken out of placement and serving while it is
    /// probed (0 disables quarantine).
    pub quarantine_after_rounds: u64,
    /// Audit every payload served to a viewer against its checksum
    /// stamp (an untimed oracle for experiments; counts what silent
    /// corruption actually reached the audience).
    pub audit_integrity: bool,
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
            audit_integrity: false,
        }
    }

    /// Enable background re-replication, capped per destination member.
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
    /// Primary fetches on this volume that ran slower than their block
    /// plays, whether or not a replica was there to race: what quarantine
    /// keys on, not the hedges issued ([`ClusterReport::hedges`]).
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
        let streams = self.sim.streams.iter().zip(&self.replicated);
        let picked = streams.filter(|(_, r)| **r == replicated);
        picked.map(|(s, _)| s.dropped_blocks).sum()
    }

    /// The worst glitch any replicated stream saw, in schedule items.
    pub fn replicated_miss_burst(&self) -> u64 {
        let streams = self.sim.streams.iter().zip(&self.replicated);
        let replicated = streams.filter(|(_, r)| **r).map(|(s, _)| s.miss_burst);
        replicated.max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::ReplicaState;
    use crate::cluster::{Cluster, ClusterConfig, MemberState};
    use crate::placement::Placement;
    use strandfs_disk::FaultPlan;
    use strandfs_obs::{Event, ObsSink};
    use strandfs_sim::scenario::ClipSpec;
    use strandfs_units::{Instant, Nanos};

    pub(super) fn cluster(volumes: usize, base_replicas: usize) -> Cluster {
        Cluster::new(ClusterConfig {
            volumes,
            placement: Placement::RoundRobin,
            base_replicas,
            seed: 42,
        })
        .expect("cluster")
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
    /// title's replica on volume `v` (its replica `v`), invisibly to the
    /// device.
    pub(super) fn corrupt_first_blocks(
        c: &mut Cluster,
        id: crate::catalog::TitleId,
        v: usize,
        blocks: u64,
    ) {
        let loc = {
            let rep = &c.catalog().title(id).replicas[v];
            assert_eq!(rep.volume, v);
            rep.strands[0]
        };
        let mut plan = FaultPlan::clean();
        for n in 0..blocks.min(loc.blocks) {
            let e = c.members()[v]
                .mrs()
                .msm()
                .strand(loc.strand)
                .expect("strand")
                .block(n)
                .expect("block")
                .expect("stored block");
            plan = plan.with_silent_corruption(e);
        }
        assert!(c.arm_member_faults(v, plan));
    }

    #[test]
    fn scrub_detects_repairs_and_keeps_viewers_clean() {
        let mut c = cluster(2, 2);
        let id = c
            .ingest("hot", &ClipSpec::video_seconds(2.0).with_seed(21), 1.0)
            .unwrap();
        c.set_verify_reads(true);
        corrupt_first_blocks(&mut c, id, 0, 3);
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
    fn verified_reads_survive_a_rejoin() {
        // Verification is switched on, then volume 0 dies and rejoins
        // through recovery: the remounted member must verify too, so the
        // flips on it are read around, never served.
        let mut c = cluster(2, 2);
        let id = c
            .ingest("hot", &ClipSpec::video_seconds(2.0).with_seed(21), 1.0)
            .unwrap();
        c.set_verify_reads(true);
        c.kill(0);
        c.mark_down(0);
        c.rejoin(0, Instant::EPOCH).expect("rejoin");
        corrupt_first_blocks(&mut c, id, 0, 3);
        let cfg = ClusterPlayback::with_k(3).audited();
        let report = simulate_cluster(&mut c, &[id], &[], &cfg).expect("sim");
        assert_eq!(report.corrupt_served, 0, "a flip reached the viewer");
        assert!(report.read_repairs + report.scrub_corrupt > 0);
        assert_eq!(report.replicated_dropped(), 0);
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
        corrupt_first_blocks(&mut c, id, 0, 3);
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
    fn a_scrub_repair_waits_for_its_source_lane_to_go_free() {
        // The one viewer plays from volume 0, while volume 1, serving
        // nobody, scrubs its copy and finds the first of three flips.
        // The only clean copy sits on the serving lane, which lends
        // nothing to background work: the repair waits until the viewer
        // is done, then every flip is rewritten in place.
        let mut c = cluster(2, 2);
        let id = c
            .ingest("hot", &ClipSpec::video_seconds(2.0).with_seed(21), 1.0)
            .unwrap();
        c.set_verify_reads(true);
        corrupt_first_blocks(&mut c, id, 1, 3);
        let (sink, ring) = ObsSink::ring(1 << 12);
        c.set_obs(&sink);
        let cfg = ClusterPlayback::with_k(3).scrub(4).audited();
        let report = simulate_cluster(&mut c, &[id], &[], &cfg).expect("sim");
        assert_eq!(report.volumes[1].fetched, 0, "the viewer stays on volume 0");
        assert_eq!(report.corrupt_served + report.read_repairs, 0);
        assert_eq!((report.scrub_corrupt, report.scrub_repaired), (3, 3));
        assert_eq!(report.scrub_invalidated, 0);
        assert!(c.fsck_member(1, Instant::from_nanos(u64::MAX / 4)).clean());
        let ring = ring.borrow();
        let ends = ring.events().filter_map(|e| match *e {
            Event::StreamService { end, .. } => Some(end),
            _ => None,
        });
        let done = ends.max().expect("the viewer was served");
        let rewrites = ring.events().filter_map(|e| match *e {
            Event::DiskOp {
                dir: strandfs_obs::AccessDir::Write,
                issued,
                ..
            } => Some(issued),
            _ => None,
        });
        assert!(rewrites.min().is_some_and(|first| first >= done));
    }

    #[test]
    fn without_scrub_or_verification_corruption_reaches_viewers() {
        let mut c = cluster(2, 2);
        let id = c
            .ingest("hot", &ClipSpec::video_seconds(2.0).with_seed(21), 1.0)
            .unwrap();
        corrupt_first_blocks(&mut c, id, 0, 3);
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
        // The same scenario without hedging: the viewer pinned to the
        // 10x member misses its deadlines.
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
        // reads the rest clean. Volume 0 lends the scrubber no slack
        // while it serves the viewer; then its pass probes block 0
        // alone — every other block rides its read's credit — and
        // reports the corruption the read already tripped over.
        let mut c = cluster(2, 1);
        let (sink, ring) = ObsSink::ring(1 << 12);
        c.set_obs(&sink);
        let id = c
            .ingest("solo", &ClipSpec::video_seconds(2.0).with_seed(21), 0.0)
            .unwrap();
        c.set_verify_reads(true);
        corrupt_first_blocks(&mut c, id, 0, 1);
        let cfg = ClusterPlayback::with_k(3).scrub(4);
        let report = simulate_cluster(&mut c, &[id], &[], &cfg).expect("sim");
        assert_eq!(report.sim.streams[0].dropped_blocks, 1);
        assert_eq!(report.scrub_corrupt, 1, "scrub must still see the flip");
        assert_eq!(report.scrub_repaired, 0, "there is nothing to repair from");
        let loc = c.catalog().title(id).replicas[0].strands[0];
        let probed = probes(&ring.borrow(), 0);
        assert_eq!(probed, [(loc.strand.raw(), 0, false)]);
        assert_eq!(report.volumes[0].scrubbed, loc.blocks, "one whole pass");
        assert_eq!(report.scrub_credited, loc.blocks - 1);
        assert_eq!(
            report.scrubbed_blocks - report.scrub_credited,
            ring.borrow().metrics().tally.scrubbed,
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
        // Nobody plays `solo`, so volume 0 lends its slack to the
        // scrubber from round 0 and is a few blocks into its first pass
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
        simulate_cluster(&mut c, &[other, other], &script, &cfg).expect("sim");
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

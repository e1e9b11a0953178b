//! A member volume's lane, and every step that touches only the lane
//! and its own member's [`Msm`]. Nothing here can name the run or
//! another lane.

use super::{ClusterReport, VolumeStats};
use crate::cluster::fits;
use std::collections::BTreeMap;
use strandfs_core::mrs::PlayItem;
use strandfs_core::msm::{BlockFetch, Fetch, FetchFailure, Msm};
use strandfs_core::strand::index::NO_SUM;
use strandfs_core::{FsError, StrandId};
use strandfs_disk::Extent;
use strandfs_obs::{Event, ObsSink};
use strandfs_units::{Instant, Nanos};

/// Consecutive on-time probes that re-admit a quarantined volume.
const READMIT_PROBE_ROUNDS: u64 = 2;

/// One member volume's lane through a run: its clock and the
/// bookkeeping of every per-volume defense.
#[derive(Default)]
pub(super) struct Lane {
    /// The volume's clock. A lane serving a viewer starts the next round
    /// where its turns ended; any other waits at the run's frontier.
    pub(super) clock: Instant,
    /// The clock the current round opened at: a first turn's anchor.
    pub(super) opened: Instant,
    /// A viewer's turn was pinned to the lane this round: it lends no slack.
    pub(super) serving: bool,
    /// A corrupt block whose every clean copy sat on a serving lane: the
    /// lane's pass waits on its repair.
    pub(super) unrepaired: Option<(StrandId, u64)>,
    /// Disk busy time already booked into the report.
    busy_mark: Nanos,
    pub(super) stats: VolumeStats,
    /// Sitting out — no serving where an alternative exists — for
    /// breaching the read-latency SLO.
    pub(super) quarantined: bool,
    /// Consecutive on-time probes while quarantined.
    clean_probes: u64,
    /// Consecutive rounds with a slow primary fetch on the volume.
    hedged_rounds: u64,
    /// Primary fetches on the volume that ran slow this round.
    round_hedges: u64,
    /// The scrubber's position: `(strand raw id, block)`.
    pub(super) scrub_cursor: (u64, u64),
    /// What verified reads already checked during the current pass.
    pub(super) credits: Credits,
    /// The last pass is complete and nothing has made the member's image
    /// suspect since ([`Lane::suspect`]): the scrubber leaves it alone.
    pub(super) resting: bool,
    /// Full scrub passes over the member's strands completed.
    pub(super) scrub_passes: u64,
    /// The conservative slack charge for one scrub probe: worst-case
    /// positioning plus one revolution ([`Lane::scrub`]).
    pub(super) scrub_cost: Nanos,
    /// The member's disk may hold sums hashed ahead; in an idle round,
    /// the rest of the lane's pass is among them (the run's `scrub_ahead`).
    pub(super) offered: bool,
}

/// The blocks of one member that passed read verification this scrub
/// pass, one bitset per strand raw id: the cursor covers a marked block
/// without hashing it again. A mark is only set by a verification that
/// passed on the bytes now stored, and dropped whenever those bytes or
/// the meaning of a strand id may have changed — at the end of the pass
/// and when a rested lane's next one opens, when the member is killed,
/// rejoined or wiped (strand ids restart on fresh media), when a strand
/// is deleted.
#[derive(Default)]
pub(super) struct Credits {
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

    pub(super) fn drop_strand(&mut self, strand: u64) {
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

/// How far one [`scrub_step`] got.
pub(super) struct ScrubStep {
    /// Stamped blocks the cursor passed on their read credit.
    credited: u64,
    /// The block a probe owes, `(strand, block, extent, stamp)`; `None`
    /// once the cursor wrapped: a full pass over the member is complete.
    pub(super) owed: Option<(StrandId, u64, Extent, u64)>,
}

/// Advance a member's scrub cursor `(strand raw id, block)` to the next
/// stored block no verified read has credited this pass: what
/// [`Lane::scrub`] probes and the run's `scrub_ahead` hashes ahead. Silence
/// holes (sum [`NO_SUM`]) and credited blocks need no probe: the cursor
/// walks both for free, within the same budget unit.
pub(super) fn scrub_step(msm: &Msm, cursor: &mut (u64, u64), credits: &Credits) -> ScrubStep {
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

impl Lane {
    /// A lane for `msm`'s member, its disk's busy time so far booked.
    pub(super) fn new(msm: &Msm) -> Lane {
        let d = msm.disk();
        Lane {
            busy_mark: d.stats().busy_time(),
            scrub_cost: (d.max_positioning_time() + d.geometry().rotation_time()).to_nanos(),
            ..Lane::default()
        }
    }

    /// Open a round on the lane, at `frontier` if given, else at its own
    /// clock: nothing has served on it yet.
    pub(super) fn start_round(&mut self, frontier: Option<Instant>) {
        self.clock = frontier.unwrap_or(self.clock);
        self.opened = self.clock;
        self.serving = false;
        self.round_hedges = 0;
    }

    /// A read of `(strand, block)` on the member, made as `how`, came back
    /// [`BlockFetch::Data`]. If it verified and `scrub` is on, that block
    /// has had this scrub pass's check: credit it.
    #[inline]
    pub(super) fn credit(&mut self, how: Fetch, strand: StrandId, block: u64, scrub: bool) {
        if how.verify && scrub {
            self.credits.mark(strand.raw(), block);
        }
    }

    /// The member's image is suspect — a restore finished a replica on
    /// it, or a verified read of it came back corrupt: a scrub pass must
    /// be open on it. A lane mid-pass has one (strand ids only grow, so
    /// whatever was written lies ahead of the cursor); a resting lane
    /// opens one from the start, owing nothing to earlier reads.
    pub(super) fn suspect(&mut self) {
        if std::mem::take(&mut self.resting) {
            self.credits.clear();
        }
    }

    /// The member is killed or rejoined: what was verified on it may not
    /// be there afterwards, so the pass in progress starts over.
    pub(super) fn restart_pass(&mut self, msm: &Msm) {
        self.credits.clear();
        self.scrub_cursor = (0, 0);
        self.resting = false;
        self.unrepaired = None;
        self.drop_offers(msm);
    }

    pub(super) fn drop_offers(&mut self, msm: &Msm) {
        if std::mem::take(&mut self.offered) {
            msm.disk().drop_offered();
        }
    }

    /// Fetch `item`, due by `due`, on the member, issued at `issue`, read
    /// as `how`: a block served is credited and booked, the clock then at
    /// its completion; a failure holds the clock at its detection.
    #[inline]
    pub(super) fn fetch(
        &mut self,
        msm: &mut Msm,
        item: PlayItem,
        issue: Instant,
        due: Option<Instant>,
        how: Fetch,
        scrub: bool,
    ) -> Result<BlockFetch, FsError> {
        let got = msm.fetch_block(item.strand, item.block, issue, item.duration, due, how)?;
        match got {
            BlockFetch::Data { op, .. } => {
                self.credit(how, item.strand, item.block, scrub);
                self.clock = op.completed;
                self.stats.fetched += 1;
            }
            BlockFetch::Failed { at, .. } => self.clock = self.clock.max(at),
            BlockFetch::Silence => {}
        }
        Ok(got)
    }

    /// A primary fetch on the member ran slower than its block plays,
    /// whether or not a replica can be raced: what quarantine keys on.
    pub(super) fn ran_slow(&mut self) {
        self.round_hedges += 1;
        self.stats.hedged += 1;
    }

    /// Probe member `v`'s scrub pass within `budget` and the slack before
    /// `t_next`, the round end playback already decided, so scrub never
    /// extends a round; blocks covered on read credit spend neither. A
    /// probe checks the stored payload against its stamp in place, with no
    /// device access, taking a sum hashed ahead for it if one is on offer.
    /// Returns the first corrupt block, for the run to repair.
    pub(super) fn scrub(
        &mut self,
        msm: &Msm,
        v: usize,
        budget: &mut u64,
        t_next: Instant,
        report: &mut ClusterReport,
        obs: &ObsSink,
    ) -> Option<(StrandId, u64)> {
        while !self.resting && *budget > 0 && fits(self.clock, self.scrub_cost, Some(t_next)) {
            let step = scrub_step(msm, &mut self.scrub_cursor, &self.credits);
            let covered = step.credited + u64::from(step.owed.is_some());
            self.stats.scrubbed += covered;
            report.scrubbed_blocks += covered;
            report.scrub_credited += step.credited;
            let Some((strand, block, extent, stamp)) = step.owed else {
                self.scrub_passes += 1;
                self.credits.clear();
                self.resting = true;
                self.drop_offers(msm);
                break;
            };
            let ok = msm.disk().fetch_sum(extent) == Some(stamp);
            *budget -= 1;
            self.clock += self.scrub_cost;
            let (at, sid) = (self.clock, strand.raw());
            obs.emit(|| Event::Scrub {
                volume: v,
                strand: sid,
                block,
                ok,
                at,
            });
            if !ok {
                report.scrub_corrupt += 1;
                return Some((strand, block));
            }
        }
        None
    }

    /// Count the round's slow fetches into the streak; once it reaches
    /// `after` rounds on an up member, quarantine the lane and return
    /// the streak.
    pub(super) fn quarantine(&mut self, after: u64, up: bool) -> Option<u64> {
        if self.quarantined {
            return None;
        }
        let slow = self.round_hedges > 0;
        self.hedged_rounds = if slow { self.hedged_rounds + 1 } else { 0 };
        if self.hedged_rounds < after || !up {
            return None;
        }
        (self.quarantined, self.clean_probes) = (true, 0);
        Some(std::mem::take(&mut self.hedged_rounds))
    }

    /// Probe quarantined member `v` at `now` on `target` (`None`: nothing
    /// servable, harmless) and re-admit it after enough on-time probes in
    /// a row. False on a media error: the quarantine ends, member down.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn probe(
        &mut self,
        msm: &mut Msm,
        v: usize,
        target: Option<PlayItem>,
        now: Instant,
        how: Fetch,
        scrub: bool,
        report: &mut ClusterReport,
        obs: &ObsSink,
    ) -> bool {
        let on_time = match target {
            None => true,
            Some(item) => {
                match msm.fetch_block(item.strand, item.block, now, Nanos::ZERO, None, how) {
                    Ok(BlockFetch::Data { op, .. }) => {
                        self.credit(how, item.strand, item.block, scrub);
                        op.completed - now <= item.duration
                    }
                    Ok(BlockFetch::Silence) => true,
                    Ok(BlockFetch::Failed {
                        reason: FetchFailure::Corrupt,
                        ..
                    }) => {
                        self.suspect();
                        false
                    }
                    Ok(BlockFetch::Failed { .. }) | Err(_) => {
                        self.quarantined = false;
                        return false;
                    }
                }
            }
        };
        self.clean_probes = if on_time { self.clean_probes + 1 } else { 0 };
        if self.clean_probes >= READMIT_PROBE_ROUNDS {
            self.quarantined = false;
            report.quarantine_readmits += 1;
            let rounds = self.clean_probes;
            obs.emit(|| Event::Quarantine {
                volume: v,
                entered: false,
                rounds,
                at: now,
            });
        }
        true
    }

    /// The member's disk busy time since the last booking, now booked.
    pub(super) fn book(&mut self, msm: &Msm) -> Nanos {
        let busy = msm.disk().stats().busy_time();
        busy - std::mem::replace(&mut self.busy_mark, busy)
    }

    /// Leave the member's disk busy time so far unbooked: a rejoin's
    /// recovery I/O is mount work, not playback service.
    pub(super) fn skip_busy(&mut self, msm: &Msm) {
        self.busy_mark = msm.disk().stats().busy_time();
    }
}

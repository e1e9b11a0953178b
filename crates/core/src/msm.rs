//! The Multimedia Storage Manager (MSM) — the device-dependent layer of
//! the prototype's architecture (§5.2).
//!
//! The MSM owns the physical volume: it decides granularity and
//! scattering (via the allocator's gap bounds), performs all strand I/O,
//! writes and reads the 3-level strand index, enforces admission control
//! for concurrent requests, and implements the bounded-copy healing of
//! §4.2 on behalf of the rope server.
//!
//! All operations take an explicit `now: Instant` and return the disk
//! operations they performed, so callers (the discrete-event simulator,
//! benches) control and observe virtual time; the MSM itself never
//! advances a clock.

use crate::admission::{AdmissionController, ServiceEnv};
use crate::error::FsError;
use crate::journal::{CatalogEntry, Journal, JournalConfig, Record};
use crate::rope::scattering::{copy_bound, plan_boundary, CopyPlan, CopySide, Occupancy};
use crate::rope::StrandRef;
use crate::strand::index::{read_index, write_index};
use crate::strand::{Strand, StrandBuilder, StrandMeta};
use crate::types::{BlockNo, StrandId};
use std::collections::BTreeMap;
use strandfs_disk::{
    block_sum, block_sum_padded, AccessKind, AllocPolicy, Allocator, DiskOp, Extent, FaultKind,
    FaultPlan, GapBounds, SimDisk,
};
use strandfs_obs::{Event, JournalOp, ObsSink};
use strandfs_units::{Instant, Nanos, Seconds};

/// Transient retries granted to non-real-time reads (index loads,
/// healing copies): these paths have no playback deadline, so a small
/// fixed budget replaces the Eq. 18 slack derivation.
const BACKGROUND_RETRY_LIMIT: u32 = 3;

/// Why a resilient block fetch gave up.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FetchFailure {
    /// Permanent media error: no retry can succeed.
    Media,
    /// Transient errors persisted past the retry budget.
    RetriesExhausted,
    /// The deadline had already passed; no I/O was attempted.
    Abandoned,
    /// The read completed but the payload's checksum does not match the
    /// sum stamped in the strand index — silent corruption. Retrying
    /// cannot help: the bytes on the platter are wrong.
    Corrupt,
}

/// Outcome of one block fetch ([`Msm::fetch_block`]).
///
/// Unlike a plain `Result`, a failed fetch still advances virtual time
/// (failed attempts occupy the disk), so the failure carries the
/// instant the caller's clock must move to.
#[derive(Clone, Debug)]
pub enum BlockFetch {
    /// A silence hole — no I/O, no payload (NULL primary pointer).
    Silence,
    /// The payload arrived, possibly after retries; `op` is the final
    /// successful operation.
    Data {
        /// The block payload.
        payload: Vec<u8>,
        /// The successful disk operation.
        op: DiskOp,
        /// Transient failures retried before success.
        retries: u32,
    },
    /// The fetch failed; the disk was busy until `at`.
    Failed {
        /// Why the fetch gave up.
        reason: FetchFailure,
        /// Virtual time when the failure was accepted.
        at: Instant,
        /// Retries spent before giving up.
        retries: u32,
    },
}

/// What [`Msm::fetch_block`] asks of the disk besides the block's timing.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fetch {
    /// The timing alone: `Data` carries an empty payload.
    Timed,
    /// The timing and the payload.
    Payload,
    /// The timing alone, the read chained onto the disk's last access
    /// ([`SimDisk::access_chained`]): the next block of one request.
    Chained,
}

/// Configuration of a storage volume.
#[derive(Clone, Debug)]
pub struct MsmConfig {
    /// Gap bounds enforced between successive blocks of a strand.
    pub gap_bounds: GapBounds,
    /// Seed for the allocator's randomized choices.
    pub seed: u64,
    /// Block-placement policy; defaults to constrained allocation with
    /// `gap_bounds`.
    pub policy: AllocPolicy,
    /// When set, the volume reserves an intent-journal region at the
    /// start of the device and records every strand mutation ahead of
    /// the data, enabling [`Msm::recover`] after a crash. `None` (the
    /// default) keeps the historical journal-free write path.
    pub journal: Option<JournalConfig>,
}

impl MsmConfig {
    /// The standard configuration: constrained allocation with the given
    /// gap bounds.
    pub fn constrained(gap_bounds: GapBounds, seed: u64) -> Self {
        MsmConfig {
            gap_bounds,
            seed,
            policy: AllocPolicy::Constrained { bounds: gap_bounds },
            journal: None,
        }
    }

    /// The same configuration with crash journaling enabled.
    pub fn with_journal(mut self, journal: JournalConfig) -> Self {
        self.journal = Some(journal);
        self
    }
}

/// What [`Msm::recover`] found and did while replaying the journal.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Finished strands restored from the checkpoint catalog or from a
    /// journaled `FinishCommit`.
    pub durable_strands: u64,
    /// In-flight recordings completed (given an index) by recovery.
    pub completed_strands: u64,
    /// Journaled blocks (stored or silence) whose data verified and
    /// were kept.
    pub blocks_recovered: u64,
    /// Journaled blocks dropped: their data never fully reached the
    /// disk, or they followed a torn block (recovery keeps a prefix).
    pub blocks_rolled_back: u64,
    /// Strands whose journaled deletion was replayed.
    pub deleted_strands: u64,
    /// Virtual time when recovery finished (reads and index writes
    /// occupy the disk like any other I/O).
    pub finished_at: Instant,
}

enum StrandState {
    Recording(StrandBuilder),
    Finished(Strand),
}

/// The Multimedia Storage Manager.
pub struct Msm {
    disk: SimDisk,
    alloc: Allocator,
    gap_bounds: GapBounds,
    strands: BTreeMap<StrandId, StrandState>,
    next_strand: u64,
    admission: AdmissionController,
    obs: ObsSink,
    journal: Option<Journal>,
    text_extents: Vec<Extent>,
    /// Completion time of the most recent disk operation — the instant
    /// journal writes issued by time-less entry points (deletes) use.
    last_io: Instant,
    /// When set, every successful block fetch re-hashes the on-disk
    /// payload and compares it against the sum stamped in the strand
    /// index; mismatches surface as [`FetchFailure::Corrupt`] /
    /// [`FsError::ChecksumMismatch`]. Off by default: verification is a
    /// policy of the serving layer, not the storage format.
    verify_reads: bool,
}

impl Msm {
    /// Create a storage manager over `disk`.
    pub fn new(disk: SimDisk, config: MsmConfig) -> Self {
        let total = disk.geometry().total_sectors();
        let sector_size = disk.geometry().sector_size.get() as usize;
        let env = Self::service_env(&disk, config.gap_bounds);
        let mut alloc = Allocator::new(total, config.policy, config.seed);
        let journal = config.journal.map(|jc| {
            let j = Journal::new(jc, sector_size);
            let region = j.region();
            assert!(
                region.end() <= total,
                "journal region ({} sectors) does not fit the device",
                region.sectors
            );
            alloc.adopt(region);
            j
        });
        Msm {
            alloc,
            gap_bounds: config.gap_bounds,
            strands: BTreeMap::new(),
            next_strand: 0,
            admission: AdmissionController::new(env),
            obs: ObsSink::noop(),
            journal,
            text_extents: Vec::new(),
            last_io: Instant::EPOCH,
            verify_reads: false,
            disk,
        }
    }

    /// Enable (or disable) end-to-end checksum verification on every
    /// block fetch. Verification re-hashes the stored payload in place —
    /// it adds no disk I/O or virtual time, modelling a controller that
    /// checksums the DMA stream.
    pub fn set_verify_reads(&mut self, on: bool) {
        self.verify_reads = on;
    }

    /// Whether fetches verify payload checksums.
    pub fn verify_reads(&self) -> bool {
        self.verify_reads
    }

    /// Route observability events from this volume — allocation
    /// decisions, the disk's per-op timing breakdown, and admission
    /// transitions — into `obs`.
    pub fn set_obs(&mut self, obs: ObsSink) {
        self.disk.set_obs(obs.clone());
        self.admission.set_obs(obs.clone());
        self.obs = obs;
    }

    /// The sink this volume emits into (cheap to clone; [`ObsSink::noop`]
    /// when observability is off).
    pub fn obs(&self) -> ObsSink {
        self.obs.clone()
    }

    fn service_env(disk: &SimDisk, bounds: GapBounds) -> ServiceEnv {
        let spc = disk.geometry().sectors_per_cylinder();
        let avg_gap_cyl = (bounds.min_sectors + bounds.max_sectors) / 2 / spc.max(1);
        ServiceEnv {
            r_dt: disk.geometry().track_transfer_rate(),
            l_seek_max: disk.max_positioning_time(),
            l_ds_avg: disk.positioning_time(avg_gap_cyl),
        }
    }

    /// The underlying device (read-only).
    pub fn disk(&self) -> &SimDisk {
        &self.disk
    }

    /// Install (or replace) a fault plan on the underlying device.
    pub fn arm_faults(&mut self, plan: FaultPlan) {
        self.disk.arm_faults(plan);
    }

    /// The allocator (read-only; exposes free-map statistics).
    pub fn allocator(&self) -> &Allocator {
        &self.alloc
    }

    /// The gap bounds in force.
    pub fn gap_bounds(&self) -> GapBounds {
        self.gap_bounds
    }

    /// The scattering bounds as positioning *times* `(l_lower, l_upper)`,
    /// mapping the sector bounds back through the disk model.
    pub fn scattering_time_bounds(&self) -> (Seconds, Seconds) {
        let spc = self.disk.geometry().sectors_per_cylinder().max(1);
        let lo = self
            .disk
            .positioning_time(self.gap_bounds.min_sectors / spc);
        let hi = self
            .disk
            .positioning_time(self.gap_bounds.max_sectors / spc);
        (lo, hi)
    }

    /// The admission controller (shared by all request-servicing layers).
    pub fn admission(&mut self) -> &mut AdmissionController {
        &mut self.admission
    }

    /// The admission controller, read-only.
    pub fn admission_ref(&self) -> &AdmissionController {
        &self.admission
    }

    /// Fraction of the volume allocated.
    pub fn utilization(&self) -> f64 {
        self.alloc.freemap().utilization()
    }

    /// The occupancy regime for §4.2's copy bounds: dense above 80 %
    /// utilization.
    pub fn occupancy(&self) -> Occupancy {
        if self.utilization() > 0.8 {
            Occupancy::Dense
        } else {
            Occupancy::Sparse
        }
    }

    // ----- intent journal --------------------------------------------

    /// The journal's reserved region, when journaling is enabled.
    pub fn journal_region(&self) -> Option<Extent> {
        self.journal.as_ref().map(|j| j.region())
    }

    /// Extents holding non-real-time (text) files stored on this
    /// volume. Text data is outside the journal's protection: recovery
    /// builds its free map afresh, so after a crash their sectors are
    /// simply free.
    pub fn text_extents(&self) -> &[Extent] {
        &self.text_extents
    }

    /// Tear down the manager and hand back the device — the crash side
    /// of a simulated remount ([`Msm::recover`] is the mount side).
    pub fn into_device(self) -> SimDisk {
        self.disk
    }

    /// Persist one intent record ahead of the mutation it describes.
    /// No-op (`Ok(None)`) on journal-free volumes.
    fn journal_append(&mut self, rec: Record, now: Instant) -> Result<Option<DiskOp>, FsError> {
        let Some(j) = self.journal.as_mut() else {
            return Ok(None);
        };
        let (seq, extent, bytes) = j.append(&rec)?;
        let op = self.write(now, extent, &bytes)?;
        self.obs.emit(|| Event::Journal {
            strand: rec.strand(),
            op: rec.op(),
            seq,
            at: op.completed,
        });
        Ok(Some(op))
    }

    /// Journal the `Begin` record for a recording strand if it has not
    /// been journaled yet (deferred so that `begin_strand` itself stays
    /// free of I/O). Returns the instant the caller should continue at.
    fn ensure_begun(&mut self, id: StrandId, now: Instant) -> Result<Instant, FsError> {
        if self.journal.as_ref().is_none_or(|j| j.has_begun(id.raw())) {
            return Ok(now);
        }
        let meta = *self.recording_mut(id)?.meta();
        let begin = Record::Begin {
            strand: id.raw(),
            meta,
        };
        let op = self.journal_append(begin, now)?;
        Ok(op.map_or(now, |o| o.completed))
    }

    /// Write a checkpoint: the durable strand catalog plus the journal
    /// floor, into the alternate checkpoint slot. Returns the instant
    /// the write completed (or `now` unchanged on journal-free
    /// volumes).
    fn write_checkpoint(&mut self, now: Instant) -> Result<Instant, FsError> {
        let Some(j) = self.journal.as_mut() else {
            return Ok(now);
        };
        let catalog = self
            .strands
            .iter()
            .filter_map(|(id, st)| match st {
                StrandState::Finished(s) => s.index_extents().last().map(|h| CatalogEntry {
                    strand: id.raw(),
                    header: *h,
                }),
                StrandState::Recording(_) => None,
            })
            .collect();
        let (seq, extent, bytes) = j.checkpoint(self.next_strand, catalog)?;
        let op = self.write(now, extent, &bytes)?;
        let at = op.completed;
        self.obs.emit(|| Event::Journal {
            strand: u64::MAX,
            op: JournalOp::Checkpoint,
            seq,
            at,
        });
        Ok(at)
    }

    /// Store `bytes` at `extent`, then time the write, surfacing
    /// injected write faults: a torn write (only a sector prefix
    /// persisted) is distinguished from a fully-failed one because the
    /// caller's recovery story differs — torn data fails its journal
    /// checksum, failed data is absent.
    fn write(&mut self, now: Instant, extent: Extent, bytes: &[u8]) -> Result<DiskOp, FsError> {
        self.disk.store_data(extent, bytes);
        match self.disk.access(now, extent, AccessKind::Write) {
            Ok(op) => {
                self.last_io = op.completed;
                Ok(op)
            }
            Err(f) => {
                self.last_io = f.op.completed;
                Err(match f.kind {
                    FaultKind::Torn => FsError::TornWrite {
                        lba: extent.start,
                        sectors: extent.sectors,
                    },
                    FaultKind::Media | FaultKind::Transient | FaultKind::Crashed => {
                        FsError::WriteFault {
                            lba: extent.start,
                            sectors: extent.sectors,
                        }
                    }
                })
            }
        }
    }

    /// Timed read for non-real-time paths (index loads, healing copies):
    /// no playback deadline, so transient faults get a small fixed retry
    /// budget ([`BACKGROUND_RETRY_LIMIT`]) instead of the Eq. 18 share.
    fn timed_read_bg(&mut self, now: Instant, extent: Extent) -> Result<DiskOp, FsError> {
        let mut t = now;
        let mut attempts = 0u32;
        loop {
            match self.disk.access(t, extent, AccessKind::Read) {
                Ok(op) => {
                    self.last_io = op.completed;
                    return Ok(op);
                }
                Err(f) => match f.kind {
                    // `Torn` never fires on reads; a crashed device
                    // fails every access permanently, like bad media.
                    FaultKind::Media | FaultKind::Torn | FaultKind::Crashed => {
                        return Err(FsError::MediaError {
                            lba: extent.start,
                            sectors: extent.sectors,
                        })
                    }
                    FaultKind::Transient => {
                        if attempts >= BACKGROUND_RETRY_LIMIT {
                            return Err(FsError::RetriesExhausted {
                                lba: extent.start,
                                retries: attempts,
                            });
                        }
                        attempts += 1;
                        t = f.op.completed;
                        let (s, b) = (extent.start, extent.sectors);
                        self.obs.emit(|| Event::Retry {
                            strand: s,
                            block: b,
                            attempt: attempts,
                            at: t,
                            budget: Nanos::ZERO,
                        });
                    }
                },
            }
        }
    }

    /// Fetch the payload of a validated on-disk extent; a pointer off
    /// the device is corrupt metadata, not a crash.
    fn fetch_checked(&self, extent: Extent, what: &'static str) -> Result<Vec<u8>, FsError> {
        self.disk
            .try_fetch(extent)
            .ok_or(FsError::CorruptIndex { what })
    }

    // ----- strand recording ------------------------------------------

    /// Begin recording a new strand.
    pub fn begin_strand(&mut self, meta: StrandMeta) -> StrandId {
        let id = StrandId::from_raw(self.next_strand);
        self.next_strand += 1;
        self.strands
            .insert(id, StrandState::Recording(StrandBuilder::new(id, meta)));
        id
    }

    /// Append a media block of `units` units with the given payload,
    /// allocated under the scattering constraint and written at `now`.
    pub fn append_block(
        &mut self,
        id: StrandId,
        now: Instant,
        payload: &[u8],
        units: u64,
    ) -> Result<(BlockNo, DiskOp), FsError> {
        let sector_size = self.disk.geometry().sector_size.get() as usize;
        let sectors = payload.len().div_ceil(sector_size).max(1) as u64;
        // The stamped checksum covers the *padded* on-disk payload — the
        // exact bytes `fetch_sum` will hash back — matching the journal's
        // `payload_sum` convention. The device pads as it stores.
        let sum = block_sum_padded(payload, sectors as usize * sector_size);
        let anchor = self.recording_with_room(id)?.last_stored();
        let extent = match anchor {
            Some(prev) => self.alloc.allocate_after(prev, sectors)?,
            None => self.alloc.allocate_first(sectors)?,
        };
        // Re-borrow after allocation.
        let builder = self.recording_mut(id)?;
        let block_no = builder.push_block(extent, units, sum)?;
        self.obs.emit(|| {
            // Forward gap to the previous block; a wrap (placement below
            // the anchor) has no meaningful gap and reports `None`.
            let gap = anchor.and_then(|p| extent.start.checked_sub(p.end()));
            Event::Alloc {
                strand: id.raw(),
                block: block_no,
                lba: extent.start,
                sectors: extent.sectors,
                gap,
                slack: gap.map(|g| self.gap_bounds.max_sectors.saturating_sub(g)),
            }
        });
        // Intent before data: the journal record carries the padded
        // payload's checksum, so recovery can tell a complete block
        // from a torn one.
        let t = self.ensure_begun(id, now)?;
        let record = Record::Append {
            strand: id.raw(),
            block: block_no,
            lba: extent.start,
            sectors: extent.sectors,
            units,
            payload_sum: sum,
        };
        let t = self.journal_append(record, t)?.map_or(t, |o| o.completed);
        let op = self.write(t, extent, payload)?;
        Ok((block_no, op))
    }

    /// Append a silence hole of `units` units (audio): no disk space
    /// and — on journal-free volumes — no I/O, just a NULL primary
    /// pointer. A journaled volume persists a `Silence` intent record
    /// (the returned [`DiskOp`]) so recovery can rebuild the hole.
    pub fn append_silence(
        &mut self,
        id: StrandId,
        units: u64,
        now: Instant,
    ) -> Result<(BlockNo, Option<DiskOp>), FsError> {
        let block_no = self.recording_with_room(id)?.push_silence(units)?;
        let t = self.ensure_begun(id, now)?;
        let record = Record::Silence {
            strand: id.raw(),
            block: block_no,
            units,
        };
        Ok((block_no, self.journal_append(record, t)?))
    }

    /// Finish a recording: write the 3-level index to disk and freeze the
    /// strand. Returns the header-block extent (the strand's on-disk
    /// root).
    ///
    /// On a journaled volume the finish is a mini-transaction:
    /// `FinishIntent` → index writes → `FinishCommit` → checkpoint. A
    /// crash before the commit record leaves the strand in flight
    /// (recovery rebuilds a fresh index from the journaled blocks); a
    /// crash after it leaves the strand durable.
    pub fn finish_strand(&mut self, id: StrandId, now: Instant) -> Result<Extent, FsError> {
        self.recording_mut(id)?;
        let t = self.ensure_begun(id, now)?;
        let t = self
            .journal_append(Record::FinishIntent { strand: id.raw() }, t)?
            .map_or(t, |o| o.completed);
        let Some(StrandState::Recording(builder)) = self.strands.remove(&id) else {
            unreachable!("state checked above");
        };
        self.commit_index(builder, t)
    }

    /// Make `builder` a finished strand: write its 3-level index at
    /// `now`, freeze it, then journal the `FinishCommit` record and
    /// checkpoint. Returns the header-block extent (the on-disk root).
    fn commit_index(&mut self, builder: StrandBuilder, now: Instant) -> Result<Extent, FsError> {
        let block_bytes = self.disk.geometry().sector_size.get() as usize;
        let index_extents = write_index(&builder, block_bytes, |b| self.write_anywhere(b, now))?;
        let header = *index_extents.last().expect("an index ends at its header");
        let id = builder.id();
        let strand = builder.freeze(index_extents);
        self.strands.insert(id, StrandState::Finished(strand));
        let record = Record::FinishCommit {
            strand: id.raw(),
            header_lba: header.start,
            header_sectors: header.sectors,
        };
        let t = self.last_io;
        let t = self.journal_append(record, t)?.map_or(t, |o| o.completed);
        self.write_checkpoint(t)?;
        Ok(header)
    }

    /// Write one sector of `bytes` wherever the free map first has room.
    fn write_anywhere(&mut self, bytes: &[u8], now: Instant) -> Result<Extent, FsError> {
        let e = self.alloc.allocate_anywhere(1)?;
        self.write(now, e, bytes)?;
        Ok(e)
    }

    fn recording_mut(&mut self, id: StrandId) -> Result<&mut StrandBuilder, FsError> {
        match self.strands.get_mut(&id) {
            Some(StrandState::Recording(b)) => Ok(b),
            Some(StrandState::Finished(_)) => Err(FsError::StrandImmutable(id)),
            None => Err(FsError::UnknownStrand(id)),
        }
    }

    /// The recording strand `id`, once the journal has room for the
    /// records a write to it makes (its `Begin` if it has not begun, and
    /// the write's own), so a refused write allocates and pushes nothing.
    fn recording_with_room(&mut self, id: StrandId) -> Result<&mut StrandBuilder, FsError> {
        self.recording_mut(id)?;
        if let Some(j) = &self.journal {
            j.check_room(if j.has_begun(id.raw()) { 1 } else { 2 })?;
        }
        self.recording_mut(id)
    }

    // ----- strand access ---------------------------------------------

    /// A finished strand.
    pub fn strand(&self, id: StrandId) -> Result<&Strand, FsError> {
        match self.strands.get(&id) {
            Some(StrandState::Finished(s)) => Ok(s),
            Some(StrandState::Recording(_)) => Err(FsError::StrandNotFinished(id)),
            None => Err(FsError::UnknownStrand(id)),
        }
    }

    /// All finished strand ids.
    pub fn strand_ids(&self) -> Vec<StrandId> {
        self.strands
            .iter()
            .filter_map(|(id, s)| match s {
                StrandState::Finished(_) => Some(*id),
                _ => None,
            })
            .collect()
    }

    /// The finished strand with the lowest id ≥ `from` — one step of an
    /// ordered walk over the volume (the scrub cursor's) that collects
    /// nothing.
    pub fn next_strand(&self, from: StrandId) -> Option<&Strand> {
        self.strands.range(from..).find_map(|(_, s)| match s {
            StrandState::Finished(s) => Some(s),
            StrandState::Recording(_) => None,
        })
    }

    /// Read media block `n` of a strand at `now`. Returns `(payload,
    /// op)`; both are `None` for a silence hole (no I/O happens).
    ///
    /// The strict convenience over [`Msm::fetch_block`]: a zero retry
    /// budget, no deadline, the payload materialised — any injected
    /// fault surfaces as the error [`Msm::fetch_error`] maps it to.
    pub fn read_block(
        &mut self,
        id: StrandId,
        n: BlockNo,
        now: Instant,
    ) -> Result<(Option<Vec<u8>>, Option<DiskOp>), FsError> {
        match self.fetch_block(id, n, now, Nanos::ZERO, None, Fetch::Payload)? {
            BlockFetch::Silence => Ok((None, None)),
            BlockFetch::Data { payload, op, .. } => Ok((Some(payload), Some(op))),
            BlockFetch::Failed {
                reason, retries, ..
            } => Err(self.fetch_error(id, n, reason, retries)),
        }
    }

    /// The error a caller with no degradation policy reports when
    /// [`Msm::fetch_block`] returns [`BlockFetch::Failed`] for stored
    /// block `n`.
    pub fn fetch_error(
        &self,
        id: StrandId,
        n: BlockNo,
        reason: FetchFailure,
        retries: u32,
    ) -> FsError {
        let e = self
            .strand(id)
            .and_then(|s| s.block(n))
            .ok()
            .flatten()
            .expect("failed fetch implies a stored extent");
        match reason {
            FetchFailure::Media => FsError::MediaError {
                lba: e.start,
                sectors: e.sectors,
            },
            FetchFailure::RetriesExhausted => FsError::RetriesExhausted {
                lba: e.start,
                retries,
            },
            FetchFailure::Abandoned => FsError::DeadlineAbandoned {
                strand: id,
                block: n,
            },
            FetchFailure::Corrupt => FsError::ChecksumMismatch {
                lba: e.start,
                sectors: e.sectors,
            },
        }
    }

    /// Verify block `n`'s stored payload against the checksum stamped in
    /// the strand index, without virtual time or fault injection — the
    /// primitive of the scrub and of read repair. `Ok(None)` for a
    /// silence hole, which stores nothing to check; otherwise
    /// `Ok(Some(ok))`.
    pub fn check_block_sum(&self, id: StrandId, n: BlockNo) -> Result<Option<bool>, FsError> {
        let strand = self.strand(id)?;
        let e = match strand.block(n)? {
            None => return Ok(None),
            Some(e) => e,
        };
        Ok(Some(self.disk.fetch_sum(e) == Some(strand.block_sum(n)?)))
    }

    /// Overwrite block `n`'s on-disk payload in place — the scrubber's
    /// surgical repair for silent corruption. `data` must be the padded
    /// full-extent payload obtained from a clean replica; the strand
    /// index is untouched, so the rewrite must hash to exactly the
    /// stamped checksum or the repair is refused (a diverged source
    /// would launder one corruption into another).
    pub fn rewrite_block(
        &mut self,
        id: StrandId,
        n: BlockNo,
        now: Instant,
        data: &[u8],
    ) -> Result<DiskOp, FsError> {
        let strand = self.strand(id)?;
        let e = strand.block(n)?.ok_or(FsError::InvalidScenario {
            reason: "cannot rewrite a silence hole",
        })?;
        let sector_size = self.disk.geometry().sector_size.get() as usize;
        if data.len() != e.sectors as usize * sector_size {
            return Err(FsError::InvalidScenario {
                reason: "rewrite payload does not span the block's extent",
            });
        }
        if block_sum(data) != strand.block_sum(n)? {
            return Err(FsError::ChecksumMismatch {
                lba: e.start,
                sectors: e.sectors,
            });
        }
        self.write(now, e, data)
    }

    /// Fetch media block `n` with a continuity-aware retry budget — the
    /// one read path under [`Msm::read_block`] and both service loops.
    ///
    /// `budget` is the service time this read may consume in *failed*
    /// attempts beyond the first — in the simulator it is derived from
    /// the live Eq. 18 round slack, so retrying here can never push
    /// another admitted stream past its continuity bound. `deadline`,
    /// when given, is the block's playback deadline: if `now` is already
    /// past it the read is abandoned without I/O (the degradation policy
    /// drops the block rather than waste disk time on dead data).
    ///
    /// Unless `how` is [`Fetch::Payload`], `Data` carries an empty
    /// `payload` (`Vec::new()` does not allocate) and timing, retries and
    /// fault outcomes are identical: a service loop reads hundreds of
    /// thousands of blocks per round at scale and consumes only the
    /// *timing* of each fetch — copying payloads out of the device image
    /// would dominate the run and churn the allocator. A retry is a request
    /// of its own: [`Fetch::Chained`] chains only the first attempt.
    ///
    /// Unlike [`Msm::read_block`], fault outcomes are *data* here
    /// ([`BlockFetch::Failed`]), not errors — the caller chooses the
    /// degradation step. `Err` is reserved for real failures (unknown
    /// strand, corrupt index).
    pub fn fetch_block(
        &mut self,
        id: StrandId,
        n: BlockNo,
        now: Instant,
        budget: Nanos,
        deadline: Option<Instant>,
        how: Fetch,
    ) -> Result<BlockFetch, FsError> {
        let strand = self.strand(id)?;
        let extent = strand.block(n)?;
        let expected = strand.block_sum(n)?;
        let e = match extent {
            None => return Ok(BlockFetch::Silence),
            Some(e) => e,
        };
        if deadline.is_some_and(|d| now > d) {
            return Ok(BlockFetch::Failed {
                reason: FetchFailure::Abandoned,
                at: now,
                retries: 0,
            });
        }
        let mut t = now;
        let mut retries = 0u32;
        loop {
            let attempt = if how == Fetch::Chained && retries == 0 {
                self.disk.access_chained(t, e, AccessKind::Read)
            } else {
                self.disk.access(t, e, AccessKind::Read)
            };
            match attempt {
                Ok(op) => {
                    // The bytes arrived — but are they the bytes that
                    // were recorded? With verification on, re-hash the
                    // stored payload against the index stamp before
                    // handing it up; a mismatch is unretryable (the
                    // platter holds the wrong bits).
                    if self.verify_reads && self.disk.fetch_sum(e) != Some(expected) {
                        return Ok(BlockFetch::Failed {
                            reason: FetchFailure::Corrupt,
                            at: op.completed,
                            retries,
                        });
                    }
                    // `access` succeeding guarantees the extent is
                    // on-device, so the timed path can skip the copy
                    // outright — an empty Vec never touches the heap.
                    let payload = if how == Fetch::Payload {
                        self.fetch_checked(e, "media extent beyond device")?
                    } else {
                        Vec::new()
                    };
                    return Ok(BlockFetch::Data {
                        payload,
                        op,
                        retries,
                    });
                }
                Err(f) => match f.kind {
                    // Reads are never torn; a crashed device is as
                    // unreadable as bad media.
                    FaultKind::Media | FaultKind::Torn | FaultKind::Crashed => {
                        return Ok(BlockFetch::Failed {
                            reason: FetchFailure::Media,
                            at: f.op.completed,
                            retries,
                        })
                    }
                    FaultKind::Transient => {
                        let at = f.op.completed;
                        let spent = at - now;
                        if spent >= budget {
                            return Ok(BlockFetch::Failed {
                                reason: FetchFailure::RetriesExhausted,
                                at,
                                retries,
                            });
                        }
                        retries += 1;
                        let left = budget - spent;
                        let (sid, attempt) = (id.raw(), retries);
                        self.obs.emit(|| Event::Retry {
                            strand: sid,
                            block: n,
                            attempt,
                            at,
                            budget: left,
                        });
                        t = at;
                    }
                },
            }
        }
    }

    /// Reload a strand purely from its on-disk index, verifying the
    /// storage format end-to-end: every index block is read, and timed,
    /// in [`read_index`]'s walk from the header at `header_extent`.
    pub fn load_strand(
        &mut self,
        id: StrandId,
        header_extent: Extent,
        now: Instant,
    ) -> Result<Strand, FsError> {
        read_index(id, header_extent, |e| {
            let bytes = self.fetch_checked(e, "index extent beyond device")?;
            self.timed_read_bg(now, e)?;
            Ok(bytes)
        })
    }

    /// [`Msm::load_strand`] under the name `benchmark/` binds.
    pub fn load_strand_uncached(
        &mut self,
        id: StrandId,
        header_extent: Extent,
        now: Instant,
    ) -> Result<Strand, FsError> {
        self.load_strand(id, header_extent, now)
    }

    /// Delete a finished strand: free its media blocks and index blocks.
    /// The caller (GC) must have established that no rope references it.
    ///
    /// On a journaled volume a `Delete` intent record lands first and a
    /// checkpoint (which drops the strand from the catalog) follows, so
    /// a crash anywhere in between replays the deletion at recovery.
    pub fn delete_strand(&mut self, id: StrandId) -> Result<(), FsError> {
        self.strand(id)?;
        self.drop_strand(id)
    }

    /// Journal `id`'s `Delete`, drop the strand, free every extent it
    /// holds (stored blocks first, then index) and checkpoint.
    fn drop_strand(&mut self, id: StrandId) -> Result<(), FsError> {
        self.journal_append(Record::Delete { strand: id.raw() }, self.last_io)?;
        match self.strands.remove(&id) {
            Some(StrandState::Finished(s)) => s.extents().for_each(|e| self.free(e)),
            Some(StrandState::Recording(b)) => {
                b.blocks().iter().flatten().for_each(|&e| self.free(e))
            }
            None => unreachable!("the caller checked the strand"),
        }
        self.write_checkpoint(self.last_io)?;
        Ok(())
    }

    /// Discard `e` and return it to the free map — unless the map does
    /// not hold it: an image being repaired may not, and a double free
    /// would corrupt the map further.
    pub(crate) fn free(&mut self, e: Extent) {
        self.disk.discard_data(e);
        if self.alloc.freemap().extent_used(e) {
            self.alloc.release(e);
        }
    }

    /// [`Msm::free`] the parts of `e` that no extent in `held` covers.
    fn free_unheld(&mut self, e: Extent, held: &[Extent]) {
        let mut cover: Vec<Extent> = held.iter().copied().filter(|h| h.overlaps(e)).collect();
        cover.sort_unstable_by_key(|h| h.start);
        let mut start = e.start;
        for h in cover.into_iter().chain([Extent::new(e.end(), 0)]) {
            if h.start > start {
                self.free(Extent::new(start, h.start - start));
            }
            start = start.max(h.end());
        }
    }

    /// Every extent that holds sectors: the journal region, the text
    /// files, and each strand's blocks and index, finished or
    /// recording — what fsck's leak rule reaches and a repair cut must
    /// not release.
    pub(crate) fn reachable(&self) -> impl Iterator<Item = Extent> + '_ {
        let volume = self
            .journal_region()
            .into_iter()
            .chain(self.text_extents.clone());
        let strands = self.strands.values().flat_map(|s| match s {
            StrandState::Finished(s) => s.extents().collect::<Vec<_>>(),
            StrandState::Recording(b) => b.blocks().iter().flatten().copied().collect(),
        });
        volume.chain(strands)
    }

    /// Abort a strand that is still recording: journal a `Delete`
    /// intent, release every block it has written, and drop the
    /// builder. A finished strand is deleted outright. The cluster's
    /// restore pass uses this to unwind a half-copied destination
    /// strand when its source volume dies mid-copy, so the surviving
    /// member stays fsck-clean and leak-free.
    pub fn abort_strand(&mut self, id: StrandId) -> Result<(), FsError> {
        if self.recording_mut(id).is_err() {
            // Finished, or unknown: the delete tells which.
            return self.delete_strand(id);
        }
        self.drop_strand(id)
    }

    /// Truncate a finished strand to its first `keep` blocks, rewriting
    /// its on-disk index — fsck's repair primitive for dangling block
    /// pointers. `keep == 0` deletes the strand outright. The tail and
    /// the old index are released but for sectors a kept block or
    /// `Msm::reachable` still holds (an overlap's first claimant keeps
    /// its blocks) and extents the free map does not hold allocated (the
    /// corruption being repaired), which are skipped, not double-freed.
    pub fn truncate_strand(
        &mut self,
        id: StrandId,
        keep: u64,
        now: Instant,
    ) -> Result<(), FsError> {
        self.strand(id)?;
        if keep == 0 {
            self.journal_append(Record::Delete { strand: id.raw() }, self.last_io)?;
        }
        let Some(StrandState::Finished(strand)) = self.strands.remove(&id) else {
            unreachable!("state checked above");
        };
        let count = strand.block_count();
        let keep = keep.min(count);
        let meta = *strand.meta();
        // Drop the tail blocks, then the old index.
        let kept = strand.stored_iter().filter(|&(n, _)| n < keep);
        let held: Vec<Extent> = self.reachable().chain(kept.map(|(_, e)| e)).collect();
        let tail = strand.stored_iter().filter(|&(n, _)| n >= keep);
        for e in tail
            .map(|(_, e)| e)
            .chain(strand.index_extents().iter().copied())
        {
            self.free_unheld(e, &held);
        }
        if keep == 0 {
            return self.write_checkpoint(self.last_io).map(|_| ());
        }
        // Rebuild: every block carries `granularity` units except the
        // original final block, which keeps its partial fill.
        let mut builder = StrandBuilder::new(id, meta);
        for (i, b) in strand.blocks().iter().take(keep as usize).enumerate() {
            let units = if i as u64 == count - 1 {
                strand
                    .unit_count()
                    .saturating_sub((count - 1) * meta.granularity)
                    .clamp(1, meta.granularity)
            } else {
                meta.granularity
            };
            match b {
                // Kept blocks keep their original checksum stamp.
                Some(e) => builder.push_block(*e, units, strand.sums()[i])?,
                None => builder.push_silence(units)?,
            };
        }
        // The old index may sit on media the armed plan marks bad, and
        // first-fit would put the new one right back there: fence the
        // free bad sectors off while the index is written.
        let fence = self.fence_bad_sectors();
        let done = self.commit_index(builder, now);
        for e in fence {
            self.alloc.release(e);
        }
        done.map(|_| ())
    }

    /// Claim every free sector the armed fault plan marks bad; the
    /// sectors claimed, for the caller to release.
    fn fence_bad_sectors(&mut self) -> Vec<Extent> {
        let mut fence = Vec::new();
        for b in self.disk.bad_extents().to_vec() {
            let end = b.end().min(self.alloc.freemap().total());
            let mut from = b.start;
            while let Some(s) = self.alloc.freemap().find_free_run(from, end, 1) {
                let e = Extent::new(s, 1);
                self.alloc.adopt(e);
                fence.push(e);
                from = s + 1;
            }
        }
        fence
    }

    /// Direct allocator access for hand-corrupting volumes in fsck
    /// repair tests.
    #[cfg(test)]
    pub(crate) fn allocator_mut(&mut self) -> &mut Allocator {
        &mut self.alloc
    }

    // ----- scattering maintenance (§4.2) ------------------------------

    /// Heal the edit boundary between `left` and `right`: decide the copy
    /// plan (Eqs. 19–20), copy the planned blocks into a new immutable
    /// strand placed with bounded gaps adjacent to the surviving side,
    /// and return `(plan, new strand id)`. Returns `Ok(None)` when either
    /// side spans zero blocks (nothing to heal).
    ///
    /// The caller rewrites the rope's refs: for a `Right` plan, the right
    /// interval's first `count` blocks now come from the new strand; for
    /// a `Left` plan, symmetric.
    pub fn heal_boundary(
        &mut self,
        left: &StrandRef,
        right: &StrandRef,
        now: Instant,
    ) -> Result<Option<(CopyPlan, StrandId)>, FsError> {
        if left.len_units == 0 || right.len_units == 0 {
            return Ok(None);
        }
        let (l_seek_max, l_lower) = self.healing_params();
        let plan = plan_boundary(left, right, l_seek_max, l_lower, self.occupancy());
        if plan.count == 0 {
            return Ok(None);
        }
        let (src, anchor) = match plan.side {
            // Copy the first blocks of `right`, anchored after the last
            // stored block of `left`.
            CopySide::Right => (right, self.stored_end_of(left, true)?),
            // Copy the last blocks of `left`, anchored after the first
            // stored block of `right`, although the copies play before
            // it.
            CopySide::Left => (left, self.stored_end_of(right, false)?),
        };
        let first_block = plan.first_block(src);
        let new_id =
            self.copy_blocks_to_new_strand(src.strand, first_block, plan.count, anchor, now)?;
        Ok(Some((plan, new_id)))
    }

    /// The `(l_seek_max, l_lower)` pair the next boundary heal will plan
    /// against. A degenerate zero lower bound means blocks may be
    /// adjacent and no boundary can violate continuity from below; still
    /// bound the copy count by the upper-bound criterion via one block
    /// minimum.
    fn healing_params(&self) -> (Seconds, Seconds) {
        let (l_lower, _) = self.scattering_time_bounds();
        let l_seek_max = self.disk.max_positioning_time();
        let l_lower = if l_lower.get() <= 0.0 {
            self.disk.positioning_time(1)
        } else {
            l_lower
        };
        (l_seek_max, l_lower)
    }

    /// The Eq. 19/20 copy bound currently in force: what `heal_boundary`
    /// caps its plan at, given the live occupancy regime. Exposed so the
    /// edit layer can report (and tests can assert) that measured copy
    /// counts never exceed the paper's bound.
    pub fn current_copy_bound(&self) -> u64 {
        let (l_seek_max, l_lower) = self.healing_params();
        copy_bound(l_seek_max, l_lower, self.occupancy())
    }

    /// The first stored block of `r`'s interval — or, with `last`, the
    /// last one.
    fn stored_end_of(&self, r: &StrandRef, last: bool) -> Result<Option<Extent>, FsError> {
        let s = self.strand(r.strand)?;
        let (first, end) = (r.start_block(), r.end_block());
        for n in first..=end {
            let n = if last { first + end - n } else { n };
            if let Some(e) = s.block(n)? {
                return Ok(Some(e));
            }
        }
        Ok(None)
    }

    /// Copy `count` media blocks of `src` starting at `first_block` into
    /// a brand-new strand whose blocks are allocated under the scattering
    /// constraint, anchored after `anchor` (or first-fit when `None`).
    pub fn copy_blocks_to_new_strand(
        &mut self,
        src: StrandId,
        first_block: BlockNo,
        count: u64,
        anchor: Option<Extent>,
        now: Instant,
    ) -> Result<StrandId, FsError> {
        let meta = *self.strand(src)?.meta();
        let new_id = self.begin_strand(meta);
        let mut prev = anchor;
        let mut t = now;
        for i in 0..count {
            let n = first_block + i;
            let src_strand = self.strand(src)?;
            let (src_extent, src_sum) = (src_strand.block(n)?, src_strand.block_sum(n)?);
            match src_extent {
                None => {
                    let (_, op) = self.append_silence(new_id, meta.granularity, t)?;
                    t = op.map_or(t, |o| o.completed);
                }
                Some(e) => {
                    let data = self.fetch_checked(e, "media extent beyond device")?;
                    t = self.timed_read_bg(t, e)?.completed;
                    let dst = match prev {
                        Some(p) => self.alloc.allocate_after(p, e.sectors)?,
                        None => self.alloc.allocate_first(e.sectors)?,
                    };
                    t = self.write(t, dst, &data)?.completed;
                    // The copy keeps the stamp the source was recorded
                    // with: re-hashing the bytes just read would give
                    // rot under the source a fresh, valid stamp.
                    let builder = self.recording_mut(new_id)?;
                    builder.push_block(dst, meta.granularity, src_sum)?;
                    prev = Some(dst);
                }
            }
        }
        self.finish_strand(new_id, t)?;
        Ok(new_id)
    }

    // ----- non-real-time infill ---------------------------------------

    /// Store a conventional (text) file in the gaps between media blocks
    /// — the paper's point that a common server can host both kinds of
    /// data. Returns the extents used.
    pub fn store_text_file(&mut self, data: &[u8], now: Instant) -> Result<Vec<Extent>, FsError> {
        let ss = self.disk.geometry().sector_size.get() as usize;
        let extents = data
            .chunks(ss)
            .map(|chunk| self.write_anywhere(chunk, now))
            .collect::<Result<Vec<_>, _>>()?;
        // Remember the placement so fsck can tell infill from leaked
        // space. Text files are not journaled: a crash orphans them, and
        // recovery, which builds its free map afresh, leaves the sectors
        // free.
        self.text_extents.extend_from_slice(&extents);
        Ok(extents)
    }

    // ----- crash recovery ---------------------------------------------

    /// Mount a volume from a (possibly crashed) device image: the
    /// journal says what its log holds ([`Journal::replay`]), and the
    /// MSM does the I/O. It times every sector the replay read, adopts
    /// each durable strand from its index, keeps each in-flight
    /// recording's longest prefix whose data verifies against the
    /// journaled stamps (the rest rolled back), finishes those with a
    /// fresh index, and checkpoints. The device must have been
    /// power-cycled first if a crash point froze it
    /// ([`SimDisk::power_cycle`]).
    ///
    /// `config` must enable the journal with the same sizing the volume
    /// was created with.
    pub fn recover(
        device: SimDisk,
        config: MsmConfig,
        now: Instant,
    ) -> Result<(Msm, RecoveryReport), FsError> {
        let mut msm = Msm::new(device, config);
        let Some(j) = msm.journal.as_mut() else {
            return Err(FsError::JournalCorrupt {
                what: "recovery requires a journal-enabled config",
            });
        };
        let replay = j.replay(|e| msm.disk.try_fetch(e));
        msm.next_strand = replay.next_strand;
        let mut report = RecoveryReport {
            durable_strands: replay.durable.len() as u64,
            deleted_strands: replay.deleted.len() as u64,
            ..RecoveryReport::default()
        };
        let mut t = now;
        for e in replay.reads {
            t = msm.timed_read_bg(t, e)?.completed;
        }
        // A journaled deletion took physical effect before the crash, so
        // its strand is simply not adopted.
        for entry in replay.durable {
            let id = StrandId::from_raw(entry.strand);
            let strand = msm.load_strand(id, entry.header, t)?;
            for e in strand.extents() {
                msm.alloc.adopt(e);
            }
            msm.strands.insert(id, StrandState::Finished(strand));
        }

        let mut to_finish = Vec::new();
        for (raw, (meta, blocks)) in replay.inflight {
            let id = StrandId::from_raw(raw);
            let mut builder = StrandBuilder::new(id, meta);
            let mut intact = true;
            for b in blocks {
                // The first torn or unwritten block ends the prefix; it
                // and every block after it roll back.
                intact = intact
                    && b.extent
                        .is_none_or(|e| msm.disk.fetch_sum(e) == Some(b.sum));
                if !intact {
                    if let Some(e) = b.extent {
                        msm.disk.discard_data(e);
                    }
                    report.blocks_rolled_back += 1;
                    continue;
                }
                match b.extent {
                    Some(e) => {
                        t = msm.timed_read_bg(t, e)?.completed;
                        msm.alloc.adopt(e);
                        builder.push_block(e, b.units, b.sum)?
                    }
                    None => builder.push_silence(b.units)?,
                };
                report.blocks_recovered += 1;
            }
            if builder.last_stored().is_some() {
                msm.strands.insert(id, StrandState::Recording(builder));
                to_finish.push(id);
            }
        }

        // The survivors finish through the normal journaled path, and a
        // checkpoint follows even when nothing was in flight, so a
        // second recovery replays an empty tail.
        report.completed_strands = to_finish.len() as u64;
        for id in to_finish {
            msm.finish_strand(id, t)?;
            t = msm.last_io;
        }
        t = msm.write_checkpoint(t)?;

        report.finished_at = t;
        msm.obs.emit(|| Event::Recover {
            durable: report.durable_strands,
            completed: report.completed_strands,
            blocks_recovered: report.blocks_recovered,
            blocks_rolled_back: report.blocks_rolled_back,
            at: t,
        });
        Ok((msm, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strandfs_disk::{DiskGeometry, SeekModel};
    use strandfs_media::Medium;
    use strandfs_units::Bits;

    fn msm() -> Msm {
        let disk = SimDisk::new(DiskGeometry::vintage_1991(), SeekModel::vintage_1991());
        let bounds = GapBounds {
            min_sectors: 0,
            max_sectors: 40_000,
        };
        Msm::new(disk, MsmConfig::constrained(bounds, 7))
    }

    fn video_meta() -> StrandMeta {
        StrandMeta {
            medium: Medium::Video,
            unit_rate: 30.0,
            granularity: 3,
            unit_bits: Bits::new(96_000),
        }
    }

    fn record_video(m: &mut Msm, blocks: u64) -> StrandId {
        let id = m.begin_strand(video_meta());
        let mut t = Instant::EPOCH;
        for i in 0..blocks {
            let payload = vec![i as u8; 36_000]; // 3 frames * 12 KB
            let (_, op) = m.append_block(id, t, &payload, 3).unwrap();
            t = op.completed;
        }
        m.finish_strand(id, t).unwrap();
        id
    }

    #[test]
    fn record_and_read_back() {
        let mut m = msm();
        let id = record_video(&mut m, 10);
        let s = m.strand(id).unwrap();
        assert_eq!(s.block_count(), 10);
        assert_eq!(s.unit_count(), 30);
        assert!(!s.index_extents().is_empty());
        let (payload, op) = m.read_block(id, 4, Instant::EPOCH).unwrap();
        let payload = payload.unwrap();
        assert!(op.is_some());
        assert_eq!(&payload[..36_000], &vec![4u8; 36_000][..]);
    }

    #[test]
    fn blocks_respect_gap_bounds() {
        let mut m = msm();
        let id = record_video(&mut m, 20);
        let s = m.strand(id).unwrap();
        let blocks: Vec<Extent> = s.stored_iter().map(|(_, e)| e).collect();
        for w in blocks.windows(2) {
            let gap = w[1].start.saturating_sub(w[0].end());
            assert!(
                m.gap_bounds().admits(gap) || w[1].start < w[0].start,
                "gap {gap} violates bounds"
            );
        }
    }

    #[test]
    fn a_refused_journal_write_leaves_nothing_behind() {
        let disk = SimDisk::new(DiskGeometry::vintage_1991(), SeekModel::vintage_1991());
        let bounds = GapBounds {
            min_sectors: 0,
            max_sectors: 40_000,
        };
        let journal = JournalConfig {
            slots: 4,
            ..JournalConfig::default()
        };
        let mut m = Msm::new(
            disk,
            MsmConfig::constrained(bounds, 7).with_journal(journal),
        );
        let payload = [7u8; 36_000];
        // `a`'s Begin and three appends fill the four slots; `b` has
        // not begun.
        let a = m.begin_strand(video_meta());
        for _ in 0..3 {
            m.append_block(a, Instant::EPOCH, &payload, 3).unwrap();
        }
        let b = m.begin_strand(video_meta());
        let full = |e: FsError| matches!(e, FsError::JournalCorrupt { .. });
        for id in [a, b, a] {
            let state = |m: &mut Msm| {
                let blocks = m.recording_mut(id).unwrap().block_count();
                let journal = format!("{:?}", m.journal);
                (m.allocator().freemap().used(), blocks, journal)
            };
            let before = state(&mut m);
            assert!(full(
                m.append_block(id, Instant::EPOCH, &payload, 3).unwrap_err()
            ));
            assert!(full(m.append_silence(id, 3, Instant::EPOCH).unwrap_err()));
            assert_eq!(state(&mut m), before, "strand {id:?}");
        }
    }

    #[test]
    fn silence_holes_cost_nothing() {
        let mut m = msm();
        let meta = StrandMeta {
            medium: Medium::Audio,
            unit_rate: 8_000.0,
            granularity: 800,
            unit_bits: Bits::new(8),
        };
        let id = m.begin_strand(meta);
        let used_before = m.allocator().freemap().used();
        m.append_block(id, Instant::EPOCH, &[1u8; 800], 800)
            .unwrap();
        let after_block = m.allocator().freemap().used();
        m.append_silence(id, 800, Instant::EPOCH).unwrap();
        assert_eq!(m.allocator().freemap().used(), after_block);
        m.append_block(id, Instant::EPOCH, &[2u8; 800], 800)
            .unwrap();
        m.finish_strand(id, Instant::EPOCH).unwrap();
        assert!(after_block > used_before);
        let (p, op) = m.read_block(id, 1, Instant::EPOCH).unwrap();
        assert!(p.is_none() && op.is_none());
        let s = m.strand(id).unwrap();
        assert_eq!(s.block_count(), 3);
        assert!((s.silence_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn index_round_trips_through_disk() {
        let mut m = msm();
        let id = m.begin_strand(video_meta());
        let mut t = Instant::EPOCH;
        for i in 0..100u64 {
            if i % 9 == 3 {
                m.append_silence(id, 3, t).unwrap();
            } else {
                let (_, op) = m
                    .append_block(id, t, &vec![(i % 251) as u8; 36_000], 3)
                    .unwrap();
                t = op.completed;
            }
        }
        let header = m.finish_strand(id, t).unwrap();
        let loaded = m.load_strand(id, header, t).unwrap();
        let original = m.strand(id).unwrap();
        assert_eq!(loaded.blocks(), original.blocks());
        assert_eq!(loaded.unit_count(), original.unit_count());
        assert_eq!(loaded.meta(), original.meta());
    }

    #[test]
    fn every_load_strand_reads_its_index_from_disk() {
        let mut m = msm();
        let id = record_video(&mut m, 100);
        let index = m.strand(id).unwrap().index_extents().to_vec();
        let header = *index.last().unwrap();
        let (sink, recorder) = ObsSink::ring(1_024);
        m.set_obs(sink);
        m.load_strand(id, header, Instant::EPOCH).unwrap();
        m.load_strand(id, header, Instant::EPOCH).unwrap();
        let r = recorder.borrow();
        let reads: Vec<(u64, u64)> = r
            .events()
            .filter_map(|e| match e {
                Event::DiskOp { lba, sectors, .. } => Some((*lba, *sectors)),
                _ => None,
            })
            .collect();
        let (first, second) = reads.split_at(reads.len() / 2);
        assert_eq!(first.len(), index.len());
        assert_eq!(first, second);
    }

    #[test]
    fn a_flipped_sum_in_a_primary_is_an_index_mismatch() {
        use crate::fsck::{check_msm, Finding};
        use crate::strand::index::PrimaryBlock;
        let mut m = msm();
        let id = record_video(&mut m, 10);
        assert!(check_msm(&mut m, Instant::EPOCH).clean());
        // Index blocks carry no checksum: one changed stamp still
        // decodes, and only the reloaded sums tell.
        let primary = m.strand(id).unwrap().index_extents()[0];
        let mut pb = PrimaryBlock::decode(&m.disk.try_fetch(primary).unwrap()).unwrap();
        pb.entries[3].sum ^= 1;
        m.disk.store_data(primary, &pb.encode(512));
        let findings = check_msm(&mut m, Instant::EPOCH).findings;
        assert!(
            matches!(&findings[..], [Finding::IndexMismatch { strand, .. }] if *strand == id),
            "findings: {findings:?}"
        );
    }

    #[test]
    fn append_after_finish_rejected() {
        let mut m = msm();
        let id = record_video(&mut m, 2);
        assert!(matches!(
            m.append_block(id, Instant::EPOCH, &[0u8; 100], 1),
            Err(FsError::StrandImmutable(_))
        ));
        assert!(matches!(
            m.finish_strand(id, Instant::EPOCH),
            Err(FsError::StrandImmutable(_))
        ));
    }

    #[test]
    fn unknown_and_unfinished_strands() {
        let mut m = msm();
        let ghost = StrandId::from_raw(999);
        assert!(matches!(m.strand(ghost), Err(FsError::UnknownStrand(_))));
        let rec = m.begin_strand(video_meta());
        assert!(matches!(m.strand(rec), Err(FsError::StrandNotFinished(_))));
        assert!(matches!(
            m.delete_strand(rec),
            Err(FsError::StrandNotFinished(_))
        ));
    }

    #[test]
    fn delete_strand_reclaims_space() {
        let mut m = msm();
        let before = m.allocator().freemap().used();
        let id = record_video(&mut m, 10);
        assert!(m.allocator().freemap().used() > before);
        m.delete_strand(id).unwrap();
        assert_eq!(m.allocator().freemap().used(), before);
        assert!(matches!(m.strand(id), Err(FsError::UnknownStrand(_))));
    }

    #[test]
    fn a_delete_frees_stored_blocks_before_index_blocks() {
        // A corrupt image: a strand's stored block spans its own index
        // root. Whichever is freed first is released whole, and the
        // other is then not held and is skipped — so the order shows.
        let mut m = msm();
        let id = m.begin_strand(video_meta());
        let stored = m.alloc.allocate_anywhere(4).unwrap();
        let root = Extent::new(stored.start + 2, 1);
        let mut builder = StrandBuilder::new(id, video_meta());
        builder.push_block(stored, 3, 7).unwrap();
        let strand = builder.freeze(vec![root]);
        m.strands.insert(id, StrandState::Finished(strand));
        m.delete_strand(id).unwrap();
        // Index first would have left the stored block's other three
        // sectors allocated.
        assert_eq!(m.allocator().freemap().used(), 0);
    }

    #[test]
    fn heal_boundary_creates_bridging_strand() {
        let mut m = msm();
        let a = record_video(&mut m, 30);
        let b = record_video(&mut m, 30);
        let left = StrandRef {
            strand: a,
            start_unit: 0,
            len_units: 90,
            unit_rate: 30.0,
            granularity: 3,
        };
        let right = StrandRef {
            strand: b,
            start_unit: 0,
            len_units: 90,
            unit_rate: 30.0,
            granularity: 3,
        };
        let healed = m.heal_boundary(&left, &right, Instant::EPOCH).unwrap();
        let (plan, new_id) = healed.expect("healing should trigger");
        assert!(plan.count >= 1);
        let new_strand = m.strand(new_id).unwrap();
        assert_eq!(new_strand.block_count(), plan.count);
        // The copied blocks hold the same payloads as the originals.
        let (src_strand, first) = match plan.side {
            CopySide::Right => (b, 0u64),
            CopySide::Left => (a, 30 - plan.count),
        };
        for i in 0..plan.count {
            let (orig, _) = m.read_block(src_strand, first + i, Instant::EPOCH).unwrap();
            let (copy, _) = m.read_block(new_id, i, Instant::EPOCH).unwrap();
            assert_eq!(orig, copy, "block {i} differs");
        }
    }

    #[test]
    fn edit_copy_carries_the_source_stamp() {
        let mut m = msm();
        let src = record_video(&mut m, 3);
        // One bit rots under block 1 after it was stamped.
        let e = m.strand(src).unwrap().block(1).unwrap().unwrap();
        let mut data = m.disk.try_fetch(e).unwrap();
        data[1_000] ^= 0x10;
        m.disk.store_data(e, &data);
        assert_eq!(m.check_block_sum(src, 1), Ok(Some(false)));

        let copy = m
            .copy_blocks_to_new_strand(src, 0, 3, None, Instant::EPOCH)
            .unwrap();
        // The copy is byte-for-byte the source, rot included, and still
        // says so: a stamp computed from the bytes just read would have
        // declared the rotten block clean.
        assert_eq!(m.check_block_sum(copy, 0), Ok(Some(true)));
        assert_eq!(m.check_block_sum(copy, 1), Ok(Some(false)));
        assert_eq!(m.check_block_sum(copy, 2), Ok(Some(true)));
    }

    #[test]
    fn text_files_fill_gaps() {
        let mut m = msm();
        let _id = record_video(&mut m, 10);
        let exts = m
            .store_text_file(&vec![0xAAu8; 2_000], Instant::EPOCH)
            .unwrap();
        assert_eq!(exts.len(), 4); // 2000 bytes / 512 = 4 sectors
                                   // Infill never overlaps media blocks (enforced by the free map;
                                   // would have panicked otherwise).
    }

    #[test]
    fn alloc_events_carry_gap_and_slack() {
        let (sink, recorder) = ObsSink::ring(256);
        let mut m = msm();
        m.set_obs(sink);
        let id = record_video(&mut m, 10);
        let s = m.strand(id).unwrap();
        let blocks: Vec<Extent> = s.stored_iter().map(|(_, e)| e).collect();
        let r = recorder.borrow();
        let allocs: Vec<_> = r
            .events()
            .filter(|e| matches!(e, Event::Alloc { .. }))
            .collect();
        assert_eq!(allocs.len(), 10);
        // First placement has no gap; later ones report the real layout
        // gap and its slack under max_sectors.
        for (i, ev) in allocs.iter().enumerate() {
            let Event::Alloc {
                block,
                lba,
                gap,
                slack,
                ..
            } = ev
            else {
                unreachable!()
            };
            assert_eq!(*block, i as u64);
            assert_eq!(*lba, blocks[i].start);
            if i == 0 {
                assert_eq!(*gap, None);
            } else {
                let expect = blocks[i].start - blocks[i - 1].end();
                assert_eq!(*gap, Some(expect));
                assert_eq!(*slack, Some(m.gap_bounds().max_sectors - expect));
            }
        }
        // The disk's op stream rode along on the same sink.
        assert!(r.metrics().tally.disk_writes >= 10);
    }

    #[test]
    fn admission_controller_wired_to_disk() {
        let mut m = msm();
        let env = *m.admission().env();
        assert!(env.r_dt.is_valid());
        assert!(env.l_seek_max > env.l_ds_avg);
        let (lo, hi) = m.scattering_time_bounds();
        assert!(lo <= hi);
    }
}

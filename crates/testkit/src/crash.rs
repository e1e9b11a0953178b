//! Crash-point sweep harness: exhaustive crash-consistency checking
//! for journaled volumes.
//!
//! The harness drives one deterministic recording scenario — a finished
//! video strand, a finished-then-deleted strand, an audio strand with
//! silence holes, and an unjournaled text file — on a volume whose disk
//! is armed with a crash point, crashing at **every** device-write
//! index in turn ([`CrashPoint::AfterWrites`]). After each crash the
//! device is power-cycled, remounted through [`Msm::recover`], and the
//! recovered volume is checked against the intended scenario:
//!
//! 1. every recovered strand is a *prefix* of what was being recorded
//!    (per-block payloads verified byte-for-byte against the intent);
//! 2. strands whose commit + checkpoint landed before the crash are
//!    fully present; a journaled deletion that landed stays deleted;
//! 3. the rebuilt free map covers exactly the reachable extents (every
//!    strand block, every index block, the journal region);
//! 4. `fsck` comes back clean with no repairs needed;
//! 5. the volume stays writable — a fresh strand records and finishes
//!    after recovery;
//! 6. the post-recovery device image is byte-identical across replays
//!    (same crash index + seed ⇒ same device content hash).
//!
//! An invariant violation panics with the crash index in the message,
//! so a failing sweep pinpoints the exact write that breaks recovery.

use strandfs_core::fsck;
use strandfs_core::journal::{fnv1a, JournalConfig};
use strandfs_core::msm::{Msm, MsmConfig};
use strandfs_core::strand::{Strand, StrandMeta};
use strandfs_core::{FsError, StrandId};
use strandfs_disk::{CrashPoint, DiskGeometry, FaultPlan, GapBounds, SeekModel, SimDisk};
use strandfs_media::Medium;
use strandfs_units::{Bits, Instant};

/// Journal slots for sweep volumes: small enough to keep the region a
/// sliver of the tiny test disk, large enough that the scenario never
/// wraps.
const SLOTS: u64 = 64;

/// Every scenario payload is two 512-byte sectors.
const PAYLOAD_BYTES: usize = 1024;

/// One planned entry of a scenario strand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlannedBlock {
    /// A stored media block of `units` units.
    Data {
        /// Units carried by the block.
        units: u64,
    },
    /// A silence hole of `units` units (NULL primary pointer).
    Silence {
        /// Units covered by the hole.
        units: u64,
    },
}

/// Device-write counts at the scenario's durability milestones, taken
/// from an uncrashed baseline run. A crash at write index `i` happens
/// *instead of* write `i`, so a milestone needing writes `0..m` is
/// durable exactly when `i >= m`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WriteMarks {
    /// Writes after strand 0's finish + checkpoint landed.
    pub a_durable: u64,
    /// Writes after strand 1's journaled deletion landed.
    pub c_deleted: u64,
    /// Writes after strand 2's finish + checkpoint landed.
    pub b_durable: u64,
    /// Total device writes of the full scenario (the sweep space).
    pub total: u64,
}

/// What one crash + recovery produced.
#[derive(Clone, Copy, Debug)]
pub struct CrashOutcome {
    /// The write index that crashed.
    pub crash_at: u64,
    /// Strands recovered durable (catalog + committed finishes).
    pub durable_strands: u64,
    /// In-flight strands completed from their journaled prefix.
    pub completed_strands: u64,
    /// Blocks kept after checksum verification.
    pub blocks_recovered: u64,
    /// Blocks rolled back (torn, unwritten, or past a torn one).
    pub blocks_rolled_back: u64,
    /// Journaled deletions re-applied.
    pub deleted_strands: u64,
    /// Virtual nanoseconds the mount + recovery took.
    pub recovery_ns: u64,
    /// Device image fingerprint after recovery (before the
    /// writability probe).
    pub image_hash: u64,
}

/// Aggregate result of a full crash-point sweep.
#[derive(Clone, Debug)]
pub struct SweepSummary {
    /// Device writes in the uncrashed scenario == crash points swept.
    pub writes: u64,
    /// Total blocks recovered across all crash points.
    pub blocks_recovered: u64,
    /// Total blocks rolled back across all crash points.
    pub blocks_rolled_back: u64,
    /// Total in-flight strands completed across all crash points.
    pub completed_strands: u64,
    /// Total durable strands seen across all crash points.
    pub durable_strands: u64,
    /// Total deletions re-applied across all crash points.
    pub deleted_strands: u64,
    /// Total virtual recovery time across all crash points, ns.
    pub recovery_ns_total: u64,
    /// FNV-1a fold of every post-recovery image hash, in crash-index
    /// order — one number pinning the whole sweep's byte-level outcome.
    pub fingerprint: u64,
    /// Per-crash-point outcomes, in crash-index order.
    pub outcomes: Vec<CrashOutcome>,
}

/// The volume configuration every sweep run records and recovers with.
pub fn msm_config() -> MsmConfig {
    MsmConfig::constrained(
        GapBounds {
            min_sectors: 0,
            max_sectors: 128,
        },
        1,
    )
    .with_journal(JournalConfig {
        slots: SLOTS,
        ..JournalConfig::default()
    })
}

fn meta_video() -> StrandMeta {
    StrandMeta {
        medium: Medium::Video,
        unit_rate: 30.0,
        granularity: 2,
        unit_bits: Bits::new(4096),
    }
}

fn meta_audio() -> StrandMeta {
    StrandMeta {
        medium: Medium::Audio,
        unit_rate: 8_000.0,
        granularity: 800,
        unit_bits: Bits::new(8),
    }
}

/// The intended block sequence of scenario strand `raw` (0 = finished
/// video, 1 = finished-then-deleted video, 2 = audio with silence).
pub fn expected_blocks(raw: u64) -> Vec<PlannedBlock> {
    let data = |units| PlannedBlock::Data { units };
    match raw {
        0 => vec![data(2); 5],
        1 => vec![data(2); 2],
        2 => vec![
            data(800),
            data(800),
            PlannedBlock::Silence { units: 800 },
            data(800),
            PlannedBlock::Silence { units: 800 },
            data(800),
        ],
        _ => Vec::new(),
    }
}

/// The intended payload of block `block` of scenario strand `raw`:
/// a distinct, nonzero fill so a torn suffix can never masquerade as
/// intact content.
pub fn block_payload(raw: u64, block: u64) -> Vec<u8> {
    vec![(1 + raw * 40 + block) as u8; PAYLOAD_BYTES]
}

fn fresh_msm(crash: Option<u64>, seed: u64) -> Msm {
    let mut disk =
        SimDisk::new(DiskGeometry::tiny_test(), SeekModel::vintage_1991()).with_fault_seed(seed);
    if let Some(i) = crash {
        disk.arm_faults(FaultPlan::clean().with_crash_point(CrashPoint::AfterWrites(i)));
    }
    Msm::new(disk, msm_config())
}

/// Run the scenario, calling `mark` after each durability milestone
/// (and once at the end). Stops at the first write fault — exactly what
/// a crash does to a recorder.
fn run_workload(msm: &mut Msm, mut mark: impl FnMut(&Msm)) -> Result<(), FsError> {
    let mut t = Instant::EPOCH;
    let mut record = |msm: &mut Msm, raw: u64, meta: StrandMeta| -> Result<StrandId, FsError> {
        let id = msm.begin_strand(meta);
        for (n, b) in expected_blocks(raw).into_iter().enumerate() {
            match b {
                PlannedBlock::Data { units } => {
                    let (_, op) = msm.append_block(id, t, &block_payload(raw, n as u64), units)?;
                    t = op.completed;
                }
                PlannedBlock::Silence { units } => {
                    let (_, op) = msm.append_silence(id, units, t)?;
                    if let Some(op) = op {
                        t = op.completed;
                    }
                }
            }
        }
        msm.finish_strand(id, t)?;
        Ok(id)
    };
    record(msm, 0, meta_video())?;
    mark(msm); // strand 0 durable
    let c = record(msm, 1, meta_video())?;
    msm.delete_strand(c)?;
    mark(msm); // strand 1 deleted
    record(msm, 2, meta_audio())?;
    mark(msm); // strand 2 durable
    msm.store_text_file(&[0x5A; 1200], Instant::EPOCH)?;
    mark(msm); // scenario complete
    Ok(())
}

/// Run the scenario uncrashed and capture the write-count milestones
/// that parameterize the sweep's durability assertions.
pub fn baseline_marks(seed: u64) -> WriteMarks {
    let mut msm = fresh_msm(None, seed);
    let mut counts = Vec::new();
    run_workload(&mut msm, |m| counts.push(m.disk().stats().writes))
        .expect("uncrashed scenario must complete");
    assert_eq!(counts.len(), 4, "scenario has four milestones");
    WriteMarks {
        a_durable: counts[0],
        c_deleted: counts[1],
        b_durable: counts[2],
        total: counts[3],
    }
}

/// Every block of a strand as read off the device, `None` for a
/// silence hole.
pub(crate) type Image = Vec<Option<Vec<u8>>>;

/// Block `k` of `strand` read off the device, `None` for a silence hole.
pub(crate) fn block_image(msm: &Msm, strand: &Strand, k: u64) -> Result<Option<Vec<u8>>, String> {
    match strand.block(k).map_err(|e| format!("block {k}: {e}"))? {
        None => Ok(None),
        Some(e) => (msm.disk().try_fetch(e).map(Some))
            .ok_or_else(|| format!("block {k}: extent {e:?} off-device")),
    }
}

/// Every block of `strand` read off the device: its [`Image`].
pub(crate) fn strand_image(msm: &Msm, strand: &Strand) -> Result<Image, String> {
    (0..strand.block_count())
        .map(|k| block_image(msm, strand, k))
        .collect()
}

/// A recovered strand's image is a prefix of its write intent: no more
/// blocks, each the same hole or the same bytes.
pub(crate) fn check_prefix(image: &Image, intent: &Image) -> Result<(), String> {
    let (n, of) = (image.len(), intent.len());
    match image.iter().zip(intent).position(|(got, want)| got != want) {
        _ if n > of => Err(format!("recovered {n} blocks, intent had {of}")),
        Some(k) => Err(format!("block {k} differs from its write intent")),
        None => Ok(()),
    }
}

/// The recovered volume must remain a working recorder: a fresh strand
/// takes a block and finishes.
pub(crate) fn probe_writable(rec: &mut Msm, at: Instant) -> Result<(), String> {
    let probe = rec.begin_strand(meta_video());
    let (_, op) = (rec.append_block(probe, at, &block_payload(3, 0), 2))
        .map_err(|e| format!("post-recovery append failed: {e}"))?;
    (rec.finish_strand(probe, op.completed).map(drop))
        .map_err(|e| format!("post-recovery finish failed: {e}"))
}

/// Check every recovery invariant on a freshly recovered volume.
/// Panics (with `crash_at` in the message) on any violation.
fn verify(rec: &mut Msm, crash_at: u64, marks: &WriteMarks) {
    for id in rec.strand_ids() {
        assert!(
            id.raw() <= 2,
            "crash {crash_at}: recovery invented strand {id}"
        );
    }
    for raw in 0..3u64 {
        let Ok(strand) = rec.strand(StrandId::from_raw(raw)) else {
            continue; // absent: the empty prefix
        };
        let exp = expected_blocks(raw);
        let intent: Image = (exp.iter().zip(0..))
            .map(|(b, k)| matches!(b, PlannedBlock::Data { .. }).then(|| block_payload(raw, k)))
            .collect();
        strand_image(rec, strand)
            .and_then(|image| check_prefix(&image, &intent))
            .unwrap_or_else(|e| panic!("crash {crash_at}: strand {raw}: {e}"));
        let units: u64 = exp[..strand.block_count() as usize]
            .iter()
            .map(|&(PlannedBlock::Data { units } | PlannedBlock::Silence { units })| units)
            .sum();
        assert_eq!(
            strand.unit_count(),
            units,
            "crash {crash_at}: strand {raw} unit count disagrees with its blocks"
        );
    }
    // Durability floors: work whose commit landed before the crash
    // must survive in full.
    for (durable, raw) in [(marks.a_durable, 0), (marks.b_durable, 2)] {
        if crash_at >= durable {
            let s = rec.strand(StrandId::from_raw(raw)).ok();
            assert_eq!(
                s.map(|s| s.block_count()),
                Some(expected_blocks(raw).len() as u64),
                "crash {crash_at}: durable strand {raw} lost blocks"
            );
        }
    }
    if crash_at >= marks.c_deleted {
        assert!(
            rec.strand(StrandId::from_raw(1)).is_err(),
            "crash {crash_at}: journaled deletion of strand 1 resurrected"
        );
    }
    let region = rec.journal_region().expect("sweep volumes are journaled");
    assert!(
        rec.allocator().freemap().extent_used(region),
        "crash {crash_at}: journal region not reserved in free map"
    );
    let report = fsck::check_msm(rec, Instant::EPOCH);
    assert!(
        report.clean(),
        "crash {crash_at}: fsck after recovery found {:?}",
        report.findings
    );
}

/// Record the scenario crashing at write index `crash_at`, power-cycle,
/// recover, and verify every invariant. Panics on violation.
pub fn crash_once(crash_at: u64, seed: u64, marks: &WriteMarks) -> CrashOutcome {
    let mut msm = fresh_msm(Some(crash_at), seed);
    let res = run_workload(&mut msm, |_| {});
    if crash_at < marks.total {
        assert!(
            res.is_err(),
            "crash {crash_at}: recorder survived a crashed device"
        );
    }
    let mut device = msm.into_device();
    device.power_cycle();
    let (mut rec, report) =
        Msm::recover(device, msm_config(), Instant::EPOCH).unwrap_or_else(|e| {
            panic!("crash {crash_at}: recovery failed: {e}");
        });
    let image_hash = rec.disk().content_hash();
    verify(&mut rec, crash_at, marks);
    probe_writable(&mut rec, report.finished_at)
        .unwrap_or_else(|e| panic!("crash {crash_at}: {e}"));
    CrashOutcome {
        crash_at,
        durable_strands: report.durable_strands,
        completed_strands: report.completed_strands,
        blocks_recovered: report.blocks_recovered,
        blocks_rolled_back: report.blocks_rolled_back,
        deleted_strands: report.deleted_strands,
        recovery_ns: report.finished_at.as_nanos(),
        image_hash,
    }
}

/// The full sweep: crash at every device-write index of the scenario,
/// recover, verify. Deterministic under `seed` — same seed, same
/// fingerprint.
pub fn sweep(seed: u64) -> SweepSummary {
    let marks = baseline_marks(seed);
    let mut outcomes = Vec::with_capacity(marks.total as usize);
    let mut hashes = Vec::with_capacity(marks.total as usize * 8);
    let mut summary = SweepSummary {
        writes: marks.total,
        blocks_recovered: 0,
        blocks_rolled_back: 0,
        completed_strands: 0,
        durable_strands: 0,
        deleted_strands: 0,
        recovery_ns_total: 0,
        fingerprint: 0,
        outcomes: Vec::new(),
    };
    for i in 0..marks.total {
        let o = crash_once(i, seed, &marks);
        summary.blocks_recovered += o.blocks_recovered;
        summary.blocks_rolled_back += o.blocks_rolled_back;
        summary.completed_strands += o.completed_strands;
        summary.durable_strands += o.durable_strands;
        summary.deleted_strands += o.deleted_strands;
        summary.recovery_ns_total += o.recovery_ns;
        hashes.extend_from_slice(&o.image_hash.to_le_bytes());
        outcomes.push(o);
    }
    summary.fingerprint = fnv1a(&hashes);
    summary.outcomes = outcomes;
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_milestones_are_ordered() {
        let m = baseline_marks(3);
        assert!(0 < m.a_durable);
        assert!(m.a_durable < m.c_deleted);
        assert!(m.c_deleted < m.b_durable);
        assert!(m.b_durable < m.total);
    }

    #[test]
    fn first_and_last_crash_points_recover() {
        let m = baseline_marks(3);
        let first = crash_once(0, 3, &m);
        assert_eq!(first.durable_strands + first.completed_strands, 0);
        let last = crash_once(m.total - 1, 3, &m);
        assert!(last.durable_strands >= 2, "both finished strands durable");
    }

    #[test]
    fn crash_replay_is_byte_identical() {
        let m = baseline_marks(3);
        let mid = m.c_deleted + 1;
        let a = crash_once(mid, 3, &m);
        let b = crash_once(mid, 3, &m);
        assert_eq!(a.image_hash, b.image_hash);
        assert_eq!(a.blocks_recovered, b.blocks_recovered);
    }
}

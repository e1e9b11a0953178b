//! The strand intent journal — crash consistency for recordings.
//!
//! Recording mutates two structures that must stay consistent: the
//! free map (which sectors are claimed) and the strand index (which
//! sectors belong to which block). Neither is durable until
//! `finish_strand` writes the 3-level index, so a crash mid-recording
//! leaves allocated-but-unindexed extents and a half-written strand.
//! The journal closes that window with write-ahead *intent records*:
//! every `append_block` / `append_silence` / `finish_strand` /
//! `delete_strand` persists a checksummed record **before** the
//! mutation it describes, and at mount [`Journal::replay`] reads the log
//! back to say what is durable and what was in flight.
//!
//! The journal owns its layout, its replay and its cursor; it does no
//! I/O. [`Journal::append`] and [`Journal::checkpoint`] hand the
//! [`crate::msm::Msm`] the bytes to write and where. [`Journal::replay`]
//! reads through an untimed fetch and returns the sectors it read, for
//! [`crate::msm::Msm::recover`] to time in order; the MSM then adopts the
//! durable strands, checks each in-flight prefix against its journaled
//! stamps and finishes what survives.
//!
//! # On-disk layout
//!
//! The journal owns a reserved region at a fixed place on the volume
//! (adopted out of the free map at format time):
//!
//! ```text
//! | checkpoint A | checkpoint B | record slot 0 | ... | slot S-1 |
//! |  4 sectors   |  4 sectors   |   1 sector    |     |          |
//! ```
//!
//! * **Records** are one sector each, written to slot `seq % S` with a
//!   monotonically increasing sequence number, so the record area is a
//!   circular log. A slot holding a record whose embedded `seq` is
//!   lower than expected is a stale survivor from an earlier lap and
//!   marks the end of the log during replay.
//! * **Checkpoints** are double-buffered (alternating A/B writes, the
//!   newest valid one wins at recovery) and record the durable world:
//!   the next strand id, the catalog of finished strands with their
//!   header extents, and the *floor* — the oldest sequence number that
//!   recovery still needs. Records below the floor are dead and their
//!   slots may be reused; the writer refuses to lap a live record
//!   ([`crate::FsError::JournalCorrupt`] "journal full").
//!
//! Both structures carry an FNV-1a-64 checksum over their encoded
//! bytes; a torn record or checkpoint write fails its checksum and is
//! treated as absent (for a record: end of log; for a checkpoint: fall
//! back to the other slot).

use crate::error::FsError;
use crate::strand::index::NO_SUM;
use crate::strand::wire::{PutLe, TakeLe};
use crate::strand::StrandMeta;
use std::collections::BTreeMap;
use strandfs_disk::Extent;
use strandfs_obs::JournalOp;
use strandfs_units::Bits;

/// Default sectors reserved for each of the two checkpoint slots. The
/// slot bounds the strand catalog a checkpoint can hold (~21 entries
/// per sector), so volumes expecting many strands raise
/// [`JournalConfig::ckpt_sectors`].
pub const CKPT_SECTORS: u64 = 4;

/// Magic tag opening every journal record sector.
const RECORD_MAGIC: u32 = 0x4C4A_5453; // "STJL"

/// Magic tag opening every checkpoint.
const CKPT_MAGIC: u32 = 0x4B43_5453; // "STCK"

/// FNV-1a-64 over a byte slice — the integrity check over the journal's
/// own record and checkpoint sectors. (The `payload_sum` a record
/// *carries* is the media-block stamp, [`strandfs_disk::block_sum`].)
pub use strandfs_disk::fnv1a;

/// Journal sizing, carried in [`crate::msm::MsmConfig`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JournalConfig {
    /// Record slots in the circular log (one sector each). Bounds the
    /// number of uncheckpointed in-flight records; recordings append
    /// one record per block, so this must exceed the longest strand
    /// recorded between checkpoints.
    pub slots: u64,
    /// Sectors per checkpoint slot (two slots are reserved). Bounds the
    /// strand catalog a checkpoint can carry: once the volume holds
    /// more finished strands than fit, every checkpoint — and with it
    /// every commit — fails with `JournalCorrupt`. Size for the
    /// expected strand population.
    pub ckpt_sectors: u64,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig {
            slots: 256,
            ckpt_sectors: CKPT_SECTORS,
        }
    }
}

/// One write-ahead intent record.
#[derive(Clone, Debug, PartialEq)]
pub enum Record {
    /// A strand began recording; carries the metadata recovery needs
    /// to rebuild its `StrandBuilder`.
    Begin {
        /// The strand's raw id.
        strand: u64,
        /// The strand's recording parameters.
        meta: StrandMeta,
    },
    /// Intent to append a stored media block: the extent was allocated
    /// and the payload (whose FNV-1a sum is recorded) is about to be
    /// written. Recovery verifies the sum to detect torn data writes.
    Append {
        /// The strand's raw id.
        strand: u64,
        /// The block number being appended.
        block: u64,
        /// First sector of the block's extent.
        lba: u64,
        /// Sectors in the block's extent.
        sectors: u64,
        /// Media units the block carries.
        units: u64,
        /// [`strandfs_disk::block_sum`] of the padded payload as stored
        /// on disk — the same stamp the strand index will carry.
        payload_sum: u64,
    },
    /// A silence hole was appended (no data write to verify).
    Silence {
        /// The strand's raw id.
        strand: u64,
        /// The block number of the hole.
        block: u64,
        /// Media units the hole covers.
        units: u64,
    },
    /// `finish_strand` is about to write the 3-level index.
    FinishIntent {
        /// The strand's raw id.
        strand: u64,
    },
    /// The index is fully on disk; the strand is durable at this
    /// header extent even if no checkpoint follows.
    FinishCommit {
        /// The strand's raw id.
        strand: u64,
        /// First sector of the header block.
        header_lba: u64,
        /// Sectors in the header block.
        header_sectors: u64,
    },
    /// A finished strand was deleted and its extents released.
    Delete {
        /// The strand's raw id.
        strand: u64,
    },
}

impl Record {
    fn tag(&self) -> u8 {
        match self {
            Record::Begin { .. } => 0,
            Record::Append { .. } => 1,
            Record::Silence { .. } => 2,
            Record::FinishIntent { .. } => 3,
            Record::FinishCommit { .. } => 4,
            Record::Delete { .. } => 5,
        }
    }

    /// Body length in bytes for a given tag; `None` for unknown tags.
    fn body_len(tag: u8) -> Option<usize> {
        Some(match tag {
            0 => 8 + 1 + 8 + 8 + 8,
            1 => 6 * 8,
            2 => 3 * 8,
            3 => 8,
            4 => 3 * 8,
            5 => 8,
            _ => return None,
        })
    }

    /// The event kind the record reports as.
    pub fn op(&self) -> JournalOp {
        match self {
            Record::Begin { .. } => JournalOp::Begin,
            Record::Append { .. } => JournalOp::Append,
            Record::Silence { .. } => JournalOp::Silence,
            Record::FinishIntent { .. } => JournalOp::FinishIntent,
            Record::FinishCommit { .. } => JournalOp::FinishCommit,
            Record::Delete { .. } => JournalOp::Delete,
        }
    }

    /// The strand the record belongs to.
    pub fn strand(&self) -> u64 {
        match *self {
            Record::Begin { strand, .. }
            | Record::Append { strand, .. }
            | Record::Silence { strand, .. }
            | Record::FinishIntent { strand }
            | Record::FinishCommit { strand, .. }
            | Record::Delete { strand } => strand,
        }
    }
}

/// Encode a record into one sector of `sector_size` bytes.
fn encode_record(seq: u64, rec: &Record, sector_size: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(sector_size);
    out.put_u32_le(RECORD_MAGIC);
    out.put_u64_le(seq);
    out.put_u8(rec.tag());
    match *rec {
        Record::Begin { strand, meta } => {
            out.put_u64_le(strand);
            out.put_medium(meta.medium);
            out.put_f64_le(meta.unit_rate);
            out.put_u64_le(meta.granularity);
            out.put_u64_le(meta.unit_bits.get());
        }
        Record::Append {
            strand,
            block,
            lba,
            sectors,
            units,
            payload_sum,
        } => {
            out.put_u64_le(strand);
            out.put_u64_le(block);
            out.put_u64_le(lba);
            out.put_u64_le(sectors);
            out.put_u64_le(units);
            out.put_u64_le(payload_sum);
        }
        Record::Silence {
            strand,
            block,
            units,
        } => {
            out.put_u64_le(strand);
            out.put_u64_le(block);
            out.put_u64_le(units);
        }
        Record::FinishIntent { strand } | Record::Delete { strand } => {
            out.put_u64_le(strand);
        }
        Record::FinishCommit {
            strand,
            header_lba,
            header_sectors,
        } => {
            out.put_u64_le(strand);
            out.put_u64_le(header_lba);
            out.put_u64_le(header_sectors);
        }
    }
    let sum = fnv1a(&out);
    out.put_u64_le(sum);
    assert!(out.len() <= sector_size, "journal record exceeds a sector");
    out.resize(sector_size, 0);
    out
}

/// Decode one record sector; `None` when the sector does not hold a
/// valid record (bad magic, unknown tag, short, or checksum mismatch).
fn decode_record(bytes: &[u8]) -> Option<(u64, Record)> {
    let mut buf: &[u8] = bytes;
    if buf.remaining() < 4 + 8 + 1 {
        return None;
    }
    if buf.get_u32_le() != RECORD_MAGIC {
        return None;
    }
    let seq = buf.get_u64_le();
    let tag = buf.get_u8();
    let body = Record::body_len(tag)?;
    if buf.remaining() < body + 8 {
        return None;
    }
    let rec = match tag {
        0 => Record::Begin {
            strand: buf.get_u64_le(),
            meta: StrandMeta {
                medium: buf.get_medium()?,
                unit_rate: buf.get_f64_le(),
                granularity: buf.get_u64_le(),
                unit_bits: Bits::new(buf.get_u64_le()),
            },
        },
        1 => Record::Append {
            strand: buf.get_u64_le(),
            block: buf.get_u64_le(),
            lba: buf.get_u64_le(),
            sectors: buf.get_u64_le(),
            units: buf.get_u64_le(),
            payload_sum: buf.get_u64_le(),
        },
        2 => Record::Silence {
            strand: buf.get_u64_le(),
            block: buf.get_u64_le(),
            units: buf.get_u64_le(),
        },
        3 => Record::FinishIntent {
            strand: buf.get_u64_le(),
        },
        4 => Record::FinishCommit {
            strand: buf.get_u64_le(),
            header_lba: buf.get_u64_le(),
            header_sectors: buf.get_u64_le(),
        },
        5 => Record::Delete {
            strand: buf.get_u64_le(),
        },
        _ => return None,
    };
    let covered = bytes.len() - buf.remaining();
    let sum = buf.get_u64_le();
    (sum == fnv1a(&bytes[..covered])).then_some((seq, rec))
}

/// A finished strand in the checkpoint catalog.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CatalogEntry {
    /// The strand's raw id.
    pub strand: u64,
    /// The strand's on-disk header block.
    pub header: Extent,
}

/// The durable world as of one checkpoint write.
#[derive(Clone, Debug, PartialEq, Default)]
struct Checkpoint {
    /// Journal sequence at write time; orders the two slots.
    seq: u64,
    /// The volume's next fresh strand id.
    next_strand: u64,
    /// Oldest journal sequence recovery still needs.
    floor: u64,
    /// How many checkpoints have been written (restores the A/B
    /// alternation across a remount).
    count: u64,
    /// Every finished strand and where its index lives.
    catalog: Vec<CatalogEntry>,
}

/// Encode a checkpoint into its slot (`ckpt_sectors * sector_size`
/// bytes). Errors when the catalog outgrows the slot.
fn encode_checkpoint(
    c: &Checkpoint,
    sector_size: usize,
    ckpt_sectors: u64,
) -> Result<Vec<u8>, FsError> {
    let cap = ckpt_sectors as usize * sector_size;
    let mut out = Vec::with_capacity(cap);
    out.put_u32_le(CKPT_MAGIC);
    out.put_u64_le(c.seq);
    out.put_u64_le(c.next_strand);
    out.put_u64_le(c.floor);
    out.put_u64_le(c.count);
    out.put_u32_le(c.catalog.len() as u32);
    for e in &c.catalog {
        out.put_u64_le(e.strand);
        out.put_u64_le(e.header.start);
        out.put_u64_le(e.header.sectors);
    }
    if out.len() + 8 > cap {
        return Err(FsError::JournalCorrupt {
            what: "checkpoint catalog overflows its slot",
        });
    }
    let sum = fnv1a(&out);
    out.put_u64_le(sum);
    out.resize(cap, 0);
    Ok(out)
}

/// Decode a checkpoint slot; `None` when invalid (never-written slot,
/// torn write, checksum mismatch).
fn decode_checkpoint(bytes: &[u8]) -> Option<Checkpoint> {
    let mut buf: &[u8] = bytes;
    if buf.remaining() < 4 + 8 + 8 + 8 + 8 + 4 {
        return None;
    }
    if buf.get_u32_le() != CKPT_MAGIC {
        return None;
    }
    let seq = buf.get_u64_le();
    let next_strand = buf.get_u64_le();
    let floor = buf.get_u64_le();
    let count = buf.get_u64_le();
    let n = buf.get_u32_le() as usize;
    if buf.remaining() < n * 24 + 8 {
        return None;
    }
    let mut catalog = Vec::with_capacity(n);
    for _ in 0..n {
        catalog.push(CatalogEntry {
            strand: buf.get_u64_le(),
            header: Extent::new(buf.get_u64_le(), buf.get_u64_le()),
        });
    }
    let covered = bytes.len() - buf.remaining();
    let sum = buf.get_u64_le();
    (sum == fnv1a(&bytes[..covered])).then_some(Checkpoint {
        seq,
        next_strand,
        floor,
        count,
        catalog,
    })
}

/// In-memory journal state: geometry plus the write cursor. The journal
/// owns its on-medium format: [`Journal::append`] and
/// [`Journal::checkpoint`] pick the slot, encode the bytes and move the
/// cursor. All device I/O stays in [`crate::msm::Msm`].
#[derive(Debug)]
pub struct Journal {
    slots: u64,
    ckpt_sectors: u64,
    sector_size: usize,
    next_seq: u64,
    ckpt_count: u64,
    /// Raw strand id → `seq` of its `Begin` record, for every strand
    /// whose records are still live (not yet checkpointed away).
    live: BTreeMap<u64, u64>,
}

impl Journal {
    /// A fresh journal at the start (sector 0) of an empty volume.
    pub fn new(config: JournalConfig, sector_size: usize) -> Journal {
        Journal {
            slots: config.slots.max(1),
            ckpt_sectors: config.ckpt_sectors.max(1),
            sector_size,
            next_seq: 0,
            ckpt_count: 0,
            live: BTreeMap::new(),
        }
    }

    /// The whole reserved region (checkpoints + record slots).
    pub fn region(&self) -> Extent {
        Extent::new(0, 2 * self.ckpt_sectors + self.slots)
    }

    /// The slot extent for sequence number `seq`.
    fn record_extent(&self, seq: u64) -> Extent {
        Extent::new(2 * self.ckpt_sectors + seq % self.slots, 1)
    }

    /// Checkpoint slot `i` (0 = A, 1 = B).
    fn ckpt_extent(&self, i: u64) -> Extent {
        Extent::new(i * self.ckpt_sectors, self.ckpt_sectors)
    }

    /// The oldest sequence number still needed: the earliest `Begin`
    /// of a live strand, or the write cursor when nothing is in
    /// flight.
    fn floor(&self) -> u64 {
        self.live.values().copied().min().unwrap_or(self.next_seq)
    }

    /// True if `strand` has already journaled its `Begin`.
    pub fn has_begun(&self, strand: u64) -> bool {
        self.live.contains_key(&strand)
    }

    /// Refuse `records` more records, before anything moves, when they
    /// would lap a live one. A `Begin` at the cursor leaves the floor
    /// where it was, so a write's `Begin` and its own record are checked
    /// as one.
    pub fn check_room(&self, records: u64) -> Result<(), FsError> {
        if self.next_seq - self.floor() + records > self.slots {
            return Err(FsError::JournalCorrupt {
                what: "journal full: live records fill every slot",
            });
        }
        Ok(())
    }

    /// Claim the next sequence number for `rec`, refusing to lap a live
    /// record: `(seq, slot extent, sector bytes)`. A `Begin` makes its
    /// strand live; a `FinishCommit` or `Delete` ends it, so its
    /// records may be reclaimed at the next checkpoint.
    pub fn append(&mut self, rec: &Record) -> Result<(u64, Extent, Vec<u8>), FsError> {
        self.check_room(1)?;
        let seq = self.next_seq;
        self.next_seq += 1;
        let bytes = encode_record(seq, rec, self.sector_size);
        match *rec {
            Record::Begin { strand, .. } => {
                self.live.insert(strand, seq);
            }
            Record::FinishCommit { strand, .. } | Record::Delete { strand } => {
                self.live.remove(&strand);
            }
            _ => {}
        }
        Ok((seq, self.record_extent(seq), bytes))
    }

    /// The checkpoint of `next_strand` and `catalog` at the cursor, in
    /// the alternate A/B slot: `(seq, slot extent, slot bytes)`. The
    /// count moves only once the catalog has encoded.
    pub fn checkpoint(
        &mut self,
        next_strand: u64,
        catalog: Vec<CatalogEntry>,
    ) -> Result<(u64, Extent, Vec<u8>), FsError> {
        let ck = Checkpoint {
            seq: self.next_seq,
            next_strand,
            floor: self.floor(),
            count: self.ckpt_count,
            catalog,
        };
        let bytes = encode_checkpoint(&ck, self.sector_size, self.ckpt_sectors)?;
        let extent = self.ckpt_extent(self.ckpt_count % 2);
        self.ckpt_count += 1;
        Ok((ck.seq, extent, bytes))
    }

    /// Read the log of a mounted image through `fetch` (an untimed read,
    /// `None` off the device) and say what it holds; the cursor moves to
    /// the end of the tail, past the newest checkpoint's count.
    ///
    /// The newest checkpoint that decodes wins; a torn one falls back to
    /// the other slot. The tail runs from its floor to the first slot
    /// that does not decode or holds a stale lap's sequence. A `Delete`
    /// in the tail vetoes the strand wherever else it appears: its
    /// extents were released before the crash and may since have been
    /// reused. Every id seen bumps the next strand id, so a recording
    /// after the mount never shadows a recovered strand.
    pub fn replay(&mut self, fetch: impl Fn(Extent) -> Option<Vec<u8>>) -> Replay {
        let mut replay = Replay::default();
        let mut ckpt: Option<Checkpoint> = None;
        for slot in [self.ckpt_extent(0), self.ckpt_extent(1)] {
            let Some(bytes) = fetch(slot) else { continue };
            replay.reads.push(slot);
            match decode_checkpoint(&bytes) {
                Some(c) if ckpt.as_ref().is_none_or(|best| c.seq > best.seq) => ckpt = Some(c),
                _ => {}
            }
        }
        self.ckpt_count = ckpt.as_ref().map_or(0, |c| c.count + 1);
        let ckpt = ckpt.unwrap_or_default();
        let ids = ckpt.catalog.iter().map(|e| e.strand + 1);
        replay.next_strand = ids.fold(ckpt.next_strand, u64::max);
        let mut committed = Vec::new();
        let mut seq = ckpt.floor;
        while seq - ckpt.floor < self.slots {
            let extent = self.record_extent(seq);
            match fetch(extent).as_deref().and_then(decode_record) {
                Some((s, rec)) if s == seq => {
                    replay.reads.push(extent);
                    seq += 1;
                    replay.next_strand = replay.next_strand.max(rec.strand() + 1);
                    replay.fold(rec, &mut committed);
                }
                // Torn, never written, or a survivor of an earlier lap.
                _ => break,
            }
        }
        self.next_seq = seq;
        self.live.clear();
        let deleted = |e: &CatalogEntry| replay.deleted.contains(&e.strand);
        replay.durable = ckpt.catalog.into_iter().filter(|e| !deleted(e)).collect();
        for c in committed {
            if !replay.durable.iter().any(|d| d.strand == c.strand) {
                replay.durable.push(c);
            }
        }
        replay
    }
}

/// What the log of a mounted image says ([`Journal::replay`]).
#[derive(Debug, Default)]
pub struct Replay {
    /// The volume's next fresh strand id.
    pub next_strand: u64,
    /// Finished strands to adopt, in order: the checkpoint catalog
    /// minus journaled deletions, then the strands committed after it.
    pub durable: Vec<CatalogEntry>,
    /// Each in-flight recording by raw id: its recording parameters and
    /// its journaled blocks in append order.
    pub inflight: BTreeMap<u64, (StrandMeta, Vec<Journaled>)>,
    /// The strand of each `Delete` record in the tail.
    pub deleted: Vec<u64>,
    /// Every sector the replay read — the checkpoint slots, then each
    /// tail record — in order, for the caller to time.
    pub reads: Vec<Extent>,
}

/// One journaled block of an in-flight recording: a stored block's
/// extent and payload stamp, or a silence hole (`extent: None`,
/// [`NO_SUM`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Journaled {
    /// Where the block's data was to land.
    pub extent: Option<Extent>,
    /// Media units the block carries.
    pub units: u64,
    /// The stamp the data must hash to.
    pub sum: u64,
}

impl Replay {
    /// Fold one tail record into the strands' outcomes: a `Begin` opens
    /// an in-flight strand, an `Append` or `Silence` extends it, a
    /// `FinishCommit` makes it durable and a `Delete` drops it wherever
    /// it stands.
    fn fold(&mut self, rec: Record, committed: &mut Vec<CatalogEntry>) {
        let strand = rec.strand();
        let block = match rec {
            Record::Begin { meta, .. } => {
                self.inflight.insert(strand, (meta, Vec::new()));
                return;
            }
            Record::Append {
                lba,
                sectors,
                units,
                payload_sum,
                ..
            } => Journaled {
                extent: Some(Extent::new(lba, sectors)),
                units,
                sum: payload_sum,
            },
            Record::Silence { units, .. } => Journaled {
                extent: None,
                units,
                sum: NO_SUM,
            },
            Record::FinishIntent { .. } => return,
            Record::FinishCommit {
                header_lba,
                header_sectors,
                ..
            } => {
                if self.inflight.remove(&strand).is_some() {
                    let header = Extent::new(header_lba, header_sectors);
                    committed.push(CatalogEntry { strand, header });
                }
                return;
            }
            Record::Delete { .. } => {
                self.inflight.remove(&strand);
                committed.retain(|c| c.strand != strand);
                self.deleted.push(strand);
                return;
            }
        };
        if let Some((_, blocks)) = self.inflight.get_mut(&strand) {
            blocks.push(block);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strandfs_media::Medium;

    fn audio() -> StrandMeta {
        StrandMeta {
            medium: Medium::Audio,
            unit_rate: 8_000.0,
            granularity: 800,
            unit_bits: Bits::new(8),
        }
    }

    #[test]
    fn record_round_trips_every_variant() {
        let recs = [
            Record::Begin {
                strand: 7,
                meta: audio(),
            },
            Record::Append {
                strand: 7,
                block: 3,
                lba: 4_096,
                sectors: 71,
                units: 800,
                payload_sum: 0xDEAD_BEEF_CAFE_F00D,
            },
            Record::Silence {
                strand: 7,
                block: 4,
                units: 800,
            },
            Record::FinishIntent { strand: 7 },
            Record::FinishCommit {
                strand: 7,
                header_lba: 99,
                header_sectors: 1,
            },
            Record::Delete { strand: 7 },
        ];
        for (i, rec) in recs.iter().enumerate() {
            let sector = encode_record(i as u64, rec, 512);
            assert_eq!(sector.len(), 512);
            let (seq, back) = decode_record(&sector).expect("valid record");
            assert_eq!(seq, i as u64);
            assert_eq!(&back, rec);
            assert_eq!(back.strand(), 7);
        }
    }

    #[test]
    fn corrupt_records_decode_to_none() {
        let good = encode_record(
            9,
            &Record::Silence {
                strand: 1,
                block: 2,
                units: 3,
            },
            512,
        );
        // Any single-byte flip in the covered prefix breaks the sum.
        for at in [0usize, 5, 12, 20] {
            let mut bad = good.clone();
            bad[at] ^= 0x40;
            assert!(decode_record(&bad).is_none(), "flip at {at} accepted");
        }
        assert!(decode_record(&[0u8; 512]).is_none(), "zeroed sector");
        assert!(decode_record(&good[..8]).is_none(), "short buffer");
        let mut bad_tag = good.clone();
        bad_tag[12] = 200;
        assert!(decode_record(&bad_tag).is_none(), "unknown tag");
    }

    #[test]
    fn checkpoint_round_trips_and_rejects_torn() {
        let c = Checkpoint {
            seq: 41,
            next_strand: 3,
            floor: 17,
            count: 5,
            catalog: vec![
                CatalogEntry {
                    strand: 0,
                    header: Extent::new(900, 1),
                },
                CatalogEntry {
                    strand: 2,
                    header: Extent::new(1_400, 1),
                },
            ],
        };
        let bytes = encode_checkpoint(&c, 512, CKPT_SECTORS).unwrap();
        assert_eq!(bytes.len(), CKPT_SECTORS as usize * 512);
        assert_eq!(decode_checkpoint(&bytes).as_ref(), Some(&c));
        let mut torn = bytes.clone();
        torn[40] ^= 1;
        assert!(decode_checkpoint(&torn).is_none());
        assert!(decode_checkpoint(&[0u8; 2048]).is_none());
    }

    #[test]
    fn checkpoint_catalog_overflow_is_an_error() {
        let c = Checkpoint {
            catalog: (0..200)
                .map(|i| CatalogEntry {
                    strand: i,
                    header: Extent::new(i, 1),
                })
                .collect(),
            ..Checkpoint::default()
        };
        assert!(matches!(
            encode_checkpoint(&c, 512, CKPT_SECTORS),
            Err(FsError::JournalCorrupt { .. })
        ));
        // A wider slot holds the same catalog.
        assert!(encode_checkpoint(&c, 512, 16).is_ok());
    }

    #[test]
    fn circular_slots_and_live_floor_guard() {
        let mut j = Journal::new(
            JournalConfig {
                slots: 4,
                ..JournalConfig::default()
            },
            512,
        );
        assert_eq!(j.region(), Extent::new(0, 2 * CKPT_SECTORS + 4));
        // Checkpoints alternate A, B, A.
        for slot in [0, CKPT_SECTORS, 0] {
            let (_, extent, bytes) = j.checkpoint(0, Vec::new()).unwrap();
            assert_eq!(extent, Extent::new(slot, CKPT_SECTORS));
            assert_eq!(bytes.len(), CKPT_SECTORS as usize * 512);
        }

        // With no live strands the floor tracks the cursor: the log
        // can wrap forever.
        let silence = Record::Silence {
            strand: 1,
            block: 0,
            units: 1,
        };
        for seq in 0..10 {
            let (s, extent, _) = j.append(&silence).unwrap();
            assert_eq!(s, seq);
            assert_eq!(extent, Extent::new(2 * CKPT_SECTORS + seq % 4, 1));
        }
        // A live strand pins the floor at its Begin, and its Delete
        // releases it: the log then laps past where it would refuse.
        let begin = |strand| Record::Begin {
            strand,
            meta: audio(),
        };
        let (seq, _, _) = j.append(&begin(42)).unwrap();
        assert!(j.has_begun(42));
        let (_, _, bytes) = j.checkpoint(0, Vec::new()).unwrap();
        assert_eq!(decode_checkpoint(&bytes).unwrap().floor, seq);
        j.append(&silence).unwrap();
        j.append(&Record::Delete { strand: 42 }).unwrap();
        assert!(!j.has_begun(42));
        for _ in 0..4 {
            j.append(&silence).unwrap();
        }
        // All 4 slots holding live records refuse the next append.
        j.append(&begin(43)).unwrap();
        for _ in 0..3 {
            j.append(&silence).unwrap();
        }
        assert!(matches!(
            j.append(&silence),
            Err(FsError::JournalCorrupt { .. })
        ));
    }

    /// A journal region's image, sector by sector, and the writes that
    /// build a log in it.
    struct Image(Vec<u8>);

    fn config(slots: u64) -> JournalConfig {
        JournalConfig {
            slots,
            ..JournalConfig::default()
        }
    }

    impl Image {
        fn new(slots: u64) -> Image {
            let region = Journal::new(config(slots), 512).region();
            Image(vec![0; region.sectors as usize * 512])
        }

        fn put(&mut self, (_, e, bytes): (u64, Extent, Vec<u8>)) {
            self.0[e.start as usize * 512..][..bytes.len()].copy_from_slice(&bytes);
        }

        fn log(&mut self, j: &mut Journal, recs: &[Record]) {
            for rec in recs {
                self.put(j.append(rec).unwrap());
            }
        }

        /// Mount the image: a fresh journal's replay of it.
        fn replay(&self, slots: u64) -> (Journal, Replay) {
            let mut j = Journal::new(config(slots), 512);
            let bytes = |e: Extent| self.0[e.start as usize * 512..e.end() as usize * 512].to_vec();
            let r = j.replay(|e| Some(bytes(e)));
            (j, r)
        }
    }

    fn entry(strand: u64, lba: u64) -> CatalogEntry {
        CatalogEntry {
            strand,
            header: Extent::new(lba, 1),
        }
    }

    fn begin(strand: u64) -> Record {
        Record::Begin {
            strand,
            meta: audio(),
        }
    }

    fn append(strand: u64, block: u64) -> Record {
        Record::Append {
            strand,
            block,
            lba: 1_000 + block,
            sectors: 1,
            units: 800,
            payload_sum: 0xA0 + block,
        }
    }

    #[test]
    fn a_stale_lap_survivor_ends_the_tail() {
        let mut img = Image::new(4);
        let mut j = Journal::new(config(4), 512);
        // Lap one fills every slot; the checkpoint then moves the floor
        // to seq 4, and lap two overwrites slots 0 and 1 only.
        let silence = |strand| Record::Silence {
            strand,
            block: 1,
            units: 800,
        };
        img.log(&mut j, &[silence(1), silence(1), silence(9), silence(1)]);
        img.put(j.checkpoint(10, Vec::new()).unwrap());
        img.log(&mut j, &[begin(9), append(9, 0)]);

        let (mut mounted, r) = img.replay(4);
        let slots = [
            Extent::new(0, CKPT_SECTORS),
            Extent::new(CKPT_SECTORS, CKPT_SECTORS),
        ];
        let tail = [2 * CKPT_SECTORS, 2 * CKPT_SECTORS + 1].map(|s| Extent::new(s, 1));
        assert_eq!(r.reads, [&slots[..], &tail[..]].concat());
        // Slot 2 still holds lap one's seq 2, a hole in strand 9: not
        // read as the tail's seq 6.
        assert_eq!(r.inflight.keys().collect::<Vec<_>>(), [&9]);
        assert_eq!(r.inflight[&9].1.len(), 1);
        assert_eq!(mounted.append(&Record::Delete { strand: 9 }).unwrap().0, 6);
    }

    #[test]
    fn a_torn_newer_checkpoint_falls_back_to_the_older_one() {
        let mut img = Image::new(8);
        let mut j = Journal::new(config(8), 512);
        img.put(j.checkpoint(4, vec![entry(3, 500)]).unwrap());
        img.log(&mut j, &[Record::FinishIntent { strand: 3 }]);
        let (_, newer, mut bytes) = j.checkpoint(5, vec![entry(3, 500), entry(4, 600)]).unwrap();
        // Both slots decode: the newer, in slot B, wins.
        img.put((0, newer, bytes.clone()));
        let (_, r) = img.replay(8);
        assert_eq!(r.durable, [entry(3, 500), entry(4, 600)]);
        assert_eq!(r.next_strand, 5);
        // Torn, it falls back to slot A — still read, and timed.
        bytes[40] ^= 1;
        img.put((0, newer, bytes));
        let (mut mounted, r) = img.replay(8);
        assert_eq!(r.durable, [entry(3, 500)]);
        assert_eq!(r.next_strand, 4);
        assert_eq!(r.reads[..2], [Extent::new(0, CKPT_SECTORS), newer]);
        // And the tail from slot A's floor follows.
        assert_eq!(r.reads[2..], [Extent::new(2 * CKPT_SECTORS, 1)]);
        // The count resumes after slot A's: the next checkpoint goes to
        // slot B again.
        assert_eq!(mounted.checkpoint(4, Vec::new()).unwrap().1, newer);
    }

    #[test]
    fn a_delete_after_its_commit_vetoes_adoption() {
        let mut img = Image::new(8);
        let mut j = Journal::new(config(8), 512);
        let commit = Record::FinishCommit {
            strand: 5,
            header_lba: 700,
            header_sectors: 1,
        };
        img.log(
            &mut j,
            &[begin(5), append(5, 0), Record::FinishIntent { strand: 5 }],
        );
        img.log(&mut j, &[commit]);
        let (_, r) = img.replay(8);
        assert_eq!(r.durable, [entry(5, 700)]);
        assert!(r.inflight.is_empty());
        img.log(&mut j, &[Record::Delete { strand: 5 }]);
        let (_, r) = img.replay(8);
        assert_eq!(r.durable, []);
        assert!(r.inflight.is_empty());
        assert_eq!(r.deleted, [5]);
    }

    #[test]
    fn a_delete_drops_a_checkpointed_strand_from_the_catalog() {
        let mut img = Image::new(8);
        let mut j = Journal::new(config(8), 512);
        img.put(j.checkpoint(4, vec![entry(2, 500), entry(3, 600)]).unwrap());
        img.log(&mut j, &[Record::Delete { strand: 2 }]);
        let (_, r) = img.replay(8);
        assert_eq!(r.durable, [entry(3, 600)]);
        assert_eq!(r.deleted, [2]);
    }

    #[test]
    fn every_id_seen_bumps_the_next_strand_id() {
        // The checkpoint's own counter, with nothing past it.
        let mut img = Image::new(8);
        let mut j = Journal::new(config(8), 512);
        img.put(j.checkpoint(2, Vec::new()).unwrap());
        assert_eq!(img.replay(8).1.next_strand, 2);
        // A catalog entry past the counter, deleted or not.
        img.log(&mut j, &[Record::FinishIntent { strand: 0 }]);
        img.put(j.checkpoint(2, vec![entry(6, 500)]).unwrap());
        assert_eq!(img.replay(8).1.next_strand, 7);
        img.log(&mut j, &[Record::Delete { strand: 6 }]);
        assert_eq!(img.replay(8).1.next_strand, 7);
        // A tail record past both.
        img.log(&mut j, &[begin(11)]);
        assert_eq!(img.replay(8).1.next_strand, 12);
    }

    #[test]
    fn append_bytes_are_the_record_encoded_at_its_sequence() {
        let mut j = Journal::new(JournalConfig::default(), 512);
        let recs = [
            Record::FinishIntent { strand: 3 },
            Record::Delete { strand: 3 },
        ];
        for rec in &recs {
            let (seq, extent, bytes) = j.append(rec).unwrap();
            assert_eq!(bytes, encode_record(seq, rec, 512));
            assert_eq!(extent, j.record_extent(seq));
        }
    }
}

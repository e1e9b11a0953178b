//! The 3-level on-disk index of a media strand (Figs. 5–6).
//!
//! * **Primary Blocks (PB)** map media-block numbers to raw disk
//!   addresses: `(sector, sectorCount)` per media block, with a NULL
//!   sector standing for an eliminated-silence hole.
//! * **Secondary Blocks (SB)** map ranges of media-block numbers to
//!   Primary Blocks: `(startBlock, blockCount, sector, sectorCount)`.
//! * The **Header Block (HB)** carries the strand's recording rate,
//!   granularity, unit size and count, plus pointers to all Secondary
//!   Blocks.
//!
//! The paper stores these as raw disk blocks; we do the same, with an
//! explicit little-endian layout (magic, version, then fields in
//! declaration order). Encoding is exact: `decode(encode(x)) == x`, and
//! every structure knows its capacity for a given block size so the
//! builder can split the index across blocks exactly as a real volume
//! would.
//!
//! The layout and its walk live here: [`write_index`] and [`read_index`]
//! hand each encoded block to a caller's closure, which places or fetches
//! it and charges the I/O, so the storage manager never names a level.

use super::wire::{PutLe, TakeLe};
use super::{Strand, StrandBuilder, StrandMeta};
use crate::error::FsError;
use crate::types::StrandId;
use strandfs_disk::Extent;
use strandfs_media::Medium;
use strandfs_units::Bits;

/// Sentinel disk address marking an eliminated-silence hole.
pub const NULL_SECTOR: u64 = u64::MAX;

/// The payload checksum of a silence hole, which stores no payload.
/// `strandfs_disk::block_sum` never returns it, so every stored block's
/// stamp differs from it.
pub const NO_SUM: u64 = 0;

const PRIMARY_MAGIC: u32 = 0x5342_4c50; // "PBLS"
const SECONDARY_MAGIC: u32 = 0x5342_4c53; // "SBLS"
const HEADER_MAGIC: u32 = 0x5342_4c48; // "HBLS"
const VERSION: u16 = 1;

/// One entry of a Primary Block: where media block `i` lives and the
/// FNV-1a checksum of its stored (sector-padded) payload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PrimaryEntry {
    /// First sector of the media block, or [`NULL_SECTOR`] for silence.
    pub sector: u64,
    /// Length of the media block in sectors (0 for silence).
    pub sector_count: u32,
    /// Checksum of the block's stored payload, stamped at write time;
    /// [`NO_SUM`] for silence.
    pub sum: u64,
}

impl PrimaryEntry {
    /// An entry for a stored media block with its payload checksum.
    pub fn stored(e: Extent, sum: u64) -> Self {
        PrimaryEntry {
            sector: e.start,
            sector_count: e.sectors as u32,
            sum,
        }
    }

    /// The silence-hole entry.
    pub const SILENCE: PrimaryEntry = PrimaryEntry {
        sector: NULL_SECTOR,
        sector_count: 0,
        sum: NO_SUM,
    };

    /// True if this entry is a silence hole.
    pub fn is_silence(&self) -> bool {
        self.sector == NULL_SECTOR
    }

    /// The extent this entry points at (`None` for silence).
    pub fn extent(&self) -> Option<Extent> {
        if self.is_silence() {
            None
        } else {
            Some(Extent::new(self.sector, self.sector_count as u64))
        }
    }
}

const PRIMARY_ENTRY_BYTES: usize = 20;
const BLOCK_HEADER_BYTES: usize = 8; // magic + count

/// A Primary Block: a run of [`PrimaryEntry`]s for consecutive media
/// blocks.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct PrimaryBlock {
    /// Entries for consecutive media blocks.
    pub entries: Vec<PrimaryEntry>,
}

impl PrimaryBlock {
    /// Entries that fit in an index block of `block_bytes`.
    pub fn capacity(block_bytes: usize) -> usize {
        block_bytes.saturating_sub(BLOCK_HEADER_BYTES) / PRIMARY_ENTRY_BYTES
    }

    /// Encode into exactly `block_bytes` bytes (zero-padded).
    pub fn encode(&self, block_bytes: usize) -> Vec<u8> {
        assert!(
            self.entries.len() <= Self::capacity(block_bytes),
            "primary block overflow"
        );
        let mut out = Vec::with_capacity(block_bytes);
        out.put_u32_le(PRIMARY_MAGIC);
        out.put_u32_le(self.entries.len() as u32);
        for e in &self.entries {
            out.put_u64_le(e.sector);
            out.put_u32_le(e.sector_count);
            out.put_u64_le(e.sum);
        }
        out.resize(block_bytes, 0);
        out
    }

    /// Decode from a disk block.
    pub fn decode(mut buf: &[u8]) -> Result<PrimaryBlock, FsError> {
        if buf.remaining() < BLOCK_HEADER_BYTES {
            return Err(FsError::CorruptIndex {
                what: "primary block too short",
            });
        }
        if buf.get_u32_le() != PRIMARY_MAGIC {
            return Err(FsError::CorruptIndex {
                what: "primary block magic",
            });
        }
        let count = buf.get_u32_le() as usize;
        if buf.remaining() < count * PRIMARY_ENTRY_BYTES {
            return Err(FsError::CorruptIndex {
                what: "primary block truncated",
            });
        }
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            let sector = buf.get_u64_le();
            let sector_count = buf.get_u32_le();
            let sum = buf.get_u64_le();
            entries.push(PrimaryEntry {
                sector,
                sector_count,
                sum,
            });
        }
        Ok(PrimaryBlock { entries })
    }
}

/// One entry of a Secondary Block: which Primary Block covers media
/// blocks `start_block .. start_block + block_count`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SecondaryEntry {
    /// First media-block number covered by the Primary Block.
    pub start_block: u64,
    /// Number of media blocks covered.
    pub block_count: u32,
    /// First sector of the Primary Block on disk.
    pub sector: u64,
    /// Length of the Primary Block in sectors.
    pub sector_count: u32,
}

const SECONDARY_ENTRY_BYTES: usize = 24;

/// A Secondary Block: pointers to consecutive Primary Blocks.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct SecondaryBlock {
    /// Entries for consecutive Primary Blocks.
    pub entries: Vec<SecondaryEntry>,
}

impl SecondaryBlock {
    /// Entries that fit in an index block of `block_bytes`.
    pub fn capacity(block_bytes: usize) -> usize {
        block_bytes.saturating_sub(BLOCK_HEADER_BYTES) / SECONDARY_ENTRY_BYTES
    }

    /// Encode into exactly `block_bytes` bytes (zero-padded).
    pub fn encode(&self, block_bytes: usize) -> Vec<u8> {
        assert!(
            self.entries.len() <= Self::capacity(block_bytes),
            "secondary block overflow"
        );
        let mut out = Vec::with_capacity(block_bytes);
        out.put_u32_le(SECONDARY_MAGIC);
        out.put_u32_le(self.entries.len() as u32);
        for e in &self.entries {
            out.put_u64_le(e.start_block);
            out.put_u32_le(e.block_count);
            out.put_u64_le(e.sector);
            out.put_u32_le(e.sector_count);
        }
        out.resize(block_bytes, 0);
        out
    }

    /// Decode from a disk block.
    pub fn decode(mut buf: &[u8]) -> Result<SecondaryBlock, FsError> {
        if buf.remaining() < BLOCK_HEADER_BYTES {
            return Err(FsError::CorruptIndex {
                what: "secondary block too short",
            });
        }
        if buf.get_u32_le() != SECONDARY_MAGIC {
            return Err(FsError::CorruptIndex {
                what: "secondary block magic",
            });
        }
        let count = buf.get_u32_le() as usize;
        if buf.remaining() < count * SECONDARY_ENTRY_BYTES {
            return Err(FsError::CorruptIndex {
                what: "secondary block truncated",
            });
        }
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            entries.push(SecondaryEntry {
                start_block: buf.get_u64_le(),
                block_count: buf.get_u32_le(),
                sector: buf.get_u64_le(),
                sector_count: buf.get_u32_le(),
            });
        }
        Ok(SecondaryBlock { entries })
    }
}

/// A pointer to an index block (used by the header for its secondaries).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct IndexPtr {
    /// First sector.
    pub sector: u64,
    /// Length in sectors.
    pub sector_count: u32,
}

impl IndexPtr {
    /// Build from an extent.
    pub fn from_extent(e: Extent) -> Self {
        IndexPtr {
            sector: e.start,
            sector_count: e.sectors as u32,
        }
    }

    /// The extent pointed to.
    pub fn extent(&self) -> Extent {
        Extent::new(self.sector, self.sector_count as u64)
    }
}

const HEADER_FIXED_BYTES: usize = 4 + 2 + 1 + 1 + 8 + 8 + 8 + 8 + 8 + 4;
const HEADER_PTR_BYTES: usize = 12;

/// The Header Block of a strand (Fig. 6): recording parameters plus
/// pointers to all Secondary Blocks.
#[derive(Clone, PartialEq, Debug)]
pub struct HeaderBlock {
    /// The strand's medium.
    pub medium: Medium,
    /// Recording rate in units (frames or samples) per second.
    pub unit_rate: f64,
    /// Granularity: units per media block.
    pub granularity: u64,
    /// Nominal unit size in bits.
    pub unit_bits: u64,
    /// Total units recorded (including those in silence holes).
    pub unit_count: u64,
    /// Total media blocks (stored + silence).
    pub block_count: u64,
    /// Pointers to the strand's Secondary Blocks, in order.
    pub secondaries: Vec<IndexPtr>,
}

impl HeaderBlock {
    /// Secondary pointers that fit in a header block of `block_bytes`.
    pub fn capacity(block_bytes: usize) -> usize {
        block_bytes.saturating_sub(HEADER_FIXED_BYTES) / HEADER_PTR_BYTES
    }

    /// Encode into exactly `block_bytes` bytes (zero-padded).
    pub fn encode(&self, block_bytes: usize) -> Vec<u8> {
        assert!(
            self.secondaries.len() <= Self::capacity(block_bytes),
            "header block overflow"
        );
        let mut out = Vec::with_capacity(block_bytes);
        out.put_u32_le(HEADER_MAGIC);
        out.put_u16_le(VERSION);
        out.put_medium(self.medium);
        out.put_u8(0); // pad
        out.put_f64_le(self.unit_rate);
        out.put_u64_le(self.granularity);
        out.put_u64_le(self.unit_bits);
        out.put_u64_le(self.unit_count);
        out.put_u64_le(self.block_count);
        out.put_u32_le(self.secondaries.len() as u32);
        for p in &self.secondaries {
            out.put_u64_le(p.sector);
            out.put_u32_le(p.sector_count);
        }
        out.resize(block_bytes, 0);
        out
    }

    /// Decode from a disk block.
    pub fn decode(mut buf: &[u8]) -> Result<HeaderBlock, FsError> {
        if buf.remaining() < HEADER_FIXED_BYTES {
            return Err(FsError::CorruptIndex {
                what: "header block too short",
            });
        }
        if buf.get_u32_le() != HEADER_MAGIC {
            return Err(FsError::CorruptIndex {
                what: "header block magic",
            });
        }
        if buf.get_u16_le() != VERSION {
            return Err(FsError::CorruptIndex {
                what: "header block version",
            });
        }
        let medium = buf.get_medium().ok_or(FsError::CorruptIndex {
            what: "header medium",
        })?;
        let _pad = buf.get_u8();
        let unit_rate = buf.get_f64_le();
        let granularity = buf.get_u64_le();
        let unit_bits = buf.get_u64_le();
        let unit_count = buf.get_u64_le();
        let block_count = buf.get_u64_le();
        let count = buf.get_u32_le() as usize;
        if buf.remaining() < count * HEADER_PTR_BYTES {
            return Err(FsError::CorruptIndex {
                what: "header block truncated",
            });
        }
        let mut secondaries = Vec::with_capacity(count);
        for _ in 0..count {
            let sector = buf.get_u64_le();
            let sector_count = buf.get_u32_le();
            secondaries.push(IndexPtr {
                sector,
                sector_count,
            });
        }
        Ok(HeaderBlock {
            medium,
            unit_rate,
            granularity,
            unit_bits,
            unit_count,
            block_count,
            secondaries,
        })
    }
}

/// Split a strand's block map into Primary Blocks of the given capacity.
///
/// `sums` is the parallel per-block payload-checksum vector. Returns
/// `(primary blocks, coverage)` where `coverage[i]` is the
/// `(start_block, block_count)` range of `primaries[i]`.
pub fn build_primaries(
    blocks: &[Option<Extent>],
    sums: &[u64],
    per_primary: usize,
) -> (Vec<PrimaryBlock>, Vec<(u64, u32)>) {
    assert!(per_primary > 0, "primary capacity must be positive");
    assert_eq!(blocks.len(), sums.len(), "one sum per block");
    let mut primaries = Vec::new();
    let mut coverage = Vec::new();
    for (chunk_idx, chunk) in blocks.chunks(per_primary).enumerate() {
        let base = chunk_idx * per_primary;
        let entries = chunk
            .iter()
            .enumerate()
            .map(|(i, b)| match b {
                Some(e) => PrimaryEntry::stored(*e, sums[base + i]),
                None => PrimaryEntry::SILENCE,
            })
            .collect();
        primaries.push(PrimaryBlock { entries });
        coverage.push((base as u64, chunk.len() as u32));
    }
    (primaries, coverage)
}

/// Write `strand`'s index in blocks of `block_bytes`, each encoded block
/// through `write`, which places it and says where: every primary, then
/// the secondaries pointing at them, then the header rooting those. The
/// extents come back in that order, the header last: the strand's index
/// extents.
pub fn write_index(
    strand: &StrandBuilder,
    block_bytes: usize,
    mut write: impl FnMut(&[u8]) -> Result<Extent, FsError>,
) -> Result<Vec<Extent>, FsError> {
    let per_primary = PrimaryBlock::capacity(block_bytes).max(1);
    let (primaries, coverage) = build_primaries(strand.blocks(), strand.sums(), per_primary);
    let mut extents = Vec::new();
    for pb in &primaries {
        extents.push(write(&pb.encode(block_bytes))?);
    }
    let per_secondary = SecondaryBlock::capacity(block_bytes).max(1);
    let mut secondaries = Vec::new();
    for first in (0..primaries.len()).step_by(per_secondary) {
        let entries = (first..primaries.len().min(first + per_secondary))
            .map(|i| SecondaryEntry {
                start_block: coverage[i].0,
                block_count: coverage[i].1,
                sector: extents[i].start,
                sector_count: extents[i].sectors as u32,
            })
            .collect();
        let e = write(&SecondaryBlock { entries }.encode(block_bytes))?;
        secondaries.push(IndexPtr::from_extent(e));
        extents.push(e);
    }
    let meta = strand.meta();
    let header = HeaderBlock {
        medium: meta.medium,
        unit_rate: meta.unit_rate,
        granularity: meta.granularity,
        unit_bits: meta.unit_bits.get(),
        unit_count: strand.unit_count(),
        block_count: strand.block_count(),
        secondaries,
    };
    extents.push(write(&header.encode(block_bytes))?);
    Ok(extents)
}

/// Read strand `id` back from the index rooted at `header`, each block's
/// bytes through `read`: the header, then each secondary followed by the
/// primaries it points at. The index extents come back in the order
/// [`write_index`] returns them.
pub fn read_index(
    id: StrandId,
    header: Extent,
    mut read: impl FnMut(Extent) -> Result<Vec<u8>, FsError>,
) -> Result<Strand, FsError> {
    let hb = HeaderBlock::decode(&read(header)?)?;
    let mut primaries = Vec::new();
    let mut extents = Vec::new();
    let mut secondaries = Vec::new();
    for sp in &hb.secondaries {
        let se = sp.extent();
        for entry in SecondaryBlock::decode(&read(se)?)?.entries {
            let pe = Extent::new(entry.sector, entry.sector_count as u64);
            primaries.push(PrimaryBlock::decode(&read(pe)?)?);
            extents.push(pe);
        }
        secondaries.push(se);
    }
    extents.extend(secondaries);
    extents.push(header);
    strand_from_index(id, &hb, &primaries, extents)
}

/// Reconstruct a strand from decoded on-disk index structures — the load
/// path matching [`StrandBuilder`]'s store path.
pub(super) fn strand_from_index(
    id: StrandId,
    header: &HeaderBlock,
    primaries: &[PrimaryBlock],
    index_extents: Vec<Extent>,
) -> Result<Strand, FsError> {
    let mut blocks = Vec::with_capacity(header.block_count as usize);
    let mut sums = Vec::with_capacity(header.block_count as usize);
    for pb in primaries {
        for e in &pb.entries {
            sums.push(match e.extent() {
                None => NO_SUM,
                Some(_) if e.sum == NO_SUM => {
                    return Err(FsError::CorruptIndex {
                        what: "stored block without a checksum stamp",
                    })
                }
                Some(_) => e.sum,
            });
            blocks.push(e.extent());
        }
    }
    if blocks.len() as u64 != header.block_count {
        return Err(FsError::CorruptIndex {
            what: "primary entry count does not match header block count",
        });
    }
    Ok(Strand {
        id,
        meta: StrandMeta {
            medium: header.medium,
            unit_rate: header.unit_rate,
            granularity: header.granularity,
            unit_bits: Bits::new(header.unit_bits),
        },
        blocks,
        sums,
        unit_count: header.unit_count,
        index_extents,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> StrandMeta {
        StrandMeta {
            medium: Medium::Video,
            unit_rate: 30.0,
            granularity: 3,
            unit_bits: Bits::new(96_000),
        }
    }

    #[test]
    fn the_index_reads_back_what_it_wrote_in_the_order_it_wrote_it() {
        // 600 blocks over 25-entry primaries: 24 primaries, which take
        // two secondaries at 21 entries each.
        let mut b = StrandBuilder::new(StrandId::from_raw(6), meta());
        for i in 0..600u64 {
            match i % 7 {
                3 => b.push_silence(3),
                _ => b.push_block(Extent::new(10_000 + i * 8, 8), 3, 0x100 + i),
            }
            .unwrap();
        }
        let mut disk = std::collections::BTreeMap::new();
        let extents = write_index(&b, 512, |bytes| {
            let e = Extent::new(disk.len() as u64, 1);
            disk.insert(e.start, bytes.to_vec());
            Ok(e)
        })
        .unwrap();
        assert_eq!(extents.len(), 24 + 2 + 1);
        let mut reads = Vec::new();
        let header = *extents.last().unwrap();
        let loaded = read_index(b.id(), header, |e| {
            reads.push(e);
            Ok(disk[&e.start].clone())
        })
        .unwrap();
        // The walk: the header, then each secondary before its primaries.
        let (p, s) = (&extents[..24], &extents[24..26]);
        let walk: Vec<Extent> = [header, s[0]]
            .into_iter()
            .chain(p[..21].iter().copied())
            .chain([s[1]])
            .chain(p[21..].iter().copied())
            .collect();
        assert_eq!(reads, walk);
        assert_eq!(loaded, b.freeze(extents));
    }

    #[test]
    fn primary_entry_silence() {
        assert!(PrimaryEntry::SILENCE.is_silence());
        assert_eq!(PrimaryEntry::SILENCE.extent(), None);
        let e = PrimaryEntry::stored(Extent::new(10, 4), 0xDEAD_BEEF);
        assert!(!e.is_silence());
        assert_eq!(e.extent(), Some(Extent::new(10, 4)));
        assert_eq!(e.sum, 0xDEAD_BEEF);
    }

    #[test]
    fn primary_round_trip() {
        let pb = PrimaryBlock {
            entries: vec![
                PrimaryEntry::stored(Extent::new(100, 8), 0x1234_5678_9ABC_DEF0),
                PrimaryEntry::SILENCE,
                PrimaryEntry::stored(Extent::new(300, 8), 0x42),
            ],
        };
        let bytes = pb.encode(512);
        assert_eq!(bytes.len(), 512);
        assert_eq!(PrimaryBlock::decode(&bytes).unwrap(), pb);
    }

    #[test]
    fn secondary_round_trip() {
        let sb = SecondaryBlock {
            entries: vec![SecondaryEntry {
                start_block: 0,
                block_count: 42,
                sector: 77,
                sector_count: 1,
            }],
        };
        let bytes = sb.encode(512);
        assert_eq!(SecondaryBlock::decode(&bytes).unwrap(), sb);
    }

    #[test]
    fn header_round_trip() {
        let hb = HeaderBlock {
            medium: Medium::Audio,
            unit_rate: 8_000.0,
            granularity: 800,
            unit_bits: 8,
            unit_count: 80_000,
            block_count: 100,
            secondaries: vec![
                IndexPtr {
                    sector: 5,
                    sector_count: 1,
                },
                IndexPtr {
                    sector: 9,
                    sector_count: 1,
                },
            ],
        };
        let bytes = hb.encode(512);
        assert_eq!(HeaderBlock::decode(&bytes).unwrap(), hb);
    }

    #[test]
    fn capacities_match_layout_arithmetic() {
        // 512-byte blocks: (512-8)/20 = 25 primary entries (the
        // per-block checksum costs 8 bytes of the former 42-entry
        // capacity), (512-8)/24 = 21 secondary entries.
        assert_eq!(PrimaryBlock::capacity(512), 25);
        assert_eq!(SecondaryBlock::capacity(512), 21);
        assert_eq!(HeaderBlock::capacity(512), (512 - HEADER_FIXED_BYTES) / 12);
        // Degenerate block sizes don't underflow.
        assert_eq!(PrimaryBlock::capacity(4), 0);
    }

    #[test]
    fn corrupt_magic_rejected() {
        let pb = PrimaryBlock { entries: vec![] };
        let mut bytes = pb.encode(512);
        bytes[0] ^= 0xFF;
        assert!(matches!(
            PrimaryBlock::decode(&bytes),
            Err(FsError::CorruptIndex { .. })
        ));
        let hb_bytes = {
            let hb = HeaderBlock {
                medium: Medium::Video,
                unit_rate: 30.0,
                granularity: 1,
                unit_bits: 1,
                unit_count: 0,
                block_count: 0,
                secondaries: vec![],
            };
            let mut b = hb.encode(512);
            b[6] = 9; // invalid medium
            b
        };
        assert!(matches!(
            HeaderBlock::decode(&hb_bytes),
            Err(FsError::CorruptIndex {
                what: "header medium"
            })
        ));
    }

    #[test]
    fn truncated_blocks_rejected() {
        let pb = PrimaryBlock {
            entries: vec![PrimaryEntry::stored(Extent::new(0, 1), 7); 10],
        };
        let bytes = pb.encode(512);
        assert!(PrimaryBlock::decode(&bytes[..32]).is_err());
        assert!(PrimaryBlock::decode(&bytes[..4]).is_err());
        assert!(SecondaryBlock::decode(&[]).is_err());
        assert!(HeaderBlock::decode(&bytes).is_err()); // wrong magic kind
    }

    #[test]
    #[should_panic(expected = "primary block overflow")]
    fn overflow_panics() {
        let pb = PrimaryBlock {
            entries: vec![PrimaryEntry::SILENCE; 100],
        };
        let _ = pb.encode(512);
    }

    #[test]
    fn build_primaries_splits_and_covers() {
        let blocks: Vec<Option<Extent>> = (0..100)
            .map(|i| {
                if i % 7 == 0 {
                    None
                } else {
                    Some(Extent::new(i * 10, 8))
                }
            })
            .collect();
        let sums: Vec<u64> = (0..100u64)
            .map(|i| if i % 7 == 0 { NO_SUM } else { 1000 + i })
            .collect();
        let (pbs, cov) = build_primaries(&blocks, &sums, 42);
        assert_eq!(pbs.len(), 3); // 42 + 42 + 16
        assert_eq!(cov, vec![(0, 42), (42, 42), (84, 16)]);
        assert_eq!(pbs[2].entries.len(), 16);
        // Silence holes preserved at the right offsets.
        assert!(pbs[0].entries[0].is_silence());
        assert!(pbs[0].entries[7].is_silence());
        assert!(!pbs[0].entries[1].is_silence());
        // Entry 84 is a multiple of 7 -> silence in third PB.
        assert!(pbs[2].entries[0].is_silence());
        // Sums land at the right global offsets across the chunk split.
        assert_eq!(pbs[0].entries[1].sum, 1001);
        assert_eq!(pbs[1].entries[1].sum, 1043);
        assert_eq!(pbs[2].entries[1].sum, 1085);
    }
}

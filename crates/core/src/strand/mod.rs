//! Media strands: immutable sequences of continuously-recorded media.
//!
//! A strand is recorded once through a [`StrandBuilder`], then frozen.
//! Immutability is what makes rope editing copy-free and garbage
//! collection simple (§4): edits manipulate *references* to strand
//! intervals, never strand contents.

pub mod hetero;
pub mod index;
pub mod wire;

use crate::admission::RequestSpec;
use crate::error::FsError;
use crate::types::{BlockNo, StrandId};
use strandfs_disk::Extent;
use strandfs_media::Medium;
use strandfs_units::{Bits, Seconds};

/// Recording parameters of a strand.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StrandMeta {
    /// The medium recorded.
    pub medium: Medium,
    /// Units (frames or samples) per second.
    pub unit_rate: f64,
    /// Units per media block (granularity, `q`).
    pub granularity: u64,
    /// Nominal unit size in bits (`s_vf` / `s_as`).
    pub unit_bits: Bits,
}

impl StrandMeta {
    /// The admission request a stream of this strand makes — the one
    /// place a medium becomes an Eq. 15–18 term.
    pub fn request_spec(&self) -> RequestSpec {
        RequestSpec {
            q: self.granularity,
            unit_bits: self.unit_bits,
            unit_rate: self.unit_rate,
        }
    }

    /// True if all parameters are positive and finite.
    pub fn is_valid(&self) -> bool {
        self.unit_rate.is_finite()
            && self.unit_rate > 0.0
            && self.granularity > 0
            && self.unit_bits.get() > 0
    }
}

/// An immutable, fully-recorded media strand.
///
/// `blocks[i]` is the disk extent of media block `i`, or `None` for an
/// eliminated-silence hole (audio only). Every block spans exactly
/// `granularity` units of media time — holes included — except possibly
/// the last.
#[derive(Clone, Debug, PartialEq)]
pub struct Strand {
    id: StrandId,
    meta: StrandMeta,
    blocks: Vec<Option<Extent>>,
    /// Checksum of each block's padded on-disk payload, parallel to
    /// `blocks` ([`index::NO_SUM`] for silence holes).
    sums: Vec<u64>,
    unit_count: u64,
    /// Where the strand's on-disk index lives, in the order
    /// [`index::write_index`] writes it: primaries, secondaries, then
    /// the header — populated once the MSM has written the index.
    index_extents: Vec<Extent>,
}

impl Strand {
    /// The strand's identity.
    pub fn id(&self) -> StrandId {
        self.id
    }

    /// The strand's recording parameters.
    pub fn meta(&self) -> &StrandMeta {
        &self.meta
    }

    /// Number of media blocks (stored + silence holes).
    pub fn block_count(&self) -> u64 {
        self.blocks.len() as u64
    }

    /// Total units of media time (frames/samples), holes included.
    pub fn unit_count(&self) -> u64 {
        self.unit_count
    }

    /// Total playback duration.
    pub fn duration(&self) -> Seconds {
        Seconds::new(self.unit_count as f64 / self.meta.unit_rate)
    }

    /// The block map.
    pub fn blocks(&self) -> &[Option<Extent>] {
        &self.blocks
    }

    /// The extent of block `n` (`Ok(None)` for silence).
    pub fn block(&self, n: BlockNo) -> Result<Option<Extent>, FsError> {
        self.blocks
            .get(n as usize)
            .copied()
            .ok_or(FsError::BlockOutOfRange {
                strand: self.id,
                block: n,
                len: self.block_count(),
            })
    }

    /// True if block `n` is an eliminated-silence hole.
    pub fn is_silence(&self, n: BlockNo) -> Result<bool, FsError> {
        Ok(self.block(n)?.is_none())
    }

    /// Number of stored (non-hole) blocks.
    pub fn stored_blocks(&self) -> u64 {
        self.blocks.iter().filter(|b| b.is_some()).count() as u64
    }

    /// Fraction of blocks that are silence holes, in `[0, 1]`.
    pub fn silence_fraction(&self) -> f64 {
        if self.blocks.is_empty() {
            return 0.0;
        }
        1.0 - self.stored_blocks() as f64 / self.blocks.len() as f64
    }

    /// Total sectors occupied by media data (holes cost nothing).
    pub fn data_sectors(&self) -> u64 {
        self.blocks.iter().flatten().map(|e| e.sectors).sum()
    }

    /// Extents of the strand's on-disk index blocks.
    pub fn index_extents(&self) -> &[Extent] {
        &self.index_extents
    }

    /// Per-block payload checksums, parallel to [`Strand::blocks`]
    /// ([`index::NO_SUM`] for silence holes).
    pub fn sums(&self) -> &[u64] {
        &self.sums
    }

    /// The payload checksum stamped for block `n` ([`index::NO_SUM`] if
    /// the block is silence).
    pub fn block_sum(&self, n: BlockNo) -> Result<u64, FsError> {
        self.sums
            .get(n as usize)
            .copied()
            .ok_or(FsError::BlockOutOfRange {
                strand: self.id,
                block: n,
                len: self.block_count(),
            })
    }

    /// Iterate over stored blocks as `(block number, extent)`.
    pub fn stored_iter(&self) -> impl Iterator<Item = (BlockNo, Extent)> + '_ {
        self.blocks
            .iter()
            .enumerate()
            .filter_map(|(i, b)| b.map(|e| (i as u64, e)))
    }

    /// Every extent the strand occupies: its stored blocks in order,
    /// then its index blocks.
    pub(crate) fn extents(&self) -> impl Iterator<Item = Extent> + '_ {
        let stored = self.stored_iter().map(|(_, e)| e);
        stored.chain(self.index_extents.iter().copied())
    }
}

/// Accumulates a strand during recording; freezing produces a [`Strand`].
#[derive(Debug)]
pub struct StrandBuilder {
    id: StrandId,
    meta: StrandMeta,
    blocks: Vec<Option<Extent>>,
    sums: Vec<u64>,
    units: u64,
    frozen: bool,
}

impl StrandBuilder {
    /// Begin recording a strand.
    pub fn new(id: StrandId, meta: StrandMeta) -> Self {
        assert!(meta.is_valid(), "invalid strand meta: {meta:?}");
        StrandBuilder {
            id,
            meta,
            blocks: Vec::new(),
            sums: Vec::new(),
            units: 0,
            frozen: false,
        }
    }

    /// The id being recorded.
    pub fn id(&self) -> StrandId {
        self.id
    }

    /// The recording parameters.
    pub fn meta(&self) -> &StrandMeta {
        &self.meta
    }

    /// Blocks appended so far.
    pub fn block_count(&self) -> u64 {
        self.blocks.len() as u64
    }

    /// The extent of the most recent *stored* block (the anchor for
    /// constrained allocation of the next one).
    pub fn last_stored(&self) -> Option<Extent> {
        self.blocks.iter().rev().flatten().next().copied()
    }

    /// The block map accumulated so far.
    pub fn blocks(&self) -> &[Option<Extent>] {
        &self.blocks
    }

    /// Units accumulated so far.
    pub fn unit_count(&self) -> u64 {
        self.units
    }

    /// Per-block payload checksums accumulated so far.
    pub fn sums(&self) -> &[u64] {
        &self.sums
    }

    /// Append a stored media block of `units` media units at `extent`,
    /// stamped with the checksum of its padded on-disk payload
    /// (`strandfs_disk::block_sum`, never [`index::NO_SUM`]).
    pub fn push_block(&mut self, extent: Extent, units: u64, sum: u64) -> Result<BlockNo, FsError> {
        assert_ne!(sum, index::NO_SUM, "a stored block must carry its stamp");
        self.push(Some(extent), units, sum)
    }

    /// Append a silence hole covering `units` media units.
    pub fn push_silence(&mut self, units: u64) -> Result<BlockNo, FsError> {
        self.push(None, units, index::NO_SUM)
    }

    fn push(&mut self, block: Option<Extent>, units: u64, sum: u64) -> Result<BlockNo, FsError> {
        if self.frozen {
            return Err(FsError::StrandImmutable(self.id));
        }
        assert!(
            units > 0 && units <= self.meta.granularity,
            "block must carry 1..=granularity units"
        );
        let n = self.blocks.len() as u64;
        self.blocks.push(block);
        self.sums.push(sum);
        self.units += units;
        Ok(n)
    }

    /// Freeze the recording into an immutable [`Strand`].
    ///
    /// `index_extents` records where the MSM placed the strand's on-disk
    /// index (may be empty for purely in-memory strands in tests).
    pub fn freeze(mut self, index_extents: Vec<Extent>) -> Strand {
        self.frozen = true;
        Strand {
            id: self.id,
            meta: self.meta,
            blocks: self.blocks,
            sums: self.sums,
            unit_count: self.units,
            index_extents,
        }
    }
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

    fn build(n_blocks: u64) -> Strand {
        let mut b = StrandBuilder::new(StrandId::from_raw(1), meta());
        for i in 0..n_blocks {
            b.push_block(Extent::new(i * 100, 8), 3, 0x100 + i).unwrap();
        }
        b.freeze(vec![])
    }

    #[test]
    fn builder_accumulates() {
        let s = build(10);
        assert_eq!(s.block_count(), 10);
        assert_eq!(s.unit_count(), 30);
        assert!((s.duration().get() - 1.0).abs() < 1e-12);
        assert_eq!(s.stored_blocks(), 10);
        assert_eq!(s.data_sectors(), 80);
        assert_eq!(s.silence_fraction(), 0.0);
        assert_eq!(s.sums().len(), 10);
        assert_eq!(s.block_sum(3).unwrap(), 0x103);
        assert!(s.block_sum(10).is_err());
    }

    #[test]
    fn block_lookup_and_bounds() {
        let s = build(5);
        assert_eq!(s.block(0).unwrap(), Some(Extent::new(0, 8)));
        assert_eq!(s.block(4).unwrap(), Some(Extent::new(400, 8)));
        assert!(matches!(
            s.block(5),
            Err(FsError::BlockOutOfRange {
                block: 5,
                len: 5,
                ..
            })
        ));
    }

    #[test]
    fn silence_holes() {
        let mut b = StrandBuilder::new(StrandId::from_raw(2), {
            StrandMeta {
                medium: Medium::Audio,
                unit_rate: 8_000.0,
                granularity: 800,
                unit_bits: Bits::new(8),
            }
        });
        b.push_block(Extent::new(0, 2), 800, 0xA).unwrap();
        b.push_silence(800).unwrap();
        b.push_block(Extent::new(50, 2), 800, 0xB).unwrap();
        let s = b.freeze(vec![]);
        assert_eq!(s.block_count(), 3);
        assert_eq!(s.stored_blocks(), 2);
        assert!(s.is_silence(1).unwrap());
        assert!(!s.is_silence(0).unwrap());
        assert!((s.silence_fraction() - 1.0 / 3.0).abs() < 1e-12);
        // Silence holes carry the no-sum encoding.
        assert_eq!(s.sums(), &[0xA, index::NO_SUM, 0xB]);
        // Silence still advances media time.
        assert_eq!(s.unit_count(), 2_400);
        assert_eq!(s.data_sectors(), 4);
        let stored: Vec<_> = s.stored_iter().collect();
        assert_eq!(
            stored,
            vec![(0, Extent::new(0, 2)), (2, Extent::new(50, 2))]
        );
    }

    #[test]
    fn last_stored_skips_holes() {
        let mut b = StrandBuilder::new(StrandId::from_raw(3), meta());
        assert_eq!(b.last_stored(), None);
        b.push_block(Extent::new(10, 8), 3, 0x10).unwrap();
        b.push_silence(3).unwrap();
        assert_eq!(b.last_stored(), Some(Extent::new(10, 8)));
    }

    #[test]
    fn partial_final_block() {
        let mut b = StrandBuilder::new(StrandId::from_raw(4), meta());
        b.push_block(Extent::new(0, 8), 3, 0x20).unwrap();
        b.push_block(Extent::new(100, 8), 2, 0x21).unwrap(); // partial
        let s = b.freeze(vec![]);
        assert_eq!(s.unit_count(), 5);
        assert_eq!(s.block_count(), 2);
    }

    #[test]
    #[should_panic(expected = "1..=granularity")]
    fn oversized_block_rejected() {
        let mut b = StrandBuilder::new(StrandId::from_raw(5), meta());
        let _ = b.push_block(Extent::new(0, 8), 4, 0x30);
    }

    #[test]
    fn index_round_trip_reconstructs_strand() {
        let mut b = StrandBuilder::new(StrandId::from_raw(6), meta());
        b.push_block(Extent::new(0, 8), 3, 0xFACE).unwrap();
        b.push_silence(3).unwrap();
        b.push_block(Extent::new(90, 8), 3, 0xBEEF).unwrap();
        let original = b.freeze(vec![]);

        let (primaries, _cov) = index::build_primaries(original.blocks(), original.sums(), 2);
        let header = index::HeaderBlock {
            medium: original.meta().medium,
            unit_rate: original.meta().unit_rate,
            granularity: original.meta().granularity,
            unit_bits: original.meta().unit_bits.get(),
            unit_count: original.unit_count(),
            block_count: original.block_count(),
            secondaries: vec![],
        };
        let rebuilt =
            index::strand_from_index(StrandId::from_raw(6), &header, &primaries, vec![]).unwrap();
        assert_eq!(rebuilt, original);
    }

    #[test]
    fn index_mismatch_detected() {
        let header = index::HeaderBlock {
            medium: Medium::Video,
            unit_rate: 30.0,
            granularity: 3,
            unit_bits: 96_000,
            unit_count: 9,
            block_count: 3,
            secondaries: vec![],
        };
        // Only 2 primary entries for a 3-block header.
        let pb = index::PrimaryBlock {
            entries: vec![index::PrimaryEntry::SILENCE; 2],
        };
        assert!(matches!(
            index::strand_from_index(StrandId::from_raw(7), &header, &[pb], vec![]),
            Err(FsError::CorruptIndex { .. })
        ));
        // A stored block whose entry carries the silence-hole sum.
        let mut entries = vec![index::PrimaryEntry::SILENCE; 3];
        entries[1] = index::PrimaryEntry::stored(Extent::new(80, 8), index::NO_SUM);
        assert!(matches!(
            index::strand_from_index(
                StrandId::from_raw(7),
                &header,
                &[index::PrimaryBlock { entries }],
                vec![]
            ),
            Err(FsError::CorruptIndex { .. })
        ));
    }

    #[test]
    fn meta_validity_and_block_duration() {
        assert!(meta().is_valid());
        let bad = StrandMeta {
            unit_rate: 0.0,
            ..meta()
        };
        assert!(!bad.is_valid());
    }
}

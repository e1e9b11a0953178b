//! Block placement policies.
//!
//! The paper contrasts three ways of laying a media strand's blocks on
//! disk (§3):
//!
//! * **random** allocation — what conventional file servers do; block
//!   separations are unconstrained, so continuity can only be bought with
//!   large buffers;
//! * **contiguous** allocation — guarantees continuity but suffers
//!   fragmentation and copying during edits;
//! * **constrained** allocation — the paper's proposal: successive blocks
//!   are *scattered*, with the gap between them bounded within
//!   `[l_lower, l_upper]` so that continuity holds while the gaps remain
//!   usable for other data (e.g. conventional text files).
//!
//! [`Allocator`] implements all three over a shared [`FreeMap`], and
//! [`GapBounds`] converts the model's time bounds into sector bounds via
//! the disk's seek geometry.

use crate::disk::SimDisk;
use crate::freemap::FreeMap;
use crate::geometry::{Extent, Lba};
use std::fmt;
use strandfs_units::{Prng, Seconds};

/// Bounds on the separation between the end of one block of a strand and
/// the start of the next, in sectors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GapBounds {
    /// Minimum gap (inclusive), in sectors.
    pub min_sectors: u64,
    /// Maximum gap (inclusive), in sectors.
    pub max_sectors: u64,
}

impl GapBounds {
    /// Bounds with no minimum and the given maximum.
    pub const fn up_to(max_sectors: u64) -> Self {
        GapBounds {
            min_sectors: 0,
            max_sectors,
        }
    }

    /// Derive sector bounds from scattering-time bounds.
    ///
    /// The deterministic gap-time estimate is `seek(cylinder distance) +
    /// half a rotation` (see [`SimDisk::positioning_time`]). The upper
    /// sector bound is the largest cylinder distance whose estimate stays
    /// within `upper`; the lower bound is the smallest distance whose
    /// estimate reaches `lower`. Returns `None` when `upper` cannot
    /// accommodate even a 0-cylinder move (i.e. the scattering bound is
    /// tighter than half a rotation — continuity is infeasible on this
    /// disk) or when the bounds cross.
    pub fn from_times(disk: &SimDisk, lower: Seconds, upper: Seconds) -> Option<Self> {
        let g = disk.geometry();
        let half_rot = g.rotation_time() / 2.0;
        if upper < half_rot {
            return None;
        }
        let seek_budget = upper - half_rot;
        let spc = g.sectors_per_cylinder();
        let max_cyl = disk
            .seek_model()
            .max_distance_within(seek_budget, g.cylinders)
            .unwrap_or(0);
        // Gap of up to (max_cyl) whole cylinders keeps the seek within
        // budget regardless of intra-cylinder offsets.
        let max_sectors = max_cyl.saturating_mul(spc);

        let min_sectors = if lower <= half_rot {
            0
        } else {
            let floor = lower - half_rot;
            match disk.seek_model().min_distance_reaching(floor, g.cylinders) {
                // Need at least (d) full cylinders of separation; +1 so the
                // distance holds from any intra-cylinder offset.
                Some(d) => d.saturating_add(1).saturating_mul(spc),
                None => return None, // lower bound unreachable on this disk
            }
        };
        if min_sectors > max_sectors {
            return None;
        }
        Some(GapBounds {
            min_sectors,
            max_sectors,
        })
    }

    /// True if a gap of `gap` sectors satisfies the bounds.
    #[inline]
    pub const fn admits(self, gap: u64) -> bool {
        gap >= self.min_sectors && gap <= self.max_sectors
    }
}

/// How an [`Allocator`] places successive blocks of a strand.
#[derive(Clone, Debug)]
pub enum AllocPolicy {
    /// Uniformly random placement among free runs (seeded, reproducible).
    Random,
    /// Each block immediately follows its predecessor.
    Contiguous,
    /// Gap between successive blocks constrained to [`GapBounds`].
    /// When the forward window is exhausted the placement wraps to the
    /// start of the disk (the wrap transition itself pays a long seek,
    /// counted in [`AllocStats::wraps`] as an anomaly).
    Constrained {
        /// The sector-gap bounds to enforce.
        bounds: GapBounds,
    },
}

/// Why an allocation failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocError {
    /// No free run of the requested length anywhere on the device.
    NoSpace,
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::NoSpace => write!(f, "no free space for requested extent"),
        }
    }
}

impl std::error::Error for AllocError {}

/// Counters describing an allocator's history.
#[derive(Clone, Copy, Debug, Default)]
pub struct AllocStats {
    /// Successful allocations.
    pub allocations: u64,
    /// Allocations that wrapped around the end of the device.
    pub wraps: u64,
    /// Failed allocations.
    pub failures: u64,
}

/// A block allocator implementing one [`AllocPolicy`] over a [`FreeMap`].
#[derive(Debug)]
pub struct Allocator {
    map: FreeMap,
    policy: AllocPolicy,
    rng: Prng,
    stats: AllocStats,
}

impl Allocator {
    /// An allocator over `total_sectors` fresh sectors.
    pub fn new(total_sectors: u64, policy: AllocPolicy, seed: u64) -> Self {
        Allocator {
            map: FreeMap::new(total_sectors),
            policy,
            rng: Prng::seed_from_u64(seed),
            stats: AllocStats::default(),
        }
    }

    /// The underlying free map (read-only).
    pub fn freemap(&self) -> &FreeMap {
        &self.map
    }

    /// Allocation statistics.
    pub fn stats(&self) -> AllocStats {
        self.stats
    }

    /// The active policy.
    pub fn policy(&self) -> &AllocPolicy {
        &self.policy
    }

    /// Place the first block of a strand.
    ///
    /// Every policy starts a strand with a first-fit (random policy: a
    /// uniformly-chosen fit) — constraints only relate *successive*
    /// blocks.
    pub fn allocate_first(&mut self, sectors: u64) -> Result<Extent, AllocError> {
        let e = match self.policy {
            AllocPolicy::Random => self.random_fit(sectors),
            _ => self.first_fit(0, sectors),
        };
        self.commit(e)
    }

    /// Place the next block of a strand whose previous block is `prev`.
    pub fn allocate_after(&mut self, prev: Extent, sectors: u64) -> Result<Extent, AllocError> {
        let e = match self.policy.clone() {
            AllocPolicy::Random => self.random_fit(sectors),
            AllocPolicy::Contiguous => {
                let want = Extent::new(prev.end(), sectors);
                if self.map.extent_free(want) {
                    Some(want)
                } else {
                    None
                }
            }
            AllocPolicy::Constrained { bounds } => self.constrained_fit(prev, sectors, bounds),
        };
        self.commit(e)
    }

    /// Place a block anywhere (first-fit) — used for non-real-time infill
    /// data such as conventional text files living in the scattering gaps.
    pub fn allocate_anywhere(&mut self, sectors: u64) -> Result<Extent, AllocError> {
        let e = self.first_fit(0, sectors);
        self.commit(e)
    }

    /// Return an extent to the free pool.
    pub fn release(&mut self, e: Extent) {
        self.map.release(e);
    }

    /// Mark an extent allocated without policy involvement (used when
    /// reconstructing state, e.g. loading an existing volume).
    pub fn adopt(&mut self, e: Extent) {
        self.map.allocate(e);
    }

    fn commit(&mut self, e: Option<Extent>) -> Result<Extent, AllocError> {
        match e {
            Some(e) => {
                self.map.allocate(e);
                self.stats.allocations += 1;
                Ok(e)
            }
            None => {
                self.stats.failures += 1;
                Err(AllocError::NoSpace)
            }
        }
    }

    fn first_fit(&self, from: Lba, sectors: u64) -> Option<Extent> {
        self.map
            .find_free_run(from, self.map.total(), sectors)
            .map(|s| Extent::new(s, sectors))
    }

    fn random_fit(&mut self, sectors: u64) -> Option<Extent> {
        let total = self.map.total();
        if total < sectors || sectors == 0 {
            return None;
        }
        let pivot = self.rng.gen_range(0..total);
        // Search forward from the pivot, then wrap to the front.
        if let Some(s) = self.map.find_free_run(pivot, total, sectors) {
            return Some(Extent::new(s, sectors));
        }
        self.map
            .find_free_run(0, pivot + sectors, sectors)
            .map(|s| Extent::new(s, sectors))
    }

    fn constrained_fit(&mut self, prev: Extent, sectors: u64, bounds: GapBounds) -> Option<Extent> {
        let total = self.map.total();
        let lo = prev.end().saturating_add(bounds.min_sectors);
        let hi = prev
            .end()
            .saturating_add(bounds.max_sectors)
            .saturating_add(1); // window of admissible *starts*, exclusive
        if lo < total {
            if let Some(s) = self.map.find_free_run(lo, hi.min(total), sectors) {
                if s < hi {
                    return Some(Extent::new(s, sectors));
                }
            }
        }
        // Wrap: restart scattering from the front of the disk, falling
        // back to anywhere. The wrap transition itself exceeds the gap
        // bound (one long seek); it is recorded so experiments can count
        // anomalies.
        let width = (bounds.max_sectors - bounds.min_sectors).saturating_add(1);
        let s = self
            .map
            .find_free_run(0, width.min(total), sectors)
            .or_else(|| self.map.find_free_run(0, total, sectors))?;
        self.stats.wraps += 1;
        Some(Extent::new(s, sectors))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::DiskGeometry;
    use crate::seek::SeekModel;

    const TOTAL: u64 = 4096;

    fn constrained(min: u64, max: u64) -> Allocator {
        Allocator::new(
            TOTAL,
            AllocPolicy::Constrained {
                bounds: GapBounds {
                    min_sectors: min,
                    max_sectors: max,
                },
            },
            7,
        )
    }

    #[test]
    fn contiguous_places_adjacent() {
        let mut a = Allocator::new(TOTAL, AllocPolicy::Contiguous, 0);
        let b0 = a.allocate_first(8).unwrap();
        let b1 = a.allocate_after(b0, 8).unwrap();
        assert_eq!(b1.start, b0.end());
        let b2 = a.allocate_after(b1, 8).unwrap();
        assert_eq!(b2.start, b1.end());
    }

    #[test]
    fn contiguous_fails_when_neighbour_taken() {
        let mut a = Allocator::new(TOTAL, AllocPolicy::Contiguous, 0);
        let b0 = a.allocate_first(8).unwrap();
        a.adopt(Extent::new(b0.end(), 4)); // squatting neighbour
        assert_eq!(a.allocate_after(b0, 8), Err(AllocError::NoSpace));
        assert_eq!(a.stats().failures, 1);
    }

    #[test]
    fn constrained_respects_gap_bounds() {
        let mut a = constrained(16, 64);
        let mut prev = a.allocate_first(8).unwrap();
        for _ in 0..40 {
            let next = a.allocate_after(prev, 8).unwrap();
            let gap = next.start - prev.end();
            assert!((16..=64).contains(&gap), "gap {gap} out of bounds");
            prev = next;
        }
    }

    #[test]
    fn constrained_skips_occupied_window_space() {
        let mut a = constrained(4, 100);
        let b0 = a.allocate_first(8).unwrap();
        // Occupy the first admissible region.
        a.adopt(Extent::new(b0.end() + 4, 20));
        let b1 = a.allocate_after(b0, 8).unwrap();
        let gap = b1.start - b0.end();
        assert!(gap >= 24, "must start after the squatter, got {gap}");
        assert!(gap <= 100);
    }

    #[test]
    fn constrained_fails_without_wrap_at_disk_end() {
        let mut a = constrained(16, 64);
        // Park prev at the end of the device, with only a run too short
        // for the block free in front: there is nothing to wrap into.
        let prev = Extent::new(TOTAL - 8, 8);
        a.adopt(Extent::new(0, TOTAL - 12));
        a.adopt(prev);
        assert_eq!(a.allocate_after(prev, 8), Err(AllocError::NoSpace));
        assert_eq!(a.stats().wraps, 0);
    }

    #[test]
    fn constrained_wraps_when_allowed() {
        let mut a = constrained(16, 64);
        let prev = Extent::new(TOTAL - 8, 8);
        a.adopt(prev);
        let next = a.allocate_after(prev, 8).unwrap();
        assert!(next.start < 100, "wrapped to the front");
        assert_eq!(a.stats().wraps, 1);
    }

    #[test]
    fn random_is_seeded_and_reproducible() {
        let mut a1 = Allocator::new(TOTAL, AllocPolicy::Random, 42);
        let mut a2 = Allocator::new(TOTAL, AllocPolicy::Random, 42);
        let mut prev1 = a1.allocate_first(8).unwrap();
        let mut prev2 = a2.allocate_first(8).unwrap();
        for _ in 0..20 {
            prev1 = a1.allocate_after(prev1, 8).unwrap();
            prev2 = a2.allocate_after(prev2, 8).unwrap();
            assert_eq!(prev1, prev2);
        }
    }

    #[test]
    fn random_eventually_fills_disk() {
        let mut a = Allocator::new(256, AllocPolicy::Random, 1);
        let mut got = 0;
        while a.allocate_anywhere(8).is_ok() {
            got += 1;
        }
        assert_eq!(got, 32);
        assert_eq!(a.freemap().free(), 0);
    }

    #[test]
    fn infill_uses_gaps_left_by_constrained_strand() {
        let mut a = constrained(32, 64);
        let mut prev = a.allocate_first(8).unwrap();
        for _ in 0..10 {
            prev = a.allocate_after(prev, 8).unwrap();
        }
        // Text-file infill lands inside the first gap.
        let text = a.allocate_anywhere(16).unwrap();
        assert!(text.start >= 8 && text.start < prev.end());
    }

    #[test]
    fn gap_bounds_from_times() {
        let disk = SimDisk::new(DiskGeometry::vintage_1991(), SeekModel::vintage_1991());
        let half_rot = disk.geometry().rotation_time() / 2.0;
        // Upper bound tighter than half a rotation: infeasible.
        assert!(GapBounds::from_times(&disk, Seconds::ZERO, half_rot / 2.0).is_none());
        // A generous upper bound admits a large window.
        let b = GapBounds::from_times(&disk, Seconds::ZERO, Seconds::from_millis(20.0)).unwrap();
        assert_eq!(b.min_sectors, 0);
        assert!(b.max_sectors > 0);
        // Check the promise: any admitted whole-cylinder gap's estimated
        // positioning time respects the upper bound.
        let spc = disk.geometry().sectors_per_cylinder();
        let max_cyl = b.max_sectors / spc;
        assert!(disk.positioning_time(max_cyl) <= Seconds::from_millis(20.0));
    }

    #[test]
    fn gap_bounds_with_lower_floor() {
        let disk = SimDisk::new(DiskGeometry::vintage_1991(), SeekModel::vintage_1991());
        let b = GapBounds::from_times(&disk, Seconds::from_millis(9.0), Seconds::from_millis(25.0))
            .unwrap();
        assert!(b.min_sectors > 0);
        assert!(b.min_sectors <= b.max_sectors);
        // Crossed bounds are rejected.
        assert!(GapBounds::from_times(
            &disk,
            Seconds::from_millis(25.0),
            Seconds::from_millis(9.0)
        )
        .is_none());
    }

    #[test]
    fn admits_checks_range() {
        let b = GapBounds {
            min_sectors: 4,
            max_sectors: 10,
        };
        assert!(!b.admits(3));
        assert!(b.admits(4));
        assert!(b.admits(10));
        assert!(!b.admits(11));
    }
}

//! Multi-actuator disk arrays for the paper's *concurrent* architecture.

use crate::disk::{AccessKind, DiskOp, SimDisk};
use crate::geometry::{DiskGeometry, Extent};
use crate::seek::SeekModel;
use strandfs_units::{BitRate, Instant};

/// A block striped across several member disks of an array.
#[derive(Clone, Debug)]
pub struct StripedExtent {
    /// `(disk index, extent on that disk)` pairs, one per stripe unit.
    pub stripes: Vec<(usize, Extent)>,
}

impl StripedExtent {
    /// Total sectors across all stripes.
    pub fn total_sectors(&self) -> u64 {
        self.stripes.iter().map(|(_, e)| e.sectors).sum()
    }
}

/// An array of `p` identical, independently-seeking disks.
///
/// The paper's concurrent architecture (Fig. 3, Eq. 3) assumes `p`
/// simultaneous disk accesses; an array of `p` single-actuator disks is
/// the standard realization (RAID-0-style striping). Each member keeps
/// its own arm position and rotational phase, so parallel accesses
/// genuinely overlap in virtual time.
#[derive(Debug)]
pub struct DiskArray {
    disks: Vec<SimDisk>,
}

impl DiskArray {
    /// An array of `p` disks with identical geometry and seek model.
    ///
    /// Rotational phases are identical at t=0 (spindle-synchronized,
    /// as early arrays were); phase drift plays no role because each
    /// access computes its own rotational delay.
    pub fn new(p: usize, geometry: DiskGeometry, seek_model: SeekModel) -> Self {
        assert!(p > 0, "array needs at least one disk");
        DiskArray {
            disks: (0..p).map(|_| SimDisk::new(geometry, seek_model)).collect(),
        }
    }

    /// Number of member disks (the paper's degree of concurrency `p`).
    pub fn degree(&self) -> usize {
        self.disks.len()
    }

    /// Immutable access to a member disk.
    pub fn disk(&self, i: usize) -> &SimDisk {
        &self.disks[i]
    }

    /// Aggregate sustained transfer rate: `p ×` one member's track rate.
    pub fn aggregate_transfer_rate(&self) -> BitRate {
        self.disks[0].geometry().track_transfer_rate() * self.degree() as f64
    }

    /// Issue the stripes of `se` simultaneously at `now`, one per member,
    /// and return the per-stripe timings plus the instant the *last*
    /// stripe completes (the block is usable only when whole).
    ///
    /// Panics if two stripes name the same member disk: a single actuator
    /// cannot run two accesses concurrently, and schedulers must serialize
    /// such requests instead.
    pub fn access_striped(
        &mut self,
        now: Instant,
        se: &StripedExtent,
        kind: AccessKind,
    ) -> (Vec<DiskOp>, Instant) {
        let mut seen = vec![false; self.disks.len()];
        let mut ops = Vec::with_capacity(se.stripes.len());
        let mut done = now;
        for &(i, extent) in &se.stripes {
            assert!(
                !std::mem::replace(&mut seen[i], true),
                "two concurrent stripes on disk {i}"
            );
            let op = self.disks[i]
                .access(now, extent, kind)
                .expect("array members are never armed");
            if op.completed > done {
                done = op.completed;
            }
            ops.push(op);
        }
        (ops, done)
    }

    /// Round-robin stripe a logical run of `blocks` blocks of
    /// `sectors_per_block` sectors each, placing block `b` on disk
    /// `b mod p` at the LBA chosen by `place` (a callback so callers can
    /// use their own per-disk allocators).
    pub fn stripe_blocks<F>(
        &self,
        blocks: u64,
        sectors_per_block: u64,
        mut place: F,
    ) -> Vec<StripedExtent>
    where
        F: FnMut(usize, u64) -> Extent,
    {
        let p = self.degree();
        let mut groups: Vec<StripedExtent> = Vec::new();
        for b in 0..blocks {
            let disk_idx = (b as usize) % p;
            let extent = place(disk_idx, sectors_per_block);
            if disk_idx == 0 {
                groups.push(StripedExtent {
                    stripes: Vec::with_capacity(p),
                });
            }
            groups
                .last_mut()
                .expect("group created at stripe start")
                .stripes
                .push((disk_idx, extent));
        }
        groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strandfs_units::Nanos;

    fn array(p: usize) -> DiskArray {
        DiskArray::new(p, DiskGeometry::tiny_test(), SeekModel::vintage_1991())
    }

    #[test]
    fn aggregate_rate_scales_with_degree() {
        let a1 = array(1);
        let a4 = array(4);
        let r1 = a1.aggregate_transfer_rate().get();
        let r4 = a4.aggregate_transfer_rate().get();
        assert!((r4 - 4.0 * r1).abs() < 1e-6);
    }

    #[test]
    fn striped_access_overlaps_in_time() {
        let mut a = array(4);
        let se = StripedExtent {
            stripes: (0..4).map(|i| (i, Extent::new(100, 8))).collect(),
        };
        let (ops, done) = a.access_striped(Instant::EPOCH, &se, AccessKind::Read);
        assert_eq!(ops.len(), 4);
        // All four issue at the same instant.
        assert!(ops.iter().all(|op| op.issued == Instant::EPOCH));
        // Completion is the max, not the sum.
        let max = ops.iter().map(|o| o.completed).max().unwrap();
        let sum: Nanos = ops.iter().map(|o| o.service_time()).sum();
        assert_eq!(done, max);
        assert!(done - Instant::EPOCH < sum, "must be parallel, not serial");
    }

    #[test]
    #[should_panic(expected = "two concurrent stripes")]
    fn same_disk_twice_panics() {
        let mut a = array(2);
        let se = StripedExtent {
            stripes: vec![(0, Extent::new(0, 1)), (0, Extent::new(8, 1))],
        };
        a.access_striped(Instant::EPOCH, &se, AccessKind::Read);
    }

    #[test]
    fn stripe_blocks_round_robin() {
        let a = array(3);
        let mut next = [0u64; 3];
        let groups = a.stripe_blocks(7, 4, |disk, sectors| {
            let start = next[disk];
            next[disk] += sectors;
            Extent::new(start, sectors)
        });
        // 7 blocks over 3 disks: groups of 3, 3, 1.
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0].stripes.len(), 3);
        assert_eq!(groups[1].stripes.len(), 3);
        assert_eq!(groups[2].stripes.len(), 1);
        assert_eq!(groups[0].stripes[1].0, 1);
        assert_eq!(groups[1].stripes[0].1, Extent::new(4, 4));
        assert_eq!(groups[0].total_sectors(), 12);
    }

    #[test]
    fn members_keep_independent_arm_positions() {
        let mut a = array(2);
        let far = a.disk(0).geometry().sectors_per_cylinder() * 30;
        let se = StripedExtent {
            stripes: vec![(0, Extent::new(far, 1))],
        };
        a.access_striped(Instant::EPOCH, &se, AccessKind::Read);
        assert_eq!(a.disk(0).head_cylinder(), 30);
        assert_eq!(a.disk(1).head_cylinder(), 0);
    }
}

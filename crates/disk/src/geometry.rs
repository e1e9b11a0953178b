//! Disk geometry: cylinders, tracks, sectors and address arithmetic.

use strandfs_units::{BitRate, Bytes, Seconds};

/// A logical block address: the index of a sector on a (single) disk,
/// numbered 0.. in cylinder-major order.
pub type Lba = u64;

/// A contiguous run of sectors on one disk.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Extent {
    /// First sector of the run.
    pub start: Lba,
    /// Number of sectors in the run (> 0 for any stored block).
    pub sectors: u64,
}

impl Extent {
    /// Construct an extent.
    #[inline]
    pub const fn new(start: Lba, sectors: u64) -> Self {
        Extent { start, sectors }
    }

    /// One past the last sector of the run.
    #[inline]
    pub const fn end(self) -> Lba {
        self.start + self.sectors
    }

    /// Total bytes covered, given a sector size.
    #[inline]
    pub fn bytes(self, sector_size: Bytes) -> Bytes {
        sector_size * self.sectors
    }

    /// True if the two extents share any sector.
    #[inline]
    pub const fn overlaps(self, other: Extent) -> bool {
        self.start < other.end() && other.start < self.end()
    }

    /// True if `lba` lies inside the run.
    #[inline]
    pub const fn contains(self, lba: Lba) -> bool {
        lba >= self.start && lba < self.end()
    }
}

/// Physical layout of a simulated disk.
///
/// Sectors are numbered in cylinder-major order: all sectors of cylinder 0
/// (across its tracks/surfaces), then cylinder 1, and so on. This matches
/// the classic addressing under which seek distance is monotone in LBA
/// distance — the property the scattering parameter relies on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DiskGeometry {
    /// Number of cylinders (seek positions).
    pub cylinders: u64,
    /// Tracks (surfaces) per cylinder.
    pub tracks_per_cylinder: u64,
    /// Sectors per track.
    pub sectors_per_track: u64,
    /// Bytes per sector.
    pub sector_size: Bytes,
    /// Spindle speed in revolutions per minute.
    pub rpm: f64,
    /// Time to switch between heads (surfaces) within a cylinder.
    pub head_switch: Seconds,
}

impl DiskGeometry {
    /// A 1991-vintage 3.5" drive comparable to the paper's PC-AT storage:
    /// ~330 MB, 3600 RPM, 17 ms average seek.
    pub fn vintage_1991() -> Self {
        DiskGeometry {
            cylinders: 1_412,
            tracks_per_cylinder: 8,
            sectors_per_track: 57,
            sector_size: Bytes::new(512),
            rpm: 3_600.0,
            head_switch: Seconds::from_millis(1.0),
        }
    }

    /// A "projected future" drive per the paper's §3 extrapolation:
    /// seek and latency "of the order of 10 ms", used in the 0.32 Gbit/s
    /// worked example.
    pub fn projected_fast() -> Self {
        DiskGeometry {
            cylinders: 2_000,
            tracks_per_cylinder: 16,
            sectors_per_track: 128,
            sector_size: Bytes::new(512),
            rpm: 7_200.0,
            head_switch: Seconds::from_millis(0.5),
        }
    }

    /// A small geometry for tests: fast to scan exhaustively while keeping
    /// non-trivial cylinder structure.
    pub fn tiny_test() -> Self {
        DiskGeometry {
            cylinders: 64,
            tracks_per_cylinder: 2,
            sectors_per_track: 16,
            sector_size: Bytes::new(512),
            rpm: 3_600.0,
            head_switch: Seconds::from_millis(0.5),
        }
    }

    /// Sectors per cylinder.
    #[inline]
    pub const fn sectors_per_cylinder(&self) -> u64 {
        self.tracks_per_cylinder * self.sectors_per_track
    }

    /// Total sectors on the disk.
    #[inline]
    pub const fn total_sectors(&self) -> u64 {
        self.cylinders * self.sectors_per_cylinder()
    }

    /// Total capacity in bytes.
    #[inline]
    pub fn capacity(&self) -> Bytes {
        self.sector_size * self.total_sectors()
    }

    /// Duration of one platter revolution.
    #[inline]
    pub fn rotation_time(&self) -> Seconds {
        Seconds::new(60.0 / self.rpm)
    }

    /// Time for one sector to pass under the head.
    #[inline]
    pub fn sector_time(&self) -> Seconds {
        self.rotation_time() / self.sectors_per_track as f64
    }

    /// Sustained media transfer rate of one track (one head).
    #[inline]
    pub fn track_transfer_rate(&self) -> BitRate {
        let bits_per_track = self.sector_size.to_bits() * self.sectors_per_track;
        BitRate::bits_per_sec(bits_per_track.as_f64() / self.rotation_time().get())
    }

    /// The cylinder containing `lba`.
    #[inline]
    pub const fn cylinder_of(&self, lba: Lba) -> u64 {
        lba / self.sectors_per_cylinder()
    }

    /// The sector index within its track.
    #[inline]
    pub const fn sector_of(&self, lba: Lba) -> u64 {
        lba % self.sectors_per_track
    }

    /// Absolute cylinder distance between two LBAs.
    #[inline]
    pub const fn cylinder_distance(&self, a: Lba, b: Lba) -> u64 {
        let ca = self.cylinder_of(a);
        let cb = self.cylinder_of(b);
        ca.abs_diff(cb)
    }

    /// True if `e` lies entirely on the disk.
    #[inline]
    pub const fn extent_valid(&self, e: Extent) -> bool {
        e.sectors > 0 && e.end() <= self.total_sectors()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extent_basics() {
        let e = Extent::new(10, 5);
        assert_eq!(e.end(), 15);
        assert!(e.contains(10));
        assert!(e.contains(14));
        assert!(!e.contains(15));
        assert_eq!(e.bytes(Bytes::new(512)), Bytes::new(2560));
    }

    #[test]
    fn extent_overlap() {
        let a = Extent::new(10, 5);
        assert!(a.overlaps(Extent::new(14, 1)));
        assert!(a.overlaps(Extent::new(8, 3)));
        assert!(!a.overlaps(Extent::new(15, 3)));
        assert!(!a.overlaps(Extent::new(5, 5)));
        assert!(a.overlaps(a));
    }

    #[test]
    fn geometry_address_arithmetic() {
        let g = DiskGeometry::tiny_test();
        assert_eq!(g.sectors_per_cylinder(), 32);
        assert_eq!(g.total_sectors(), 64 * 32);
        // LBA 33 = cylinder 1, track 0, sector 1.
        assert_eq!(g.cylinder_of(33), 1);
        assert_eq!(g.sector_of(33), 1);
        // LBA 48 = cylinder 1, track 1, sector 0.
        assert_eq!(g.cylinder_of(48), 1);
        assert_eq!(g.sector_of(48), 0);
        assert_eq!(g.cylinder_distance(0, 33), 1);
        assert_eq!(g.cylinder_distance(33, 0), 1);
    }

    #[test]
    fn geometry_timing() {
        let g = DiskGeometry::tiny_test();
        // 3600 RPM = 60 rev/s -> 16.67 ms per revolution.
        assert!((g.rotation_time().get() - 1.0 / 60.0).abs() < 1e-12);
        assert!((g.sector_time().get() - 1.0 / 60.0 / 16.0).abs() < 1e-12);
        // One track = 16 * 512 * 8 bits in one rotation.
        let rate = g.track_transfer_rate();
        assert!((rate.get() - 16.0 * 512.0 * 8.0 * 60.0).abs() < 1e-6);
    }

    #[test]
    fn vintage_capacity_plausible() {
        let g = DiskGeometry::vintage_1991();
        let cap = g.capacity().get();
        // ~330 MB class drive.
        assert!(cap > 300_000_000 && cap < 360_000_000, "cap = {cap}");
    }

    #[test]
    fn extent_validity() {
        let g = DiskGeometry::tiny_test();
        assert!(g.extent_valid(Extent::new(0, 1)));
        assert!(g.extent_valid(Extent::new(g.total_sectors() - 1, 1)));
        assert!(!g.extent_valid(Extent::new(g.total_sectors(), 1)));
        assert!(!g.extent_valid(Extent::new(0, 0)));
        assert!(!g.extent_valid(Extent::new(g.total_sectors() - 1, 2)));
    }
}

//! Cumulative statistics for simulated disks.
//!
//! Per-operation tracing lives in `strandfs-obs` ([`SimDisk::set_obs`]
//! with a ring recorder); this module keeps only the always-on
//! constant-memory counters.
//!
//! [`SimDisk::set_obs`]: crate::SimDisk::set_obs

use crate::disk::{AccessKind, DiskOp};
use strandfs_units::Nanos;

/// Cumulative counters over all operations a disk has served.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Number of read operations.
    pub reads: u64,
    /// Number of write operations.
    pub writes: u64,
    /// Total sectors moved in either direction.
    pub sectors_transferred: u64,
    /// Total time spent seeking.
    pub seek_time: Nanos,
    /// Total rotational latency.
    pub rotation_time: Nanos,
    /// Total media transfer time.
    pub transfer_time: Nanos,
}

impl DiskStats {
    /// Fold one operation into the counters.
    pub fn record(&mut self, op: &DiskOp) {
        match op.kind {
            AccessKind::Read => self.reads += 1,
            AccessKind::Write => self.writes += 1,
        }
        self.sectors_transferred += op.extent.sectors;
        self.seek_time += op.seek;
        self.rotation_time += op.rotation;
        self.transfer_time += op.transfer;
    }

    /// Total operations served.
    pub fn ops(&self) -> u64 {
        self.reads + self.writes
    }

    /// Total busy time (seek + rotation + transfer).
    pub fn busy_time(&self) -> Nanos {
        self.seek_time + self.rotation_time + self.transfer_time
    }

    /// Fraction of busy time spent positioning rather than transferring —
    /// the overhead the scattering bound exists to control.
    pub fn positioning_fraction(&self) -> f64 {
        let busy = self.busy_time().as_nanos();
        if busy == 0 {
            return 0.0;
        }
        (self.seek_time + self.rotation_time).as_nanos() as f64 / busy as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Extent;
    use strandfs_units::Instant;

    fn op(kind: AccessKind, sectors: u64, service_us: u64) -> DiskOp {
        DiskOp {
            extent: Extent::new(0, sectors),
            kind,
            issued: Instant::EPOCH,
            seek: Nanos::from_micros(service_us / 2),
            rotation: Nanos::from_micros(service_us / 4),
            transfer: Nanos::from_micros(service_us / 4),
            completed: Instant::EPOCH + Nanos::from_micros(service_us),
        }
    }

    #[test]
    fn stats_fold() {
        let mut s = DiskStats::default();
        s.record(&op(AccessKind::Read, 4, 400));
        s.record(&op(AccessKind::Write, 2, 200));
        assert_eq!(s.ops(), 2);
        assert_eq!(s.sectors_transferred, 6);
        assert_eq!(s.busy_time(), Nanos::from_micros(600));
        // 3/4 of each op is positioning in this synthetic construction.
        assert!((s.positioning_fraction() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn empty_stats() {
        let s = DiskStats::default();
        assert_eq!(s.positioning_fraction(), 0.0);
        assert_eq!(s.busy_time(), Nanos::ZERO);
    }
}

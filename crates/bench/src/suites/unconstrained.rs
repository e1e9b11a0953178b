//! E2: the unconstrained-allocation throughput model, plus a measured
//! confirmation — random single-block reads on the simulated disk.

use crate::experiments::e2_unconstrained;
use std::hint::black_box;
use strandfs_disk::{AccessKind, DiskGeometry, Extent, SeekModel, SimDisk};
use strandfs_testkit::bench::Runner;
use strandfs_units::Instant;

/// Register the suite's benchmarks.
pub fn register(c: &mut Runner) {
    c.bench_function("unconstrained/model_sweep", |b| {
        b.iter(e2_unconstrained::run)
    });

    c.bench_function("unconstrained/simulated_random_reads", |b| {
        b.iter(|| {
            let mut disk =
                SimDisk::new(DiskGeometry::projected_fast(), SeekModel::projected_fast());
            let total = disk.geometry().total_sectors();
            let mut t = Instant::EPOCH;
            // 256 pseudo-random 8-sector (4 KB) reads.
            let mut lba = 1u64;
            for _ in 0..256 {
                lba = (lba.wrapping_mul(6364136223846793005).wrapping_add(144)) % (total - 8);
                let op = disk
                    .access(t, Extent::new(lba, 8), AccessKind::Read)
                    .expect("an unarmed disk never faults");
                t = op.completed;
            }
            black_box(t)
        })
    });
}

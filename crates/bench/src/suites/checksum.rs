//! The integrity layer's one kernel: the media-block stamp
//! (`strandfs_disk::block_sum`) over a 28 KiB block — in cache, and in
//! place through a `SimDisk` extent that straddles a store chunk — with
//! byte-serial FNV-1a (the fingerprint hash) over the same bytes as the
//! reference. A stamp that fell back to FNV speed reads ~20× its
//! committed median here and fails `bench --check`.
//!
//! The last two entries price hashing on a second core (ROADMAP item 5):
//! the stamp streamed over a buffer no cache level holds, by one thread
//! and then by two scoped threads on disjoint halves, both in aggregate
//! nanoseconds per block. Where the pair reads the same, one thread
//! already takes all the memory bandwidth there is.

use std::hint::black_box;
use strandfs_disk::{block_sum, fnv1a, DiskGeometry, Extent, SeekModel, SimDisk};
use strandfs_testkit::bench::Runner;

/// Sectors in the benchmarked block: 28 KiB, a media block's order of
/// size, under one 64-sector store chunk so that an unaligned extent
/// spans exactly two.
const BLOCK_SECTORS: u64 = 56;

/// Blocks in the streamed buffer: 32 MiB, past any L2.
const STREAMED_BLOCKS: usize = 1_170;

/// Register the suite's benchmarks.
pub fn register(c: &mut Runner) {
    let block: Vec<u8> = (0..BLOCK_SECTORS * 512)
        .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 11) as u8)
        .collect();
    c.bench_function("checksum/block_sum_28k", |b| {
        b.iter(|| block_sum(black_box(&block)))
    });
    c.bench_function("checksum/fetch_sum_28k", |b| {
        let mut disk = SimDisk::new(DiskGeometry::vintage_1991(), SeekModel::vintage_1991());
        // Sectors 40..96 cross the 64-sector chunk boundary.
        let extent = Extent::new(40, BLOCK_SECTORS);
        disk.store_data(extent, &block);
        assert_eq!(disk.fetch_sum(extent), Some(block_sum(&block)));
        b.iter(|| disk.fetch_sum(black_box(extent)))
    });
    c.bench_function("checksum/fnv1a_28k", |b| {
        b.iter(|| fnv1a(black_box(&block)))
    });
    let streamed = block.repeat(STREAMED_BLOCKS);
    for (name, threads) in [
        ("checksum/block_sum_28k_streamed", 1),
        ("checksum/block_sum_28k_two_threads", 2),
    ] {
        c.bench_function(name, |b| {
            b.iter_units(STREAMED_BLOCKS as u64, || {
                sum_blocks(black_box(&streamed), block.len(), threads)
            })
        });
    }
}

/// Stamp every `block_len` block of `buffer` on `threads` scoped
/// threads, each taking one contiguous share; the stamps xored together.
fn sum_blocks(buffer: &[u8], block_len: usize, threads: usize) -> u64 {
    let share = (buffer.len() / block_len).div_ceil(threads) * block_len;
    std::thread::scope(|s| {
        let workers: Vec<_> = buffer
            .chunks(share)
            .map(|part| {
                s.spawn(move || {
                    part.chunks(block_len)
                        .fold(0, |acc, block| acc ^ block_sum(block))
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("a hashing thread panicked"))
            .fold(0, |acc, sum| acc ^ sum)
    })
}

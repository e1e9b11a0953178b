//! **E10 — Figs. 5–6**: the 3-level strand index at scale.
//!
//! Index block counts, on-disk overhead, and a full store→load
//! round-trip through the simulated disk for strands from seconds to
//! hours long.

use crate::table::Table;
use strandfs_core::msm::{Msm, MsmConfig};
use strandfs_core::strand::StrandMeta;
use strandfs_disk::{DiskGeometry, GapBounds, SeekModel, SimDisk};
use strandfs_media::Medium;
use strandfs_units::{Bits, Instant, Nanos};

/// One row of the scaling sweep.
pub struct Row {
    /// Media blocks in the strand.
    pub blocks: u64,
    /// Playback duration at 100 ms/block.
    pub duration_s: f64,
    /// Index sectors written (header + secondaries + primaries).
    pub index_sectors: u64,
    /// Data sectors written.
    pub data_sectors: u64,
    /// Index overhead as a fraction of data.
    pub overhead: f64,
    /// Virtual time to reload the full index from disk.
    pub load_time: Nanos,
}

/// Build an audio strand of `blocks` 100 ms blocks and measure its
/// index.
pub fn measure(blocks: u64) -> Row {
    // A big, fast disk so even hour-long strands fit.
    let disk = SimDisk::new(DiskGeometry::projected_fast(), SeekModel::projected_fast());
    let mut msm = Msm::new(
        disk,
        MsmConfig::constrained(
            GapBounds {
                min_sectors: 0,
                max_sectors: 10_000,
            },
            17,
        ),
    );
    let meta = StrandMeta {
        medium: Medium::Audio,
        unit_rate: 8_000.0,
        granularity: 800,
        unit_bits: Bits::new(8),
    };
    let id = msm.begin_strand(meta);
    let payload = vec![0x55u8; 800];
    let mut t = Instant::EPOCH;
    for i in 0..blocks {
        if i % 5 == 4 {
            msm.append_silence(id, 800, t).unwrap();
        } else {
            let (_, op) = msm.append_block(id, t, &payload, 800).unwrap();
            t = op.completed;
        }
    }
    let header = msm.finish_strand(id, t).unwrap();
    let strand = msm.strand(id).unwrap();
    let index_sectors: u64 = strand.index_extents().iter().map(|e| e.sectors).sum();
    let data_sectors = strand.data_sectors();
    let load_start = t;
    let loaded = msm.load_strand(id, header, load_start).unwrap();
    assert_eq!(loaded.block_count(), blocks);
    let load_time = msm.disk().stats().busy_time(); // proxy; see note below
    let _ = load_time;
    // Measure load time precisely: re-run on a traced window.
    let t2 = load_start + Nanos::from_secs(10);
    let before = msm.disk().stats().busy_time();
    msm.load_strand(id, header, t2).unwrap();
    let load_time = msm.disk().stats().busy_time() - before;
    Row {
        blocks,
        duration_s: blocks as f64 * 0.1,
        index_sectors,
        data_sectors,
        overhead: index_sectors as f64 / data_sectors.max(1) as f64,
        load_time,
    }
}

/// Sweep strand sizes.
pub fn run() -> Vec<Row> {
    [10u64, 100, 1_000, 10_000]
        .into_iter()
        .map(measure)
        .collect()
}

/// Render the sweep.
pub fn table() -> Table {
    let mut t = Table::new(
        "E10 / Figs. 5-6 — the 3-level strand index at scale (audio, 100 ms blocks, 20% silence)",
        &[
            "blocks",
            "duration",
            "index sectors",
            "data sectors",
            "overhead",
            "index load time",
        ],
    );
    for r in run() {
        t.row(vec![
            r.blocks.to_string(),
            format!("{:.0}s", r.duration_s),
            r.index_sectors.to_string(),
            r.data_sectors.to_string(),
            format!("{:.2}%", r.overhead * 100.0),
            r.load_time.to_string(),
        ]);
    }
    t.note("25 primary entries / 21 secondary entries per 512 B sector; overhead stays ~2-4%");
    t.note("silence holes consume index entries but no data sectors");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_is_small_and_stable() {
        let rows = run();
        // Tiny strands pay fixed index cost (3 sectors minimum); real
        // strands amortize it below a few percent.
        for r in rows.iter().filter(|r| r.blocks >= 1_000) {
            assert!(
                r.overhead < 0.05,
                "index overhead {} too large at {} blocks",
                r.overhead,
                r.blocks
            );
        }
        // Overhead is non-increasing with scale.
        for w in rows.windows(2) {
            assert!(w[1].overhead <= w[0].overhead + 1e-9);
        }
        // Index grows roughly linearly with strand size at scale.
        assert!(rows[3].index_sectors > rows[2].index_sectors * 5);
    }

    #[test]
    fn hour_scale_strand_round_trips() {
        // 10_000 blocks = ~17 minutes of audio; the measure() helper
        // asserts the reload matches.
        let r = measure(10_000);
        assert_eq!(r.blocks, 10_000);
        assert!(r.load_time > Nanos::ZERO);
    }
}

//! The RECORD path (DESIGN §17): one 100-block VBR title ingested onto a
//! journaled cluster member — what a benchmark set-up pays per replica —
//! and frame synthesis alone, the larger part of it. A `Vec` per frame, a
//! block buffer regrown per block or a padded copy per append fails the
//! first entry; a slower `fill_bytes` fails the second by name. Medians
//! taken in the host's fast mode (`checksum/block_sum_28k` read 1.55 µs
//! against its committed 1.96); the slower mode reads ≈ 1.35× higher.

use std::hint::black_box;
use strandfs_cluster::{Cluster, ClusterConfig};
use strandfs_media::VideoCodec;
use strandfs_sim::ClipSpec;
use strandfs_testkit::bench::Runner;

/// Register the suite's benchmarks.
pub fn register(c: &mut Runner) {
    c.bench_function("ingest/record_title_100_blocks", |b| {
        let title = ClipSpec {
            vbr: true,
            ..ClipSpec::video_seconds(10.0)
        };
        b.iter(|| {
            let mut cluster = Cluster::new(ClusterConfig::round_robin(1, 1)).expect("one volume");
            cluster.ingest("title", &title, 0.0).expect("ingest");
            cluster
        })
    });
    c.bench_function("ingest/frame_payload_7k", |b| {
        let codec = VideoCodec::uvc_ntsc_vbr(1);
        let mut frame = Vec::new();
        b.iter(|| {
            codec.frame_payload_into(black_box(3), 7 * 1024, &mut frame);
            frame.last().copied()
        })
    });
}

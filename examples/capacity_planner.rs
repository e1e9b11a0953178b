//! Capacity planning with the analytic model: given a disk and a media
//! format, derive the storage layout (granularity + scattering), the
//! buffering plan, and the number of concurrent streams the server can
//! promise — before committing any hardware.
//!
//! ```text
//! cargo run --example capacity_planner
//! ```

use strandfs::core::admission::{Aggregates, RequestSpec};
use strandfs::core::model::buffering::{anti_jitter_delay, averaged_plan, task_switch_read_ahead};
use strandfs::core::model::granularity::{derive_video_layout, QChoice};
use strandfs::core::model::{DiskParams, VideoStream};
use strandfs::disk::{DiskGeometry, GapBounds, SeekModel, SimDisk};
use strandfs::media::{DisplayDevice, RetrievalArchitecture, VideoCodec};

fn main() {
    for (name, geometry, seek) in [
        (
            "vintage 1991 (≈330 MB, 3600 RPM)",
            DiskGeometry::vintage_1991(),
            SeekModel::vintage_1991(),
        ),
        (
            "projected fast (≈2 GB, 7200 RPM)",
            DiskGeometry::projected_fast(),
            SeekModel::projected_fast(),
        ),
    ] {
        let disk = SimDisk::new(geometry, seek);
        let codec = VideoCodec::uvc_ntsc(0);
        let device = DisplayDevice::uvc(16);
        let frame_bits = codec.mean_frame_bits(30);

        println!("=== {name} ===");
        println!(
            "  transfer {:.1} Mbit/s, worst positioning {:.1} ms",
            disk.geometry().track_transfer_rate().as_mbit_per_sec(),
            disk.max_positioning_time().get() * 1e3
        );

        // 1. Layout per architecture (§3.3.4).
        for arch in [
            RetrievalArchitecture::Sequential,
            RetrievalArchitecture::Pipelined,
        ] {
            match derive_video_layout(arch, &device, frame_bits, &disk, QChoice::MaxBuffers) {
                Some(layout) => {
                    println!(
                        "  {arch:?}: q = {} frames/block ({} sectors), scattering <= {:.1} ms",
                        layout.q,
                        layout.block_sectors,
                        layout.scattering_upper.get() * 1e3
                    );
                    // Map the time bound to an allocator gap bound.
                    if let Some(gaps) = GapBounds::from_times(
                        &disk,
                        strandfs::units::Seconds::new(0.0),
                        layout.scattering_upper,
                    ) {
                        println!(
                            "      allocator gap bound: <= {} sectors (~{} cylinders)",
                            gaps.max_sectors,
                            gaps.max_sectors / disk.geometry().sectors_per_cylinder().max(1)
                        );
                    }
                }
                None => println!("  {arch:?}: INFEASIBLE for this stream"),
            }
        }

        // 2. Buffering & read-ahead (§3.3.2) for the pipelined plan.
        let stream = VideoStream::from_codec(&codec, 30, device.display_rate, 3);
        let params = DiskParams::from_disk(&disk, 40);
        let plan = averaged_plan(RetrievalArchitecture::Pipelined, 4);
        println!(
            "  pipelined, k = 4: read-ahead {} blocks, {} buffers, startup {:.0} ms",
            plan.read_ahead_blocks,
            plan.buffers,
            anti_jitter_delay(&plan, &stream, &params).get() * 1e3
        );
        println!(
            "  extra read-ahead before a disk task-switch: h = {} blocks",
            task_switch_read_ahead(&stream, &params)
        );

        // 3. Concurrent-stream capacity (§3.4).
        let spec = RequestSpec {
            q: 3,
            unit_bits: frame_bits,
            unit_rate: 30.0,
        };
        let agg = Aggregates::compute(&params, &[spec]).unwrap();
        println!(
            "  capacity: n_max = {} concurrent NTSC streams",
            agg.n_max()
        );
        for n in 1..=agg.n_max() {
            let specs = vec![spec; n];
            let agg_n = Aggregates::compute(&params, &specs).unwrap();
            println!(
                "    n = {n}: k = {} blocks/round (Eq.18), round <= {:.0} ms vs budget {:.0} ms",
                agg_n.k_transient(n).unwrap(),
                agg_n.round_time(n, agg_n.k_transient(n).unwrap()).get() * 1e3,
                agg_n.playback_budget(agg_n.k_transient(n).unwrap()).get() * 1e3,
            );
        }
        println!();
    }
}

//! Experiment implementations, numbered per `DESIGN.md` §5.

pub mod e10_index;
pub mod e11_vbr;
pub mod e12_scan;
pub mod e13_faults;
pub mod e14_crash;
pub mod e15_fsx;
pub mod e16_scale;
pub mod e17_monitor;
pub mod e18_cluster;
pub mod e19_integrity;
pub mod e1_fig4;
pub mod e2_unconstrained;
pub mod e3_architectures;
pub mod e4_buffering;
pub mod e5_capacity;
pub mod e6_transient;
pub mod e7_edit_copy;
pub mod e8_silence;
pub mod e9_allocators;

use strandfs_core::model::{DiskParams, VideoStream};
use strandfs_disk::{DiskGeometry, SeekModel, SimDisk};
use strandfs_units::{BitRate, Bits, FrameRate};

/// The standard experiment stream: NTSC video compressed 12:1 by the UVC
/// board (96 kbit frames), blocked at `q = 3` frames (100 ms blocks).
pub fn standard_video_stream() -> VideoStream {
    VideoStream {
        q: 3,
        s: Bits::new(96_000),
        rate: FrameRate::NTSC,
        r_vd: BitRate::mbit_per_sec(138.24), // 4x the raw 34.56 Mbit/s stream
    }
}

/// The vintage-1991 disk's model parameters, with blocks scattered an
/// average of 40 cylinders apart.
pub fn vintage_env() -> DiskParams {
    let disk = SimDisk::new(DiskGeometry::vintage_1991(), SeekModel::vintage_1991());
    DiskParams::from_disk(&disk, 40)
}

/// The projected-future disk (faster transfer, shorter seeks) for
/// capacity sweeps, scattered the same way.
pub fn projected_env() -> DiskParams {
    let disk = SimDisk::new(DiskGeometry::projected_fast(), SeekModel::projected_fast());
    DiskParams::from_disk(&disk, 40)
}

//! A deterministic disk simulator for continuous-media storage research.
//!
//! The continuity analysis of Rangan & Vin (SOSP '91) consumes three disk
//! characteristics: seek time, rotational latency and transfer rate. This
//! crate models all three mechanistically — cylinder geometry with a
//! configurable seek-time curve, a platter whose angular position is a
//! function of virtual time, and per-track transfer — so that every media
//! block access yields an exact, reproducible service time with the same
//! `seek + rotation + transfer` structure as a physical drive.
//!
//! On top of the raw device the crate provides:
//!
//! * [`DiskArray`] — `p` independently-seeking actuators for the paper's
//!   *concurrent* (RAID-like) retrieval architecture;
//! * [`FreeMap`] — sector-granularity free-space tracking with extent
//!   search;
//! * [`alloc`] — the three placement policies the paper contrasts:
//!   *random* (the conventional-file-server strawman), *contiguous* (the
//!   fragmentation-prone alternative) and *constrained* (the paper's
//!   scattering-bounded policy), plus gap infill for non-real-time data;
//! * [`fault`] — the deterministic, seeded [`FaultPlan`] a [`SimDisk`]
//!   executes once armed: permanently bad extents, transient read
//!   errors with success-after-N-retries, PRNG latency spikes,
//!   region-wide degraded-transfer windows, torn writes, crash points,
//!   silent corruption and fail-slow;
//! * [`stats`] — cumulative utilization statistics ([`stats::DiskStats`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
mod array;
mod disk;
pub mod fault;
mod freemap;
mod geometry;
mod seek;
pub mod stats;

pub use alloc::{AllocError, AllocPolicy, Allocator, GapBounds};
pub use array::{DiskArray, StripedExtent};
pub use disk::{block_sum, block_sum_padded, fnv1a, AccessKind, DiskOp, SimDisk};
pub use fault::{
    AccessResult, CrashPoint, DegradedWindow, FaultKind, FaultPlan, FaultStats, Faulted,
    RandomTransients, SilentCorruption, SpikeCfg, TransientFault,
};
pub use freemap::FreeMap;
pub use geometry::{DiskGeometry, Extent, Lba};
pub use seek::SeekModel;

/// The device type under its older name, kept because the benchmark
/// harness (`benchmark/`, frozen) imports it: every device is a
/// [`SimDisk`].
pub type BlockDevice = SimDisk;

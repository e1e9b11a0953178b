//! # strandfs
//!
//! A continuous-media file system in Rust, reproducing *"Designing File
//! Systems for Digital Video and Audio"* (P. V. Rangan & H. M. Vin,
//! SOSP 1991).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`units`] — strongly-typed time, size and rate units;
//! * [`disk`] — the deterministic disk simulator (geometry, seek and
//!   rotation models, arrays, constrained allocation);
//! * [`media`] — media formats, synthetic codecs, the display device
//!   model and silence detection;
//! * [`core`] — the paper's contribution: the continuity model, admission
//!   control, strands, ropes, the Multimedia Storage Manager (MSM) and
//!   the Multimedia Rope Server (MRS);
//! * [`sim`] — a discrete-event simulator measuring playback continuity;
//! * [`cluster`] — a multi-volume cluster: master catalog, replica
//!   placement, volume-failure failover and background re-replication;
//! * [`obs`] — the zero-perturbation observability layer (structured
//!   events, ring recorder, counters and histograms).
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs` for an end-to-end record → play session,
//! and `DESIGN.md` / `EXPERIMENTS.md` for the experiment index mapping
//! each figure of the paper to a bench target.

#![forbid(unsafe_code)]

pub use strandfs_cluster as cluster;
pub use strandfs_core as core;
pub use strandfs_disk as disk;
pub use strandfs_media as media;
pub use strandfs_obs as obs;
pub use strandfs_sim as sim;
pub use strandfs_trace as trace;
pub use strandfs_units as units;

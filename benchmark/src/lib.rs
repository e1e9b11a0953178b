//! The strandfs benchmark: four video-on-demand workloads driven
//! through catalog → admission → round engine → strand index → disk,
//! with an untraced run for end-to-end metrics and a traced run for a
//! per-layer ledger. See `README.md`.

pub mod cluster_wl;
pub mod compare;
pub mod driver;
pub mod json;
pub mod outcome;
pub mod overload;
pub mod probes;
pub mod report;
pub mod seeded;
pub mod spec;
pub mod stats;
pub mod tracer;

//! Benchmark suites, one module per experiment family.
//!
//! Each module exposes `register(&mut Runner)`; [`SUITES`] is the one
//! list of them, which the aggregate runner (`cargo run -p
//! strandfs-bench --release --bin bench [suite ...]`) registers, times
//! and writes to `BENCH_core.json`.

use strandfs_testkit::bench::Runner;

pub mod allocators;
pub mod architectures;
pub mod capacity;
pub mod checksum;
pub mod crash;
pub mod edit_copy;
pub mod faults;
pub mod fig4;
pub mod fsx;
pub mod index;
pub mod ingest;
pub mod readahead;
pub mod scale;
pub mod scan_order;
pub mod silence;
pub mod transient;
pub mod unconstrained;
pub mod vbr;

/// A suite's `register` entry point.
pub type Register = fn(&mut Runner);

/// Every suite, in `BENCH_core.json` order, as `(name, register)`.
pub const SUITES: &[(&str, Register)] = &[
    ("fig4", fig4::register),
    ("unconstrained", unconstrained::register),
    ("architectures", architectures::register),
    ("readahead", readahead::register),
    ("capacity", capacity::register),
    ("transient", transient::register),
    ("edit_copy", edit_copy::register),
    ("silence", silence::register),
    ("allocators", allocators::register),
    ("index", index::register),
    ("vbr", vbr::register),
    ("scan_order", scan_order::register),
    ("faults", faults::register),
    ("crash", crash::register),
    ("fsx", fsx::register),
    ("scale", scale::register),
    ("checksum", checksum::register),
    ("ingest", ingest::register),
];

//! Self-contained test and benchmark infrastructure for strandfs.
//!
//! The build environment has no network and no registry cache, so the
//! workspace vendors the two pieces of developer tooling it used to pull
//! from crates.io:
//!
//! * [`prop`] — a property-testing harness in the spirit of `proptest`:
//!   strategies generate random inputs from the shared seeded
//!   [`strandfs_units::Prng`], a runner drives N cases, and failures are
//!   iteratively shrunk to a minimal counterexample. The seed is
//!   overridable via `STRANDFS_TEST_SEED` and printed on failure, so any
//!   counterexample is reproducible by exporting one variable.
//! * [`bench`](mod@bench) — a benchmark runner in the spirit of `criterion`:
//!   warmup, automatic batch sizing, timed samples, median/p95
//!   statistics, and machine-readable JSON output for `BENCH_*.json`.
//! * [`json`] — a strict minimal JSON reader, the counterpart to the
//!   hand-rolled writers across the workspace, so tests can validate
//!   and navigate exported documents instead of grepping substrings.
//! * [`crash`] — the crash-point sweep harness: records a fixed
//!   scenario on a disk armed with a crash point, crashes at every write
//!   index, remounts through journal recovery, and asserts the
//!   crash-consistency invariants (tests and the E14 bench section
//!   share it).
//! * [`fsx`] — the fsx-style random rope-editing exerciser: a driver
//!   (seeded op loop, draw tape, op-log hash, crash hook, replay line)
//!   and its rope model, which drives interleaved edits, pause/resume,
//!   delete and GC against a live MRS, cross-checked byte-for-byte
//!   against a model rope, with Eq. 19/20 copy-bound enforcement and
//!   optional fault/crash composition; a failing run shrinks its op
//!   stream with [`prop`]'s shrinker (tests and the E15 bench section
//!   share it).
//!
//! Both harnesses are deterministic where it matters: property tests
//! replay bit-identically for a fixed seed, and bench *structure* (which
//! benchmarks run, in what order) never depends on timing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod crash;
pub mod fsx;
pub mod json;
pub mod prop;

pub use prop::{any_bool, check, check_with, just, vec, CaseError, Config, Strategy};

//! The experiment harness: one module per figure, table or worked
//! example of the paper (see `DESIGN.md` §5 for the index).
//!
//! Every experiment is a pure function returning a printable table, so
//! the same code backs three consumers:
//!
//! * `cargo run -p strandfs-bench --bin experiments` — regenerates every
//!   table/figure as text (the source of `EXPERIMENTS.md`);
//! * `cargo run -p strandfs-bench --release --bin bench` — the
//!   self-contained bench runner ([`suites`]) timing the underlying
//!   machinery and writing `BENCH_core.json`;
//! * integration tests asserting the *shape* of each result (who wins,
//!   where the crossovers fall).

#![forbid(unsafe_code)]

pub mod check;
pub mod experiments;
pub mod obs_capture;
pub mod sections;
pub mod suites;
pub mod table;

pub use table::Table;

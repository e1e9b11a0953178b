//! Zero-perturbation observability for strandfs.
//!
//! The paper's central claims are *timing* claims — continuity (Eqs.
//! 1–6), round feasibility (Eq. 15) and transient-safe admission
//! (Eq. 18) — so a deadline miss must be attributable to its cause:
//! seek vs. rotation vs. transfer vs. a bad admission decision. This
//! crate is the observability spine that makes that attribution
//! possible without perturbing the thing being measured:
//!
//! * [`Event`] — the structured event taxonomy emitted by every layer
//!   (disk operations with their seek/rotation/transfer decomposition,
//!   allocation decisions with constraint slack, admission transitions
//!   with Eq. 15/18 slack, service rounds, per-block deadline margins);
//! * [`Recorder`] — the sink trait, with [`ObsSink`] as the cheap
//!   cloneable handle the layers hold. A disabled sink never constructs
//!   an event (construction happens inside a closure that is skipped),
//!   so uninstrumented runs are bit-identical to pre-instrumentation
//!   builds and pay one branch per call site;
//! * [`RingRecorder`] — the bundled recorder: a bounded ring buffer of
//!   recent events plus cumulative counters, [`NanosSummary`] timing
//!   aggregates and log₂ [`QuantileSketch`]es, exportable as hand-rolled
//!   JSON (no external dependencies) for merging into `BENCH_*.json`;
//! * [`Tally`] — the counters the whole run and each live window both
//!   report, with the one fold that counts them for both;
//! * [`WindowedMonitor`] — live health monitoring: the same event
//!   stream folded into fixed-width windows of service rounds (miss rate,
//!   margin quantiles via the same mergeable sketch, disk utilization,
//!   Eq. 18 slack, fault/degradation rates) with declarative
//!   [`SloRule`]s evaluated at window close and an anomaly-triggered
//!   flight recorder ([`FlightDump`]) that snapshots the raw-event ring
//!   around the offending span.
//!
//! The simulation is single-threaded by design (virtual time), so the
//! shared handle is `Rc<RefCell<…>>`, not an atomic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alert;
mod event;
mod recorder;
mod sketch;
mod summary;
mod window;

pub use alert::{Alert, SloRule};
pub use event::{AccessDir, DegradeAction, Event, FaultClass, JournalOp, RepairAction};
pub use recorder::{ObsMetrics, ObsSink, Recorder, RingRecorder, Tally};
pub use sketch::QuantileSketch;
pub use summary::{NanosAcc, NanosSummary, U64Acc};
pub use window::{FlightDump, MonitorConfig, WindowStats, WindowedMonitor};

//! Playback simulation for strandfs: measure continuity, don't assume it.
//!
//! The analytic model (Eqs. 1–18) *predicts* continuous playback; this
//! crate *checks* it. [`playback`] replays the MSM's round-robin service
//! discipline against real simulated-disk service times; [`stream`] owns
//! the per-stream accounting — every completion, deadline miss, drop and
//! revocation — for that loop and for the cluster's; [`scenario`] builds the standard experimental setups
//! (n recorded clips on one volume) used by the examples, integration
//! tests and benches; [`metrics`] holds the summary statistics.
//!
//! The simulation is *open-loop*: the disk never stalls waiting for
//! buffer space, and a late block does not pause the display clock. That
//! makes the two quantities the paper reasons about directly measurable —
//! continuity violations (blocks arriving after their playback deadline)
//! and the buffering a closed-loop server would have needed (maximum
//! fetched-but-unplayed backlog).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod playback;
pub mod reference;
pub mod scenario;
pub mod stream;

pub use metrics::{NanosSummary, SimReport, StreamOutcome};
pub use playback::{
    simulate_degraded, simulate_playback, Arrival, DegradeMode, PlaybackConfig, ServiceOrder,
};
pub use scenario::{faulty_volume, record_clip, standard_volume, volume_on, ClipSpec, Volume};
pub use stream::StreamState;

//! The structured event taxonomy.
//!
//! Events are plain `Copy` data — ids and durations only, no strings and
//! no references into the emitting layer — so recording one is a memcpy
//! and an event outlives the run that produced it.

use strandfs_units::{Instant, Nanos};

/// Whether a disk operation read or wrote the medium.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessDir {
    /// Medium → host.
    Read,
    /// Host → medium.
    Write,
}

/// Classification of an injected fault outcome (`strandfs-disk::fault`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultClass {
    /// Permanent media error: the sectors are unreadable on every attempt.
    Media,
    /// Transient read error: a later retry may succeed.
    Transient,
    /// Latency spike: the operation completed but took extra time.
    Spike,
    /// Degraded-transfer window: the operation's transfer was slowed.
    Degraded,
    /// Torn write: only a prefix of the written sectors reached the
    /// medium before the failure.
    Torn,
    /// Post-crash access: the device froze at a crash point and refuses
    /// all further operations until power-cycled.
    Crashed,
}

impl FaultClass {
    /// A short stable label for counters and trace names.
    pub fn label(&self) -> &'static str {
        match self {
            FaultClass::Media => "media",
            FaultClass::Transient => "transient",
            FaultClass::Spike => "spike",
            FaultClass::Degraded => "degraded",
            FaultClass::Torn => "torn",
            FaultClass::Crashed => "crashed",
        }
    }
}

/// A degradation-ladder decision taken by the playback simulator.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DegradeAction {
    /// The block was dropped; a silence/freeze-frame hole is displayed.
    DropBlock,
    /// The stream was revoked through admission control.
    Revoke,
    /// The revoked stream was re-admitted after the fault window cleared.
    Readmit,
}

impl DegradeAction {
    /// A short stable label for counters and trace names.
    pub fn label(&self) -> &'static str {
        match self {
            DegradeAction::DropBlock => "drop",
            DegradeAction::Revoke => "revoke",
            DegradeAction::Readmit => "readmit",
        }
    }
}

/// Which intent record the strand journal persisted (`strandfs-core`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum JournalOp {
    /// A recording strand was opened.
    Begin,
    /// A media block append was declared before its data write.
    Append,
    /// A silence hole was declared.
    Silence,
    /// A strand is about to write its on-disk index.
    FinishIntent,
    /// The on-disk index landed; the strand is durable.
    FinishCommit,
    /// A strand was deleted.
    Delete,
    /// A checkpoint (catalog + journal floor) was written.
    Checkpoint,
}

impl JournalOp {
    /// A short stable label for counters and trace names.
    pub fn label(&self) -> &'static str {
        match self {
            JournalOp::Begin => "begin",
            JournalOp::Append => "append",
            JournalOp::Silence => "silence",
            JournalOp::FinishIntent => "finish_intent",
            JournalOp::FinishCommit => "finish_commit",
            JournalOp::Delete => "delete",
            JournalOp::Checkpoint => "checkpoint",
        }
    }
}

/// A structural fix applied by fsck's repair mode (`strandfs-core`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RepairAction {
    /// A strand was truncated to its last intact block.
    TruncateStrand,
    /// An allocated-but-unreachable extent was returned to free space.
    ReleaseExtent,
    /// A rope edit-log reference was rebuilt against a shorter strand.
    RopeRef,
}

impl RepairAction {
    /// A short stable label for counters and trace names.
    pub fn label(&self) -> &'static str {
        match self {
            RepairAction::TruncateStrand => "truncate_strand",
            RepairAction::ReleaseExtent => "release_extent",
            RepairAction::RopeRef => "rope_ref",
        }
    }
}

/// One structured observability event.
///
/// The taxonomy mirrors the layers of the stack: `DiskOp` and `Fault`
/// from the disk simulator, `Alloc` from the storage manager's placement
/// decisions, `Retry` from the storage manager's resilient read path,
/// `Admit`/`Reject`/`Release` from the admission controller, and
/// `RoundStart`/`StreamService`/`RoundEnd`/`DisplayStart`/`Deadline`/
/// `Degrade` from the playback simulator.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Event {
    /// One disk operation, fully decomposed (`strandfs-disk`).
    DiskOp {
        /// Read or write.
        dir: AccessDir,
        /// First sector accessed.
        lba: u64,
        /// Sectors transferred.
        sectors: u64,
        /// Cylinder the operation landed on.
        cylinder: u64,
        /// Cylinders the arm travelled to get there.
        cyl_distance: u64,
        /// Issue instant.
        issued: Instant,
        /// Arm movement time.
        seek: Nanos,
        /// Rotational latency.
        rotation: Nanos,
        /// Media transfer time (head/track switches included).
        transfer: Nanos,
    },
    /// One block-placement decision (`Msm::append_block`).
    Alloc {
        /// The strand being recorded.
        strand: u64,
        /// The block number placed.
        block: u64,
        /// Where it landed.
        lba: u64,
        /// Its size in sectors.
        sectors: u64,
        /// Gap to the previous block in sectors; `None` for a strand's
        /// first block (no predecessor) or a wrap-around placement
        /// (the gap constraint was deliberately broken — an anomaly).
        gap: Option<u64>,
        /// Remaining room below the scattering upper bound
        /// (`max_sectors − gap`); `None` when `gap` is.
        slack: Option<u64>,
    },
    /// A request was admitted (Eq. 18 test passed).
    Admit {
        /// The admitted request.
        request: u64,
        /// Requests in service after admission.
        n: usize,
        /// Round size before.
        k_old: u64,
        /// Round size after.
        k_new: u64,
        /// Eq. 18 slack at decision time: `k·γ − (n·α + n·k·β)` for the
        /// new `(n, k)` — how much round-time headroom the admitted set
        /// retains (≥ 0 by construction).
        slack: Nanos,
    },
    /// A request was rejected (`γ ≤ n·β`: no feasible round size).
    Reject {
        /// The rejected request.
        request: u64,
        /// Requests already in service.
        active: usize,
        /// Capacity bound `n_max` at rejection time.
        n_max: usize,
    },
    /// A request left service.
    Release {
        /// The departing request.
        request: u64,
        /// Requests remaining.
        n: usize,
        /// Recomputed round size (0 when idle).
        k: u64,
    },
    /// A service round began (`strandfs-sim`).
    RoundStart {
        /// Round number (0-based).
        round: u64,
        /// Streams serviced this round.
        active: usize,
        /// Blocks per stream this round (the paper's `k`).
        k: u64,
        /// Virtual time at round start.
        at: Instant,
    },
    /// One stream's service turn within a round finished: the server
    /// transferred `blocks` schedule items for `stream` between `begin`
    /// and `end` of round `round` (`strandfs-sim`). Carrying both
    /// instants in one event keeps it `Copy` and self-contained — a
    /// trace builder needs no pairing state to reconstruct the slice.
    StreamService {
        /// Stream index (report order).
        stream: usize,
        /// The round this turn belongs to.
        round: u64,
        /// Virtual time when the server switched to this stream.
        begin: Instant,
        /// Virtual time when the last of its fetches completed.
        end: Instant,
        /// Schedule items advanced this turn (silence included).
        blocks: u64,
    },
    /// A service round finished: every active stream was serviced
    /// (`strandfs-sim`). Paired with the matching [`Event::RoundStart`],
    /// this bounds the round's duration slice exactly — including the
    /// final round, which no successor start would otherwise close.
    RoundEnd {
        /// Round number (0-based).
        round: u64,
        /// Virtual time at round end.
        at: Instant,
    },
    /// A service round passed with no stream to service — every admitted
    /// stream was revoked and the server sat out the round waiting for
    /// readmission (`strandfs-sim`). The virtual clock still advances by
    /// the idle round's playback duration; `advanced` is that span, so
    /// outage accounting (`recovery_time`) can be cross-checked against
    /// the idle rounds that produced it.
    RoundIdle {
        /// Round number (0-based).
        round: u64,
        /// Virtual time at the start of the idle round.
        at: Instant,
        /// How far the clock moved across the idle round.
        advanced: Nanos,
    },
    /// A stream's display clock started (read-ahead satisfied).
    DisplayStart {
        /// Stream index (report order).
        stream: usize,
        /// Virtual display-start instant.
        at: Instant,
        /// Time-to-first-frame: how long the viewer waited between the
        /// epoch entering service (admission for the first epoch,
        /// re-admission for later ones) and this display start.
        latency: Nanos,
    },
    /// Deadline outcome of one scheduled item, emitted once its fetch
    /// completion and display start are both known.
    Deadline {
        /// Stream index (report order).
        stream: usize,
        /// Item index within the stream's schedule.
        item: u64,
        /// The round whose service fetched the item.
        round: u64,
        /// The playback deadline.
        deadline: Instant,
        /// When the fetch completed.
        completed: Instant,
    },
    /// A fault outcome on one disk operation (`strandfs-disk::fault`).
    Fault {
        /// What went wrong (or was slowed down).
        class: FaultClass,
        /// Whether the faulted access was a read or a write.
        dir: AccessDir,
        /// First sector of the affected access.
        lba: u64,
        /// Sectors in the affected access.
        sectors: u64,
        /// When the operation was issued.
        issued: Instant,
        /// When the fault was detected (the failed attempt's completion)
        /// or, for spikes and degraded windows, when the slowed operation
        /// completed.
        detected: Instant,
        /// Service time charged to the fault: the full wasted attempt for
        /// media/transient errors, the extra latency for spikes and
        /// degraded-transfer windows.
        penalty: Nanos,
    },
    /// A retry of a faulted read within the continuity budget
    /// (`strandfs-core`, MSM resilient read path).
    Retry {
        /// The strand being read.
        strand: u64,
        /// The block number being read.
        block: u64,
        /// Retry attempt number (1 = first retry).
        attempt: u32,
        /// Virtual time the retry was issued.
        at: Instant,
        /// Eq. 18 retry budget remaining when the retry was issued.
        budget: Nanos,
    },
    /// One intent record persisted by the strand journal
    /// (`strandfs-core`, recording write path).
    Journal {
        /// The strand the record concerns (0 for checkpoints).
        strand: u64,
        /// Which record type was written.
        op: JournalOp,
        /// The record's monotonic sequence number.
        seq: u64,
        /// Virtual time the journal write was issued.
        at: Instant,
    },
    /// A mount-time journal replay finished (`Msm::recover`).
    Recover {
        /// Strands restored from the durable catalog.
        durable: u64,
        /// In-flight recordings completed from their journal records.
        completed: u64,
        /// Media blocks whose payloads survived and were re-adopted.
        blocks_recovered: u64,
        /// Journaled appends rolled back (torn or never written).
        blocks_rolled_back: u64,
        /// Virtual time recovery finished.
        at: Instant,
    },
    /// One edit boundary healed by the scattering-maintenance pass
    /// (§4.2, Eqs. 19–20): the MSM copied `copied` blocks into a fresh
    /// bridging strand to ramp the boundary gap back into bounds
    /// (`strandfs-core`, MRS edit commit path).
    EditHeal {
        /// The rope whose edit created the boundary.
        rope: u64,
        /// Media blocks copied into the bridging strand.
        copied: u64,
        /// The Eq. 19/20 copy bound in force when the plan was made;
        /// `copied` never exceeds it.
        bound: u64,
        /// The freshly-created bridging strand.
        new_strand: u64,
        /// Virtual time of the heal.
        at: Instant,
    },
    /// One structural fix applied by fsck's repair mode.
    Repair {
        /// Which repair rule fired.
        action: RepairAction,
        /// The strand (or rope, for `RopeRef`) repaired.
        strand: u64,
        /// Rule-specific magnitude: blocks dropped, sectors released, or
        /// units clamped.
        detail: u64,
        /// Virtual time of the repair.
        at: Instant,
    },
    /// A degradation-ladder decision (`strandfs-sim`).
    Degrade {
        /// Stream index (report order).
        stream: usize,
        /// The round in which the decision was taken.
        round: u64,
        /// The schedule item that triggered it (for `Revoke`/`Readmit`,
        /// the next item the stream would have fetched).
        item: u64,
        /// Which rung of the ladder fired.
        action: DegradeAction,
        /// Virtual time of the decision.
        at: Instant,
    },
    /// One background-scrub probe of a stored media block
    /// (`strandfs-cluster`): during idle rounds or spare round slack the
    /// scrubber re-hashed the block's on-disk payload against the
    /// checksum stamped in its strand index. A block the cursor covers
    /// because a verified read already checked it this pass emits none.
    Scrub {
        /// The member volume scrubbed.
        volume: usize,
        /// The strand holding the block.
        strand: u64,
        /// The block verified.
        block: u64,
        /// False when the hash did not match the stamp — silent
        /// corruption found; the replica is routed to re-replication.
        ok: bool,
        /// Virtual time the scrub read completed.
        at: Instant,
    },
    /// A hedged read (`strandfs-cluster`): a primary fetch exceeded the
    /// deadline-derived hedge threshold, so the same block was raced on
    /// a replica volume.
    Hedge {
        /// The stream whose fetch was hedged.
        stream: usize,
        /// The slow primary volume.
        volume: usize,
        /// The replica volume raced against it.
        hedge_volume: usize,
        /// Primary service time that tripped the threshold.
        primary: Nanos,
        /// True when the hedge finished first (the stream re-pins to
        /// the replica).
        won: bool,
        /// Virtual time the winning fetch completed.
        at: Instant,
    },
    /// A read-latency quarantine transition (`strandfs-cluster`): a
    /// member breached the latency SLO (entered) or served clean probes
    /// long enough to be re-admitted (left).
    Quarantine {
        /// The member volume.
        volume: usize,
        /// True on entry to quarantine, false on re-admission.
        entered: bool,
        /// Consecutive slow (entry) or clean-probe (exit) rounds that
        /// triggered the transition.
        rounds: u64,
        /// Virtual time of the transition.
        at: Instant,
    },
}

/// A duration as a [`crate::QuantileSketch`] sample: signed
/// nanoseconds, saturating at `i64::MAX`.
pub(crate) fn signed_ns(d: Nanos) -> i64 {
    i64::try_from(d.as_nanos()).unwrap_or(i64::MAX)
}

impl Event {
    /// For a [`Event::DiskOp`], the total service time; zero otherwise.
    pub fn service_time(&self) -> Nanos {
        match self {
            Event::DiskOp {
                seek,
                rotation,
                transfer,
                ..
            } => *seek + *rotation + *transfer,
            _ => Nanos::ZERO,
        }
    }

    /// For a [`Event::Deadline`], the signed margin in nanoseconds
    /// (positive = early, negative = late); zero otherwise.
    pub fn deadline_margin(&self) -> i64 {
        match self {
            Event::Deadline {
                deadline,
                completed,
                ..
            } => {
                if completed <= deadline {
                    signed_ns(*deadline - *completed)
                } else {
                    -signed_ns(*completed - *deadline)
                }
            }
            _ => 0,
        }
    }

    /// The virtual instant the event is anchored to, when it carries
    /// one: issue time for disk ops, detection time for faults,
    /// completion time for deadlines and service turns, and the `at`
    /// stamp everywhere else. Admission decisions and allocations are
    /// instant-less (`None`) — the round-indexed monitor folds them into
    /// whichever window is current when they arrive.
    pub fn at(&self) -> Option<Instant> {
        match *self {
            Event::DiskOp { issued, .. } => Some(issued),
            Event::Alloc { .. }
            | Event::Admit { .. }
            | Event::Reject { .. }
            | Event::Release { .. } => None,
            Event::RoundStart { at, .. }
            | Event::RoundEnd { at, .. }
            | Event::RoundIdle { at, .. }
            | Event::DisplayStart { at, .. }
            | Event::Retry { at, .. }
            | Event::Journal { at, .. }
            | Event::Recover { at, .. }
            | Event::EditHeal { at, .. }
            | Event::Repair { at, .. }
            | Event::Degrade { at, .. }
            | Event::Scrub { at, .. }
            | Event::Hedge { at, .. }
            | Event::Quarantine { at, .. } => Some(at),
            Event::StreamService { end, .. } => Some(end),
            Event::Deadline { completed, .. } => Some(completed),
            Event::Fault { detected, .. } => Some(detected),
        }
    }

    /// A short stable label for counters and JSON keys.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::DiskOp { .. } => "disk_op",
            Event::Alloc { .. } => "alloc",
            Event::Admit { .. } => "admit",
            Event::Reject { .. } => "reject",
            Event::Release { .. } => "release",
            Event::RoundStart { .. } => "round_start",
            Event::StreamService { .. } => "stream_service",
            Event::RoundEnd { .. } => "round_end",
            Event::RoundIdle { .. } => "round_idle",
            Event::DisplayStart { .. } => "display_start",
            Event::Deadline { .. } => "deadline",
            Event::Fault { .. } => "fault",
            Event::Retry { .. } => "retry",
            Event::Degrade { .. } => "degrade",
            Event::Journal { .. } => "journal",
            Event::Recover { .. } => "recover",
            Event::EditHeal { .. } => "edit_heal",
            Event::Repair { .. } => "repair",
            Event::Scrub { .. } => "scrub",
            Event::Hedge { .. } => "hedge",
            Event::Quarantine { .. } => "quarantine",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_time_sums_components() {
        let e = Event::DiskOp {
            dir: AccessDir::Read,
            lba: 0,
            sectors: 1,
            cylinder: 0,
            cyl_distance: 0,
            issued: Instant::EPOCH,
            seek: Nanos::from_millis(3),
            rotation: Nanos::from_millis(2),
            transfer: Nanos::from_millis(1),
        };
        assert_eq!(e.service_time(), Nanos::from_millis(6));
        assert_eq!(e.kind(), "disk_op");
    }

    #[test]
    fn at_anchors_timed_events_only() {
        let admit = Event::Admit {
            request: 1,
            n: 1,
            k_old: 0,
            k_new: 2,
            slack: Nanos::from_millis(5),
        };
        assert_eq!(admit.at(), None);
        let start = Event::DisplayStart {
            stream: 0,
            at: Instant::from_nanos(70),
            latency: Nanos::from_nanos(70),
        };
        assert_eq!(start.at(), Some(Instant::from_nanos(70)));
        let dl = Event::Deadline {
            stream: 0,
            item: 0,
            round: 0,
            deadline: Instant::from_nanos(100),
            completed: Instant::from_nanos(60),
        };
        assert_eq!(dl.at(), Some(Instant::from_nanos(60)));
    }

    #[test]
    fn deadline_margin_is_signed() {
        let early = Event::Deadline {
            stream: 0,
            item: 0,
            round: 0,
            deadline: Instant::from_nanos(100),
            completed: Instant::from_nanos(60),
        };
        assert_eq!(early.deadline_margin(), 40);
        let late = Event::Deadline {
            stream: 0,
            item: 1,
            round: 1,
            deadline: Instant::from_nanos(100),
            completed: Instant::from_nanos(250),
        };
        assert_eq!(late.deadline_margin(), -150);
        assert_eq!(
            Event::Release {
                request: 0,
                n: 0,
                k: 0
            }
            .deadline_margin(),
            0
        );
    }
}

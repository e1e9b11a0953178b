//! Recorder trait, the per-layer sink handle, and the bundled
//! bounded-memory ring recorder.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

use strandfs_units::Nanos;

use crate::event::{signed_ns, AccessDir, DegradeAction, Event, FaultClass};
use crate::sketch::QuantileSketch;
use crate::summary::{NanosAcc, U64Acc};

/// A sink for structured [`Event`]s.
///
/// Implementations must not feed information back into the emitting
/// layer — observation is strictly one-way, which is what makes the
/// zero-perturbation guarantee (identical `SimReport` with any
/// recorder) testable rather than aspirational.
pub trait Recorder {
    /// Accept one event.
    fn record(&mut self, event: Event);
}

/// The handle instrumented layers hold: either disabled (the default)
/// or a shared reference to a [`Recorder`].
///
/// Cloning is cheap (an `Rc` bump at most). The crucial property is in
/// [`ObsSink::emit`]: the event is built inside a closure that a
/// disabled sink never calls, so uninstrumented code pays one branch
/// per site and zero construction cost.
///
/// The simulation is single-threaded virtual time, hence
/// `Rc<RefCell<…>>` rather than an atomic handoff.
#[derive(Clone, Default)]
pub struct ObsSink(Option<Rc<RefCell<dyn Recorder>>>);

impl ObsSink {
    /// The disabled sink: every `emit` is a no-op.
    pub fn noop() -> ObsSink {
        ObsSink(None)
    }

    /// A sink feeding a shared recorder. The caller keeps its own
    /// `Rc` to inspect the recorder after the run.
    pub fn shared<R: Recorder + 'static>(recorder: &Rc<RefCell<R>>) -> ObsSink {
        ObsSink(Some(Rc::clone(recorder) as Rc<RefCell<dyn Recorder>>))
    }

    /// Convenience: a fresh [`RingRecorder`] of `cap` events plus the
    /// sink feeding it.
    pub fn ring(cap: usize) -> (ObsSink, Rc<RefCell<RingRecorder>>) {
        let recorder = Rc::new(RefCell::new(RingRecorder::new(cap)));
        (ObsSink::shared(&recorder), recorder)
    }

    /// True if events are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Record the event produced by `build` — or, when disabled, do
    /// nothing at all (`build` is never called).
    #[inline]
    pub fn emit(&self, build: impl FnOnce() -> Event) {
        if let Some(recorder) = &self.0 {
            recorder.borrow_mut().record(build());
        }
    }
}

impl fmt::Debug for ObsSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("ObsSink")
            .field(&if self.0.is_some() { "enabled" } else { "noop" })
            .finish()
    }
}

/// The counters both views of a run report: the whole-run
/// [`ObsMetrics`] and each live [`crate::WindowStats`] hold one and
/// count events into it through the one `Tally::fold`, so a window's
/// late blocks, faults or hedges are the run's, counted by the same
/// rule.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Disk read operations.
    pub disk_reads: u64,
    /// Disk write operations.
    pub disk_writes: u64,
    /// Disk service time consumed (seek + rotation + transfer).
    pub disk_busy: Nanos,
    /// Service rounds started.
    pub rounds: u64,
    /// Rounds that passed with nothing to service (all streams revoked).
    pub idle_rounds: u64,
    /// Deadline events seen.
    pub deadline_blocks: u64,
    /// Deadline events whose fetch completed late.
    pub deadline_late: u64,
    /// Admitted requests.
    pub admits: u64,
    /// Rejected requests.
    pub rejects: u64,
    /// Released requests.
    pub releases: u64,
    /// Display-clock starts observed (one per stream epoch that
    /// satisfied its read-ahead).
    pub display_starts: u64,
    /// Fault events (any class).
    pub faults: u64,
    /// Read retries issued by the resilient read path.
    pub retries: u64,
    /// Blocks dropped by the degradation ladder.
    pub drops: u64,
    /// Streams revoked through admission control.
    pub revokes: u64,
    /// Revoked streams re-admitted after the fault window cleared.
    pub readmits: u64,
    /// Scrub *probes*: blocks the background scrubber hashed itself
    /// (one `Scrub` event each). Blocks its cursor covered on the credit
    /// of a verified read emit nothing and are not counted here.
    pub scrubbed: u64,
    /// Scrubbed blocks whose payload hash did not match the index stamp.
    pub scrub_corrupt: u64,
    /// Hedged reads issued against a replica.
    pub hedges: u64,
    /// Hedged reads the replica won.
    pub hedge_wins: u64,
    /// Members quarantined for breaching the read-latency SLO.
    pub quarantines: u64,
}

impl Tally {
    /// Count one event.
    pub(crate) fn fold(&mut self, event: &Event) {
        match *event {
            Event::DiskOp { dir, .. } => {
                match dir {
                    AccessDir::Read => self.disk_reads += 1,
                    AccessDir::Write => self.disk_writes += 1,
                }
                self.disk_busy += event.service_time();
            }
            Event::RoundStart { .. } => self.rounds += 1,
            Event::RoundIdle { .. } => self.idle_rounds += 1,
            Event::Deadline { .. } => {
                self.deadline_blocks += 1;
                if event.deadline_margin() < 0 {
                    self.deadline_late += 1;
                }
            }
            Event::Admit { .. } => self.admits += 1,
            Event::Reject { .. } => self.rejects += 1,
            Event::Release { .. } => self.releases += 1,
            Event::DisplayStart { .. } => self.display_starts += 1,
            Event::Fault { .. } => self.faults += 1,
            Event::Retry { .. } => self.retries += 1,
            Event::Degrade { action, .. } => match action {
                DegradeAction::DropBlock => self.drops += 1,
                DegradeAction::Revoke => self.revokes += 1,
                DegradeAction::Readmit => self.readmits += 1,
            },
            Event::Scrub { ok, .. } => {
                self.scrubbed += 1;
                if !ok {
                    self.scrub_corrupt += 1;
                }
            }
            Event::Hedge { won, .. } => {
                self.hedges += 1;
                if won {
                    self.hedge_wins += 1;
                }
            }
            Event::Quarantine { entered: true, .. } => self.quarantines += 1,
            _ => {}
        }
    }
}

/// Cumulative metrics extracted from the event stream: the [`Tally`]
/// plus what only the whole run keeps.
///
/// Unlike the ring of raw events these never drop: counters and
/// constant-size accumulators only.
#[derive(Clone, Debug, Default)]
pub struct ObsMetrics {
    /// The counters a window reports too.
    pub tally: Tally,
    /// Sectors per disk op.
    pub disk_sectors: U64Acc,
    /// Cylinder distance travelled per disk op.
    pub disk_cyl_distance: U64Acc,
    /// Seek component per disk op.
    pub disk_seek: NanosAcc,
    /// Rotational-latency component per disk op.
    pub disk_rotation: NanosAcc,
    /// Transfer component per disk op.
    pub disk_transfer: NanosAcc,
    /// Total service time per disk op.
    pub disk_service: NanosAcc,
    /// Block placements.
    pub allocs: u64,
    /// Placements without a gap constraint in force (a strand's first
    /// block, or a wrap anomaly).
    pub allocs_unconstrained: u64,
    /// Inter-block gap actually chosen, in sectors.
    pub alloc_gap: U64Acc,
    /// Slack below the scattering upper bound, in sectors.
    pub alloc_slack: U64Acc,
    /// Admissions that grew the round size `k`.
    pub k_growths: u64,
    /// Largest round size any admission produced.
    pub k_peak: u64,
    /// Eq. 18 slack at each admission.
    pub admit_slack: NanosAcc,
    /// Streams serviced per round.
    pub round_active: U64Acc,
    /// Largest `k` any round used.
    pub round_k_max: u64,
    /// Wall-to-wall duration of completed rounds (start → end).
    pub round_duration: NanosAcc,
    /// Per-stream service turns.
    pub stream_services: u64,
    /// Duration of each stream's service turn within a round.
    pub service_span: NanosAcc,
    /// The most recent `RoundStart` not yet closed by its `RoundEnd`
    /// (pairing state for `round_duration`).
    open_round: Option<(u64, strandfs_units::Instant)>,
    /// Time-to-first-frame: admission (or re-admission) → display start.
    pub startup_latency: QuantileSketch,
    /// Margin (deadline − completion) for on-time blocks.
    pub deadline_margin: QuantileSketch,
    /// Lateness (completion − deadline) for late blocks.
    pub deadline_lateness: QuantileSketch,
    /// Permanent media errors observed.
    pub faults_media: u64,
    /// Transient read errors observed.
    pub faults_transient: u64,
    /// Latency spikes observed.
    pub faults_spike: u64,
    /// Operations slowed by a degraded-transfer window.
    pub faults_degraded: u64,
    /// Torn writes: only a sector prefix reached the medium.
    pub faults_torn: u64,
    /// Accesses refused by a crashed (frozen) device.
    pub faults_crashed: u64,
    /// Faults whose affected access was a write.
    pub faults_write: u64,
    /// Service time charged to faults (wasted attempts + extra latency).
    pub fault_penalty: NanosAcc,
    /// Edit boundaries healed by the scattering-maintenance pass.
    pub edit_heals: u64,
    /// Media blocks copied per healed boundary.
    pub edit_copied: U64Acc,
    /// Largest Eq. 19/20 copy bound in force at any heal.
    pub edit_bound_max: u64,
    /// Intent records persisted by the strand journal.
    pub journal_records: u64,
    /// Mount-time journal replays completed.
    pub recovers: u64,
    /// Structural fixes applied by fsck's repair mode.
    pub repairs: u64,
    /// Quarantined members re-admitted after clean probes.
    pub quarantine_readmits: u64,
}

impl ObsMetrics {
    fn fold(&mut self, event: &Event) {
        self.tally.fold(event);
        match *event {
            Event::DiskOp {
                sectors,
                cyl_distance,
                seek,
                rotation,
                transfer,
                ..
            } => {
                self.disk_sectors.record(sectors);
                self.disk_cyl_distance.record(cyl_distance);
                self.disk_seek.record(seek);
                self.disk_rotation.record(rotation);
                self.disk_transfer.record(transfer);
                self.disk_service.record(seek + rotation + transfer);
            }
            Event::Alloc { gap, slack, .. } => {
                self.allocs += 1;
                match gap {
                    Some(g) => self.alloc_gap.record(g),
                    None => self.allocs_unconstrained += 1,
                }
                if let Some(s) = slack {
                    self.alloc_slack.record(s);
                }
            }
            Event::Admit {
                k_old,
                k_new,
                slack,
                ..
            } => {
                if k_new > k_old {
                    self.k_growths += 1;
                }
                self.k_peak = self.k_peak.max(k_new);
                self.admit_slack.record(slack);
            }
            Event::RoundStart {
                round,
                active,
                k,
                at,
            } => {
                self.round_active.record(active as u64);
                self.round_k_max = self.round_k_max.max(k);
                self.open_round = Some((round, at));
            }
            Event::StreamService { begin, end, .. } => {
                self.stream_services += 1;
                self.service_span.record(end - begin);
            }
            Event::RoundEnd { round, at } => {
                if let Some((open, started)) = self.open_round.take() {
                    if open == round {
                        self.round_duration.record(at - started);
                    }
                }
            }
            Event::DisplayStart { latency, .. } => {
                self.startup_latency.record(signed_ns(latency));
            }
            Event::Deadline { .. } => {
                let margin = event.deadline_margin();
                if margin < 0 {
                    self.deadline_lateness.record(-margin);
                } else {
                    self.deadline_margin.record(margin);
                }
            }
            Event::Fault {
                class,
                dir,
                penalty,
                ..
            } => {
                match class {
                    FaultClass::Media => self.faults_media += 1,
                    FaultClass::Transient => self.faults_transient += 1,
                    FaultClass::Spike => self.faults_spike += 1,
                    FaultClass::Degraded => self.faults_degraded += 1,
                    FaultClass::Torn => self.faults_torn += 1,
                    FaultClass::Crashed => self.faults_crashed += 1,
                }
                if dir == AccessDir::Write {
                    self.faults_write += 1;
                }
                self.fault_penalty.record(penalty);
            }
            Event::EditHeal { copied, bound, .. } => {
                self.edit_heals += 1;
                self.edit_copied.record(copied);
                self.edit_bound_max = self.edit_bound_max.max(bound);
            }
            Event::Journal { .. } => self.journal_records += 1,
            Event::Recover { .. } => self.recovers += 1,
            Event::Repair { .. } => self.repairs += 1,
            Event::Quarantine { entered: false, .. } => self.quarantine_readmits += 1,
            _ => {}
        }
    }

    /// The metrics as a hand-rolled JSON object (the `"obs"` section
    /// merged into `BENCH_*.json`).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"disk\":{{\"reads\":{},\"writes\":{},\"sectors\":{},",
                "\"cyl_distance\":{},\"seek\":{},\"rotation\":{},",
                "\"transfer\":{},\"service\":{}}},",
                "\"alloc\":{{\"count\":{},\"unconstrained\":{},\"gap\":{},\"slack\":{}}},",
                "\"admission\":{{\"admits\":{},\"rejects\":{},\"releases\":{},",
                "\"k_growths\":{},\"k_peak\":{},\"slack\":{}}},",
                "\"rounds\":{{\"count\":{},\"idle\":{},\"active\":{},\"k_max\":{},",
                "\"duration\":{},\"stream_services\":{},\"service_span\":{}}},",
                "\"startup\":{{\"count\":{},\"latency\":{}}},",
                "\"deadlines\":{{\"blocks\":{},\"late\":{},\"margin\":{},\"lateness\":{}}},",
                "\"edits\":{{\"heals\":{},\"copied\":{},\"bound_max\":{}}},",
                "\"faults\":{{\"media\":{},\"transient\":{},\"spike\":{},",
                "\"degraded\":{},\"torn\":{},\"crashed\":{},\"writes\":{},",
                "\"penalty\":{},\"retries\":{},",
                "\"drops\":{},\"revokes\":{},\"readmits\":{}}},",
                "\"recovery\":{{\"journal_records\":{},\"recovers\":{},\"repairs\":{}}},",
                "\"scrub\":{{\"checked\":{},\"corrupt\":{}}},",
                "\"hedge\":{{\"issued\":{},\"wins\":{},",
                "\"quarantines\":{},\"readmits\":{}}}}}"
            ),
            self.tally.disk_reads,
            self.tally.disk_writes,
            self.disk_sectors.to_json(),
            self.disk_cyl_distance.to_json(),
            self.disk_seek.summary().to_json(),
            self.disk_rotation.summary().to_json(),
            self.disk_transfer.summary().to_json(),
            self.disk_service.summary().to_json(),
            self.allocs,
            self.allocs_unconstrained,
            self.alloc_gap.to_json(),
            self.alloc_slack.to_json(),
            self.tally.admits,
            self.tally.rejects,
            self.tally.releases,
            self.k_growths,
            self.k_peak,
            self.admit_slack.summary().to_json(),
            self.tally.rounds,
            self.tally.idle_rounds,
            self.round_active.to_json(),
            self.round_k_max,
            self.round_duration.summary().to_json(),
            self.stream_services,
            self.service_span.summary().to_json(),
            self.tally.display_starts,
            self.startup_latency.to_json(),
            self.tally.deadline_blocks,
            self.tally.deadline_late,
            self.deadline_margin.to_json(),
            self.deadline_lateness.to_json(),
            self.edit_heals,
            self.edit_copied.to_json(),
            self.edit_bound_max,
            self.faults_media,
            self.faults_transient,
            self.faults_spike,
            self.faults_degraded,
            self.faults_torn,
            self.faults_crashed,
            self.faults_write,
            self.fault_penalty.summary().to_json(),
            self.tally.retries,
            self.tally.drops,
            self.tally.revokes,
            self.tally.readmits,
            self.journal_records,
            self.recovers,
            self.repairs,
            self.tally.scrubbed,
            self.tally.scrub_corrupt,
            self.tally.hedges,
            self.tally.hedge_wins,
            self.tally.quarantines,
            self.quarantine_readmits,
        )
    }
}

/// A bounded drop-oldest buffer of raw events: the last `cap` recorded,
/// evictions counted. It folds nothing, so it is cheap enough for the
/// per-event hot path of a 100k-stream run; [`RingRecorder`] and the
/// [`crate::WindowedMonitor`] flight recorder both keep theirs in one.
#[derive(Debug, Default)]
pub(crate) struct EventRing {
    cap: usize,
    ring: VecDeque<Event>,
    dropped: u64,
}

impl EventRing {
    pub(crate) fn new(cap: usize) -> EventRing {
        EventRing {
            cap,
            ring: VecDeque::with_capacity(cap.min(1 << 16)),
            dropped: 0,
        }
    }

    #[inline]
    pub(crate) fn record(&mut self, event: Event) {
        if self.cap == 0 {
            self.dropped += 1;
            return;
        }
        if self.ring.len() == self.cap {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(event);
    }

    /// The retained events, oldest first.
    pub(crate) fn events(&self) -> impl ExactSizeIterator<Item = &Event> {
        self.ring.iter()
    }

    /// Events evicted so far.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// The bundled recorder: a bounded ring of recent raw events plus
/// cumulative [`ObsMetrics`].
///
/// Once the ring is full the *oldest* event is dropped (and counted in
/// [`RingRecorder::dropped`]); metrics keep accumulating regardless, so
/// long runs keep exact counters and recent raw history in bounded
/// memory.
#[derive(Debug, Default)]
pub struct RingRecorder {
    ring: EventRing,
    metrics: ObsMetrics,
}

impl RingRecorder {
    /// A recorder keeping at most `cap` raw events.
    pub fn new(cap: usize) -> RingRecorder {
        RingRecorder {
            ring: EventRing::new(cap),
            metrics: ObsMetrics::default(),
        }
    }

    /// The retained raw events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.ring.events()
    }

    /// Retained raw-event count (≤ capacity).
    pub fn len(&self) -> usize {
        self.ring.events().len()
    }

    /// True if no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted from the ring so far.
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// The cumulative metrics (never dropped).
    pub fn metrics(&self) -> &ObsMetrics {
        &self.metrics
    }

    /// The full report as hand-rolled JSON: cumulative metrics plus
    /// ring occupancy.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"metrics\":{},\"ring\":{{\"cap\":{},\"len\":{},\"dropped\":{}}}}}",
            self.metrics.to_json(),
            self.ring.cap,
            self.len(),
            self.dropped()
        )
    }
}

impl Recorder for RingRecorder {
    fn record(&mut self, event: Event) {
        self.metrics.fold(&event);
        self.ring.record(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MonitorConfig, WindowStats, WindowedMonitor};
    use strandfs_units::Instant;

    fn disk_op(lba: u64) -> Event {
        Event::DiskOp {
            dir: AccessDir::Read,
            lba,
            sectors: 8,
            cylinder: lba / 128,
            cyl_distance: 3,
            issued: Instant::EPOCH,
            seek: Nanos::from_millis(10),
            rotation: Nanos::from_millis(8),
            transfer: Nanos::from_millis(2),
        }
    }

    #[test]
    fn noop_sink_never_builds_the_event() {
        let sink = ObsSink::noop();
        assert!(!sink.is_enabled());
        sink.emit(|| panic!("a disabled sink must not construct events"));
    }

    #[test]
    fn shared_sink_records_through_clones() {
        let (sink, recorder) = ObsSink::ring(16);
        assert!(sink.is_enabled());
        let clone = sink.clone();
        sink.emit(|| disk_op(0));
        clone.emit(|| disk_op(128));
        let r = recorder.borrow();
        assert_eq!(r.len(), 2);
        assert_eq!(r.metrics().tally.disk_reads, 2);
        assert_eq!(r.metrics().tally.disk_busy, Nanos::from_millis(40));
    }

    #[test]
    fn ring_drops_oldest_but_metrics_accumulate() {
        let mut rec = RingRecorder::new(2);
        for i in 0..5 {
            rec.record(disk_op(i * 100));
        }
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.dropped(), 3);
        // Oldest first: ops 3 and 4 remain.
        let lbas: Vec<u64> = rec
            .events()
            .map(|e| match e {
                Event::DiskOp { lba, .. } => *lba,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(lbas, vec![300, 400]);
        // Metrics saw all five.
        assert_eq!(rec.metrics().tally.disk_reads, 5);
        assert_eq!(rec.metrics().disk_service.count(), 5);
    }

    #[test]
    fn zero_capacity_ring_still_counts() {
        let mut rec = RingRecorder::new(0);
        rec.record(disk_op(0));
        assert!(rec.is_empty());
        assert_eq!(rec.dropped(), 1);
        assert_eq!(rec.metrics().tally.disk_reads, 1);
    }

    /// One event of every kind, two where a kind has branches.
    fn every_kind() -> Vec<Event> {
        vec![
            disk_op(0),
            Event::Alloc {
                strand: 1,
                block: 0,
                lba: 0,
                sectors: 8,
                gap: None,
                slack: None,
            },
            Event::Alloc {
                strand: 1,
                block: 1,
                lba: 40,
                sectors: 8,
                gap: Some(32),
                slack: Some(96),
            },
            Event::Admit {
                request: 7,
                n: 1,
                k_old: 0,
                k_new: 2,
                slack: Nanos::from_millis(5),
            },
            Event::Reject {
                request: 8,
                active: 1,
                n_max: 1,
            },
            Event::Release {
                request: 7,
                n: 0,
                k: 0,
            },
            Event::RoundStart {
                round: 0,
                active: 3,
                k: 2,
                at: Instant::EPOCH,
            },
            Event::StreamService {
                stream: 0,
                round: 0,
                begin: Instant::EPOCH,
                end: Instant::from_nanos(40),
                blocks: 2,
            },
            Event::RoundEnd {
                round: 0,
                at: Instant::from_nanos(90),
            },
            Event::DisplayStart {
                stream: 0,
                at: Instant::from_nanos(10),
                latency: Nanos::from_nanos(10),
            },
            Event::Deadline {
                stream: 0,
                item: 0,
                round: 0,
                deadline: Instant::from_nanos(100),
                completed: Instant::from_nanos(80),
            },
            Event::Deadline {
                stream: 0,
                item: 1,
                round: 1,
                deadline: Instant::from_nanos(100),
                completed: Instant::from_nanos(130),
            },
            Event::Fault {
                class: FaultClass::Transient,
                dir: AccessDir::Read,
                lba: 40,
                sectors: 8,
                issued: Instant::EPOCH,
                detected: Instant::from_nanos(50),
                penalty: Nanos::from_nanos(50),
            },
            Event::Fault {
                class: FaultClass::Spike,
                dir: AccessDir::Read,
                lba: 48,
                sectors: 8,
                issued: Instant::from_nanos(50),
                detected: Instant::from_nanos(120),
                penalty: Nanos::from_nanos(30),
            },
            Event::Fault {
                class: FaultClass::Torn,
                dir: AccessDir::Write,
                lba: 64,
                sectors: 8,
                issued: Instant::from_nanos(120),
                detected: Instant::from_nanos(180),
                penalty: Nanos::from_nanos(60),
            },
            Event::Fault {
                class: FaultClass::Crashed,
                dir: AccessDir::Write,
                lba: 72,
                sectors: 8,
                issued: Instant::from_nanos(180),
                detected: Instant::from_nanos(240),
                penalty: Nanos::from_nanos(60),
            },
            Event::Journal {
                strand: 1,
                op: crate::event::JournalOp::Append,
                seq: 4,
                at: Instant::from_nanos(200),
            },
            Event::Recover {
                durable: 1,
                completed: 1,
                blocks_recovered: 3,
                blocks_rolled_back: 1,
                at: Instant::from_nanos(260),
            },
            Event::Repair {
                action: crate::event::RepairAction::TruncateStrand,
                strand: 2,
                detail: 1,
                at: Instant::from_nanos(280),
            },
            Event::Retry {
                strand: 1,
                block: 0,
                attempt: 1,
                at: Instant::from_nanos(50),
                budget: Nanos::from_nanos(200),
            },
            Event::EditHeal {
                rope: 3,
                copied: 2,
                bound: 4,
                new_strand: 9,
                at: Instant::from_nanos(290),
            },
            Event::Degrade {
                stream: 0,
                round: 1,
                item: 2,
                action: DegradeAction::DropBlock,
                at: Instant::from_nanos(140),
            },
            Event::Degrade {
                stream: 0,
                round: 1,
                item: 3,
                action: DegradeAction::Revoke,
                at: Instant::from_nanos(150),
            },
            Event::Degrade {
                stream: 0,
                round: 3,
                item: 3,
                action: DegradeAction::Readmit,
                at: Instant::from_nanos(300),
            },
            Event::Scrub {
                volume: 0,
                strand: 1,
                block: 0,
                ok: true,
                at: Instant::from_nanos(310),
            },
            Event::Scrub {
                volume: 0,
                strand: 1,
                block: 1,
                ok: false,
                at: Instant::from_nanos(320),
            },
            Event::Hedge {
                stream: 0,
                volume: 0,
                hedge_volume: 1,
                primary: Nanos::from_nanos(500),
                won: true,
                at: Instant::from_nanos(330),
            },
            Event::Quarantine {
                volume: 0,
                entered: true,
                rounds: 3,
                at: Instant::from_nanos(340),
            },
            Event::Quarantine {
                volume: 0,
                entered: false,
                rounds: 2,
                at: Instant::from_nanos(350),
            },
        ]
    }

    #[test]
    fn metrics_fold_all_kinds() {
        let mut rec = RingRecorder::new(64);
        for e in every_kind() {
            rec.record(e);
        }
        let m = rec.metrics();
        let t = &m.tally;
        assert_eq!(m.allocs, 2);
        assert_eq!(m.allocs_unconstrained, 1);
        assert_eq!(m.alloc_gap.mean(), 32);
        assert_eq!((t.admits, t.rejects, t.releases), (1, 1, 1));
        assert_eq!(m.k_growths, 1);
        assert_eq!(m.k_peak, 2);
        assert_eq!(t.rounds, 1);
        assert_eq!(m.round_k_max, 2);
        assert_eq!(m.stream_services, 1);
        assert_eq!(m.service_span.summary().mean, Nanos::from_nanos(40));
        assert_eq!(t.display_starts, 1);
        assert_eq!(m.startup_latency.count(), 1);
        assert_eq!(m.round_duration.summary().max, Nanos::from_nanos(90));
        assert_eq!(t.deadline_blocks, 2);
        assert_eq!(t.deadline_late, 1);
        assert_eq!(m.deadline_margin.count(), 1);
        assert_eq!(m.deadline_lateness.count(), 1);
        assert_eq!(
            (m.faults_media, m.faults_transient, m.faults_spike),
            (0, 1, 1)
        );
        assert_eq!((m.faults_torn, m.faults_crashed, m.faults_write), (1, 1, 2));
        assert_eq!((m.journal_records, m.recovers, m.repairs), (1, 1, 1));
        assert_eq!(m.fault_penalty.count(), 4);
        assert_eq!((t.faults, t.retries), (4, 1));
        assert_eq!(m.edit_heals, 1);
        assert_eq!(m.edit_copied.mean(), 2);
        assert_eq!(m.edit_bound_max, 4);
        assert_eq!((t.drops, t.revokes, t.readmits), (1, 1, 1));
        assert_eq!((t.scrubbed, t.scrub_corrupt), (2, 1));
        assert_eq!((t.hedges, t.hedge_wins), (1, 1));
        assert_eq!((t.quarantines, m.quarantine_readmits), (1, 1));
        // JSON is well-formed enough to contain every section.
        let json = rec.to_json();
        for key in [
            "\"disk\"",
            "\"alloc\"",
            "\"admission\"",
            "\"rounds\"",
            "\"startup\"",
            "\"deadlines\"",
            "\"edits\"",
            "\"faults\"",
            "\"recovery\"",
            "\"scrub\"",
            "\"hedge\"",
            "\"ring\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    /// The windows' tallies summed field by field.
    fn summed<'a>(windows: impl Iterator<Item = &'a WindowStats>) -> Tally {
        let mut sum = Tally::default();
        for w in windows {
            let Tally {
                disk_reads,
                disk_writes,
                disk_busy,
                rounds,
                idle_rounds,
                deadline_blocks,
                deadline_late,
                admits,
                rejects,
                releases,
                display_starts,
                faults,
                retries,
                drops,
                revokes,
                readmits,
                scrubbed,
                scrub_corrupt,
                hedges,
                hedge_wins,
                quarantines,
            } = w.tally;
            sum.disk_reads += disk_reads;
            sum.disk_writes += disk_writes;
            sum.disk_busy += disk_busy;
            sum.rounds += rounds;
            sum.idle_rounds += idle_rounds;
            sum.deadline_blocks += deadline_blocks;
            sum.deadline_late += deadline_late;
            sum.admits += admits;
            sum.rejects += rejects;
            sum.releases += releases;
            sum.display_starts += display_starts;
            sum.faults += faults;
            sum.retries += retries;
            sum.drops += drops;
            sum.revokes += revokes;
            sum.readmits += readmits;
            sum.scrubbed += scrubbed;
            sum.scrub_corrupt += scrub_corrupt;
            sum.hedges += hedges;
            sum.hedge_wins += hedge_wins;
            sum.quarantines += quarantines;
        }
        sum
    }

    #[test]
    fn window_tallies_sum_to_the_run_tally() {
        // Each event of every kind lands in a window of its own.
        let mut rec = RingRecorder::new(0);
        let mut monitor = WindowedMonitor::new(MonitorConfig::rounds(1).retain(1 << 10));
        for (round, event) in every_kind().into_iter().enumerate() {
            let tick = Event::RoundStart {
                round: round as u64 + 1,
                active: 1,
                k: 1,
                at: Instant::from_nanos(round as u64),
            };
            for e in [tick, event] {
                rec.record(e);
                monitor.record(e);
            }
        }
        monitor.finish();
        assert_eq!(monitor.evicted(), 0);
        let tally = &rec.metrics().tally;
        assert_eq!(summed(monitor.windows()), *tally);
        assert_eq!(
            (tally.scrub_corrupt, tally.quarantines, tally.drops),
            (1, 1, 1)
        );
    }
}

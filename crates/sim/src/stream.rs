//! Per-stream service state — the one owner of the paper's per-stream
//! guarantee: a block is on time or it is a violation (Eq. 15–18).
//!
//! A [`StreamState`] is everything a round loop knows about one viewer:
//! what was fetched when, which display epoch covers it, what was
//! dropped, whether the stream is revoked. Its methods are the only code
//! that records a completion, opens a display epoch, drops / revokes /
//! re-admits, emits the per-stream events, and computes the
//! [`StreamOutcome`]. Both engines drive it — the single-volume loop in
//! [`crate::playback`] and `strandfs_cluster::simulate_cluster` — and
//! differ only in what they do *between* the calls: where a fetch goes
//! and which clock it charges. The two clock differences are explicit
//! parameters: the instant a stream's service is anchored at
//! ([`StreamState::begin_turn`]) and the clock a display epoch opens on,
//! which is passed apart from the completion just recorded.
//!
//! `crate::reference` deliberately does not use this type: the oracle
//! shares nothing with the loops it checks.

use crate::metrics::StreamOutcome;
use std::sync::Arc;
use strandfs_core::mrs::{PlayItem, PlaySchedule};
use strandfs_core::FsError;
use strandfs_obs::{DegradeAction, Event, NanosAcc, ObsSink};
use strandfs_units::{Instant, Nanos};

/// Signed deadline margin in nanoseconds: positive = early, negative =
/// late (the same convention as [`Event::deadline_margin`]).
fn signed_margin(deadline: Instant, done: Instant) -> i64 {
    if done <= deadline {
        (deadline - done).as_nanos() as i64
    } else {
        -((done - deadline).as_nanos() as i64)
    }
}

/// One display epoch: the open-loop display clock restarts whenever a
/// revoked stream is re-admitted, so deadlines are measured against the
/// epoch covering the item, not a single global display start.
struct Epoch {
    /// First schedule item served under this epoch.
    first_item: usize,
    /// When the epoch's display started (after its read-ahead filled);
    /// `None` while buffering or if the simulation ended first.
    display_start: Option<Instant>,
    /// When the epoch entered service: the re-admission instant for
    /// post-revocation epochs, `None` for the initial epoch (whose
    /// anchor is the stream's first service turn). Display start minus
    /// this anchor is the viewer-visible time-to-first-frame.
    resumed_at: Option<Instant>,
}

/// What the engine keeps of one served schedule item — 16 bytes, so a
/// turn's pushes land on one cache line.
#[derive(Clone, Copy)]
struct Served {
    /// Fetch completion instant, or the drop decision instant of a
    /// degradation hole.
    done: Instant,
    /// The round whose service fetched the item — lets a deadline
    /// violation be attributed to the round that fetched the late
    /// block — with [`Served::DROPPED`] set if a hole was spliced in,
    /// which exempts the item from deadline accounting.
    tag: u64,
}

impl Served {
    const DROPPED: u64 = 1 << 63;

    #[inline]
    fn new(done: Instant, round: u64, dropped: bool) -> Self {
        debug_assert!(round < Self::DROPPED, "round numbers stay below 2^63");
        Served {
            done,
            tag: if dropped {
                round | Self::DROPPED
            } else {
                round
            },
        }
    }

    #[inline]
    fn round(self) -> u64 {
        self.tag & !Self::DROPPED
    }

    #[inline]
    fn dropped(self) -> bool {
        self.tag & Self::DROPPED != 0
    }
}

/// The service state of one stream. See the module docs.
pub struct StreamState {
    /// The stream's index in its simulation — the `stream` of every
    /// event it emits.
    id: usize,
    /// The schedule's items, shared with every other viewer of the same
    /// copy of the title.
    items: Arc<[PlayItem]>,
    /// One record per served item, in service order; `served.len()` is
    /// the index of the next item to serve.
    served: Vec<Served>,
    read_ahead: u64,
    service_start: Option<Instant>,
    /// The initial display epoch, inline: most streams never open
    /// another.
    first_epoch: Epoch,
    /// Epochs opened by re-admissions, oldest first.
    later_epochs: Vec<Epoch>,
    /// Transient-fault retries spent on this stream's fetches.
    retries: u64,
    /// Drops since the stream was (re-)admitted — the revocation
    /// trigger of the degradation ladder.
    drops_since_admit: u64,
    /// Set while the stream is revoked: when it happened.
    revoked_at: Option<Instant>,
    /// Times the stream was revoked.
    revokes: u64,
    /// Total virtual time spent revoked (revoke → re-admit).
    recovery_time: Nanos,
    /// Items `0..deadline_emitted` have had their [`Event::Deadline`]
    /// emitted live (or been skipped for good: dropped, or covered by
    /// an epoch that never started displaying). The live-emission
    /// pointer lets windowed monitors see misses in the round that
    /// produced them instead of in one end-of-run burst.
    deadline_emitted: usize,
    /// The service turn in progress: its round, the clock it began at
    /// and the items it has consumed so far.
    turn_round: u64,
    turn_begin: Instant,
    turn_blocks: u64,
}

impl StreamState {
    /// A stream about to play `schedule`, displaying once `read_ahead`
    /// blocks are buffered. `id` labels its events. Only the shared
    /// items are kept: the stream costs one allocation, its records.
    pub fn new(id: usize, schedule: PlaySchedule, read_ahead: u64) -> Self {
        let items = schedule.items;
        StreamState {
            id,
            served: Vec::with_capacity(items.len()),
            items,
            read_ahead,
            service_start: None,
            first_epoch: Epoch {
                first_item: 0,
                display_start: None,
                resumed_at: None,
            },
            later_epochs: Vec::new(),
            retries: 0,
            drops_since_admit: 0,
            revoked_at: None,
            revokes: 0,
            recovery_time: Nanos::ZERO,
            deadline_emitted: 0,
            turn_round: 0,
            turn_begin: Instant::EPOCH,
            turn_blocks: 0,
        }
    }

    /// True once every schedule item has been served or dropped.
    #[inline]
    pub fn finished(&self) -> bool {
        self.served.len() >= self.items.len()
    }

    /// True while the stream is revoked (dropped out of service until
    /// [`StreamState::readmit`]).
    #[inline]
    pub fn is_revoked(&self) -> bool {
        self.revoked_at.is_some()
    }

    /// True if a round should serve the stream: unfinished, not revoked.
    #[inline]
    pub fn in_service(&self) -> bool {
        !self.finished() && !self.is_revoked()
    }

    /// Index of the next schedule item to serve.
    #[inline]
    pub fn next_index(&self) -> usize {
        self.served.len()
    }

    /// The next schedule item to serve. Panics on a finished stream.
    #[inline]
    pub fn next_item(&self) -> PlayItem {
        self.items[self.served.len()]
    }

    /// The schedule items not yet served, next first.
    #[inline]
    pub fn pending_items(&self) -> &[PlayItem] {
        &self.items[self.served.len()..]
    }

    /// The latest instant recorded for the stream (a completion or a
    /// drop decision); the epoch before anything was recorded. Later
    /// fetches cannot complete before it, even on a volume whose clock
    /// trails.
    #[inline]
    pub fn last_completion(&self) -> Instant {
        self.served.last().map_or(Instant::EPOCH, |s| s.done)
    }

    /// Playback deadline of the next item to serve, if known.
    #[inline]
    pub fn next_deadline(&self) -> Option<Instant> {
        self.deadline_of(self.served.len())
    }

    /// Playback deadline of item `j` under its covering epoch; `None`
    /// while that epoch's display has not started.
    fn deadline_of(&self, j: usize) -> Option<Instant> {
        // The covering epoch: the latest one that starts at or before
        // `j` (the initial epoch starts at item 0).
        let ep = self
            .later_epochs
            .iter()
            .rev()
            .find(|e| e.first_item <= j)
            .unwrap_or(&self.first_epoch);
        let ds = ep.display_start?;
        let base = self.items[ep.first_item].at;
        Some(ds + (self.items[j].at - base))
    }

    /// Set the blocks buffered before a display epoch opens.
    pub fn set_read_ahead(&mut self, blocks: u64) {
        self.read_ahead = blocks;
    }

    /// Re-pin the stream onto another copy of the same content: swap in
    /// `schedule`'s items (a pointer copy), keeping every completion,
    /// epoch and item offset. The copies must be structurally identical
    /// — only addresses change.
    pub fn repin(&mut self, schedule: &PlaySchedule) -> Result<(), FsError> {
        if schedule.items.len() != self.items.len() {
            return Err(FsError::InvalidScenario {
                reason: "replica schedules are not structurally identical",
            });
        }
        self.items = Arc::clone(&schedule.items);
        Ok(())
    }

    /// Open the stream's service turn of `round`. `clock` is where the
    /// serving volume's clock stands; `anchor` is the instant a first
    /// turn stamps as the stream's service start (the single-volume
    /// loop passes its running clock, the cluster the clock the
    /// stream's lane opened the round at).
    #[inline]
    pub fn begin_turn(&mut self, round: u64, anchor: Instant, clock: Instant) {
        if self.service_start.is_none() {
            self.service_start = Some(anchor);
        }
        self.turn_round = round;
        self.turn_begin = clock;
        self.turn_blocks = 0;
    }

    /// Count transient-fault retries spent fetching for this stream.
    #[inline]
    pub fn add_retries(&mut self, retries: u32) {
        self.retries += retries as u64;
    }

    /// Record the next item as resident at `done` (a fetch completion,
    /// or the current instant for a silence hole). `clock` is the
    /// serving volume's clock, on which a display epoch opens if this
    /// item fills its read-ahead — after a cross-volume serve it is not
    /// `done`.
    #[inline]
    pub fn record(&mut self, done: Instant, clock: Instant, obs: &ObsSink) {
        self.served.push(Served::new(done, self.turn_round, false));
        self.advance(clock, obs);
    }

    /// Record the next item as dropped at `at` (a silence / freeze-frame
    /// hole spliced over a failed fetch), and revoke the stream if that
    /// makes `revoke_after` drops since it was last admitted. Returns
    /// true if the stream was revoked.
    pub fn record_drop(
        &mut self,
        at: Instant,
        clock: Instant,
        revoke_after: u64,
        obs: &ObsSink,
    ) -> bool {
        let (stream, round, item) = (self.id, self.turn_round, self.served.len() as u64);
        self.served.push(Served::new(at, round, true));
        self.drops_since_admit += 1;
        let degrade = |action| Event::Degrade {
            stream,
            round,
            item,
            action,
            at,
        };
        obs.emit(|| degrade(DegradeAction::DropBlock));
        let revoked = self.drops_since_admit >= revoke_after.max(1);
        if revoked {
            self.revoked_at = Some(at);
            self.revokes += 1;
            obs.emit(|| degrade(DegradeAction::Revoke));
        }
        self.advance(clock, obs);
        revoked
    }

    /// Step past the item just recorded, opening the live epoch's
    /// display on `clock` once its read-ahead is buffered (or the
    /// schedule ran out first).
    #[inline]
    fn advance(&mut self, clock: Instant, obs: &ObsSink) {
        self.turn_blocks += 1;
        let next = self.served.len();
        let finished = self.finished();
        let ep = self
            .later_epochs
            .last_mut()
            .unwrap_or(&mut self.first_epoch);
        if ep.display_start.is_none()
            && ((next - ep.first_item) as u64 >= self.read_ahead || finished)
        {
            // Time-to-first-frame: how long the viewer waited since the
            // epoch entered service — first service turn for the
            // initial epoch, re-admission for later ones. A display
            // opens no earlier: a cluster lane the stream moved to may
            // trail that instant, and a silence hole moves no clock.
            let anchor = ep.resumed_at.or(self.service_start).unwrap_or(clock);
            let at = clock.max(anchor);
            ep.display_start = Some(at);
            let stream = self.id;
            obs.emit(|| Event::DisplayStart {
                stream,
                at,
                latency: at - anchor,
            });
        }
    }

    /// Close the service turn at `clock`: flush the deadlines that
    /// became known and report the turn.
    #[inline]
    pub fn end_turn(&mut self, clock: Instant, obs: &ObsSink) {
        if obs.is_enabled() {
            self.emit_due_deadlines(obs);
            obs.emit(|| Event::StreamService {
                stream: self.id,
                round: self.turn_round,
                begin: self.turn_begin,
                end: clock,
                blocks: self.turn_blocks,
            });
        }
    }

    /// Re-admit a revoked stream at `now`, or at the revocation if that
    /// is later: its viewer resumes from where the freeze left off under
    /// a fresh display epoch. A no-op on a stream that is not revoked. A
    /// cluster re-admits on the clock of the stream's lane, which may
    /// trail the lane that revoked it.
    pub fn readmit(&mut self, round: u64, now: Instant, obs: &ObsSink) {
        let Some(since) = self.revoked_at.take() else {
            return;
        };
        let now = now.max(since);
        self.recovery_time += now - since;
        self.drops_since_admit = 0;
        self.later_epochs.push(Epoch {
            first_item: self.served.len(),
            display_start: None,
            resumed_at: Some(now),
        });
        obs.emit(|| Event::Degrade {
            stream: self.id,
            round,
            item: self.served.len() as u64,
            action: DegradeAction::Readmit,
            at: now,
        });
    }

    fn deadline_event(&self, j: usize, deadline: Instant) -> Event {
        Event::Deadline {
            stream: self.id,
            item: j as u64,
            round: self.served[j].round(),
            deadline,
            completed: self.served[j].done,
        }
    }

    /// Emit [`Event::Deadline`]s for every serviced item whose deadline
    /// has become known, advancing the live-emission pointer. The values
    /// emitted are identical to an end-of-run emission — an item's
    /// covering epoch (and hence its deadline) is fixed once the item is
    /// serviced, because later epochs start at `next`, past every
    /// recorded item.
    fn emit_due_deadlines(&mut self, obs: &ObsSink) {
        // The live epoch is the last one opened; every item at or past
        // its first is covered by it.
        let live_from = self.later_epochs.last().map_or(0, |e| e.first_item);
        while self.deadline_emitted < self.served.len() {
            let j = self.deadline_emitted;
            if self.served[j].dropped() {
                self.deadline_emitted += 1;
                continue;
            }
            match self.deadline_of(j) {
                Some(deadline) => {
                    obs.emit(|| self.deadline_event(j, deadline));
                    self.deadline_emitted += 1;
                }
                // The covering epoch's display has not started. The
                // live (last) epoch still may — wait here; a superseded
                // epoch never will — skip the item for good.
                None if j >= live_from => break,
                None => self.deadline_emitted += 1,
            }
        }
    }

    /// The stream's outcome; also emits the [`Event::Deadline`]s the
    /// live pointer never reached.
    ///
    /// One forward pass over the served items with an epoch cursor, so
    /// each deadline is computed once and feeds every quantity. Item
    /// instants, completions and — within an epoch — deadlines are all
    /// non-decreasing, so the backlog count walks a cursor too, and
    /// binary-searches only when a deadline steps back (an epoch
    /// boundary).
    pub fn outcome(&self, obs: &ObsSink) -> StreamOutcome {
        let items = &self.items[..];
        let served = &self.served[..];
        let serviced = served.len();
        // Completions are filled in virtual-time order by the round
        // loop; the backlog computation below depends on that.
        debug_assert!(
            served.windows(2).all(|w| w[0].done <= w[1].done),
            "fetch completions must be non-decreasing"
        );
        // Items the simulation never serviced (a stream revoked to the
        // end) are holes too: the open-loop display played past them.
        let mut dropped_blocks = (items.len() - serviced) as u64;
        let mut fetched = 0u64;
        let mut violations = 0u64;
        let mut lateness = NanosAcc::default();
        let mut first_violation = None;
        let first_display = self.first_epoch.display_start;
        let (mut burst, mut run) = (0u64, 0u64);
        // One margin sample per round that fetched for the stream
        // (rounds are non-decreasing by construction): the tightest
        // margin among the round's items, 0 if it fetched only drops or
        // pre-display items. The p99 margin is the (n − 1)/100-th
        // smallest of n samples; n ≤ `serviced` bounds that index, so
        // the pass keeps that many of the lowest beside the minimum —
        // none for a stream of at most 100 items.
        let (mut rounds, mut round_worst, mut worst) = (0, i64::MAX, i64::MAX);
        let keep = (serviced.max(1) - 1) / 100 + 1;
        let mut lowest = Vec::with_capacity(if keep > 1 { keep } else { 0 });
        // Required buffering: completions are non-decreasing, so the
        // backlog when item j starts playing is (#completions ≤ its
        // deadline) − j. The subtraction saturates by design: a starved
        // stream can reach item j's play instant with fewer than j
        // fetches resident (open-loop display consumes items whether or
        // not they arrived), and its backlog is then 0, not negative.
        let mut max_buffered = 0u64;
        let mut fetched_by = 0;
        let mut prev_deadline = Instant::EPOCH;
        // The covering epoch of item j: the latest one that starts at
        // or before it (epochs open in item order).
        let mut epoch = &self.first_epoch;
        let mut later = self.later_epochs.iter().peekable();
        for (j, (item, rec)) in items.iter().zip(served).enumerate() {
            while let Some(e) = later.next_if(|e| e.first_item <= j) {
                epoch = e;
            }
            let deadline = epoch
                .display_start
                .map(|ds| ds + (item.at - items[epoch.first_item].at));
            if let Some(deadline) = deadline {
                if deadline < prev_deadline {
                    // A later epoch can open on an earlier display clock
                    // than the one before it had run ahead to.
                    fetched_by = served.partition_point(|s| s.done <= deadline);
                } else {
                    while fetched_by < serviced && served[fetched_by].done <= deadline {
                        fetched_by += 1;
                    }
                }
                prev_deadline = deadline;
                max_buffered = max_buffered.max((fetched_by as u64).saturating_sub(j as u64));
            }
            let late = !rec.dropped() && deadline.is_some_and(|d| rec.done > d);
            run = if rec.dropped() || late { run + 1 } else { 0 };
            burst = burst.max(run);
            if rec.dropped() {
                dropped_blocks += 1;
            } else {
                if !item.silence {
                    fetched += 1;
                }
                if let Some(deadline) = deadline {
                    // Items past the live-emission pointer were never
                    // flushed by `emit_due_deadlines` (possible only
                    // when the loop ended mid-buffer); emit them now so
                    // the event set is complete. Items before it
                    // already went out live.
                    if j >= self.deadline_emitted {
                        obs.emit(|| self.deadline_event(j, deadline));
                    }
                    round_worst = round_worst.min(signed_margin(deadline, rec.done));
                    if late {
                        violations += 1;
                        lateness.record(rec.done - deadline);
                        if first_violation.is_none() {
                            if let Some(ds) = first_display {
                                first_violation = Some(deadline - ds);
                            }
                        }
                    }
                }
            }
            if served.get(j + 1).is_none_or(|n| n.round() != rec.round()) {
                let margin = if round_worst == i64::MAX {
                    0
                } else {
                    round_worst
                };
                (rounds, round_worst, worst) = (rounds + 1, i64::MAX, worst.min(margin));
                let at = lowest.partition_point(|&m| m <= margin);
                if keep > 1 && at < keep {
                    lowest.truncate(keep - 1);
                    lowest.insert(at, margin);
                }
            }
        }
        let worst_margin_ns = if rounds == 0 { 0 } else { worst };
        StreamOutcome {
            blocks: items.len() as u64,
            fetched,
            violations,
            lateness: lateness.summary(),
            start_latency: match (first_display, self.service_start) {
                (Some(ds), Some(ss)) => ds - ss,
                _ => Nanos::ZERO,
            },
            max_buffered,
            worst_margin_ns,
            p99_margin_ns: match (rounds.max(1) - 1) / 100 {
                0 => worst_margin_ns,
                k => lowest[k],
            },
            miss_burst: burst.max(run + (items.len() - serviced) as u64),
            first_violation,
            dropped_blocks,
            retries: self.retries,
            revokes: self.revokes,
            recovery_time: self.recovery_time,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three items 100 ms apart on strand `strand`.
    fn schedule_on(strand: u64) -> PlaySchedule {
        let item_at = |ms: u64| PlayItem {
            at: Nanos::from_millis(ms),
            medium: strandfs_media::Medium::Video,
            strand: strandfs_core::StrandId::from_raw(strand),
            block: 0,
            units: 1,
            duration: Nanos::from_millis(100),
            silence: false,
        };
        PlaySchedule {
            items: vec![item_at(0), item_at(100), item_at(200)].into(),
            duration: Nanos::from_millis(300),
            triggers: Vec::new(),
        }
    }

    /// A deliberately starved stream: the display clock consumes items
    /// faster than fetches complete, so `fetched_by < j` for late items
    /// and the backlog computation must clamp at zero, not underflow.
    #[test]
    fn starved_stream_backlog_clamps_to_zero() {
        let mut state = StreamState::new(0, schedule_on(1), 1);
        state.service_start = Some(Instant::EPOCH);
        state.first_epoch.display_start = Some(Instant::EPOCH);
        // Only the first fetch lands before its deadline; the rest
        // straggle in long after the display has moved past them.
        state.served = [0, 500, 600]
            .iter()
            .zip(0..)
            .map(|(ms, round)| Served::new(Instant::EPOCH + Nanos::from_millis(*ms), round, false))
            .collect();
        let out = state.outcome(&ObsSink::noop());
        assert_eq!(out.violations, 2);
        // When item 2 plays (t = 200 ms) only one fetch is resident:
        // backlog saturates to 0 rather than wrapping.
        assert_eq!(out.max_buffered, 1);
    }

    /// A stream fetched ahead of its display, then revoked and
    /// re-admitted: the second epoch opens before the first had played
    /// out, so its deadlines restart *below* the first's and the
    /// backlog cursor steps back with them.
    #[test]
    fn backlog_cursor_steps_back_at_an_epoch_boundary() {
        let at = |ms| Instant::EPOCH + Nanos::from_millis(ms);
        let mut state = StreamState::new(0, schedule_on(1), 1);
        state.service_start = Some(at(0));
        state.first_epoch.display_start = Some(at(0));
        state.later_epochs.push(Epoch {
            first_item: 2,
            display_start: Some(at(60)),
            resumed_at: Some(at(30)),
        });
        state.served = vec![
            Served::new(at(0), 0, false),
            Served::new(at(10), 0, false),
            Served::new(at(80), 1, false),
        ];
        // Deadlines 0, 100, then 60 under the second epoch: item 1 plays
        // with all three fetches resident (3 − 1), item 2 — 20 ms late —
        // with the first two (2 − 2).
        let naive = (0..3)
            .map(|j| {
                let deadline = state.deadline_of(j).unwrap();
                let resident = state.served.iter().filter(|s| s.done <= deadline).count();
                resident.saturating_sub(j) as u64
            })
            .max();
        let out = state.outcome(&ObsSink::noop());
        assert_eq!(Some(out.max_buffered), naive);
        assert_eq!(out.max_buffered, 2);
        assert_eq!(out.violations, 1);
    }

    /// A stream driven through 175 rounds — varied margins, one late
    /// item, drop-only rounds, an epoch that never displays and a
    /// re-admitted one, a revocation to the end — reports the margins
    /// and burst a naive sort of its round margins and a walk of its
    /// items give. The 0 samples of the rounds with no known deadline
    /// are the p99 margin; the late item alone is the worst.
    #[test]
    fn margins_and_burst_match_a_naive_sort_and_walk() {
        const ITEMS: u64 = 240;
        let item_at = |j: u64| PlayItem {
            at: Nanos::from_millis(10 * j),
            medium: strandfs_media::Medium::Video,
            strand: strandfs_core::StrandId::from_raw(1),
            block: j,
            units: 1,
            duration: Nanos::from_millis(10),
            silence: j % 7 == 3,
        };
        let schedule = PlaySchedule {
            items: (0..ITEMS).map(item_at).collect(),
            duration: Nanos::from_millis(10 * ITEMS),
            triggers: Vec::new(),
        };
        let obs = ObsSink::noop();
        let mut state = StreamState::new(0, schedule, 2);
        let mut round = 0;
        // One turn of `fetch` items: each lands its margin early (a
        // varied 1–6 ms), or `late_by` past its deadline, or on the
        // clock before its epoch displays.
        let turn = |state: &mut StreamState, round: &mut u64, fetch: u64, late_by: u64| {
            let clock = state.last_completion();
            state.begin_turn(*round, clock, clock);
            for _ in 0..fetch {
                let j = state.next_index() as u64;
                let done = match state.next_deadline() {
                    Some(d) if late_by > 0 => d + Nanos::from_micros(late_by),
                    Some(d) => d - Nanos::from_micros(1_000 + j * 7_919 % 5_000),
                    None => state.last_completion() + Nanos::from_micros(100),
                };
                let done = done.max(state.last_completion());
                state.record(done, done, &obs);
            }
            state.end_turn(state.last_completion(), &obs);
            *round += 1;
        };
        let drop_turn = |state: &mut StreamState, round: &mut u64, drops: u64, revoke_after| {
            let at = state.last_completion();
            state.begin_turn(*round, at, at);
            for _ in 0..drops {
                state.record_drop(at, at, revoke_after, &obs);
            }
            *round += 1;
        };
        // Epoch 0: 160 items over 140 rounds, every seventh round two
        // items, item 50 late by 4 ms, three drop-only rounds.
        while state.next_index() < 160 {
            let late = if state.next_index() == 50 { 4_000 } else { 0 };
            let fetch = 1 + u64::from(round % 7 == 0);
            turn(&mut state, &mut round, fetch, late);
            if matches!(round, 30 | 80 | 120) {
                let drops = 1 + round % 3;
                drop_turn(&mut state, &mut round, drops, u64::MAX);
            }
        }
        // Revoke; re-admit into an epoch whose read-ahead never fills,
        // so its four rounds know no deadline; revoke and re-admit again.
        drop_turn(&mut state, &mut round, 1, 1);
        let resume = state.last_completion() + Nanos::from_millis(20);
        state.readmit(round, resume, &obs);
        state.set_read_ahead(1_000);
        for _ in 0..4 {
            turn(&mut state, &mut round, 2, 0);
        }
        drop_turn(&mut state, &mut round, 1, 1);
        let resume = state.last_completion() + Nanos::from_millis(20);
        state.readmit(round, resume, &obs);
        state.set_read_ahead(2);
        // Epoch 2: thirty rounds, then six drops revoke the stream with
        // the rest of the schedule unserviced.
        for _ in 0..30 {
            turn(&mut state, &mut round, 1, 0);
        }
        drop_turn(&mut state, &mut round, 6, 6);
        assert!(state.is_revoked());

        // Naive: every round's tightest known margin (0 if none), fully
        // sorted; a walk of the items for the longest run of misses.
        let mut margins = Vec::new();
        let mut j = 0;
        while j < state.served.len() {
            let (r, mut worst) = (state.served[j].round(), None::<i64>);
            while j < state.served.len() && state.served[j].round() == r {
                let rec = state.served[j];
                if let (false, Some(d)) = (rec.dropped(), state.deadline_of(j)) {
                    let m = signed_margin(d, rec.done);
                    worst = Some(worst.map_or(m, |w| w.min(m)));
                }
                j += 1;
            }
            margins.push(worst.unwrap_or(0));
        }
        margins.sort_unstable();
        let (mut burst, mut run) = (0, 0);
        for j in 0..ITEMS as usize {
            let miss = state.served.get(j).is_none_or(|rec| {
                rec.dropped() || state.deadline_of(j).is_some_and(|d| rec.done > d)
            });
            run = if miss { run + 1 } else { 0 };
            burst = burst.max(run);
        }
        let n = margins.len();
        assert!((150..=200).contains(&n), "{n} rounds");
        let out = state.outcome(&obs);
        assert_eq!(out.worst_margin_ns, margins[0]);
        assert_eq!(out.p99_margin_ns, margins[(n - 1) / 100]);
        assert_eq!(out.miss_burst, burst);
        // The scenario separates the rules it checks.
        assert_eq!((out.worst_margin_ns, out.p99_margin_ns), (-4_000_000, 0));
        // Six drop-only rounds and four that knew no deadline.
        assert_eq!(margins.iter().filter(|&&m| m == 0).count(), 10);
        assert_eq!(
            out.miss_burst,
            6 + (ITEMS as usize - state.served.len()) as u64
        );
    }

    /// Viewers of one copy share its items, and a failover swaps that
    /// one pointer: every record, epoch and offset stays where it was.
    #[test]
    fn repin_swaps_the_items_pointer_and_nothing_else() {
        let (here, there) = (schedule_on(1), schedule_on(2));
        let obs = ObsSink::noop();
        let mut state = StreamState::new(0, here.clone(), 1);
        let other = StreamState::new(1, here.clone(), 1);
        assert!(Arc::ptr_eq(&state.items, &here.items));
        assert!(Arc::ptr_eq(&state.items, &other.items));

        let at = |ms| Instant::EPOCH + Nanos::from_millis(ms);
        state.begin_turn(4, at(10), at(10));
        state.record(at(20), at(20), &obs);
        state.record_drop(at(30), at(30), u64::MAX, &obs);
        let records = |s: &StreamState| -> Vec<_> {
            s.served
                .iter()
                .map(|r| (r.done, r.round(), r.dropped()))
                .collect()
        };
        let before = records(&state);
        assert_eq!(before, [(at(20), 4, false), (at(30), 4, true)]);

        state.repin(&there).expect("same shape");
        assert!(Arc::ptr_eq(&state.items, &there.items));
        assert!(
            Arc::ptr_eq(&other.items, &here.items),
            "only this viewer moved"
        );
        assert_eq!(records(&state), before);
        assert_eq!(state.service_start, Some(at(10)));
        assert_eq!(state.first_epoch.display_start, Some(at(20)));
        assert!(state.later_epochs.is_empty());
        assert_eq!(state.next_index(), 2);
        assert_eq!(state.next_item().strand, there.items[2].strand);
        assert_eq!(state.next_deadline(), Some(at(220)));
    }
}

//! The reference service loop: a direct transliteration of the original
//! (pre-optimization) `simulate_degraded`, kept as an executable
//! specification for the reworked hot path in [`crate::playback`].
//!
//! It differs from the seed loop only by the three round-bookkeeping
//! fixes that landed with the rework (documented inline): arrival
//! read-ahead sized from the live active population, idle all-revoked
//! rounds advancing the virtual clock, and CSCAN support. Everything
//! else is deliberately naive — a fresh `active` vector each round, a
//! stable `sort_by_key` that re-probes the strand index for every key
//! invocation, payload-carrying block reads — so the optimized loop has
//! something slow-but-obviously-correct to be compared against.
//!
//! `tests/proptests_sim.rs` pins the two loops to each other
//! report-for-report across random scenarios, faults, degrade modes,
//! service orders and arrivals; `tests/service_round_regressions.rs` uses the naive
//! sort's probe count to demonstrate the O(n log n) key re-invocation
//! the memo removes.

use crate::metrics::{NanosSummary, SimReport, StreamOutcome};
use crate::playback::{count_lba_probe, Arrival, DegradeMode, ServiceOrder};
use strandfs_core::mrs::{Mrs, PlaySchedule};
use strandfs_core::msm::{BlockFetch, Fetch};
use strandfs_core::FsError;
use strandfs_obs::{DegradeAction, Event, ObsSink};
use strandfs_units::{Instant, Nanos};

fn signed_margin(deadline: Instant, done: Instant) -> i64 {
    if done <= deadline {
        (deadline - done).as_nanos() as i64
    } else {
        -((done - deadline).as_nanos() as i64)
    }
}

struct Epoch {
    first_item: usize,
    display_start: Option<Instant>,
    /// Re-admission instant for post-revocation epochs (`None` for the
    /// initial epoch) — the time-to-first-frame anchor.
    resumed_at: Option<Instant>,
}

struct StreamState {
    schedule: PlaySchedule,
    completions: Vec<Instant>,
    fetch_rounds: Vec<u64>,
    dropped: Vec<bool>,
    next: usize,
    read_ahead: u64,
    service_start: Option<Instant>,
    epochs: Vec<Epoch>,
    retries: u64,
    drops_since_admit: u64,
    revoked_at: Option<Instant>,
    revokes: u64,
    recovery_time: Nanos,
    /// Live deadline-emission pointer (see the optimized loop's
    /// `StreamState::deadline_emitted`).
    deadline_emitted: usize,
}

impl StreamState {
    fn new(schedule: PlaySchedule, read_ahead: u64) -> Self {
        let n = schedule.items.len();
        StreamState {
            schedule,
            completions: Vec::with_capacity(n),
            fetch_rounds: Vec::with_capacity(n),
            dropped: Vec::with_capacity(n),
            next: 0,
            read_ahead,
            service_start: None,
            epochs: vec![Epoch {
                first_item: 0,
                display_start: None,
                resumed_at: None,
            }],
            retries: 0,
            drops_since_admit: 0,
            revoked_at: None,
            revokes: 0,
            recovery_time: Nanos::ZERO,
            deadline_emitted: 0,
        }
    }

    fn finished(&self) -> bool {
        self.next >= self.schedule.items.len()
    }

    fn deadline_of(&self, j: usize) -> Option<Instant> {
        let ep = self.epochs.iter().rev().find(|e| e.first_item <= j)?;
        let ds = ep.display_start?;
        let base = self.schedule.items[ep.first_item].at;
        Some(ds + (self.schedule.items[j].at - base))
    }

    /// Live deadline emission, transliterated from the optimized
    /// loop's `StreamState::emit_due_deadlines`.
    fn emit_due_deadlines(&mut self, stream: usize, obs: &ObsSink) {
        if !obs.is_enabled() {
            return;
        }
        while self.deadline_emitted < self.completions.len() {
            let j = self.deadline_emitted;
            if self.dropped[j] {
                self.deadline_emitted += 1;
                continue;
            }
            let pos = self
                .epochs
                .iter()
                .rposition(|e| e.first_item <= j)
                .expect("epoch 0 covers every item");
            match self.epochs[pos].display_start {
                Some(_) => {
                    let deadline = self.deadline_of(j).expect("covering epoch has started");
                    let done = self.completions[j];
                    let round = self.fetch_rounds[j];
                    obs.emit(|| Event::Deadline {
                        stream,
                        item: j as u64,
                        round,
                        deadline,
                        completed: done,
                    });
                    self.deadline_emitted += 1;
                }
                None if pos + 1 == self.epochs.len() => break,
                None => self.deadline_emitted += 1,
            }
        }
    }

    fn outcome(&self, stream: usize, obs: &ObsSink) -> StreamOutcome {
        let items = &self.schedule.items;
        let serviced = self.completions.len();
        debug_assert!(
            self.completions.windows(2).all(|w| w[0] <= w[1]),
            "fetch completions must be non-decreasing"
        );
        let mut dropped_blocks = (items.len() - serviced) as u64;
        let mut fetched = 0u64;
        let mut violations = 0u64;
        let mut lateness = Vec::new();
        let mut first_violation = None;
        let first_display = self.epochs.first().and_then(|e| e.display_start);
        for (j, item) in items.iter().enumerate().take(serviced) {
            if self.dropped[j] {
                dropped_blocks += 1;
                continue;
            }
            if !item.silence {
                fetched += 1;
            }
            let Some(deadline) = self.deadline_of(j) else {
                continue;
            };
            let done = self.completions[j];
            if j >= self.deadline_emitted {
                obs.emit(|| Event::Deadline {
                    stream,
                    item: j as u64,
                    round: self.fetch_rounds[j],
                    deadline,
                    completed: done,
                });
            }
            if done > deadline {
                violations += 1;
                lateness.push(done - deadline);
                if first_violation.is_none() {
                    if let Some(ds) = first_display {
                        first_violation = Some(deadline - ds);
                    }
                }
            }
        }
        // Every round's tightest margin (0 when it fetched only drops or
        // pre-display items), fully sorted.
        let mut margins = Vec::new();
        let mut j = 0;
        while j < serviced {
            let round = self.fetch_rounds[j];
            let mut worst = i64::MAX;
            while j < serviced && self.fetch_rounds[j] == round {
                if !self.dropped[j] {
                    if let Some(deadline) = self.deadline_of(j) {
                        worst = worst.min(signed_margin(deadline, self.completions[j]));
                    }
                }
                j += 1;
            }
            margins.push(if worst == i64::MAX { 0 } else { worst });
        }
        margins.sort_unstable();
        // The miss burst, walked on its own: an item misses if it was
        // dropped, never serviced or late.
        let (mut miss_burst, mut run) = (0, 0);
        for j in 0..items.len() {
            let late = || {
                self.deadline_of(j)
                    .is_some_and(|deadline| self.completions[j] > deadline)
            };
            run = if j >= serviced || self.dropped[j] || late() {
                run + 1
            } else {
                0
            };
            miss_burst = miss_burst.max(run);
        }
        let mut max_buffered = 0u64;
        for j in 0..serviced {
            let Some(deadline) = self.deadline_of(j) else {
                continue;
            };
            let fetched_by = self.completions.partition_point(|c| *c <= deadline);
            max_buffered = max_buffered.max((fetched_by as u64).saturating_sub(j as u64));
        }
        StreamOutcome {
            blocks: items.len() as u64,
            fetched,
            violations,
            lateness: NanosSummary::of(lateness),
            start_latency: match (first_display, self.service_start) {
                (Some(ds), Some(ss)) => ds - ss,
                _ => Nanos::ZERO,
            },
            max_buffered,
            worst_margin_ns: margins.first().copied().unwrap_or(0),
            p99_margin_ns: match margins.len() {
                0 => 0,
                n => margins[(n - 1) / 100],
            },
            miss_burst,
            first_violation,
            dropped_blocks,
            retries: self.retries,
            revokes: self.revokes,
            recovery_time: self.recovery_time,
        }
    }
}

fn set_read_ahead(state: &mut StreamState, k_now: u64, read_ahead_of_k: &impl Fn(u64) -> u64) {
    state.read_ahead = read_ahead_of_k(k_now).max(1);
}

/// Disk address of a stream's next non-silence block (`u64::MAX` when
/// only silence or nothing remains, sorting it last). Probes the strand
/// index on every call — this is the seed behavior the memoized loop
/// replaces, and each call bumps the shared probe counter.
fn next_lba(mrs: &Mrs, state: &StreamState) -> u64 {
    count_lba_probe();
    state.schedule.items[state.next..]
        .iter()
        .find(|item| !item.silence)
        .and_then(|item| {
            mrs.msm()
                .strand(item.strand)
                .ok()
                .and_then(|s| s.block(item.block).ok())
                .flatten()
                .map(|e| e.start)
        })
        .unwrap_or(u64::MAX)
}

/// The reference implementation of
/// [`crate::playback::simulate_degraded`]: identical observable
/// behavior, naive hot path. See the module docs for what "identical"
/// covers.
#[allow(clippy::too_many_arguments)]
pub fn simulate_degraded_reference(
    mrs: &mut Mrs,
    streams: Vec<PlaySchedule>,
    arrivals: Vec<Arrival>,
    read_ahead_of_k: impl Fn(u64) -> u64,
    mut k_of_round: impl FnMut(u64, usize) -> u64,
    order_policy: ServiceOrder,
    degrade: DegradeMode,
) -> Result<SimReport, FsError> {
    let mut states: Vec<StreamState> = Vec::new();
    let mut order: Vec<usize> = Vec::new();
    let initial_k = k_of_round(0, streams.len().max(1));
    for s in streams {
        order.push(states.len());
        states.push(StreamState::new(s, read_ahead_of_k(initial_k)));
    }
    let mut pending: Vec<(u64, usize)> = Vec::new();
    for a in arrivals {
        let idx = states.len();
        states.push(StreamState::new(a.schedule, 0));
        pending.push((a.at_round, idx));
    }

    let busy_before = mrs.msm().disk().stats().busy_time();
    let obs = mrs.msm().obs();
    let mut t = Instant::EPOCH;
    let mut round: u64 = 0;
    let mut clean_streak: u64 = 0;
    let mut sweep_pos: u64 = 0;
    loop {
        // Activate arrivals due this round. (Bugfix vs seed: read-ahead
        // is sized below from the live active population, not from
        // `order.len()` which still counts finished/revoked streams.)
        let mut activated: Vec<usize> = Vec::new();
        pending.retain(|(at, idx)| {
            if *at <= round {
                order.push(*idx);
                activated.push(*idx);
                false
            } else {
                true
            }
        });
        if let DegradeMode::Ladder {
            readmit_clean_rounds,
            ..
        } = degrade
        {
            if clean_streak >= readmit_clean_rounds {
                for (idx, state) in states.iter_mut().enumerate() {
                    if let Some(since) = state.revoked_at.take() {
                        state.recovery_time += t - since;
                        state.drops_since_admit = 0;
                        state.epochs.push(Epoch {
                            first_item: state.next,
                            display_start: None,
                            resumed_at: Some(t),
                        });
                        let item = state.next as u64;
                        obs.emit(|| Event::Degrade {
                            stream: idx,
                            round,
                            item,
                            action: DegradeAction::Readmit,
                            at: t,
                        });
                    }
                }
            }
        }
        let mut active: Vec<usize> = order
            .iter()
            .copied()
            .filter(|i| !states[*i].finished() && states[*i].revoked_at.is_none())
            .collect();
        if active.is_empty() {
            let revoked_live: Vec<usize> = order
                .iter()
                .copied()
                .filter(|i| !states[*i].finished() && states[*i].revoked_at.is_some())
                .collect();
            if pending.is_empty() && revoked_live.is_empty() {
                break;
            }
            if !revoked_live.is_empty() {
                // Bugfix vs seed: an all-revoked round advances the
                // virtual clock by its playback span instead of
                // freezing `t`, so recovery-time accounting covers the
                // whole outage.
                let k_idle = k_of_round(round, revoked_live.len()).max(1);
                let min_dur = revoked_live
                    .iter()
                    .map(|i| {
                        let s = &states[*i];
                        s.schedule.items[s.next].duration
                    })
                    .min()
                    .unwrap_or(Nanos::ZERO);
                let advanced = Nanos::from_nanos(k_idle.saturating_mul(min_dur.as_nanos()));
                let at = t;
                obs.emit(|| Event::RoundIdle {
                    round,
                    at,
                    advanced,
                });
                t += advanced;
            }
            clean_streak += 1;
            round += 1;
            continue;
        }
        let k = k_of_round(round, active.len()).max(1);
        for &idx in &activated {
            set_read_ahead(&mut states[idx], k, &read_ahead_of_k);
        }
        match order_policy {
            ServiceOrder::RoundRobin => {}
            ServiceOrder::Scan => {
                // The seed's stable by-key sort: the key function is
                // re-invoked O(n log n) times per round.
                active.sort_by_key(|&i| next_lba(mrs, &states[i]));
            }
            ServiceOrder::Cscan => {
                let mut keyed: Vec<(u64, usize)> = active
                    .iter()
                    .enumerate()
                    .map(|(pos, &i)| (next_lba(mrs, &states[i]), pos))
                    .collect();
                keyed.sort_unstable();
                let start = keyed.partition_point(|&(lba, _)| lba < sweep_pos);
                let swept: Vec<usize> = keyed[start..]
                    .iter()
                    .chain(keyed[..start].iter())
                    .map(|&(_, pos)| active[pos])
                    .collect();
                sweep_pos = if start > 0 {
                    keyed[start - 1].0
                } else {
                    keyed.last().expect("active is non-empty").0
                };
                active = swept;
            }
        }
        obs.emit(|| Event::RoundStart {
            round,
            active: active.len(),
            k,
            at: t,
        });
        let round_share: Option<Nanos> = match degrade {
            DegradeMode::Strict | DegradeMode::Abandon => None,
            DegradeMode::Ladder { .. } => mrs
                .msm()
                .admission_ref()
                .eq18_slack()
                .map(|s| Nanos::from_nanos(s.as_nanos() / (active.len() as u64 * k).max(1))),
        };
        let mut round_faults = false;
        for idx in active {
            let state = &mut states[idx];
            if state.service_start.is_none() {
                state.service_start = Some(t);
            }
            let turn_begin = t;
            let mut turn_blocks = 0u64;
            let mut revoked_now = false;
            for _ in 0..k {
                if state.finished() || revoked_now {
                    break;
                }
                let j = state.next;
                let item = state.schedule.items[j];
                if item.silence {
                    state.completions.push(t);
                    state.dropped.push(false);
                } else if matches!(degrade, DegradeMode::Strict) {
                    let (_payload, op) =
                        mrs.msm_mut()
                            .read_block(item.strand, item.block, t, Fetch::default())?;
                    let op = op.ok_or(FsError::InvalidScenario {
                        reason: "non-silence schedule item resolves to a silence hole",
                    })?;
                    t = op.completed;
                    state.completions.push(t);
                    state.dropped.push(false);
                } else {
                    let budget = match degrade {
                        DegradeMode::Abandon => Nanos::ZERO,
                        _ => round_share.unwrap_or(item.duration),
                    };
                    let deadline = state.deadline_of(j);
                    match mrs.msm_mut().fetch_block(
                        item.strand,
                        item.block,
                        t,
                        budget,
                        deadline,
                        Fetch::default(),
                    )? {
                        BlockFetch::Silence => {
                            return Err(FsError::InvalidScenario {
                                reason: "non-silence schedule item resolves to a silence hole",
                            })
                        }
                        BlockFetch::Data { op, retries } => {
                            // The naive loop carries every payload it reads.
                            let _payload = mrs.msm().disk().fetch_data(op.extent);
                            t = op.completed;
                            if retries > 0 {
                                round_faults = true;
                                state.retries += retries as u64;
                            }
                            state.completions.push(t);
                            state.dropped.push(false);
                        }
                        BlockFetch::Failed { at, retries, .. } => {
                            round_faults = true;
                            state.retries += retries as u64;
                            t = t.max(at);
                            state.completions.push(t);
                            state.dropped.push(true);
                            state.drops_since_admit += 1;
                            let drop_at = t;
                            obs.emit(|| Event::Degrade {
                                stream: idx,
                                round,
                                item: j as u64,
                                action: DegradeAction::DropBlock,
                                at: drop_at,
                            });
                            if let DegradeMode::Ladder {
                                revoke_after_drops, ..
                            } = degrade
                            {
                                if state.drops_since_admit >= revoke_after_drops.max(1) {
                                    state.revoked_at = Some(t);
                                    state.revokes += 1;
                                    revoked_now = true;
                                    obs.emit(|| Event::Degrade {
                                        stream: idx,
                                        round,
                                        item: j as u64,
                                        action: DegradeAction::Revoke,
                                        at: drop_at,
                                    });
                                }
                            }
                        }
                    }
                }
                state.fetch_rounds.push(round);
                state.next += 1;
                turn_blocks += 1;
                let finished = state.finished();
                let read_ahead = state.read_ahead;
                let ep = state.epochs.last_mut().expect("epochs never empty");
                if ep.display_start.is_none()
                    && ((state.next - ep.first_item) as u64 >= read_ahead || finished)
                {
                    ep.display_start = Some(t);
                    let anchor = ep.resumed_at.or(state.service_start).unwrap_or(t);
                    obs.emit(|| Event::DisplayStart {
                        stream: idx,
                        at: t,
                        latency: t - anchor,
                    });
                }
            }
            state.emit_due_deadlines(idx, &obs);
            obs.emit(|| Event::StreamService {
                stream: idx,
                round,
                begin: turn_begin,
                end: t,
                blocks: turn_blocks,
            });
        }
        obs.emit(|| Event::RoundEnd { round, at: t });
        if round_faults {
            clean_streak = 0;
        } else {
            clean_streak += 1;
        }
        round += 1;
    }

    Ok(SimReport {
        streams: states
            .iter()
            .enumerate()
            .map(|(i, s)| s.outcome(i, &obs))
            .collect(),
        disk_busy: mrs.msm().disk().stats().busy_time() - busy_before,
        rounds: round,
    })
}

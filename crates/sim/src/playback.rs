//! Round-robin playback simulation against the simulated disk.
//!
//! Mirrors the service discipline of §3.4: the server proceeds in
//! rounds, transferring `k` consecutive blocks per active request before
//! switching to the next, paying real (simulated) seek, rotation and
//! transfer time for every fetch — including the inter-request
//! repositioning the paper bounds by `l_seek_max`.
//!
//! Each stream's display starts once its read-ahead is buffered; from
//! then on block `j` must be resident by `display_start + deadline_j`.
//! Every late block is a continuity violation.

use crate::metrics::SimReport;
use crate::stream::StreamState;
use strandfs_core::mrs::{Mrs, PlayItem, PlaySchedule};
use strandfs_core::msm::{BlockFetch, Fetch};
use strandfs_core::FsError;
use strandfs_obs::Event;
use strandfs_units::{Instant, Nanos};

/// How active streams are ordered within each service round.
///
/// The paper's admission analysis assumes round-robin in arrival order
/// and budgets `l_seek_max` per switch; its future work (§6.2) proposes
/// "servicing requests in the order that minimizes the separations
/// between blocks". [`ServiceOrder::Scan`] implements the classic
/// version: each round visits streams in ascending order of their next
/// block's disk address, one elevator sweep per round.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ServiceOrder {
    /// Fixed arrival order (the paper's baseline).
    #[default]
    RoundRobin,
    /// Ascending-address sweep each round.
    Scan,
    /// Circular SCAN: one ascending sweep per round that *starts from
    /// the head's position after the previous round* instead of
    /// restarting at the lowest address — streams below the sweep
    /// position wrap to the end of the round. At 100k streams per round
    /// this keeps the arm moving in one direction across round
    /// boundaries instead of paying a full-stroke seek back to LBA 0
    /// every round.
    Cscan,
}

/// What the server does when a block fetch faults (the device injected
/// a media error, the transient-retry budget ran out, or the block's
/// deadline had already passed).
///
/// The first rung of every policy is free: a late-but-successful block
/// first consumes the stream's read-ahead `h`, absorbing lateness
/// without any visible artifact. These modes govern what happens when a
/// fetch *fails* outright.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum DegradeMode {
    /// Faults abort the simulation as [`FsError`]s — the pre-fault
    /// behavior, appropriate when the volume is supposed to be clean.
    #[default]
    Strict,
    /// Drop the faulted block immediately with no retry, splicing a
    /// silence/freeze-frame hole (the NULL-primary-pointer mechanism).
    /// The baseline E13 contrasts against.
    Abandon,
    /// The full degradation ladder: retry transient faults within the
    /// Eq. 18 slack budget; drop the block if the budget runs out; and
    /// when a single stream keeps faulting, revoke it through admission
    /// control so the survivors keep their continuity guarantee,
    /// re-admitting it once the fault window clears.
    Ladder {
        /// Drops a stream tolerates (since admission) before it is
        /// revoked.
        revoke_after_drops: u64,
        /// Consecutive fault-free rounds before revoked streams are
        /// re-admitted.
        readmit_clean_rounds: u64,
    },
}

/// Configuration of a playback simulation.
#[derive(Clone, Copy, Debug)]
pub struct PlaybackConfig {
    /// Blocks transferred per request per round (the paper's `k`).
    pub k: u64,
    /// Blocks buffered before a stream's display starts. The paper's
    /// averaged-continuity analysis calls for `k`; pass more to add
    /// anti-jitter margin.
    pub read_ahead: u64,
    /// Intra-round service order.
    pub order: ServiceOrder,
    /// Fault-degradation policy.
    pub degrade: DegradeMode,
}

impl PlaybackConfig {
    /// The standard configuration: read-ahead equal to the round size,
    /// round-robin order, strict (fault-free) service.
    pub fn with_k(k: u64) -> Self {
        PlaybackConfig {
            k,
            read_ahead: k,
            order: ServiceOrder::RoundRobin,
            degrade: DegradeMode::Strict,
        }
    }

    /// Switch to SCAN-ordered rounds.
    pub fn scan(mut self) -> Self {
        self.order = ServiceOrder::Scan;
        self
    }

    /// Switch to CSCAN-ordered rounds (circular sweep).
    pub fn cscan(mut self) -> Self {
        self.order = ServiceOrder::Cscan;
        self
    }

    /// Set the fault-degradation policy.
    pub fn degraded(mut self, mode: DegradeMode) -> Self {
        self.degrade = mode;
        self
    }
}

/// A stream joining the simulation mid-flight (admission experiments).
#[derive(Clone, Debug)]
pub struct Arrival {
    /// The round at whose start the stream enters service.
    pub at_round: u64,
    /// Its compiled schedule.
    pub schedule: PlaySchedule,
}

/// Simulate round-robin service of `streams` (all present from round 0)
/// plus `arrivals` (joining later), with the round size chosen each round
/// by `k_of_round(round, active_streams)`.
///
/// Returns per-stream outcomes in the order: `streams`, then `arrivals`.
/// Fails with [`FsError`] when a schedule references blocks the volume
/// does not hold (scenario construction error), instead of panicking.
pub fn simulate_with_arrivals(
    mrs: &mut Mrs,
    streams: Vec<PlaySchedule>,
    arrivals: Vec<Arrival>,
    read_ahead_of_k: impl Fn(u64) -> u64,
    k_of_round: impl FnMut(u64, usize) -> u64,
) -> Result<SimReport, FsError> {
    simulate_degraded(
        mrs,
        streams,
        arrivals,
        read_ahead_of_k,
        k_of_round,
        ServiceOrder::RoundRobin,
        DegradeMode::Strict,
    )
}

/// The full simulation loop: arrivals, service order and a fault
/// degradation policy.
///
/// The loop is written for scale: per-round state (`active`, the SCAN
/// key table, the sweep order) lives in buffers reused across rounds,
/// SCAN keys are memoized per stream instead of re-probed inside the
/// sort, every read is a payload-free [`Msm::fetch_block`], and the
/// per-round Eq. 18 slack query is O(1) against the admission
/// controller's incremental cache. After the first few rounds warm the
/// buffers, a round allocates nothing — 100k-stream rounds run at a flat
/// memory footprint (`tests/alloc_steady.rs` pins this). Under SCAN and
/// CSCAN the streams are stored in first-sweep order, so a sweep walks
/// its streams' memory in order; everything observable keeps stream
/// index and activation order. Per-stream accounting lives in
/// [`StreamState`]; this loop decides only what to fetch, in which
/// order, and what a fault costs.
/// `crates/sim/src/reference.rs` keeps a direct transliteration of the
/// seed loop; a property test pins this implementation to it
/// report-for-report.
///
/// [`Msm::fetch_block`]: strandfs_core::msm::Msm::fetch_block
#[allow(clippy::too_many_arguments)]
pub fn simulate_degraded(
    mrs: &mut Mrs,
    streams: Vec<PlaySchedule>,
    arrivals: Vec<Arrival>,
    read_ahead_of_k: impl Fn(u64) -> u64,
    mut k_of_round: impl FnMut(u64, usize) -> u64,
    order_policy: ServiceOrder,
    degrade: DegradeMode,
) -> Result<SimReport, FsError> {
    let sweeps = order_policy != ServiceOrder::RoundRobin;
    let initial_k = k_of_round(0, streams.len().max(1));
    let total = streams.len() + arrivals.len();
    // The sweep's memo, one slot per stream: `(lba, item)` — the disk
    // address of the stream's first non-silence schedule item at or
    // after `item` (`u64::MAX`/`usize::MAX` once only silence remains).
    // Valid while the stream's next index has not passed `item`: every
    // item in between was silence, so advancing through that run cannot
    // change which block the arm would seek to. One index probe per
    // *consumed stored block*, instead of the O(n log n) probes per
    // round a sort key re-invocation costs.
    let mut lba_memo: Vec<Option<(u64, usize)>> = Vec::with_capacity(total);
    // Storage order. A sweep serves streams in address order, and a
    // turn's work is appending records to the stream's own buffer, so
    // under SCAN/CSCAN the initial streams are laid out — states and the
    // record buffers they allocate, in that order — by first-sweep key:
    // (LBA of the first stored block, stream index), what round 0 sorts
    // by. Its probe is made here and left in the memo for round 0.
    // Arrivals follow in arrival-list order; their slot is their index.
    let mut first: Vec<(usize, Option<(u64, usize)>)> = streams
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let probe = (sweeps && !s.items.is_empty()).then(|| next_lba_probe(mrs, &s.items, 0));
            (i, probe)
        })
        .collect();
    first.sort_unstable_by_key(|&(i, probe)| (probe.map_or(u64::MAX, |p| p.0), i));
    // Stream index → storage slot: the report, re-admissions and the
    // end-of-run deadline flush run in index order through it.
    let mut slot_of: Vec<usize> = vec![0; streams.len()];
    let mut streams: Vec<Option<PlaySchedule>> = streams.into_iter().map(Some).collect();
    let mut states: Vec<StreamState> = Vec::with_capacity(total);
    // A slot's activation ordinal, its position in `order` (`u32::MAX`
    // until activated): sweep keys break address ties by it, so streams
    // at one address keep activation order whatever their slots.
    let mut ordinal: Vec<u32> = Vec::with_capacity(total);
    for (i, probe) in first {
        let s = streams[i].take().expect("each stream is laid out once");
        slot_of[i] = states.len();
        lba_memo.push(probe);
        ordinal.push(i as u32);
        states.push(StreamState::new(i, s, read_ahead_of_k(initial_k)));
    }
    // Admitted slots in activation order: the initial streams in index
    // order, then arrivals as they activate.
    let mut order: Vec<usize> = slot_of.clone();
    let mut pending: Vec<(u64, usize)> = Vec::new();
    for a in arrivals {
        // Placeholder read-ahead; fixed at activation below.
        let idx = states.len();
        states.push(StreamState::new(idx, a.schedule, 0));
        slot_of.push(idx);
        lba_memo.push(None);
        ordinal.push(u32::MAX);
        pending.push((a.at_round, idx));
    }

    let busy_before = mrs.msm().disk().stats().busy_time();
    let obs = mrs.msm().obs();
    let mut t = Instant::EPOCH;
    let mut round: u64 = 0;
    // Consecutive fault-free rounds — the ladder's re-admission signal.
    let mut clean_streak: u64 = 0;
    // Drops a stream rides out before it is revoked; only the ladder
    // revokes.
    let revoke_after = match degrade {
        DegradeMode::Ladder {
            revoke_after_drops, ..
        } => revoke_after_drops,
        DegradeMode::Strict | DegradeMode::Abandon => u64::MAX,
    };
    // Round-scoped buffers, allocated once and reused: the live active
    // set, streams activated this round, the SCAN key table and the
    // resulting sweep order.
    let mut active: Vec<usize> = Vec::with_capacity(order.len());
    let mut activated: Vec<usize> = Vec::new();
    let mut keys: Vec<(u64, u32, u32)> = Vec::new();
    let mut sweep: Vec<usize> = Vec::new();
    // CSCAN head position: the key of the last stream serviced in the
    // previous sweep; the next sweep continues upward from here.
    let mut sweep_pos: u64 = 0;
    loop {
        // Activate arrivals due this round. Their read-ahead is sized
        // below, once the round's live population — and with it the
        // round's k — is known; sizing from `order.len()` here would
        // count finished and revoked streams.
        activated.clear();
        pending.retain(|(at, idx)| {
            if *at <= round {
                ordinal[*idx] = order.len() as u32;
                order.push(*idx);
                activated.push(*idx);
                false
            } else {
                true
            }
        });
        // Ladder re-admission: once the fault window has stayed clear
        // long enough, revoked streams rejoin with a fresh display
        // epoch (their viewer resumes from where the freeze left off).
        if let DegradeMode::Ladder {
            readmit_clean_rounds,
            ..
        } = degrade
        {
            if clean_streak >= readmit_clean_rounds {
                for &slot in &slot_of {
                    states[slot].readmit(round, t, &obs);
                }
            }
        }
        active.clear();
        if sweeps {
            // The sweep sorts `active` anyway: collect it by walking
            // storage, which is (nearly) the order the sweep visits.
            active.extend(
                (0..states.len()).filter(|&i| ordinal[i] != u32::MAX && states[i].in_service()),
            );
        } else {
            active.extend(order.iter().copied().filter(|&i| states[i].in_service()));
        }
        if active.is_empty() {
            let revoked = || {
                order
                    .iter()
                    .map(|i| &states[*i])
                    .filter(|s| !s.finished() && s.is_revoked())
            };
            let revoked_live = revoked().count();
            if pending.is_empty() && revoked_live == 0 {
                break;
            }
            if revoked_live > 0 {
                // An all-revoked round does no I/O, but it is not free:
                // the revoked viewers' displays sit frozen while the
                // round passes. Advance the virtual clock by the round's
                // playback span (k blocks of the shortest next item
                // among the revoked streams) so `recovery_time` and the
                // readmit instants account for the full outage; the
                // seed loop froze `t` here and under-reported both.
                let k_idle = k_of_round(round, revoked_live).max(1);
                let min_dur = revoked()
                    .map(|s| s.next_item().duration)
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
            // Idle rounds see no faults: they count toward the clean
            // streak, so an all-revoked server still converges to
            // re-admission.
            clean_streak += 1;
            round += 1;
            continue;
        }
        let k = k_of_round(round, active.len()).max(1);
        // Fix the read-ahead of freshly activated arrivals from the
        // *live* round size — the same k their first round services
        // them with.
        for &idx in &activated {
            states[idx].set_read_ahead(read_ahead_of_k(k).max(1));
        }
        let service: &[usize] = match order_policy {
            ServiceOrder::RoundRobin => &active,
            ServiceOrder::Scan | ServiceOrder::Cscan => {
                // One ascending-address sweep: sort by the disk address
                // of each stream's next non-silence block. Keys come
                // from the per-stream memo (one index probe per consumed
                // stored block, amortized), break ties by activation
                // ordinal and carry the storage slot — exactly the
                // stable `sort_by_key` the seed loop ran over activation
                // order, without re-invoking the key O(n log n) times.
                keys.clear();
                for &i in &active {
                    let lba = next_lba_memo(mrs, &states[i], &mut lba_memo[i]);
                    keys.push((lba, ordinal[i], i as u32));
                }
                keys.sort_unstable();
                let start = match order_policy {
                    // CSCAN: continue the sweep from where the last
                    // round's arm stopped; lower-addressed streams wrap
                    // to the end of this round.
                    ServiceOrder::Cscan => keys.partition_point(|&(lba, ..)| lba < sweep_pos),
                    _ => 0,
                };
                sweep.clear();
                sweep.extend(
                    keys[start..]
                        .iter()
                        .chain(keys[..start].iter())
                        .map(|&(.., slot)| slot as usize),
                );
                sweep_pos = if start > 0 {
                    keys[start - 1].0
                } else {
                    keys.last().expect("active is non-empty").0
                };
                &sweep
            }
        };
        obs.emit(|| Event::RoundStart {
            round,
            active: active.len(),
            k,
            at: t,
        });
        // Per-fetch transient-retry budget: the live Eq. 18 round slack
        // split evenly across the round's n·k fetches, so retrying here
        // can never push another stream past its continuity bound. With
        // no admitted requests (overload experiments bypass admission)
        // each fetch falls back to its own block's playback duration —
        // the slack one block of read-ahead buys.
        let round_share: Option<Nanos> = match degrade {
            DegradeMode::Strict | DegradeMode::Abandon => None,
            DegradeMode::Ladder { .. } => mrs
                .msm()
                .admission_ref()
                .eq18_slack()
                .map(|s| Nanos::from_nanos(s.as_nanos() / (active.len() as u64 * k).max(1))),
        };
        let mut round_faults = false;
        for &idx in service {
            let state = &mut states[idx];
            state.begin_turn(round, t, t);
            for _ in 0..k {
                if !state.in_service() {
                    break;
                }
                let item = state.next_item();
                if !item.silence {
                    // Strict and Abandon never retry, and Strict never
                    // gives a block up for its deadline either: every
                    // fault it meets aborts the simulation.
                    let (budget, deadline) = match degrade {
                        DegradeMode::Strict => (Nanos::ZERO, None),
                        DegradeMode::Abandon => (Nanos::ZERO, state.next_deadline()),
                        DegradeMode::Ladder { .. } => {
                            (round_share.unwrap_or(item.duration), state.next_deadline())
                        }
                    };
                    match mrs.msm_mut().fetch_block(
                        item.strand,
                        item.block,
                        t,
                        budget,
                        deadline,
                        Fetch::Timed,
                    )? {
                        BlockFetch::Silence => {
                            return Err(FsError::InvalidScenario {
                                reason: "non-silence schedule item resolves to a silence hole",
                            })
                        }
                        BlockFetch::Data { op, retries, .. } => {
                            t = op.completed;
                            if retries > 0 {
                                round_faults = true;
                                state.add_retries(retries);
                            }
                        }
                        BlockFetch::Failed {
                            reason, retries, ..
                        } if degrade == DegradeMode::Strict => {
                            let msm = mrs.msm();
                            return Err(msm.fetch_error(item.strand, item.block, reason, retries));
                        }
                        BlockFetch::Failed { at, retries, .. } => {
                            round_faults = true;
                            state.add_retries(retries);
                            t = t.max(at);
                            state.record_drop(t, t, revoke_after, &obs);
                            continue;
                        }
                    }
                }
                state.record(t, t, &obs);
            }
            state.end_turn(t, &obs);
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
        streams: slot_of.iter().map(|&i| states[i].outcome(&obs)).collect(),
        disk_busy: mrs.msm().disk().stats().busy_time() - busy_before,
        rounds: round,
    })
}

thread_local! {
    /// Count of on-index next-LBA probes (test instrumentation): every
    /// walk from a stream's schedule into the strand index to resolve
    /// its next block address bumps this. The SCAN-key memo keeps it
    /// near one probe per consumed stored block; the seed loop's
    /// `sort_by_key` re-probed O(n log n) times per round.
    static LBA_PROBES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Total next-LBA index probes performed on this thread (monotone; take
/// a before/after difference around a simulation).
#[doc(hidden)]
pub fn lba_probe_count() -> u64 {
    LBA_PROBES.with(|c| c.get())
}

pub(crate) fn count_lba_probe() {
    LBA_PROBES.with(|c| c.set(c.get() + 1));
}

/// Resolve `(lba, item)` for the first non-silence item of `pending`, a
/// stream's unserved schedule items from index `next` on: the disk
/// address the arm would visit next (`u64::MAX`/`usize::MAX` when only
/// silence or nothing remains, sorting the stream last).
fn next_lba_probe(mrs: &Mrs, pending: &[PlayItem], next: usize) -> (u64, usize) {
    count_lba_probe();
    for (off, item) in pending.iter().enumerate() {
        if !item.silence {
            let lba = mrs
                .msm()
                .strand(item.strand)
                .ok()
                .and_then(|s| s.block(item.block).ok())
                .flatten()
                .map(|e| e.start)
                .unwrap_or(u64::MAX);
            return (lba, next + off);
        }
    }
    (u64::MAX, usize::MAX)
}

/// The memoizing SCAN-key lookup: serve from the stream's `memo` slot
/// while its next index has not passed the cached item (any items
/// skipped in between were silence and cannot move the arm), probing
/// the index only when the cached block was actually consumed.
fn next_lba_memo(mrs: &Mrs, state: &StreamState, memo: &mut Option<(u64, usize)>) -> u64 {
    if let Some((lba, item)) = *memo {
        if item >= state.next_index() {
            return lba;
        }
    }
    let probed = next_lba_probe(mrs, state.pending_items(), state.next_index());
    *memo = Some(probed);
    probed.0
}

/// Simulate steady-state playback of `streams` with a fixed round size.
pub fn simulate_playback(
    mrs: &mut Mrs,
    streams: Vec<PlaySchedule>,
    cfg: PlaybackConfig,
) -> Result<SimReport, FsError> {
    if cfg.k < 1 {
        return Err(FsError::InvalidScenario {
            reason: "round size k must be at least 1",
        });
    }
    let read_ahead = cfg.read_ahead.max(1);
    simulate_degraded(
        mrs,
        streams,
        Vec::new(),
        |_| read_ahead,
        |_, _| cfg.k,
        cfg.order,
        cfg.degrade,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{standard_volume, ClipSpec};
    use strandfs_core::rope::edit::{Interval, MediaSel};

    fn volume(n: usize) -> (Mrs, Vec<strandfs_core::RopeId>) {
        standard_volume(&[ClipSpec::video_seconds(4.0); 1].repeat(n)).expect("build volume")
    }

    /// Compile schedules without consuming admission slots (overload
    /// experiments deliberately exceed `n_max`).
    fn schedules(mrs: &mut Mrs, ropes: &[strandfs_core::RopeId]) -> Vec<PlaySchedule> {
        ropes
            .iter()
            .map(|r| {
                let rope = mrs.rope(*r).unwrap().clone();
                let mut s = strandfs_core::mrs::compile_schedule(
                    &rope,
                    MediaSel::Both,
                    Interval::whole(rope.duration()),
                )
                .unwrap();
                mrs.resolve_silence(&mut s).unwrap();
                s
            })
            .collect()
    }

    #[test]
    fn single_stream_plays_continuously() {
        let (mut mrs, ropes) = volume(1);
        let scheds = schedules(&mut mrs, &ropes);
        let report = simulate_playback(&mut mrs, scheds, PlaybackConfig::with_k(1)).unwrap();
        assert_eq!(report.streams.len(), 1);
        let s = &report.streams[0];
        assert!(s.continuous(), "violations = {}", s.violations);
        assert_eq!(s.blocks, 40); // 4 s * 30 fps / q=3
        assert!(s.max_buffered >= 1);
        assert!(report.disk_busy > Nanos::ZERO);
    }

    #[test]
    fn admitted_load_with_formula_k_is_continuous() {
        // The vintage disk admits n_max = 2 of these video streams; the
        // Eq. 18 k must then yield zero violations.
        let (mut mrs, ropes) = volume(2);
        let scheds = schedules(&mut mrs, &ropes);
        let specs: Vec<_> = scheds
            .iter()
            .map(|_| strandfs_core::admission::RequestSpec {
                q: 3,
                unit_bits: strandfs_units::Bits::new(96_000),
                unit_rate: 30.0,
            })
            .collect();
        let env = *mrs.msm().admission_ref().env();
        let agg = strandfs_core::admission::Aggregates::compute(&env, &specs).unwrap();
        assert!(agg.n_max() >= 2, "n_max = {}", agg.n_max());
        let k = agg.k_transient(2).unwrap();
        let report = simulate_playback(&mut mrs, scheds, PlaybackConfig::with_k(k)).unwrap();
        assert!(
            report.all_continuous(),
            "k = {k}, violations = {}",
            report.total_violations()
        );
    }

    #[test]
    fn undersized_k_with_many_streams_violates() {
        // Overload: many streams, k = 1 and read_ahead = 1 gives the
        // switching overhead nothing to amortize against.
        let (mut mrs, ropes) = volume(6);
        let scheds = schedules(&mut mrs, &ropes);
        let report = simulate_playback(
            &mut mrs,
            scheds,
            PlaybackConfig {
                read_ahead: 1,
                ..PlaybackConfig::with_k(1)
            },
        )
        .unwrap();
        assert!(
            report.total_violations() > 0,
            "expected violations under overload"
        );
    }

    #[test]
    fn arrival_joins_midway() {
        let (mut mrs, ropes) = volume(2);
        let scheds = schedules(&mut mrs, &ropes);
        let late = scheds[1].clone();
        let report = simulate_with_arrivals(
            &mut mrs,
            vec![scheds[0].clone()],
            vec![Arrival {
                at_round: 5,
                schedule: late,
            }],
            |k| k,
            |_round, n| if n > 1 { 2 } else { 1 },
        )
        .unwrap();
        assert_eq!(report.streams.len(), 2);
        assert!(report.streams[1].blocks > 0);
        // The late stream's display started after round 5 worth of
        // service.
        assert!(report.rounds > 5);
    }

    #[test]
    fn report_counts_rounds_and_busy_time() {
        let (mut mrs, ropes) = volume(1);
        let scheds = schedules(&mut mrs, &ropes);
        let report = simulate_playback(&mut mrs, scheds, PlaybackConfig::with_k(4)).unwrap();
        // 40 items at k=4 -> 10 rounds.
        assert_eq!(report.rounds, 10);
    }

    #[test]
    fn ladder_retries_what_abandon_drops() {
        use crate::scenario::faulty_volume;
        use strandfs_disk::FaultPlan;
        let clips = [ClipSpec::video_seconds(4.0); 2];
        // 10% of reads fault transiently and succeed on the first retry.
        let plan = FaultPlan::clean().with_random_transients(0.10, 1);
        let run = |mode| {
            let (mut mrs, ropes) = faulty_volume(&clips, 99).unwrap();
            let scheds = schedules(&mut mrs, &ropes);
            mrs.msm_mut().arm_faults(plan.clone());
            simulate_playback(&mut mrs, scheds, PlaybackConfig::with_k(4).degraded(mode)).unwrap()
        };
        let abandon = run(DegradeMode::Abandon);
        let ladder = run(DegradeMode::Ladder {
            revoke_after_drops: u64::MAX,
            readmit_clean_rounds: 1,
        });
        assert!(abandon.total_dropped() > 0, "abandon must drop blocks");
        assert!(abandon.total_retries() == 0);
        assert!(ladder.total_retries() > 0, "ladder must retry");
        assert!(
            ladder.total_dropped() < abandon.total_dropped(),
            "ladder {} vs abandon {}",
            ladder.total_dropped(),
            abandon.total_dropped()
        );
    }

    #[test]
    fn revoking_the_victim_shields_the_other_stream() {
        use crate::scenario::faulty_volume;
        use strandfs_disk::FaultPlan;
        let clips = [ClipSpec::video_seconds(4.0); 2];
        let (mut mrs, ropes) = faulty_volume(&clips, 7).unwrap();
        let scheds = schedules(&mut mrs, &ropes);
        // Permanently corrupt four mid-clip blocks of stream 1.
        let mut plan = FaultPlan::clean();
        for item in &scheds[1].items[10..14] {
            let e = mrs
                .msm()
                .strand(item.strand)
                .unwrap()
                .block(item.block)
                .unwrap()
                .unwrap();
            plan = plan.with_bad_extent(e);
        }
        mrs.msm_mut().arm_faults(plan);
        let report = simulate_playback(
            &mut mrs,
            scheds,
            PlaybackConfig::with_k(6).degraded(DegradeMode::Ladder {
                revoke_after_drops: 2,
                readmit_clean_rounds: 2,
            }),
        )
        .unwrap();
        let healthy = &report.streams[0];
        let victim = &report.streams[1];
        assert_eq!(healthy.violations, 0, "non-victim must stay continuous");
        assert_eq!(healthy.dropped_blocks, 0);
        assert!(victim.revokes >= 1, "victim must be revoked");
        assert!(victim.dropped_blocks >= 2);
        assert!(
            victim.recovery_time > Nanos::ZERO,
            "victim must be re-admitted after the fault window clears"
        );
        // Every scheduled item was either delivered or degraded into a
        // hole — none simply vanished.
        assert_eq!(victim.fetched + victim.dropped_blocks, victim.blocks);
    }

    #[test]
    fn strict_mode_surfaces_faults_as_errors() {
        use crate::scenario::faulty_volume;
        use strandfs_disk::FaultPlan;
        let clips = [ClipSpec::video_seconds(2.0)];
        let (mut mrs, ropes) = faulty_volume(&clips, 3).unwrap();
        let scheds = schedules(&mut mrs, &ropes);
        let item = scheds[0].items[0];
        let e = mrs
            .msm()
            .strand(item.strand)
            .unwrap()
            .block(item.block)
            .unwrap()
            .unwrap();
        mrs.msm_mut()
            .arm_faults(FaultPlan::clean().with_bad_extent(e));
        let err = simulate_playback(&mut mrs, scheds, PlaybackConfig::with_k(2));
        assert!(
            matches!(err, Err(strandfs_core::FsError::MediaError { .. })),
            "got {err:?}"
        );
    }

    #[test]
    fn sim_events_mirror_report() {
        use strandfs_obs::ObsSink;
        let (mut mrs, ropes) = volume(1);
        let (sink, rec) = ObsSink::ring(16_384);
        mrs.set_obs(sink);
        let scheds = schedules(&mut mrs, &ropes);
        let report = simulate_playback(&mut mrs, scheds, PlaybackConfig::with_k(4)).unwrap();
        let r = rec.borrow();
        let m = &r.metrics().tally;
        assert_eq!(m.rounds, report.rounds);
        assert_eq!(m.deadline_blocks, report.streams[0].blocks);
        assert_eq!(m.deadline_late, report.total_violations());
        let display_starts = r.events().filter(|e| e.kind() == "display_start").count();
        assert_eq!(display_starts, 1);
        // Every deadline event carries a round the simulation executed.
        assert!(r
            .events()
            .filter(|e| e.kind() == "deadline")
            .all(|e| matches!(e, Event::Deadline { round, .. } if *round < report.rounds)));
    }
}

//! Seed-pinned regression tests for the three service-loop round bugs
//! fixed alongside the scale rework (see `crates/sim/src/playback.rs`):
//!
//! 1. SCAN ordering re-invoked its sort key — a strand-index probe —
//!    O(n log n) times per round instead of once per consumed block.
//! 2. Arrival activation sized read-ahead from `order.len()`, which
//!    counts finished and revoked streams, not the live population.
//! 3. All-revoked idle rounds advanced the round counter but froze the
//!    virtual clock, under-reporting `recovery_time` by the outage's
//!    idle span.
//!
//! Each test fails against the pre-fix loop and passes against both the
//! optimized loop and its reference transliteration
//! (`strandfs::sim::reference`).
//!
//! A fourth pins the event order of the SCAN/CSCAN loop, which lays its
//! streams out in first-sweep order rather than index order.

mod report_fields;

use report_fields::ReportFields;
use std::cell::RefCell;

use strandfs::core::mrs::{compile_schedule, Mrs, PlaySchedule};
use strandfs::core::rope::edit::{Interval, MediaSel};
use strandfs::disk::{fnv1a, FaultPlan};
use strandfs::obs::{DegradeAction, Event, ObsSink};
use strandfs::sim::playback::{
    lba_probe_count, simulate_degraded, simulate_playback, Arrival, DegradeMode, PlaybackConfig,
    ServiceOrder,
};
use strandfs::sim::reference::simulate_degraded_reference;
use strandfs::sim::{faulty_volume, standard_volume, ClipSpec};
use strandfs::units::{Nanos, Prng};

fn schedules(mrs: &mut Mrs, ropes: &[strandfs::core::RopeId]) -> Vec<PlaySchedule> {
    ropes
        .iter()
        .map(|r| {
            let rope = mrs.rope(*r).unwrap().clone();
            let mut s =
                compile_schedule(&rope, MediaSel::Both, Interval::whole(rope.duration())).unwrap();
            mrs.resolve_silence(&mut s).unwrap();
            s
        })
        .collect()
}

/// Bug 1: the SCAN sweep must not pay an index probe per sort
/// comparison. The memoized loop probes at most once per consumed
/// stored block (plus a handful of end-of-stream probes); the seed
/// loop's `sort_by_key(|&i| next_lba(..))` re-probed inside the sort
/// and blows well past that bound on the same workload.
#[test]
fn scan_ordering_probes_the_index_at_most_once_per_consumed_block() {
    let clips = [ClipSpec::video_seconds(4.0); 4];

    let (mut mrs, ropes) = standard_volume(&clips).expect("build volume");
    let scheds = schedules(&mut mrs, &ropes);
    let total_items: u64 = scheds.iter().map(|s| s.items.len() as u64).sum();
    let before = lba_probe_count();
    let opt = simulate_playback(&mut mrs, scheds, PlaybackConfig::with_k(4).scan())
        .expect("optimized scan run");
    let opt_probes = lba_probe_count() - before;
    // At most one probe per consumed stored block, plus up to two
    // terminal probes per stream (initial fill + the exhausted-schedule
    // sentinel).
    let bound = total_items + 2 * clips.len() as u64;
    assert!(
        opt_probes <= bound,
        "memoized SCAN made {opt_probes} index probes; bound is {bound}"
    );

    // The reference loop keeps the seed's per-comparison probing and
    // must exceed the optimized loop on the identical workload.
    let (mut mrs, ropes) = standard_volume(&clips).expect("build reference volume");
    let scheds = schedules(&mut mrs, &ropes);
    let before = lba_probe_count();
    let reference = simulate_degraded_reference(
        &mut mrs,
        scheds,
        Vec::new(),
        |k| k,
        |_, _| 4,
        strandfs::sim::ServiceOrder::Scan,
        DegradeMode::Strict,
    )
    .expect("reference scan run");
    let ref_probes = lba_probe_count() - before;
    assert_eq!(opt, reference, "loops must agree on the report");
    assert!(
        ref_probes > opt_probes,
        "seed-style sort probed {ref_probes} times, memoized {opt_probes}"
    );
}

/// Bug 2: when a stream arrives after the initial population has
/// drained, its round size — and through `read_ahead_of_k` its
/// read-ahead — must come from the *live* active population (here: the
/// arrival alone), not from `order.len()`, which still counts the three
/// finished streams. The seed loop made an extra `k_of_round` call with
/// `order.len()` during activation; the fixed loops make exactly one
/// call per active round, sized from the live set.
#[test]
fn drained_volume_arrival_sizes_read_ahead_from_live_population() {
    let run = |use_reference: bool| {
        let clips = [ClipSpec::video_seconds(2.0); 3];
        let (mut mrs, ropes) = standard_volume(&clips).expect("build volume");
        let mut scheds = schedules(&mut mrs, &ropes);
        let late = scheds.pop().expect("three schedules");
        let arrivals = vec![Arrival {
            at_round: 18,
            schedule: late,
        }];
        let calls: RefCell<Vec<(u64, usize)>> = RefCell::new(Vec::new());
        let k_of_round = |round: u64, n: usize| {
            calls.borrow_mut().push((round, n));
            n as u64
        };
        let report = if use_reference {
            simulate_degraded_reference(
                &mut mrs,
                scheds,
                arrivals,
                |k| k,
                k_of_round,
                strandfs::sim::ServiceOrder::RoundRobin,
                DegradeMode::Strict,
            )
        } else {
            simulate_degraded(
                &mut mrs,
                scheds,
                arrivals,
                |k| k,
                k_of_round,
                strandfs::sim::ServiceOrder::RoundRobin,
                DegradeMode::Strict,
            )
        }
        .expect("simulate");
        (report, calls.into_inner())
    };

    let (report, calls) = run(false);
    // Two base streams of 20 items at k = 2 finish by round 10; rounds
    // 10..18 idle with the arrival still pending; at round 18 the
    // arrival joins a drained volume and must run like a fresh solo
    // stream: k = 1, read-ahead 1, continuous playback.
    let at_arrival: Vec<_> = calls.iter().filter(|c| c.0 == 18).collect();
    assert_eq!(
        at_arrival,
        vec![&(18, 1)],
        "the arrival round must see exactly one k_of_round call, sized \
         from the live population"
    );
    assert!(
        calls.iter().all(|&(_, n)| n != 3),
        "no round may size itself from order.len() (= 3 after \
         activation, including the two finished streams): {calls:?}"
    );
    assert!(report.streams[2].blocks > 0);
    assert!(report.streams[2].continuous());

    // The reference loop shares the call contract verbatim.
    let (ref_report, ref_calls) = run(true);
    assert_eq!(report, ref_report);
    assert_eq!(calls, ref_calls);
}

/// Bug 3: an all-revoked round must advance the virtual clock by its
/// playback span so `recovery_time` covers the whole outage. The seed
/// loop froze `t` across idle rounds, and a solo revoked stream
/// re-admitted after an idle-only outage reported exactly zero
/// recovery time.
#[test]
fn idle_rounds_advance_the_outage_clock() {
    let clips = [ClipSpec::video_seconds(2.0)];
    let (mut mrs, ropes) = faulty_volume(&clips, 11).expect("build volume");
    let scheds = schedules(&mut mrs, &ropes);
    // Permanently corrupt one mid-clip block: the first failed fetch
    // revokes the stream, and with nobody else admitted every round
    // until re-admission is an all-revoked idle round.
    let item = scheds[0].items[5];
    let e = mrs
        .msm()
        .strand(item.strand)
        .unwrap()
        .block(item.block)
        .unwrap()
        .unwrap();
    mrs.msm_mut()
        .arm_faults(FaultPlan::clean().with_bad_extent(e));
    let (sink, rec) = ObsSink::ring(1 << 14);
    mrs.set_obs(sink);
    let report = simulate_playback(
        &mut mrs,
        scheds,
        PlaybackConfig::with_k(4).degraded(DegradeMode::Ladder {
            revoke_after_drops: 1,
            readmit_clean_rounds: 1,
        }),
    )
    .expect("simulate");

    let s = &report.streams[0];
    assert_eq!(s.revokes, 1, "the bad block must revoke the solo stream");
    assert!(
        s.recovery_time > Nanos::ZERO,
        "idle-only outage must still accumulate recovery time"
    );
    // The outage was idle rounds and nothing else, so recovery time is
    // exactly the span the idle rounds advanced the clock by.
    let r = rec.borrow();
    let idle_span: Nanos = r
        .events()
        .filter_map(|e| match e {
            Event::RoundIdle { advanced, .. } => Some(*advanced),
            _ => None,
        })
        .fold(Nanos::ZERO, |a, b| a + b);
    assert!(idle_span > Nanos::ZERO);
    assert_eq!(s.recovery_time, idle_span);
    assert!(r.metrics().tally.idle_rounds >= 1);
}

/// The SCAN/CSCAN loop lays its streams out in first-sweep order, which
/// is not index order once viewers share titles in a shuffled order.
/// Nothing observable may follow storage: sweep ties keep activation
/// order, and re-admissions, the report and the end-of-run deadline
/// flush run in stream-index order. Every recorded event and the report
/// of SCAN and CSCAN, strict and laddered, over one shuffled multi-title
/// population with an arrival, are pinned to hashes recorded on the
/// index-order loop before the layout existed.
#[test]
fn sweep_layout_leaves_every_event_in_place() {
    let run = |order: ServiceOrder, ladder: bool| -> u64 {
        let clips = [ClipSpec::video_seconds(2.0); 3];
        let (mut mrs, ropes) = faulty_volume(&clips, 5).expect("build volume");
        let scheds = schedules(&mut mrs, &ropes);
        // Three viewers a title, plus one of an edit that cuts from the
        // last title into the first after two items: it is laid out
        // after the first title's viewers but indexed among them.
        let mut streams: Vec<_> = (0..3).flat_map(|_| scheds.clone()).collect();
        let (head, tail) = (&scheds[2].items, &scheds[0].items);
        streams.push(PlaySchedule {
            items: head[..2].iter().chain(&tail[2..]).copied().collect(),
            ..scheds[0].clone()
        });
        Prng::seed_from_u64(3).shuffle(&mut streams);
        let arrivals = vec![Arrival {
            at_round: 2,
            schedule: scheds[1].clone(),
        }];
        let degrade = if ladder {
            // One bad block under the first title, past the cut: its
            // three viewers and the edit's meet it in one round.
            let item = scheds[0].items[6];
            let e = mrs
                .msm()
                .strand(item.strand)
                .unwrap()
                .block(item.block)
                .unwrap()
                .unwrap();
            mrs.msm_mut()
                .arm_faults(FaultPlan::clean().with_bad_extent(e));
            DegradeMode::Ladder {
                revoke_after_drops: 1,
                readmit_clean_rounds: 2,
            }
        } else {
            DegradeMode::Strict
        };
        let (sink, rec) = ObsSink::ring(1 << 16);
        mrs.set_obs(sink);
        let report =
            simulate_degraded(&mut mrs, streams, arrivals, |k| k, |_, _| 3, order, degrade)
                .expect("simulate");
        let rec = rec.borrow();
        assert_eq!(rec.dropped(), 0, "the ring must hold every event");
        let readmits: Vec<u64> = rec
            .events()
            .filter_map(|e| match e {
                Event::Degrade {
                    action: DegradeAction::Readmit,
                    round,
                    ..
                } => Some(*round),
                _ => None,
            })
            .collect();
        assert!(
            !ladder || readmits.windows(2).any(|w| w[0] == w[1]),
            "streams must be re-admitted together: {readmits:?}"
        );
        let mut seen = Vec::new();
        report.put_fields(&mut seen);
        for e in rec.events() {
            seen.extend_from_slice(format!("{e:?}").as_bytes());
        }
        fnv1a(&seen)
    };
    const PINNED: [(ServiceOrder, bool, u64); 4] = [
        (ServiceOrder::Scan, false, 0x9c03ed2a6cfa385c),
        (ServiceOrder::Scan, true, 0x14b283658bc55d99),
        (ServiceOrder::Cscan, false, 0xa49fc32a30692789),
        (ServiceOrder::Cscan, true, 0x311ebaec64b3d437),
    ];
    let observed: Vec<_> = PINNED
        .iter()
        .map(|&(order, ladder, _)| (order, ladder, run(order, ladder)))
        .collect();
    assert_eq!(
        observed,
        PINNED,
        "event or report order moved; observed:\n{}",
        observed
            .iter()
            .map(|(o, l, h)| format!("        (ServiceOrder::{o:?}, {l}, {h:#018x}),\n"))
            .collect::<String>()
    );
}

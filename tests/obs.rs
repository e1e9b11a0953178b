//! Properties of the observability layer.
//!
//! The central contract: attaching a recorder never changes what the
//! system does. A run with a ring recorder must produce a bit-identical
//! [`SimReport`] (and disk busy time) to the same run with the default
//! no-op sink, and the recorded per-op timing decomposition must sum
//! back to the disk's actual service time.

use strandfs::core::mrs::{compile_schedule, Mrs};
use strandfs::core::msm::{Msm, MsmConfig};
use strandfs::core::rope::edit::{Interval, MediaSel};
use strandfs::disk::{DiskGeometry, GapBounds, SeekModel, SimDisk};
use strandfs::obs::{
    Event, MonitorConfig, ObsSink, Recorder, SloRule, Tally, WindowStats, WindowedMonitor,
};
use strandfs::sim::playback::{simulate_playback, PlaybackConfig};
use strandfs::sim::{record_clip, ClipSpec, SimReport};
use strandfs::units::Nanos;

/// One deterministic end-to-end session — record two A/V clips, play
/// both — with the given sink attached from the very first write.
fn session(obs: ObsSink) -> (SimReport, Nanos) {
    let disk = SimDisk::new(DiskGeometry::vintage_1991(), SeekModel::vintage_1991());
    let mut mrs = Mrs::new(Msm::new(
        disk,
        MsmConfig::constrained(
            GapBounds {
                min_sectors: 0,
                max_sectors: 40_000,
            },
            1,
        ),
    ));
    mrs.set_obs(obs);
    let ropes: Vec<_> = (0..2)
        .map(|i| {
            record_clip(&mut mrs, &ClipSpec::av_seconds(2.0).with_seed(i)).expect("record clip")
        })
        .collect();
    let scheds = ropes
        .iter()
        .map(|r| {
            let rope = mrs.rope(*r).unwrap().clone();
            let mut s =
                compile_schedule(&rope, MediaSel::Both, Interval::whole(rope.duration())).unwrap();
            mrs.resolve_silence(&mut s).unwrap();
            s
        })
        .collect();
    let report = simulate_playback(&mut mrs, scheds, PlaybackConfig::with_k(2)).expect("simulate");
    let busy = mrs.msm().disk().stats().busy_time();
    (report, busy)
}

#[test]
fn recording_perturbs_nothing() {
    let (baseline, baseline_busy) = session(ObsSink::noop());
    let (sink, rec) = ObsSink::ring(1 << 18);
    let (traced, traced_busy) = session(sink);
    assert_eq!(baseline, traced, "recorder changed the simulation");
    assert_eq!(baseline_busy, traced_busy, "recorder changed disk timing");
    let r = rec.borrow();
    assert!(!r.is_empty(), "instrumented run recorded nothing");
    assert_eq!(r.dropped(), 0, "ring too small for this session");
}

#[test]
fn monitoring_perturbs_nothing() {
    let (baseline, baseline_busy) = session(ObsSink::noop());

    // The full live-health stack: windowed fold + SLO rules + flight ring.
    let monitor = std::rc::Rc::new(std::cell::RefCell::new(WindowedMonitor::new(
        MonitorConfig::rounds(2).rule(SloRule::BurnRate {
            label: "miss-burn",
            short_windows: 1,
            long_windows: 2,
            short_rate: 0.5,
            long_rate: 0.25,
        }),
    )));
    let (monitored, monitored_busy) = session(ObsSink::shared(&monitor));
    monitor.borrow_mut().finish();

    assert_eq!(baseline, monitored, "monitor changed the simulation");
    assert_eq!(baseline_busy, monitored_busy, "monitor changed disk timing");

    // The monitor actually watched the run: the fold closed at least
    // one window and attributed events to it.
    let m = monitor.borrow();
    assert!(m.windows().count() > 0, "monitor closed no windows");
    assert!(m.windows().any(|w| w.events > 0));
    // This healthy session must never alert.
    assert!(m.alerts().is_empty(), "healthy run raised {:?}", m.alerts());
    assert!(m.dumps().is_empty());
}

#[test]
fn per_op_components_sum_to_service_time() {
    let (sink, rec) = ObsSink::ring(1 << 18);
    let (_report, busy) = session(sink);
    let r = rec.borrow();
    assert_eq!(r.dropped(), 0);
    let mut total = Nanos::ZERO;
    let mut ops = 0u64;
    for e in r.events() {
        if let Event::DiskOp {
            seek,
            rotation,
            transfer,
            ..
        } = e
        {
            assert_eq!(e.service_time(), *seek + *rotation + *transfer);
            total += e.service_time();
            ops += 1;
        }
    }
    assert!(ops > 0);
    // The decomposed per-op times reconstruct the disk's own busy-time
    // accounting exactly.
    assert_eq!(total, busy);
    assert_eq!(r.metrics().tally.disk_busy, busy);
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
fn the_monitor_and_the_recorder_count_the_same_session() {
    let (sink, rec) = ObsSink::ring(1 << 18);
    let (_report, busy) = session(sink);
    let r = rec.borrow();
    assert_eq!(r.dropped(), 0, "the replay needs every event");
    let mut monitor = WindowedMonitor::new(MonitorConfig::rounds(2).retain(1 << 16));
    for e in r.events() {
        monitor.record(*e);
    }
    monitor.finish();
    assert_eq!(monitor.evicted(), 0);
    let tally = &r.metrics().tally;
    assert_eq!(summed(monitor.windows()), *tally);
    assert_eq!(tally.disk_busy, busy);
    assert!(tally.deadline_blocks > 0 && tally.display_starts > 0);
}

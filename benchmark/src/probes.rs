//! Short isolated probes of each layer's public functions, on the
//! workload's own data, run after the last repetition.
//!
//! A probe gives the cost of one call with nothing else in the way.
//! `driver::breakdown` multiplies it by the counts the system reported
//! to price the children of a `serve` span that have no span of their
//! own.

use std::hint::black_box;
use std::time::{Duration, Instant as Wall};

use strandfs_core::RequestId;
use strandfs_disk::{fnv1a, AccessKind, BlockDevice, DiskGeometry, Extent, SeekModel, SimDisk};
use strandfs_media::VideoCodec;
use strandfs_obs::{Event, Recorder, RingRecorder, WindowedMonitor};
use strandfs_trace::{chrome_trace, TraceOptions};
use strandfs_units::Instant;

use crate::cluster_wl::monitor_config;
use crate::driver::{LayerCx, Workload, RING_CAP};
use crate::seeded::Rng;
use crate::tracer::StampRecorder;

/// Sectors of one standard video block (3 frames of 12,000 bytes).
const BLOCK_SECTORS: u64 = 72;

/// Nanoseconds per call of `op`, and the calls made: batches of 64
/// calls until `budget` is spent, so the clock is read rarely enough
/// not to show in a nanosecond-scale result.
pub fn per_call(budget: Duration, mut op: impl FnMut(u64)) -> (f64, u64) {
    let begin = Wall::now();
    let mut calls = 0u64;
    loop {
        for _ in 0..64 {
            op(calls);
            calls += 1;
        }
        let spent = begin.elapsed();
        if spent >= budget {
            return (spent.as_nanos() as f64 / calls as f64, calls);
        }
    }
}

/// Nanoseconds per item of `batch`, which processes `items` items per
/// call, repeated until `budget` is spent.
fn per_item(budget: Duration, items: u64, mut batch: impl FnMut()) -> (f64, u64) {
    let begin = Wall::now();
    let mut done = 0u64;
    loop {
        batch();
        done += items;
        let spent = begin.elapsed();
        if spent >= budget {
            return (spent.as_nanos() as f64 / done.max(1) as f64, done);
        }
    }
}

/// The probes every workload runs.
pub fn common(wl: &mut dyn Workload, recorder: &StampRecorder, cx: &mut LayerCx, seed: u64) {
    let budget = cx.scale.probe_budget();
    let msm = wl.probe_msm();

    // core.admission: fill to n_max and drain, as the front door does.
    let spec = strandfs_cluster::standard_spec();
    let adm = msm.admission();
    let mut n_max = 0u64;
    while adm.try_admit(RequestId::from_raw(n_max), spec).is_ok() {
        n_max += 1;
    }
    for i in 0..n_max {
        adm.release(RequestId::from_raw(i)).expect("just admitted");
    }
    let (mut admit_ns, mut release_ns, mut cycles) = (0u128, 0u128, 0u64);
    let span = cx.tr.begin("probe.admission");
    let begin = Wall::now();
    while begin.elapsed() < budget {
        let t = Wall::now();
        for i in 0..n_max {
            let _ = black_box(adm.try_admit(RequestId::from_raw(i), spec));
        }
        admit_ns += t.elapsed().as_nanos();
        let t = Wall::now();
        for i in 0..n_max {
            let _ = black_box(adm.release(RequestId::from_raw(i)));
        }
        release_ns += t.elapsed().as_nanos();
        cycles += 1;
    }
    cx.tr.end_counted(span, cycles * n_max * 2);
    let calls = (cycles * n_max).max(1) as f64;
    cx.out
        .set("core.admission.admit_ns", admit_ns as f64 / calls);
    cx.out
        .set("core.admission.release_ns", release_ns as f64 / calls);

    // core.msm / core.strand / disk fetch, on the first strand with data.
    let id = msm
        .strand_ids()
        .into_iter()
        .find(|id| msm.strand(*id).is_ok_and(|s| s.stored_blocks() > 0))
        .expect("the probed volume holds a recorded strand");
    let strand = msm.strand(id).expect("just found").clone();
    let blocks = strand.block_count();
    let header = *strand
        .index_extents()
        .last()
        .expect("a finished strand has a header block");

    let span = cx.tr.begin("probe.check_sum");
    let (ns, calls) = per_call(budget, |i| {
        black_box(msm.check_block_sum(id, i % blocks)).expect("strand exists");
    });
    cx.tr.end_counted(span, calls);
    cx.out.set("core.msm.check_sum_ns", ns);

    let extents: Vec<Extent> = strand.stored_iter().map(|(_, e)| e).collect();
    let span = cx.tr.begin("probe.fetch_block");
    let (ns, calls) = per_call(budget, |i| {
        black_box(msm.disk().try_fetch(extents[i as usize % extents.len()]));
    });
    cx.tr.end_counted(span, calls);
    cx.out.set("disk.fetch_block_ns", ns);

    let span = cx.tr.begin("probe.load_uncached");
    let (ns, calls) = per_call(budget, |_| {
        black_box(msm.load_strand_uncached(id, header, Instant::EPOCH)).expect("index loads");
    });
    cx.tr.end_counted(span, calls);
    cx.out.set("core.strand.load_uncached_ns", ns);
    let span = cx.tr.begin("probe.load_cached");
    let (ns, calls) = per_call(budget, |_| {
        black_box(msm.load_strand(id, header, Instant::EPOCH)).expect("index loads");
    });
    cx.tr.end_counted(span, calls);
    cx.out.set("core.strand.load_cached_ns", ns);

    // disk: the timing model alone, on a device of the harness's own.
    let mut disk = SimDisk::new(DiskGeometry::vintage_1991(), SeekModel::vintage_1991());
    let last = disk.geometry().total_sectors() - BLOCK_SECTORS;
    let mut rng = Rng::new(seed, 0xD1);
    let lbas: Vec<u64> = (0..4096).map(|_| rng.below(last)).collect();
    let mut now = Instant::EPOCH;
    let span = cx.tr.begin("probe.access");
    let (ns, calls) = per_call(budget, |i| {
        let extent = Extent::new(lbas[i as usize % lbas.len()], BLOCK_SECTORS);
        let op = BlockDevice::access(&mut disk, now, extent, AccessKind::Read)
            .expect("a bare SimDisk never faults");
        now = op.completed;
    });
    cx.tr.end_counted(span, calls);
    cx.out.set("disk.access_ns", ns);

    let codec = VideoCodec::uvc_ntsc(seed);
    let frame_bytes = codec.frame_bits(0).to_bytes_ceil().get() as usize;
    let span = cx.tr.begin("probe.frame_payload");
    let (ns, calls) = per_call(budget, |i| {
        black_box(codec.frame_payload(i, frame_bytes));
    });
    cx.tr.end_counted(span, calls);
    cx.out.set("media.frame_payload_ns", ns);

    let block = codec.frame_payload(0, BLOCK_SECTORS as usize * 512);
    let span = cx.tr.begin("probe.fnv1a");
    let (ns, calls) = per_call(budget, |_| {
        black_box(fnv1a(black_box(&block)));
    });
    cx.tr.end_counted(span, calls);
    // bytes per nanosecond = GB/s.
    cx.out.set("disk.fnv1a_gb_per_s", block.len() as f64 / ns);

    // obs / trace: replay the events the last stamped repetition left
    // in the harness ring.
    let ring = recorder.ring.as_ref().expect("a traced run keeps a ring");
    let events: Vec<Event> = ring.events().copied().collect();
    let n = events.len() as u64;
    cx.out.set("obs.ring_dropped", ring.dropped() as f64);
    let span = cx.tr.begin("probe.ring_record");
    let (ns, done) = per_item(budget, n, || {
        let mut ring = RingRecorder::new(RING_CAP);
        for e in &events {
            ring.record(*e);
        }
        black_box(ring.len());
    });
    cx.tr.end_counted(span, done);
    cx.out.set("obs.ring_record_ns_per_event", ns);
    let span = cx.tr.begin("probe.monitor_fold");
    let (ns, done) = per_item(budget, n, || {
        let mut monitor = WindowedMonitor::new(monitor_config());
        for e in &events {
            monitor.record(*e);
        }
        monitor.finish();
        black_box(monitor.closed());
    });
    cx.tr.end_counted(span, done);
    cx.out.set("obs.monitor_fold_ns_per_event", ns);
    let opts = TraceOptions {
        gamma: None,
        dropped_events: ring.dropped(),
    };
    let span = cx.tr.begin("export");
    let (ns, done) = per_item(budget, n, || {
        black_box(chrome_trace(events.iter(), &opts).len());
    });
    cx.tr.end_counted(span, done);
    cx.out.set("trace.export_ns_per_event", ns);
}

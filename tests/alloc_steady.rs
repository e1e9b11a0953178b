//! Steady-state allocation test for the service loop.
//!
//! The scale rework keeps all per-round state (`active`, the SCAN key
//! table, the sweep order) in buffers reused across rounds and strips
//! payload copies from the simulation read path, so once the first few
//! rounds warm the buffers a round allocates nothing. This test pins
//! that with a counting global allocator: the same workload run as many
//! small rounds (k = 1, 8× the rounds) must not allocate measurably
//! more than as few large rounds (k = 8). Per-round heap churn — the
//! seed loop's fresh `active` vector and payload `Vec` per fetch —
//! scales with the round count and fails this immediately.
//!
//! The cluster loop (`simulate_cluster`) is held to the same bar in two
//! more legs of the same test — defenses off, then verified reads and
//! scrub on — a third holds a round whose stamp checks are split across
//! cores to the scoped spawn's handful, however many blocks it hashes,
//! a fourth holds an idle round's pass-ahead — the rest of every scrub
//! pass hashed in one batch — flat as the pass grows 8×,
//! and a last one pins that `SimDisk::fetch_sum` — what the
//! defenses add per block — allocates nothing at all. The footprint leg
//! counts bytes as well as calls: a stream's state is one allocation of
//! 16-byte records over schedule items it shares, never a deep copy.
//! The RECORD leg counts both too: ingesting a title asks the heap for
//! little more than the bytes the device stores.
//!
//! This file holds exactly one test: the allocator count is global to
//! the binary, and a parallel sibling test would pollute the deltas.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes asked of the heap: every allocation's size, every growth of a
/// reallocation.
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let grown = new_size.saturating_sub(layout.size());
        BYTES.fetch_add(grown as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn rounds_do_not_grow_the_heap() {
    use strandfs::core::mrs::{compile_schedule, Mrs, PlaySchedule};
    use strandfs::core::rope::edit::{Interval, MediaSel};
    use strandfs::sim::playback::{simulate_playback, PlaybackConfig};
    use strandfs::sim::{standard_volume, ClipSpec};

    fn schedules(mrs: &mut Mrs, ropes: &[strandfs::core::RopeId]) -> Vec<PlaySchedule> {
        ropes
            .iter()
            .map(|r| {
                let rope = mrs.rope(*r).unwrap().clone();
                let mut s =
                    compile_schedule(&rope, MediaSel::Both, Interval::whole(rope.duration()))
                        .unwrap();
                mrs.resolve_silence(&mut s).unwrap();
                s
            })
            .collect()
    }

    // Same streams, same blocks, same total work — only the round
    // count differs (40 items at k = 1 → 40 rounds; k = 8 → 5 rounds).
    // Volume construction happens outside the measured window.
    let run = |k: u64| {
        let clips = [ClipSpec::video_seconds(4.0); 2];
        let (mut mrs, ropes) = standard_volume(&clips).expect("build volume");
        let scheds = schedules(&mut mrs, &ropes);
        let before = ALLOCS.load(Ordering::Relaxed);
        let report = simulate_playback(&mut mrs, scheds, PlaybackConfig::with_k(k).scan())
            .expect("simulate");
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        (report, allocs)
    };

    let (big_rounds, allocs_many) = run(1);
    let (few_rounds, allocs_few) = run(8);
    assert_eq!(big_rounds.rounds, 8 * few_rounds.rounds);
    assert!(allocs_few > 0, "the report itself allocates");
    // The 8×-rounds run may allocate slightly more *after* the loop —
    // its per-stream round series has 8× the samples — but nothing per
    // round inside it. The slop covers the series' amortized growth;
    // per-round churn at the seed loop's rate (≥ 1 allocation per
    // round plus 1 per fetch) sits far beyond it.
    let slop = 192;
    assert!(
        allocs_many <= allocs_few + slop,
        "8x rounds cost {allocs_many} allocations vs {allocs_few} — \
         the loop is allocating per round"
    );

    // The cluster loop, held to the same bar: two volumes, one viewer
    // each, every defense off. 240 items per viewer at k = 1 → 240
    // rounds, at k = 8 → 30; a loop that collects a fresh `active`
    // vector every round pays 210 allocations more; the per-stream
    // round series — the only thing allowed to grow — costs 6.
    use strandfs::cluster::{simulate_cluster, Cluster, ClusterConfig, ClusterPlayback};
    let run_cluster = |k: u64| {
        let mut c = Cluster::new(ClusterConfig::round_robin(2, 7)).expect("cluster");
        let viewers: Vec<_> = (0..2)
            .map(|i| {
                c.ingest("clip", &ClipSpec::video_seconds(24.0).with_seed(i), 0.0)
                    .expect("ingest")
            })
            .collect();
        let before = ALLOCS.load(Ordering::Relaxed);
        let report =
            simulate_cluster(&mut c, &viewers, &[], &ClusterPlayback::with_k(k)).expect("simulate");
        (report.sim.rounds, ALLOCS.load(Ordering::Relaxed) - before)
    };
    let (rounds_many, allocs_many) = run_cluster(1);
    let (rounds_few, allocs_few) = run_cluster(8);
    assert_eq!(rounds_many, 8 * rounds_few);
    let slop = 32;
    assert!(
        allocs_many <= allocs_few + slop,
        "cluster: 8x rounds cost {allocs_many} allocations vs {allocs_few} — \
         the loop is allocating per round"
    );

    // The cluster defended — verified reads and a scrub budget of 4 —
    // to the same bound, long run against short: three volumes, a
    // viewer on each of the first two, and on the third a clip nobody
    // watches, so its scrubber has whole rounds of slack and probes
    // every block while the other two cursors walk on read credit. A
    // scrub step scales with the blocks stored, 8× from the short run
    // to the long one; a step that collects the member's strand ids, as
    // `scrub_step` did through `Msm::strand_ids`, pays that in
    // allocations — 871 against 131 on the loop before it stopped. What
    // may grow is the round series and, by doubling, one credit bitset
    // per strand: 29 against 23.
    let run_defended = |seconds: f64| {
        let mut c = Cluster::new(ClusterConfig::round_robin(3, 7)).expect("cluster");
        let titles: Vec<_> = (0..3)
            .map(|i| {
                c.ingest("clip", &ClipSpec::video_seconds(seconds).with_seed(i), 0.0)
                    .expect("ingest")
            })
            .collect();
        c.set_verify_reads(true);
        let cfg = ClusterPlayback::with_k(8).scrub(4);
        let before = ALLOCS.load(Ordering::Relaxed);
        let report = simulate_cluster(&mut c, &titles[..2], &[], &cfg).expect("simulate");
        (report, ALLOCS.load(Ordering::Relaxed) - before)
    };
    let (long, allocs_long) = run_defended(24.0);
    let (short, allocs_short) = run_defended(3.0);
    let probes = |r: &strandfs::cluster::ClusterReport| r.scrubbed_blocks - r.scrub_credited;
    assert!(long.scrub_credited >= 8 * short.scrub_credited && short.scrub_credited > 0);
    assert!(probes(&long) >= 8 * probes(&short) && probes(&short) > 0);
    assert!(
        allocs_long <= allocs_short + slop,
        "defended cluster: {} blocks scrubbed for {allocs_long} allocations vs {} for \
         {allocs_short} — the scrub walk is allocating per step",
        long.scrubbed_blocks,
        short.scrubbed_blocks
    );

    // A defended round big enough to split its stamp checks across
    // cores: 16 volumes, two viewers of each one's title, so 2.3 MB of
    // verified reads a round at k = 2 and 8× that at k = 16 — 2,048
    // blocks either way. Against the same run unverified, hashing ahead
    // adds the growth of its buffers (the round's jobs, the members'
    // views, each disk's offers), once, and then per round what a scoped
    // spawn allocates: ≈ 4 on std today, whatever the blocks a round.
    // One allocation a block would be 2,048 more.
    let run_split = |k: u64, verify: bool| {
        let mut c = Cluster::new(ClusterConfig::round_robin(16, 7)).expect("cluster");
        let titles: Vec<_> = (0..16)
            .map(|i| {
                c.ingest("clip", &ClipSpec::video_seconds(6.4).with_seed(i), 0.0)
                    .expect("ingest")
            })
            .collect();
        c.set_verify_reads(verify);
        let viewers: Vec<_> = (0..32).map(|i| titles[i / 2]).collect();
        let before = ALLOCS.load(Ordering::Relaxed);
        let report =
            simulate_cluster(&mut c, &viewers, &[], &ClusterPlayback::with_k(k)).expect("simulate");
        (report.sim.rounds, ALLOCS.load(Ordering::Relaxed) - before)
    };
    let splits = std::thread::available_parallelism().is_ok_and(|n| n.get() > 1);
    let (handful, growth) = (8, 96);
    for k in [2, 16] {
        let (rounds, verified) = run_split(k, true);
        let (bare_rounds, bare) = run_split(k, false);
        assert_eq!(rounds, 64 / k);
        assert_eq!(bare_rounds, rounds);
        let added = verified - bare;
        assert!(
            added <= handful * rounds + growth,
            "k = {k}: hashing ahead cost {added} allocations over {rounds} rounds"
        );
        assert!(
            !splits || added >= rounds,
            "k = {k}: {added} allocations over {rounds} rounds — the rounds did not split"
        );
    }

    // An idle pass-ahead: four members nobody watches, so every round
    // is idle and the first hashes the whole of each member's pass in
    // one batch, split across cores, that later rounds' probes take
    // from. The short run's count is the run's own set-up, the scoped
    // spawn and its buffers grown from empty (29 on std today). 8× the
    // blocks and ≈ 8× the rounds may cost those buffers (the batch's
    // jobs, each disk's offers) three more doublings each, and nothing
    // else: one allocation a block or a round would be hundreds more.
    let run_idle = |seconds: f64| {
        let mut c = Cluster::new(ClusterConfig::round_robin(4, 7)).expect("cluster");
        for i in 0..4 {
            c.ingest("clip", &ClipSpec::video_seconds(seconds).with_seed(i), 0.0)
                .expect("ingest");
        }
        let cfg = ClusterPlayback::with_k(8).scrub(4);
        let before = ALLOCS.load(Ordering::Relaxed);
        let report = simulate_cluster(&mut c, &[], &[], &cfg).expect("simulate");
        (report, ALLOCS.load(Ordering::Relaxed) - before)
    };
    let (long, allocs_long) = run_idle(24.0);
    let (short, allocs_short) = run_idle(3.0);
    assert!(probes(&long) >= 8 * probes(&short) && long.sim.rounds > 7 * short.sim.rounds);
    let (handful, doublings) = (40, 3 * 5);
    assert!(
        allocs_short <= handful && allocs_long <= allocs_short + doublings,
        "idle pass-ahead: {} probes for {allocs_long} allocations vs {} for {allocs_short}",
        probes(&long),
        probes(&short)
    );

    // What the defenses add per block: the stored payload is summed in
    // place, across a store-chunk boundary and over unwritten sectors,
    // without a copy.
    use strandfs::disk::{DiskGeometry, Extent, SeekModel, SimDisk};
    let mut disk = SimDisk::new(DiskGeometry::tiny_test(), SeekModel::vintage_1991());
    disk.store_data(Extent::new(40, 56), &[7; 56 * 512]);
    let before = ALLOCS.load(Ordering::Relaxed);
    let sums = [
        disk.fetch_sum(Extent::new(40, 56)),
        disk.fetch_sum(Extent::new(90, 200)),
    ];
    assert_eq!(
        ALLOCS.load(Ordering::Relaxed),
        before,
        "fetch_sum allocated"
    );
    assert!(sums.iter().all(Option::is_some));

    // What RECORD costs: a 100-block VBR title, volume construction
    // included. The heap is asked for little more than the image the
    // device keeps (its store chunks) — frames are synthesized into one
    // reused buffer, a track's block buffer keeps its capacity across
    // flushes, and a block is stamped and stored from where it lies,
    // padded inside the device. A fresh `Vec` per frame, a block buffer
    // regrown from nothing per block or a padded copy per append each
    // fail both bounds (all three: 5.4× the stored bytes and 9.3
    // allocations a block).
    let (allocs_before, bytes_before) = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    let vbr_title = ClipSpec {
        vbr: true,
        ..ClipSpec::video_seconds(10.0)
    };
    let (mrs, ropes) = standard_volume(&[vbr_title]).expect("build volume");
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs_before;
    let bytes = BYTES.load(Ordering::Relaxed) - bytes_before;
    let strand = mrs.rope(ropes[0]).unwrap().segments[0]
        .video
        .unwrap()
        .strand;
    let blocks = mrs.msm().strand(strand).unwrap().block_count();
    let disk = mrs.msm().disk();
    let stored = disk.sectors_written() as u64 * disk.geometry().sector_size.get();
    assert_eq!(blocks, 100);
    assert!(
        4 * bytes <= 5 * stored,
        "recording asked the heap for {bytes} bytes to store {stored}"
    );
    assert!(
        allocs <= 4 * blocks,
        "{allocs} allocations to record {blocks} blocks"
    );

    // What a stream costs: 10,000 viewers of 16 clips, fanned out the
    // way the benchmark's `volume_overload` does it. A schedule clone
    // shares its items, and a stream's own state is one vector of
    // 16-byte records — so a stream is at most two allocations and a
    // fixed part plus 24 bytes an item. A deep copy of the schedule per
    // viewer (48 bytes an item) or parallel per-item vectors (six
    // allocations a stream) fail here instead of in the benchmark.
    use strandfs::sim::StreamState;
    const STREAMS: usize = 10_000;
    let clips = [ClipSpec::video_seconds(4.0); 16];
    let (mut mrs, ropes) = standard_volume(&clips).expect("build volume");
    let scheds = schedules(&mut mrs, &ropes);
    let items: usize = (0..STREAMS).map(|i| scheds[i % 16].items.len()).sum();
    let (allocs_before, bytes_before) = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    let fanned: Vec<PlaySchedule> = (0..STREAMS).map(|i| scheds[i % 16].clone()).collect();
    let mut states = Vec::with_capacity(STREAMS);
    for (i, s) in fanned.into_iter().enumerate() {
        states.push(StreamState::new(i, s, 5));
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs_before;
    let bytes = BYTES.load(Ordering::Relaxed) - bytes_before;
    assert!(states.iter().all(|s| !s.finished()));
    assert!(
        allocs <= 2 * STREAMS as u64,
        "{allocs} allocations for {STREAMS} stream states"
    );
    assert!(
        bytes <= (320 * STREAMS + 24 * items) as u64,
        "{bytes} bytes for {STREAMS} stream states over {items} items"
    );
}

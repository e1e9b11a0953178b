//! The simulated disk: a single actuator, a spinning platter, and a sparse
//! store of contiguous sector chunks.

use crate::fault::{AccessResult, Applied, FaultPlan, FaultStats, Faulted, Faults};
use crate::geometry::{DiskGeometry, Extent, Lba};
use crate::seek::SeekModel;
use crate::stats::DiskStats;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::iter::zip;
use std::sync::{Arc, OnceLock};
use std::thread::available_parallelism;
use strandfs_obs::{AccessDir, Event, FaultClass, ObsSink};
use strandfs_units::{Instant, Nanos, Seconds};

/// Running FNV-1a-64 state — the one copy of the hash behind
/// [`fnv1a`] (journal record and checkpoint sums, test and benchmark
/// fingerprints) and the image fingerprint
/// ([`SimDisk::content_hash`]). Payload stamps use [`block_sum`]. No
/// external dependency.
struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// The empty-input state.
    fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }

    /// Fold `bytes` in.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(Self::PRIME);
        }
        self.0 = h;
    }

    /// The hash of everything written so far.
    fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a-64 over a byte slice — the fingerprint hash: journal record
/// and checkpoint sums, image and test fingerprints. Byte-serial (one
/// dependent multiply per byte), so it is not what stamps media blocks;
/// that is [`block_sum`].
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// Running state of [`block_sum`]. Each 32-byte stripe feeds one
/// little-endian `u64` to each of four independent lanes, so a stripe's
/// four multiplies overlap where FNV-1a's thirty-two queue behind one
/// another.
struct BlockSum {
    lanes: [u64; 4],
    len: u64,
}

impl BlockSum {
    const STRIPE: usize = 32;
    /// One odd multiplier per lane — distinct, so two words swapped
    /// inside a stripe change the sum — and one for the fold.
    const LANE_MUL: [u64; 4] = [
        0x9E37_79B1_85EB_CA87,
        0xC2B2_AE3D_27D4_EB4F,
        0x1656_67B1_9E37_79F9,
        0x85EB_CA77_C2B2_AE63,
    ];
    const FOLD_MUL: u64 = 0x27D4_EB2F_1656_67C5;

    /// The empty-input state.
    fn new() -> Self {
        BlockSum {
            lanes: Self::LANE_MUL,
            len: 0,
        }
    }

    /// One lane step. Xor, multiply by an odd constant and rotate are
    /// each a bijection, so a changed word always changes its lane.
    #[inline]
    fn step(lane: u64, word: u64, mul: u64) -> u64 {
        (lane ^ word).wrapping_mul(mul).rotate_left(29)
    }

    /// Word `i` of a stripe, little-endian.
    #[inline]
    fn word(stripe: &[u8], i: usize) -> u64 {
        u64::from_le_bytes(stripe[8 * i..][..8].try_into().expect("a stripe's word"))
    }

    /// Fold `bytes` in. Every piece but the last must be a whole number
    /// of stripes (sectors and chunks are); the last piece's tail goes
    /// into lane 0 a byte at a time.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        debug_assert!(
            self.len.is_multiple_of(Self::STRIPE as u64),
            "only the last piece may end inside a stripe"
        );
        self.len += bytes.len() as u64;
        let mut lanes = self.lanes;
        let mut stripes = bytes.chunks_exact(Self::STRIPE);
        for stripe in &mut stripes {
            for (i, lane) in lanes.iter_mut().enumerate() {
                *lane = Self::step(*lane, Self::word(stripe, i), Self::LANE_MUL[i]);
            }
        }
        for &b in stripes.remainder() {
            lanes[0] = Self::step(lanes[0], b as u64, Self::LANE_MUL[0]);
        }
        self.lanes = lanes;
    }

    /// Fold `a` into `self` and `b` into `other` in one pass: the steps
    /// two [`BlockSum::write`]s take, as eight independent lane chains
    /// instead of four. The pieces are the same whole number of stripes.
    #[inline]
    fn write_pair(&mut self, a: &[u8], other: &mut BlockSum, b: &[u8]) {
        debug_assert!(a.len() == b.len() && a.len().is_multiple_of(Self::STRIPE));
        self.len += a.len() as u64;
        other.len += b.len() as u64;
        let (mut la, mut lb) = (self.lanes, other.lanes);
        for (sa, sb) in zip(a.chunks_exact(Self::STRIPE), b.chunks_exact(Self::STRIPE)) {
            for i in 0..4 {
                la[i] = Self::step(la[i], Self::word(sa, i), Self::LANE_MUL[i]);
                lb[i] = Self::step(lb[i], Self::word(sb, i), Self::LANE_MUL[i]);
            }
        }
        (self.lanes, other.lanes) = (la, lb);
    }

    /// The sum of everything written so far: length and lanes folded
    /// (each fold step is a bijection in the lane it takes, so one
    /// changed lane changes the result), mixed, and kept off zero.
    fn finish(self) -> u64 {
        let mut h = self.len.wrapping_mul(Self::FOLD_MUL);
        for lane in self.lanes {
            h = Self::step(h, lane, Self::FOLD_MUL);
        }
        h ^= h >> 32;
        h = h.wrapping_mul(Self::LANE_MUL[0]);
        h ^= h >> 29;
        Self::off_zero(h)
    }

    /// Zero is the strand index's silence-hole encoding (`NO_SUM`); a
    /// block whose sum lands there is stamped 1 instead.
    fn off_zero(h: u64) -> u64 {
        h.max(1)
    }
}

/// The media-block checksum: what `append_block` stamps into the strand
/// index and the journal's `Append.payload_sum`, and what verified
/// reads, scrubs and recovery recompute through
/// [`SimDisk::fetch_sum`]. Word-wide and four lanes deep, so checking a
/// block costs about what reading it does. Never zero.
pub fn block_sum(bytes: &[u8]) -> u64 {
    let mut h = BlockSum::new();
    h.write(bytes);
    h.finish()
}

/// [`block_sum`] of `payload` zero-padded to `len` bytes — bit for bit
/// what [`SimDisk::fetch_sum`] reads back of a block stored short —
/// without the padded copy: whole stripes are hashed where they lie and
/// only the stripe the payload ends in is rebuilt.
pub fn block_sum_padded(payload: &[u8], len: usize) -> u64 {
    assert!(payload.len() <= len, "payload longer than its pad");
    const ZEROES: [u8; 512] = [0; 512];
    let (stripes, rest) = payload.split_at(payload.len() - payload.len() % BlockSum::STRIPE);
    let mut h = BlockSum::new();
    h.write(stripes);
    let mut left = len - stripes.len();
    let mut last = [0u8; BlockSum::STRIPE];
    last[..rest.len()].copy_from_slice(rest);
    let mut piece = &last[..left.min(BlockSum::STRIPE)];
    while !piece.is_empty() {
        h.write(piece);
        left -= piece.len();
        piece = &ZEROES[..left.min(ZEROES.len())];
    }
    h.finish()
}

/// Sectors per store chunk: one `u64` bitmap covers a chunk, and a media
/// block (tens of sectors) spans at most three.
const CHUNK_SECTORS: u64 = 64;

/// `CHUNK_SECTORS` consecutive sector payloads in one allocation.
#[derive(Debug)]
struct Chunk {
    /// Bit `i` set: sector `i` of the chunk holds a written payload.
    written: u64,
    /// `CHUNK_SECTORS × sector_size` bytes. A sector whose bit is clear
    /// is all zeroes, so reads never consult the bitmap.
    bytes: Box<[u8]>,
}

/// The pieces of `extent` that lie in one chunk each, in address order:
/// `(chunk index, first sector within the chunk, sectors)`.
fn chunk_runs(extent: Extent) -> impl Iterator<Item = (usize, usize, usize)> {
    let mut lba = extent.start;
    std::iter::from_fn(move || {
        (lba < extent.end()).then(|| {
            let first = lba % CHUNK_SECTORS;
            let n = (CHUNK_SECTORS - first).min(extent.end() - lba);
            let run = ((lba / CHUNK_SECTORS) as usize, first as usize, n as usize);
            lba += n;
            run
        })
    })
}

/// The bitmap bits of a run of `n` (1..=64) sectors starting at `first`.
#[inline]
fn run_mask(first: usize, n: usize) -> u64 {
    (u64::MAX >> (CHUNK_SECTORS as usize - n)) << first
}

/// A disk's payload store, read-only: chunk table and zero sector. A
/// [`SimDisk`] holds its event sink and is not `Sync`; this view is, so
/// a [`stamp_batch`] can hash it on any core.
#[derive(Clone, Copy)]
pub struct PayloadView<'a> {
    store: &'a [Option<Chunk>],
    zero_sector: &'a [u8],
}

impl<'a> PayloadView<'a> {
    /// The stored bytes of `extent` in address order: one slice per chunk
    /// it touches, or — where no chunk backs the sectors — the zero
    /// sector once per sector.
    fn runs(self, extent: Extent) -> impl Iterator<Item = &'a [u8]> {
        let ss = self.zero_sector.len();
        chunk_runs(extent).flat_map(move |(idx, first, n)| {
            let (piece, times) = match self.store.get(idx) {
                Some(Some(chunk)) => (&chunk.bytes[first * ss..][..n * ss], 1),
                _ => (self.zero_sector, n),
            };
            std::iter::repeat_n(piece, times)
        })
    }

    /// [`block_sum`] of the payload of `extent`.
    fn stamp(self, extent: Extent) -> u64 {
        let mut h = BlockSum::new();
        self.runs(extent).for_each(|run| h.write(run));
        h.finish()
    }
}

/// One stamp to hash ahead: `extent` on view `store` of a
/// [`stamp_batch`], which fills in `sum`.
#[derive(Clone, Copy, Debug)]
pub struct StampJob {
    /// Index of the job's view in the batch's `stores`.
    pub store: usize,
    /// The block's extent, on its device.
    pub extent: Extent,
    /// [`block_sum`] of the extent's stored bytes, once the batch returns.
    pub sum: u64,
}

impl StampJob {
    /// A job for `extent` on view `store`, its sum not yet hashed.
    pub fn new(store: usize, extent: Extent) -> Self {
        StampJob {
            store,
            extent,
            sum: 0,
        }
    }
}

/// The least each share of a split [`stamp_batch`] hashes: ≈ 70 µs at
/// the 7–8 GB/s one core streams, against ≈ 26 µs to spawn and join a
/// scoped thread on the two-core host behind `BENCH_core.json`.
pub const STAMP_SHARE_MIN_BYTES: u64 = 512 << 10;

/// Fill every job's `sum` with [`block_sum`] of its extent's stored
/// bytes, two jobs per pass. A batch that gives every core
/// [`STAMP_SHARE_MIN_BYTES`] is cut into a share per core, on scoped
/// threads joined before it returns; a smaller one allocates nothing.
pub fn stamp_batch(stores: &[PayloadView<'_>], jobs: &mut [StampJob]) {
    // Asked once: the answer costs ≈ 13 µs and allocates.
    static CORES: OnceLock<u64> = OnceLock::new();
    let cores = *CORES.get_or_init(|| available_parallelism().map_or(1, |n| n.get() as u64));
    let ss = |j: &StampJob| stores[j.store].zero_sector.len() as u64;
    let bytes: u64 = jobs.iter().map(|j| j.extent.sectors * ss(j)).sum();
    let shares = (bytes / STAMP_SHARE_MIN_BYTES).min(cores) as usize;
    if shares < 2 {
        return stamp_pairs(stores, jobs);
    }
    std::thread::scope(|s| {
        let mut parts = jobs.chunks_mut(jobs.len().div_ceil(shares));
        let own = parts.next().expect("a batch worth splitting has jobs");
        for part in parts {
            s.spawn(|| stamp_pairs(stores, part));
        }
        stamp_pairs(stores, own);
    });
}

/// Stamp `jobs` on this thread, two per pass.
fn stamp_pairs(stores: &[PayloadView<'_>], jobs: &mut [StampJob]) {
    let mut pairs = jobs.chunks_exact_mut(2);
    for pair in &mut pairs {
        if let [a, b] = pair {
            (a.sum, b.sum) = sum_pair(stores[a.store], a.extent, stores[b.store], b.extent);
        }
    }
    for job in pairs.into_remainder() {
        job.sum = stores[job.store].stamp(job.extent);
    }
}

/// The stamps of `ea` on `pa` and `eb` on `pb`: their common length in
/// one interleaved pass, then the longer one's rest alone. Runs are whole
/// sectors, so every piece is whole stripes.
fn sum_pair(pa: PayloadView<'_>, ea: Extent, pb: PayloadView<'_>, eb: Extent) -> (u64, u64) {
    let (mut ha, mut hb) = (BlockSum::new(), BlockSum::new());
    let (mut runs_a, mut runs_b) = (pa.runs(ea), pb.runs(eb));
    let (mut a, mut b): (&[u8], &[u8]) = (&[], &[]);
    loop {
        if a.is_empty() {
            let Some(run) = runs_a.next() else { break };
            a = run;
        }
        if b.is_empty() {
            let Some(run) = runs_b.next() else { break };
            b = run;
        }
        let n = a.len().min(b.len());
        ha.write_pair(&a[..n], &mut hb, &b[..n]);
        (a, b) = (&a[n..], &b[n..]);
    }
    ha.write(a);
    hb.write(b);
    runs_a.for_each(|run| ha.write(run));
    runs_b.for_each(|run| hb.write(run));
    (ha.finish(), hb.finish())
}

/// Every `f64 → ns` conversion an access needs, made once per disk.
/// Geometry and seek model are fixed at construction, so each entry is
/// the value the float expression beside it yields on every call — the
/// tables change when a number is computed, never which number.
#[derive(Debug)]
struct Timing {
    /// `seek_time(d).to_nanos()` by cylinder distance `d`.
    seek: Box<[Nanos]>,
    /// Angle of each sector of a track, in nanoseconds of rotation past
    /// the index mark.
    sector_angle_ns: Box<[u64]>,
    /// One revolution, in nanoseconds.
    rot_ns: u64,
    /// One sector passing under the head.
    sector: Nanos,
    /// A head switch: paid at every track boundary inside a transfer.
    head_switch: Nanos,
    /// A one-cylinder seek: paid at every cylinder boundary inside a
    /// transfer.
    track_seek: Nanos,
}

impl Timing {
    fn new(g: &DiskGeometry, seek_model: &SeekModel) -> Self {
        let rot_ns = g.rotation_time().to_nanos().as_nanos();
        let spt = g.sectors_per_track;
        Timing {
            seek: (0..g.cylinders)
                .map(|d| seek_model.seek_time(d).to_nanos())
                .collect(),
            sector_angle_ns: (0..spt)
                .map(|sector| (sector as f64 / spt as f64 * rot_ns as f64) as u64)
                .collect(),
            rot_ns,
            sector: g.sector_time().to_nanos(),
            head_switch: g.head_switch.to_nanos(),
            track_seek: seek_model.seek_time(1).to_nanos(),
        }
    }
}

/// Whether an access reads or writes the medium.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessKind {
    /// Transfer from medium to host.
    Read,
    /// Transfer from host to medium.
    Write,
}

/// The fully-decomposed timing of one disk operation.
#[derive(Clone, Copy, Debug)]
pub struct DiskOp {
    /// The extent accessed.
    pub extent: Extent,
    /// Read or write.
    pub kind: AccessKind,
    /// When the operation was issued.
    pub issued: Instant,
    /// Arm movement time.
    pub seek: Nanos,
    /// Rotational delay waiting for the first sector.
    pub rotation: Nanos,
    /// Media transfer time (including head/track switches).
    pub transfer: Nanos,
    /// Completion instant (`issued + seek + rotation + transfer`).
    pub completed: Instant,
}

impl DiskOp {
    /// Total service time of the operation.
    #[inline]
    pub fn service_time(&self) -> Nanos {
        self.completed - self.issued
    }

    /// Positioning overhead (seek + rotation), the paper's per-block
    /// "scattering" cost.
    #[inline]
    pub fn positioning(&self) -> Nanos {
        self.seek + self.rotation
    }
}

/// A simulated disk drive.
///
/// The drive is deterministic: given the same sequence of `(issue time,
/// extent)` accesses it produces the same service times. The platter's
/// angular position is derived from the issue time (`rpm` revolutions per
/// minute since t=0), the arm position is the cylinder of the last access,
/// and transfer crosses track/cylinder boundaries paying head-switch and
/// track-to-track seek costs.
///
/// Sector payloads are stored sparsely, a chunk of `CHUNK_SECTORS` at
/// a time; unwritten sectors read back as zeroes, like a
/// freshly-formatted drive.
///
/// A disk executes a [`FaultPlan`] once one is armed
/// ([`SimDisk::arm_faults`]); until then, and under
/// [`FaultPlan::clean`], no access fails.
#[derive(Debug)]
pub struct SimDisk {
    geometry: DiskGeometry,
    seek_model: SeekModel,
    /// Shared with every disk built from this one by [`SimDisk::new_like`].
    timing: Arc<Timing>,
    head_cylinder: u64,
    /// Chunk `i` covers sectors `i × CHUNK_SECTORS ..`; `None` until one
    /// of them is written and again once all are discarded. Grown to the
    /// highest chunk ever written, so an emptier disk is a shorter table.
    store: Vec<Option<Chunk>>,
    /// Set bits over every chunk's `written`.
    sectors_written: usize,
    /// What a read of a sector no chunk backs sees.
    zero_sector: Box<[u8]>,
    /// Sums hashed ahead ([`SimDisk::offer_sum`]), oldest first; a
    /// change to the store voids those it overlaps.
    offered: RefCell<VecDeque<(Extent, u64)>>,
    stats: DiskStats,
    obs: ObsSink,
    /// Seeds the fault PRNG at every arm.
    fault_seed: u64,
    /// The armed plan and its state; `None` until the first arm.
    faults: Option<Box<Faults>>,
    /// When and at which sector the last access that did not fail ended:
    /// where a chained access can continue it ([`SimDisk::access_chained`]).
    chain_end: Option<(Instant, Lba)>,
}

impl SimDisk {
    /// A new disk with the head parked at cylinder 0 and observability
    /// disabled.
    pub fn new(geometry: DiskGeometry, seek_model: SeekModel) -> Self {
        assert!(
            geometry
                .sector_size
                .get()
                .is_multiple_of(BlockSum::STRIPE as u64),
            "sector size must be a whole number of {}-byte checksum stripes",
            BlockSum::STRIPE
        );
        let timing = Arc::new(Timing::new(&geometry, &seek_model));
        Self::with_timing(geometry, seek_model, timing)
    }

    /// A new, empty disk of `sibling`'s geometry and seek model that
    /// shares its timing tables (≈ 12 KB, ≈ 15 µs to build): what a
    /// cluster of identical members builds all but the first of.
    pub fn new_like(sibling: &SimDisk) -> Self {
        Self::with_timing(sibling.geometry, sibling.seek_model, sibling.timing.clone())
    }

    fn with_timing(geometry: DiskGeometry, seek_model: SeekModel, timing: Arc<Timing>) -> Self {
        SimDisk {
            timing,
            geometry,
            seek_model,
            head_cylinder: 0,
            store: Vec::new(),
            sectors_written: 0,
            zero_sector: vec![0; geometry.sector_size.get() as usize].into_boxed_slice(),
            offered: RefCell::default(),
            stats: DiskStats::default(),
            obs: ObsSink::noop(),
            fault_seed: 0,
            faults: None,
            chain_end: None,
        }
    }

    /// The same disk with its fault PRNG seeded from `seed` (0 by
    /// default): the same plan, seed and access sequence replay
    /// byte-identically.
    pub fn with_fault_seed(mut self, seed: u64) -> Self {
        self.fault_seed = seed;
        self
    }

    /// Install (or replace) a fault plan, resetting the plan's state and
    /// re-seeding the fault PRNG; [`SimDisk::fault_stats`] keeps
    /// counting. A plan's silent corruption rots the stored image now.
    pub fn arm_faults(&mut self, plan: FaultPlan) {
        let stats = self
            .faults
            .take()
            .map_or(FaultStats::default(), |f| f.stats);
        let mut f = Faults::new(plan, self.fault_seed, stats);
        // Rot before the op-level PRNG stream starts, so the same plan
        // and seed rot the same bits. The disk keeps serving the extent
        // with nominal timing — only a checksum can tell.
        for c in &f.plan.corrupt {
            let Some(mut data) = self.try_fetch(c.extent) else {
                continue;
            };
            if data.is_empty() {
                continue;
            }
            let bit = f.prng.bounded_u64(data.len() as u64 * 8);
            data[(bit / 8) as usize] ^= 1 << (bit % 8);
            self.store_data(c.extent, &data);
            f.stats.corrupted += 1;
        }
        self.faults = Some(Box::new(f));
    }

    /// Cumulative fault counters (all zero until a plan fires).
    pub fn fault_stats(&self) -> FaultStats {
        self.faults
            .as_ref()
            .map_or(FaultStats::default(), |f| f.stats)
    }

    /// Known-bad extents of the armed plan — first-class metadata for
    /// fsck, not a panic.
    pub fn bad_extents(&self) -> &[Extent] {
        self.faults.as_ref().map_or(&[], |f| &f.plan.bad)
    }

    /// True once the crash point fired and no power cycle has cleared it.
    pub fn is_crashed(&self) -> bool {
        self.faults.as_ref().is_some_and(|f| f.crashed)
    }

    /// Clear a crash-point freeze so the post-crash image can be
    /// remounted: the disk accepts operations again and the spent crash
    /// point is disarmed (other fault state is retained).
    pub fn power_cycle(&mut self) {
        if let Some(f) = &mut self.faults {
            f.crashed = false;
            f.plan.crash = None;
        }
    }

    /// The disk's geometry.
    #[inline]
    pub fn geometry(&self) -> &DiskGeometry {
        &self.geometry
    }

    /// The disk's seek model.
    #[inline]
    pub fn seek_model(&self) -> &SeekModel {
        &self.seek_model
    }

    /// The cylinder the arm currently rests on.
    #[inline]
    pub fn head_cylinder(&self) -> u64 {
        self.head_cylinder
    }

    /// Cumulative operation statistics.
    #[inline]
    pub fn stats(&self) -> &DiskStats {
        &self.stats
    }

    /// Route this disk's [`Event::DiskOp`] stream into `obs`.
    pub fn set_obs(&mut self, obs: ObsSink) {
        self.obs = obs;
    }

    /// Worst-case positioning time: full-stroke seek plus one full
    /// rotation — the paper's `l_seek_max` (seek *and* latency maximum).
    pub fn max_positioning_time(&self) -> Seconds {
        self.seek_model.max_seek(self.geometry.cylinders) + self.geometry.rotation_time()
    }

    /// Expected positioning time for a move of `cylinder_distance`
    /// cylinders: seek plus average (half-rotation) latency. This is the
    /// deterministic gap-time estimate the allocators and the analytic
    /// model share.
    pub fn positioning_time(&self, cylinder_distance: u64) -> Seconds {
        self.seek_model.seek_time(cylinder_distance) + self.geometry.rotation_time() / 2.0
    }

    /// Perform a timed access of `extent`, returning its decomposed
    /// timing — stretched, or failed with the wasted attempt's timing, as
    /// the armed plan says. Panics if the extent is off-device (a
    /// file-system bug, not an I/O error — real drivers validate requests
    /// before issue).
    #[inline]
    pub fn access(&mut self, now: Instant, extent: Extent, kind: AccessKind) -> AccessResult {
        self.run(now, extent, kind, false)
    }

    /// [`Self::access`] for the next block of one request. Issued at the
    /// instant the last access that did not fail ended, at the sector
    /// after it, the access is charged as the rest of one extent: no seek, no
    /// rotational wait, and at the seam exactly the head switch and track
    /// seek [`Self::transfer_time`] charges there inside one extent. Any
    /// other access costs exactly what `access` costs.
    #[inline]
    pub fn access_chained(&mut self, now: Instant, e: Extent, kind: AccessKind) -> AccessResult {
        self.run(now, e, kind, self.chain_end == Some((now, e.start)))
    }

    fn run(&mut self, now: Instant, extent: Extent, kind: AccessKind, chain: bool) -> AccessResult {
        assert!(
            self.geometry.extent_valid(extent),
            "access beyond device: {extent:?} on {} sectors",
            self.geometry.total_sectors()
        );

        let target_cyl = self.geometry.cylinder_of(extent.start);
        let distance = target_cyl.abs_diff(self.head_cylinder);
        let (seek, rotation, transfer) = if chain {
            // The seam's switches, as inside the extent `start - 1 ..`.
            let seam = Extent::new(extent.start - 1, extent.sectors + 1);
            let transfer = self.transfer_time(seam) - self.timing.sector;
            (Nanos::ZERO, Nanos::ZERO, transfer)
        } else {
            let seek = self.timing.seek[distance as usize];
            // Rotational delay: the platter angle is a pure function of time.
            let rotation = self.rotational_delay(now + seek, extent.start);
            (seek, rotation, self.transfer_time(extent))
        };

        let completed = now + seek + rotation + transfer;
        self.head_cylinder = self.geometry.cylinder_of(extent.end() - 1);

        let mut op = DiskOp {
            extent,
            kind,
            issued: now,
            seek,
            rotation,
            transfer,
            completed,
        };
        let applied = match self.faults.as_deref_mut() {
            Some(f) => f.apply(&mut op),
            None => Applied::default(),
        };
        if let Some(lost) = applied.lost {
            self.drop_sectors(lost);
        }
        let ended = (op.completed, extent.end());
        self.chain_end = applied.fault.is_none().then_some(ended);
        self.stats.record(&op);
        let dir = match kind {
            AccessKind::Read => AccessDir::Read,
            AccessKind::Write => AccessDir::Write,
        };
        self.obs.emit(|| Event::DiskOp {
            dir,
            lba: extent.start,
            sectors: extent.sectors,
            cylinder: target_cyl,
            cyl_distance: distance,
            issued: now,
            seek: op.seek,
            rotation: op.rotation,
            transfer: op.transfer,
        });
        let fault = |class, penalty| Event::Fault {
            class,
            dir,
            lba: extent.start,
            sectors: extent.sectors,
            issued: now,
            detected: op.completed,
            penalty,
        };
        if applied.degraded > Nanos::ZERO {
            self.obs
                .emit(|| fault(FaultClass::Degraded, applied.degraded));
        }
        if applied.spike > Nanos::ZERO {
            self.obs.emit(|| fault(FaultClass::Spike, applied.spike));
        }
        match applied.fault {
            None => Ok(op),
            Some(kind) => {
                self.obs.emit(|| fault(kind.class(), op.service_time()));
                Err(Faulted { kind, op })
            }
        }
    }

    /// Rotational wait from `at` until sector `lba` first passes under the
    /// head.
    ///
    /// Nanosecond quantization can make a head that is exactly on the
    /// target sector appear a few nanoseconds past it, turning a zero wait
    /// into a full revolution; waits within `ROT_EPSILON_NS` of a full
    /// revolution are therefore treated as zero.
    fn rotational_delay(&self, at: Instant, lba: Lba) -> Nanos {
        const ROT_EPSILON_NS: u64 = 256;
        let rot_ns = self.timing.rot_ns;
        if rot_ns == 0 {
            return Nanos::ZERO;
        }
        let target_angle_ns = self.timing.sector_angle_ns[self.geometry.sector_of(lba) as usize];
        let now_angle_ns = at.as_nanos() % rot_ns;
        let wait = if target_angle_ns >= now_angle_ns {
            target_angle_ns - now_angle_ns
        } else {
            rot_ns - (now_angle_ns - target_angle_ns)
        };
        if wait + ROT_EPSILON_NS >= rot_ns {
            Nanos::ZERO
        } else {
            Nanos::from_nanos(wait)
        }
    }

    /// Media transfer time for `extent`, paying a head switch at every
    /// track boundary and a track-to-track seek at every cylinder boundary.
    pub fn transfer_time(&self, extent: Extent) -> Nanos {
        let g = &self.geometry;
        let mut total = self.timing.sector.mul_u64(extent.sectors);
        // Boundary crossings within the run.
        let first_track = extent.start / g.sectors_per_track;
        let last_track = (extent.end() - 1) / g.sectors_per_track;
        let track_switches = last_track - first_track;
        let first_cyl = g.cylinder_of(extent.start);
        let last_cyl = g.cylinder_of(extent.end() - 1);
        let cyl_switches = last_cyl - first_cyl;
        total += self.timing.head_switch.mul_u64(track_switches);
        total += self.timing.track_seek.mul_u64(cyl_switches);
        total
    }

    /// Write `data`, zero-padded to the extent's byte size (it may not be
    /// longer), into `extent`: the pad replaces whatever the sectors held.
    /// Only the payload store is touched; use [`Self::access`] for
    /// timing. Panics if the extent is off-device, like `access`. A
    /// crashed disk drops the store: its image froze at the crash point.
    pub fn store_data(&mut self, extent: Extent, data: &[u8]) {
        self.void_offers(extent);
        if self.is_crashed() {
            return;
        }
        let ss = self.geometry.sector_size.get() as usize;
        assert!(
            data.len() <= ss * extent.sectors as usize,
            "payload longer than its extent"
        );
        assert!(
            self.geometry.extent_valid(extent),
            "store beyond device: {extent:?} on {} sectors",
            self.geometry.total_sectors()
        );
        let chunks = extent.end().div_ceil(CHUNK_SECTORS) as usize;
        if self.store.len() < chunks {
            self.store.resize_with(chunks, || None);
        }
        let mut rest = data;
        for (idx, first, n) in chunk_runs(extent) {
            let chunk = self.store[idx].get_or_insert_with(|| Chunk {
                written: 0,
                bytes: vec![0; CHUNK_SECTORS as usize * ss].into_boxed_slice(),
            });
            let mask = run_mask(first, n);
            self.sectors_written += (mask & !chunk.written).count_ones() as usize;
            chunk.written |= mask;
            let (run, tail) = rest.split_at(rest.len().min(n * ss));
            let sectors = &mut chunk.bytes[first * ss..][..n * ss];
            sectors[..run.len()].copy_from_slice(run);
            sectors[run.len()..].fill(0);
            rest = tail;
        }
    }

    /// The payload store as a `Sync` view, for [`stamp_batch`].
    pub fn payload(&self) -> PayloadView<'_> {
        PayloadView {
            store: &self.store,
            zero_sector: &self.zero_sector,
        }
    }

    /// Read the payload of `extent`, or `None` if any part of the extent
    /// lies off the device. The checked variant the storage manager uses:
    /// a corrupt on-disk pointer surfaces as an error, not a panic or a
    /// silent zero-fill.
    pub fn try_fetch(&self, extent: Extent) -> Option<Vec<u8>> {
        if !self.geometry.extent_valid(extent) {
            return None;
        }
        Some(self.fetch_data(extent))
    }

    /// Read the payload of `extent`; unwritten sectors come back zeroed.
    pub fn fetch_data(&self, extent: Extent) -> Vec<u8> {
        let ss = self.geometry.sector_size.get() as usize;
        let mut out = Vec::with_capacity(ss * extent.sectors as usize);
        for run in self.payload().runs(extent) {
            out.extend_from_slice(run);
        }
        out
    }

    /// [`block_sum`] of the payload of `extent` (unwritten sectors count
    /// as zeroes), or `None` off-device — the sum of
    /// [`SimDisk::try_fetch`] without materializing the copy. The
    /// verified-read and scrub paths call this per block, so it must
    /// not allocate. A sum offered for `extent` ([`SimDisk::offer_sum`])
    /// answers instead of a hash, and is used up.
    pub fn fetch_sum(&self, extent: Extent) -> Option<u64> {
        if !self.geometry.extent_valid(extent) {
            return None;
        }
        let mut offered = self.offered.borrow_mut();
        let Some(i) = offered.iter().position(|&(e, _)| e == extent) else {
            return Some(self.payload().stamp(extent));
        };
        let (_, sum) = offered.remove(i).expect("the offer just found");
        debug_assert_eq!(sum, self.payload().stamp(extent), "stale offer {extent:?}");
        Some(sum)
    }

    /// Offer `sum`, hashed ahead by a [`stamp_batch`], as the stamp of
    /// `extent`: the next [`SimDisk::fetch_sum`] of `extent` takes it
    /// instead of hashing (debug builds hash anyway, and compare). A
    /// store, discard, lost write or rot voids every offer it overlaps.
    pub fn offer_sum(&self, extent: Extent, sum: u64) {
        self.offered.borrow_mut().push_back((extent, sum));
    }

    /// Drop every offer not yet taken; returns how many there were.
    pub fn drop_offered(&self) -> usize {
        self.offered.borrow_mut().drain(..).count()
    }

    /// Drop the offers whose bytes a change to `extent` may touch.
    fn void_offers(&mut self, extent: Extent) {
        self.offered.get_mut().retain(|(e, _)| !e.overlaps(extent));
    }

    /// Drop the payload of `extent` (models discard; timing-neutral).
    /// A crashed disk keeps its frozen image.
    pub fn discard_data(&mut self, extent: Extent) {
        if !self.is_crashed() {
            self.drop_sectors(extent);
        }
    }

    fn drop_sectors(&mut self, extent: Extent) {
        self.void_offers(extent);
        let ss = self.geometry.sector_size.get() as usize;
        for (idx, first, n) in chunk_runs(extent) {
            let Some(Some(chunk)) = self.store.get_mut(idx) else {
                continue;
            };
            let mask = run_mask(first, n);
            self.sectors_written -= (mask & chunk.written).count_ones() as usize;
            chunk.written &= !mask;
            if chunk.written == 0 {
                self.store[idx] = None;
            } else {
                chunk.bytes[first * ss..][..n * ss].fill(0);
            }
        }
    }

    /// Number of sectors currently holding written payloads.
    pub fn sectors_written(&self) -> usize {
        self.sectors_written
    }

    /// FNV-1a hash over every written sector in address order: a stable
    /// fingerprint of the device image for byte-identity assertions
    /// (crash-point determinism — same plan, seed and access sequence
    /// must freeze byte-identical post-crash images).
    pub fn content_hash(&self) -> u64 {
        let ss = self.geometry.sector_size.get() as usize;
        let mut h = Fnv1a::new();
        for (idx, chunk) in self.store.iter().enumerate() {
            let Some(chunk) = chunk else { continue };
            let mut left = chunk.written;
            while left != 0 {
                let i = left.trailing_zeros() as usize;
                left &= left - 1;
                let lba = idx as Lba * CHUNK_SECTORS + i as Lba;
                h.write(&lba.to_le_bytes());
                h.write(&chunk.bytes[i * ss..][..ss]);
            }
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strandfs_units::Prng;

    fn disk() -> SimDisk {
        SimDisk::new(DiskGeometry::tiny_test(), SeekModel::vintage_1991())
    }

    #[test]
    fn access_timing_decomposes() {
        let mut d = disk();
        let op = d
            .access(Instant::EPOCH, Extent::new(0, 4), AccessKind::Read)
            .unwrap();
        assert_eq!(op.seek, Nanos::ZERO, "head starts at cylinder 0");
        assert_eq!(
            op.completed,
            Instant::EPOCH + op.seek + op.rotation + op.transfer
        );
        assert_eq!(op.service_time(), op.seek + op.rotation + op.transfer);
        // 4 sectors at tiny geometry: 4 * (1/60/16) s, up to per-sector
        // nanosecond rounding.
        let expect = Seconds::new(4.0 / 60.0 / 16.0).to_nanos();
        let delta = expect.max(op.transfer) - expect.min(op.transfer);
        assert!(delta < Nanos::from_nanos(16), "delta = {delta}");
    }

    #[test]
    fn seek_charged_for_cylinder_moves() {
        let mut d = disk();
        let far = d.geometry().sectors_per_cylinder() * 40; // cylinder 40
        let op = d
            .access(Instant::EPOCH, Extent::new(far, 1), AccessKind::Read)
            .unwrap();
        assert!(op.seek > Nanos::ZERO);
        assert_eq!(d.head_cylinder(), 40);
        // Returning to cylinder 40 is then free of seek.
        let op2 = d
            .access(op.completed, Extent::new(far + 1, 1), AccessKind::Read)
            .unwrap();
        assert_eq!(op2.seek, Nanos::ZERO);
    }

    #[test]
    fn rotation_bounded_by_one_revolution() {
        let mut d = disk();
        let rev = d.geometry().rotation_time().to_nanos();
        let mut t = Instant::EPOCH;
        for i in 0..50 {
            let lba = (i * 7) % d.geometry().total_sectors();
            let op = d.access(t, Extent::new(lba, 1), AccessKind::Read).unwrap();
            assert!(op.rotation < rev, "rotation {} >= rev {}", op.rotation, rev);
            t = op.completed;
        }
    }

    #[test]
    fn rotation_is_time_dependent_but_deterministic() {
        let mut d1 = disk();
        let mut d2 = disk();
        let e = Extent::new(5, 1);
        let a = d1
            .access(
                Instant::EPOCH + Nanos::from_micros(123),
                e,
                AccessKind::Read,
            )
            .unwrap();
        let b = d2
            .access(
                Instant::EPOCH + Nanos::from_micros(123),
                e,
                AccessKind::Read,
            )
            .unwrap();
        assert_eq!(a.rotation, b.rotation);
        assert_eq!(a.completed, b.completed);
    }

    #[test]
    fn sequential_same_track_reads_have_zero_rotation_gap() {
        // After reading sector s, sector s+1 is immediately under the head.
        let mut d = disk();
        let op1 = d
            .access(Instant::EPOCH, Extent::new(0, 1), AccessKind::Read)
            .unwrap();
        let op2 = d
            .access(op1.completed, Extent::new(1, 1), AccessKind::Read)
            .unwrap();
        assert_eq!(op2.rotation, Nanos::ZERO);
        assert_eq!(op2.seek, Nanos::ZERO);
    }

    #[test]
    fn adjacent_reads_across_a_track_boundary_lose_a_revolution_less_the_head_switch() {
        // Block 1 starts on sector 0 with no wait and crosses into track
        // 1; block 2 starts at the very next sector, issued the instant
        // block 1 ended. The platter angle does not count the head switch
        // block 1 paid, so an unchained read of block 2 finds its sector
        // one head switch gone and waits for it to come round again.
        let mut d = disk();
        let g = *d.geometry();
        let spt = g.sectors_per_track;
        let first = d
            .access(Instant::EPOCH, Extent::new(0, spt + 4), AccessKind::Read)
            .unwrap();
        assert_eq!(first.positioning(), Nanos::ZERO);
        let second = d
            .access(first.completed, Extent::new(spt + 4, 4), AccessKind::Read)
            .unwrap();
        let lost = g.rotation_time().to_nanos() - g.head_switch.to_nanos();
        let off = lost.max(second.rotation) - lost.min(second.rotation);
        // Up to the nanoseconds each sector angle and time rounds off.
        assert!(off < Nanos::from_nanos(64), "{second:?} waits {off} off");
        assert_eq!(second.seek, Nanos::ZERO);
    }

    #[test]
    fn a_chained_access_after_a_failed_one_is_a_plain_access() {
        // The seam is a track boundary, where a chained block would pay
        // a head switch and a plain one waits for nothing.
        let spt = DiskGeometry::tiny_test().sectors_per_track;
        let bad = Extent::new(spt - 4, 4);
        let plan = FaultPlan::clean().with_bad_extent(bad);
        let (mut chained, mut plain) = (disk(), disk());
        chained.arm_faults(plan.clone());
        plain.arm_faults(plan);
        let failed = chained
            .access_chained(Instant::EPOCH, bad, AccessKind::Read)
            .unwrap_err();
        plain
            .access(Instant::EPOCH, bad, AccessKind::Read)
            .unwrap_err();
        let next = Extent::new(spt, 4);
        let at = failed.op.completed;
        let c = chained.access_chained(at, next, AccessKind::Read).unwrap();
        let p = plain.access(at, next, AccessKind::Read).unwrap();
        assert_eq!(format!("{c:?}"), format!("{p:?}"));
        assert_eq!(chained.stats(), plain.stats());
    }

    #[test]
    fn transfer_pays_track_and_cylinder_switches() {
        let mut d = disk();
        let g = *d.geometry();
        // Span one full cylinder boundary: start on last track of cyl 0.
        let start = g.sectors_per_cylinder() - 2;
        let op = d
            .access(Instant::EPOCH, Extent::new(start, 4), AccessKind::Read)
            .unwrap();
        let plain = g.sector_time().to_nanos().mul_u64(4);
        assert!(op.transfer > plain, "boundary crossing must cost extra");
    }

    #[test]
    fn disks_sharing_a_timing_table_time_like_disks_with_their_own() {
        let model = disk();
        let mut shared = [SimDisk::new_like(&model), SimDisk::new_like(&model)];
        let mut own = [disk(), disk()];
        assert!(Arc::ptr_eq(&shared[0].timing, &shared[1].timing));
        assert!(!Arc::ptr_eq(&own[0].timing, &own[1].timing));
        // Each disk of a pair walks its own way, so the pairs agree only
        // if arm position and stats stay per disk.
        let total = model.geometry().total_sectors();
        let mut t = Instant::EPOCH;
        for i in 0..200u64 {
            let which = (i % 3 == 0) as usize;
            let e = Extent::new((i * 977 + which as u64 * 131) % (total - 40), 1 + i % 40);
            let kind = if i % 2 == 0 {
                AccessKind::Read
            } else {
                AccessKind::Write
            };
            let a = shared[which].access(t, e, kind).unwrap();
            let b = own[which].access(t, e, kind).unwrap();
            assert_eq!(
                (a.seek, a.rotation, a.transfer, a.completed),
                (b.seek, b.rotation, b.transfer, b.completed),
                "access {i} of {e:?}"
            );
            t = a.completed;
        }
        for which in 0..2 {
            assert_eq!(shared[which].head_cylinder(), own[which].head_cylinder());
            assert_eq!(
                shared[which].stats().busy_time(),
                own[which].stats().busy_time()
            );
            assert_eq!(shared[which].geometry(), own[which].geometry());
            assert_eq!(shared[which].seek_model(), own[which].seek_model());
            assert_eq!(shared[which].sectors_written(), 0);
        }
    }

    #[test]
    #[should_panic(expected = "access beyond device")]
    fn off_device_access_panics() {
        let mut d = disk();
        let total = d.geometry().total_sectors();
        d.access(Instant::EPOCH, Extent::new(total - 1, 2), AccessKind::Read)
            .unwrap();
    }

    #[test]
    fn payload_round_trip_and_zero_fill() {
        let mut d = disk();
        let e = Extent::new(10, 2);
        let data = vec![0xAB; 1024];
        d.store_data(e, &data);
        assert_eq!(d.fetch_data(e), data);
        // Unwritten sector reads back zeroed.
        let z = d.fetch_data(Extent::new(12, 1));
        assert!(z.iter().all(|&b| b == 0));
        d.discard_data(e);
        assert_eq!(d.sectors_written(), 0);
        assert!(d.fetch_data(e).iter().all(|&b| b == 0));
    }

    #[test]
    fn fetch_sum_matches_sum_of_fetched_bytes() {
        let mut d = disk();
        let e = Extent::new(20, 3);
        let mut data = vec![0u8; 3 * 512];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        d.store_data(e, &data);
        assert_eq!(d.fetch_sum(e), Some(block_sum(&data)));
        // Partially-written extents hash the zero-fill, same as fetch.
        let partial = Extent::new(21, 4);
        assert_eq!(
            d.fetch_sum(partial),
            Some(block_sum(&d.fetch_data(partial))),
            "unwritten sectors hash as zeroes"
        );
        // Off-device is a corrupt pointer, not a panic.
        let total = d.geometry().total_sectors();
        assert_eq!(d.fetch_sum(Extent::new(total - 1, 2)), None);
    }

    /// `len` seeded pseudo-random bytes.
    fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mut bytes = vec![0u8; len];
        Prng::seed_from_u64(seed).fill_bytes(&mut bytes);
        bytes
    }

    #[test]
    fn every_single_bit_flip_changes_the_block_sum() {
        let mut block = noise(1, 4096);
        let clean = block_sum(&block);
        for bit in 0..8 * block.len() {
            block[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(block_sum(&block), clean, "bit {bit} went unseen");
            block[bit / 8] ^= 1 << (bit % 8);
        }
        assert_eq!(block_sum(&block), clean);
    }

    #[test]
    fn block_sum_sees_order_and_length() {
        let block = noise(2, 4096);
        let clean = block_sum(&block);
        let swapped = |a: usize, b: usize, len: usize| {
            let mut v = block.clone();
            let (lo, hi) = v.split_at_mut(b);
            lo[a..a + len].swap_with_slice(&mut hi[..len]);
            block_sum(&v)
        };
        // Two stripes trade places; two words of one stripe trade lanes.
        assert_ne!(swapped(64, 96, 32), clean);
        assert_ne!(swapped(3 * 32, 3 * 32 + 8, 8), clean);
        // Trailing zeroes count: a longer block of the same content.
        let mut longer = block.clone();
        longer.resize(block.len() + 512, 0);
        assert_ne!(block_sum(&longer), clean);
        assert_ne!(block_sum(&[0; 512]), block_sum(&[0; 1024]));
    }

    #[test]
    fn streaming_at_sector_boundaries_equals_one_shot() {
        const SECTORS: usize = 7;
        let block = noise(3, SECTORS * 512);
        let whole = block_sum(&block);
        // Bit `i` of `cuts` set: a piece ends after sector `i`.
        for cuts in 0u32..1 << (SECTORS - 1) {
            let mut h = BlockSum::new();
            let mut from = 0;
            for sector in 0..SECTORS {
                if cuts >> sector & 1 == 1 || sector == SECTORS - 1 {
                    h.write(&block[from..(sector + 1) * 512]);
                    from = (sector + 1) * 512;
                }
            }
            assert_eq!(h.finish(), whole, "cuts {cuts:#b}");
        }
    }

    #[test]
    fn a_tail_shorter_than_a_stripe_is_summed_and_pinned() {
        // Pinned: these values are on disk in every strand index and
        // journal `Append` record, so the algorithm cannot drift.
        assert_eq!(block_sum(&[]), 0x124e_7514_4c57_4e80);
        assert_eq!(block_sum(b"strandfs"), 0x90be_1f38_2c52_08d1);
        let odd = noise(4, 3 * 32 + 5);
        assert_eq!(block_sum(&odd), 0x0f19_a516_849c_330f);
        // Every tail byte counts, and so does the tail's length.
        for i in 3 * 32..odd.len() {
            let mut v = odd.clone();
            v[i] ^= 0x80;
            assert_ne!(block_sum(&v), block_sum(&odd), "tail byte {i}");
        }
        assert_ne!(block_sum(&odd[..odd.len() - 1]), block_sum(&odd));
    }

    #[test]
    fn no_block_sums_to_the_unstamped_marker() {
        let mut rng = Prng::seed_from_u64(5);
        for _ in 0..20_000 {
            let len = rng.gen_range(0usize..700);
            let mut bytes = vec![0u8; len];
            if rng.gen_bool(0.8) {
                rng.fill_bytes(&mut bytes);
            }
            assert_ne!(block_sum(&bytes), 0, "{len} bytes");
        }
        // The one input the mix could send to zero is moved off it, and
        // nothing else moves.
        assert_eq!(BlockSum::off_zero(0), 1);
        assert_eq!(BlockSum::off_zero(1), 1);
        assert_eq!(BlockSum::off_zero(u64::MAX), u64::MAX);
    }

    /// Hash `extent` of `d` in a batch and offer the sum to `d`.
    fn offer(d: &SimDisk, extent: Extent) -> u64 {
        let mut jobs = [StampJob {
            store: 0,
            extent,
            sum: 0,
        }];
        stamp_batch(&[d.payload()], &mut jobs);
        d.offer_sum(extent, jobs[0].sum);
        jobs[0].sum
    }

    #[test]
    fn an_offered_sum_answers_one_check() {
        let mut d = disk();
        // Across the chunk boundary at sector 64.
        let e = Extent::new(60, 8);
        d.store_data(e, &noise(7, 8 * 512));
        let sum = offer(&d, e);
        assert_eq!(sum, block_sum(&d.fetch_data(e)));
        offer(&d, Extent::new(200, 4));
        assert_eq!(d.fetch_sum(e), Some(sum));
        assert_eq!(d.drop_offered(), 1, "the check took its own offer only");
        // Offered twice, asked three times: the third check hashes.
        offer(&d, e);
        offer(&d, e);
        for _ in 0..3 {
            assert_eq!(d.fetch_sum(e), Some(sum));
        }
        assert_eq!(d.drop_offered(), 0);
        // Off the device an offer answers nothing.
        let total = d.geometry().total_sectors();
        let off = Extent::new(total - 1, 2);
        d.offer_sum(off, 1);
        assert_eq!(d.fetch_sum(off), None);
    }

    #[test]
    fn a_sum_offered_never_outlives_its_bytes() {
        use crate::fault::CrashPoint;
        type Change = fn(&mut SimDisk);
        let e = Extent::new(60, 8);
        let changes: [(&str, Change); 4] = [
            ("a store", |d| {
                d.store_data(Extent::new(60, 8), &[0xA5; 700])
            }),
            ("silent corruption", |d| {
                d.arm_faults(FaultPlan::clean().with_silent_corruption(Extent::new(60, 8)))
            }),
            ("a discard", |d| d.discard_data(Extent::new(63, 2))),
            ("a crash freeze", |d| {
                d.arm_faults(FaultPlan::clean().with_crash_point(CrashPoint::AfterWrites(0)));
                let torn = d.access(Instant::EPOCH, Extent::new(60, 8), AccessKind::Write);
                assert!(torn.is_err() && d.is_crashed());
            }),
        ];
        for (what, change) in changes {
            let mut d = disk();
            d.store_data(e, &noise(8, 8 * 512));
            let before = offer(&d, e);
            change(&mut d);
            let now = block_sum(&d.fetch_data(e));
            assert_ne!(now, before, "{what} left the bytes as they were");
            assert_eq!(d.fetch_sum(e), Some(now), "{what}");
            assert_eq!(d.drop_offered(), 0, "{what}");
        }
        // A change voids exactly the offers it overlaps: one abutting
        // `e` at either end, or far off, leaves its offer to be taken;
        // one overlapping either end, inside it or around it voids it.
        type Touch = fn(&mut SimDisk, Extent);
        let touches: [(&str, Touch); 3] = [
            ("a store", |d, x| d.store_data(x, &[0x5A; 300])),
            ("a discard", |d, x| d.discard_data(x)),
            ("armed rot", |d, x| {
                d.arm_faults(FaultPlan::clean().with_silent_corruption(x))
            }),
        ];
        let disjoint = [Extent::new(56, 4), Extent::new(68, 4), Extent::new(200, 8)];
        let overlapping = [
            Extent::new(56, 6),
            Extent::new(66, 4),
            Extent::new(63, 2),
            Extent::new(58, 12),
        ];
        for (what, touch) in touches {
            let fresh = |x: Extent| {
                let mut d = disk();
                d.store_data(e, &noise(9, 8 * 512));
                d.store_data(x, &noise(10, 300));
                d
            };
            for x in disjoint {
                let mut d = fresh(x);
                let sum = offer(&d, e);
                offer(&d, e);
                touch(&mut d, x);
                assert_eq!(d.fetch_sum(e), Some(sum), "{what} at {x:?}");
                assert_eq!(d.drop_offered(), 1, "{what} at {x:?} voided an offer apart");
            }
            for x in overlapping {
                let mut d = fresh(x);
                offer(&d, e);
                touch(&mut d, x);
                assert_eq!(
                    d.drop_offered(),
                    0,
                    "{what} at {x:?} kept an offer it touched"
                );
            }
        }
    }

    #[test]
    fn stats_accumulate() {
        let mut d = disk();
        let op1 = d
            .access(Instant::EPOCH, Extent::new(0, 2), AccessKind::Read)
            .unwrap();
        let _ = d
            .access(op1.completed, Extent::new(100, 2), AccessKind::Write)
            .unwrap();
        assert_eq!(d.stats().reads, 1);
        assert_eq!(d.stats().writes, 1);
        assert_eq!(d.stats().sectors_transferred, 4);
    }

    #[test]
    fn obs_events_mirror_ops_exactly() {
        let (sink, recorder) = ObsSink::ring(16);
        let mut d = disk();
        d.set_obs(sink);
        let op1 = d
            .access(Instant::EPOCH, Extent::new(0, 2), AccessKind::Read)
            .unwrap();
        let op2 = d
            .access(op1.completed, Extent::new(100, 2), AccessKind::Write)
            .unwrap();
        let r = recorder.borrow();
        let events: Vec<_> = r.events().collect();
        assert_eq!(events.len(), 2);
        match events[1] {
            Event::DiskOp {
                dir,
                lba,
                sectors,
                seek,
                rotation,
                transfer,
                ..
            } => {
                assert_eq!(*dir, AccessDir::Write);
                assert_eq!(*lba, 100);
                assert_eq!(*sectors, 2);
                assert_eq!(*seek + *rotation + *transfer, op2.service_time());
            }
            e => panic!("unexpected event {e:?}"),
        }
        // Cumulative obs metrics agree with the disk's own stats.
        assert_eq!(r.metrics().tally.disk_busy, d.stats().busy_time());
    }
}

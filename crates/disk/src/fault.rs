//! Fault injection: a deterministic, seeded fault plan executed by the
//! simulated disk itself.
//!
//! The continuity analysis (Eqs. 1–3, 15–18) assumes every block access
//! completes in nominal `seek + rotation + transfer` time. Real media
//! servers lose sectors, suffer latency spikes and see transient read
//! errors; a robust design degrades gracefully instead of panicking.
//! This module provides the substrate for exercising that behaviour:
//!
//! * [`FaultPlan`] — a declarative description of what should go wrong:
//!   permanently bad extents, transient read errors that succeed after a
//!   fixed number of retries, a seeded random transient-error rate,
//!   latency spikes drawn from the vendored PRNG, and region-wide
//!   degraded-transfer windows;
//! * [`SimDisk::arm_faults`] — installs a plan on a disk, which then
//!   executes it on every access. It is deterministic under a fixed
//!   seed ([`SimDisk::with_fault_seed`]): the same plan, seed and access
//!   sequence produce byte-identical timing, statistics and
//!   observability event streams. A disk never armed, or armed with
//!   [`FaultPlan::clean`], never faults.
//!
//! Failed attempts still cost time — the arm moved and the platter spun
//! before the error was detected — so a fault returns the full
//! [`DiskOp`] timing of the wasted attempt. Callers decide whether the
//! continuity budget allows a retry (see the MSM's resilient read path).

#[cfg(doc)]
use crate::disk::SimDisk;
use crate::disk::{AccessKind, DiskOp};
use crate::geometry::{Extent, Lba};
use std::collections::HashMap;
use strandfs_obs::FaultClass;
use strandfs_units::prng::mix_seed;
use strandfs_units::{Instant, Nanos, Prng};

/// Domain-separation stream for the fault PRNG.
const FAULT_STREAM: u64 = 0xFA17;

/// Why a device access failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// Permanent media error: every attempt on these sectors fails.
    Media,
    /// Transient error: a later retry may succeed.
    Transient,
    /// Torn write: only a prefix of the written sectors persisted.
    Torn,
    /// The device hit its crash point (or was already crashed): the
    /// image is frozen and every access fails until a power cycle.
    Crashed,
}

impl FaultKind {
    /// The observability class a fault of this kind is reported under.
    pub(crate) fn class(self) -> FaultClass {
        match self {
            FaultKind::Media => FaultClass::Media,
            FaultKind::Transient => FaultClass::Transient,
            FaultKind::Torn => FaultClass::Torn,
            FaultKind::Crashed => FaultClass::Crashed,
        }
    }
}

/// A failed access. The attempt consumed real service time — the head
/// moved and the platter spun before the failure was detected — so the
/// wasted [`DiskOp`] timing is carried along; `op.completed` is the
/// instant the failure was detected.
#[derive(Clone, Copy, Debug)]
pub struct Faulted {
    /// Permanent or transient.
    pub kind: FaultKind,
    /// Timing of the failed attempt.
    pub op: DiskOp,
}

/// Outcome of one timed access ([`SimDisk::access`]).
pub type AccessResult = Result<DiskOp, Faulted>;

/// A transient read error pinned to an extent: reads overlapping
/// `extent` fail `failures` times, then succeed — the classic
/// success-after-N-retries pattern.
#[derive(Clone, Copy, Debug)]
pub struct TransientFault {
    /// Sectors affected.
    pub extent: Extent,
    /// Failures before the first success.
    pub failures: u32,
}

/// A seeded random transient-error process for fault-rate sweeps: each
/// read fails with probability `per_read`; a failing extent draws a
/// burst length in `1..=max_failures` and recovers after that many
/// failed attempts.
#[derive(Clone, Copy, Debug)]
pub struct RandomTransients {
    /// Probability that a (previously healthy) read faults.
    pub per_read: f64,
    /// Upper bound on consecutive failures per faulting extent.
    pub max_failures: u32,
}

/// Seeded latency spikes: with probability `per_op` an operation pays
/// extra positioning time drawn uniformly from `1..=max_extra` ns
/// (thermal recalibration, servo retries).
#[derive(Clone, Copy, Debug)]
pub struct SpikeCfg {
    /// Probability that an operation spikes.
    pub per_op: f64,
    /// Largest extra latency a spike can add.
    pub max_extra: Nanos,
}

/// A deterministic crash point: when it fires, the in-flight write is
/// torn (a seeded prefix of its sectors persists) and the device
/// freezes into its post-crash image — every later access fails with
/// [`FaultKind::Crashed`] and stores are dropped, until
/// [`SimDisk::power_cycle`] clears the freeze. Same plan + seed +
/// access sequence ⇒ byte-identical post-crash image.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CrashPoint {
    /// Crash on device write number `n` (0-based): the first `n` writes
    /// complete normally, the next one tears and freezes the device.
    AfterWrites(u64),
}

/// A degraded-transfer window: operations issued in `[from, until)`
/// (and overlapping `region`, when one is given) have their media
/// transfer stretched by `slowdown` (≥ 1.0) — a region of the drive
/// limping along at reduced rate.
#[derive(Clone, Copy, Debug)]
pub struct DegradedWindow {
    /// Window start (inclusive).
    pub from: Instant,
    /// Window end (exclusive).
    pub until: Instant,
    /// Affected sectors; `None` degrades the whole device.
    pub region: Option<Extent>,
    /// Transfer-time multiplier (values below 1.0 are treated as 1.0).
    pub slowdown: f64,
}

/// Silent corruption: at arm time, one seeded bit of each listed
/// extent's stored payload is flipped *in place*. The device itself
/// never notices — reads succeed with nominal timing and return the
/// rotten bytes — so only an end-to-end payload checksum can catch it.
/// This models bit rot and misdirected writes, the failure class that
/// hard `MediaError`s do not cover.
#[derive(Clone, Copy, Debug)]
pub struct SilentCorruption {
    /// The extent whose stored payload is damaged.
    pub extent: Extent,
}

/// A declarative fault plan. An empty plan injects nothing.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Permanently unreadable extents.
    pub bad: Vec<Extent>,
    /// Pinned success-after-N transient faults.
    pub transients: Vec<TransientFault>,
    /// Random transient-error process (fault-rate sweeps).
    pub random_transients: Option<RandomTransients>,
    /// Latency-spike process.
    pub spikes: Option<SpikeCfg>,
    /// Degraded-transfer windows.
    pub degraded: Vec<DegradedWindow>,
    /// Torn-write regions: every overlapping write persists only a
    /// seeded prefix of its sectors and fails with [`FaultKind::Torn`].
    pub torn: Vec<Extent>,
    /// Pinned success-after-N write transients: overlapping writes fail
    /// `failures` times (persisting nothing), then succeed.
    pub write_transients: Vec<TransientFault>,
    /// The crash point, if any.
    pub crash: Option<CrashPoint>,
    /// Silently-corrupted extents: one seeded bit flipped in each at
    /// arm time, invisible to the device ([`SilentCorruption`]).
    pub corrupt: Vec<SilentCorruption>,
    /// Fail-slow multiplier: every operation's service time is
    /// stretched by this factor *without ever erroring* — a gray member
    /// that is slow, not dead. Values at or below 1.0 are off.
    pub fail_slow: f64,
}

impl FaultPlan {
    /// The empty plan: a faultless device.
    pub fn clean() -> FaultPlan {
        FaultPlan::default()
    }

    /// Add a permanently bad extent.
    pub fn with_bad_extent(mut self, extent: Extent) -> Self {
        self.bad.push(extent);
        self
    }

    /// Add a pinned transient fault (fails `failures` times, then reads).
    pub fn with_transient(mut self, extent: Extent, failures: u32) -> Self {
        self.transients.push(TransientFault { extent, failures });
        self
    }

    /// Enable the random transient-error process.
    pub fn with_random_transients(mut self, per_read: f64, max_failures: u32) -> Self {
        self.random_transients = Some(RandomTransients {
            per_read,
            max_failures: max_failures.max(1),
        });
        self
    }

    /// Enable latency spikes.
    pub fn with_spikes(mut self, per_op: f64, max_extra: Nanos) -> Self {
        self.spikes = Some(SpikeCfg { per_op, max_extra });
        self
    }

    /// Add a degraded-transfer window.
    pub fn with_degraded_window(mut self, window: DegradedWindow) -> Self {
        self.degraded.push(window);
        self
    }

    /// Add a torn-write region (writes persist a seeded sector prefix).
    pub fn with_torn_extent(mut self, extent: Extent) -> Self {
        self.torn.push(extent);
        self
    }

    /// Add a pinned write transient (fails `failures` times persisting
    /// nothing, then writes succeed).
    pub fn with_write_transient(mut self, extent: Extent, failures: u32) -> Self {
        self.write_transients
            .push(TransientFault { extent, failures });
        self
    }

    /// Set the crash point.
    pub fn with_crash_point(mut self, crash: CrashPoint) -> Self {
        self.crash = Some(crash);
        self
    }

    /// Silently corrupt one seeded bit of `extent`'s stored payload at
    /// arm time (invisible to the device — only a checksum catches it).
    pub fn with_silent_corruption(mut self, extent: Extent) -> Self {
        self.corrupt.push(SilentCorruption { extent });
        self
    }

    /// Make the whole device fail-slow: every operation takes `factor`×
    /// its nominal service time, without ever erroring.
    pub fn with_fail_slow(mut self, factor: f64) -> Self {
        self.fail_slow = factor;
        self
    }
}

/// Cumulative fault counters of a disk, kept across re-arms
/// ([`SimDisk::fault_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Reads refused with a permanent media error.
    pub media_errors: u64,
    /// Accesses refused with a transient error (reads and writes).
    pub transient_errors: u64,
    /// Writes torn to a sector prefix.
    pub torn_writes: u64,
    /// Accesses refused because the device is crashed (the crash-point
    /// write itself included).
    pub crashed_ops: u64,
    /// Operations that paid a latency spike.
    pub spikes: u64,
    /// Operations slowed by a degraded-transfer window.
    pub degraded_ops: u64,
    /// Stored extents silently corrupted at arm time.
    pub corrupted: u64,
    /// Operations stretched by the fail-slow multiplier.
    pub fail_slow_ops: u64,
    /// Total service time charged to faults: wasted failed attempts plus
    /// extra latency from spikes and degraded transfers.
    pub penalty: Nanos,
}

/// The fault state of an armed disk: its plan, the PRNG the plan draws
/// from, what the plan has consumed so far, and the counters.
#[derive(Debug)]
pub(crate) struct Faults {
    pub(crate) plan: FaultPlan,
    pub(crate) prng: Prng,
    /// Remaining failures per pinned transient (parallel to
    /// `plan.transients`).
    transient_remaining: Vec<u32>,
    /// Remaining failures per pinned write transient (parallel to
    /// `plan.write_transients`).
    write_transient_remaining: Vec<u32>,
    /// Remaining failures per currently-faulting extent of the random
    /// transient process, keyed by extent start.
    random_remaining: HashMap<Lba, u32>,
    /// Device writes attempted while healthy (drives `AfterWrites`).
    writes_done: u64,
    /// True once the crash point fired: the image is frozen.
    pub(crate) crashed: bool,
    pub(crate) stats: FaultStats,
}

/// What an armed plan did to one access.
#[derive(Default)]
pub(crate) struct Applied {
    /// Transfer time added by degraded windows.
    pub(crate) degraded: Nanos,
    /// Positioning time added by a latency spike.
    pub(crate) spike: Nanos,
    /// Why the access failed, if it did.
    pub(crate) fault: Option<FaultKind>,
    /// Sectors a failed write leaves off the medium.
    pub(crate) lost: Option<Extent>,
}

impl Faults {
    /// Fresh state for `plan` with the PRNG seeded from `seed`; `stats`
    /// carries the counters over from the plan it replaces.
    pub(crate) fn new(plan: FaultPlan, seed: u64, stats: FaultStats) -> Faults {
        Faults {
            transient_remaining: plan.transients.iter().map(|t| t.failures).collect(),
            write_transient_remaining: plan.write_transients.iter().map(|t| t.failures).collect(),
            random_remaining: HashMap::new(),
            writes_done: 0,
            crashed: false,
            prng: Prng::seed_from_u64(mix_seed(seed, FAULT_STREAM)),
            plan,
            stats,
        }
    }

    /// Execute the plan on one nominal operation: stretch its timing in
    /// place and decide whether it fails. Draws from the PRNG happen in
    /// a fixed order (spike, then the read or write fault) so the
    /// stream is reproducible.
    pub(crate) fn apply(&mut self, op: &mut DiskOp) -> Applied {
        // Degraded-transfer windows stretch the media transfer.
        let degraded = self.degraded_extra(op.issued, op.extent, op.transfer);
        if degraded > Nanos::ZERO {
            op.transfer += degraded;
            self.stats.degraded_ops += 1;
            self.stats.penalty += degraded;
        }
        // Latency spikes charge extra positioning (servo retry /
        // recalibration), drawn from the seeded PRNG.
        let mut spike = Nanos::ZERO;
        if let Some(cfg) = self.plan.spikes {
            if cfg.per_op > 0.0 && self.prng.gen_bool(cfg.per_op.min(1.0)) {
                spike =
                    Nanos::from_nanos(1 + self.prng.bounded_u64(cfg.max_extra.as_nanos().max(1)));
                op.seek += spike;
                self.stats.spikes += 1;
                self.stats.penalty += spike;
            }
        }
        // Fail-slow: the gray member stretches *every* op's service
        // time by the plan's factor, silently — no fault event, no
        // error, nothing a health check keyed on errors would see.
        if self.plan.fail_slow > 1.0 {
            let nominal = (op.seek + op.rotation + op.transfer).as_nanos() as f64;
            let extra = Nanos::from_nanos((nominal * (self.plan.fail_slow - 1.0)) as u64);
            if extra > Nanos::ZERO {
                op.transfer += extra;
                self.stats.fail_slow_ops += 1;
                self.stats.penalty += extra;
            }
        }
        op.completed = op.issued + op.seek + op.rotation + op.transfer;

        let (fault, lost) = if self.crashed {
            // Frozen image: every access fails, nothing persists (the
            // matching `store_data` was already dropped).
            (Some(FaultKind::Crashed), None)
        } else {
            match op.kind {
                AccessKind::Read => (self.read_fault(op.extent), None),
                AccessKind::Write => {
                    let f = self.write_fault(op.extent);
                    self.writes_done += 1;
                    f.map_or((None, None), |(kind, lost)| (Some(kind), lost))
                }
            }
        };
        if let Some(kind) = fault {
            let count = match kind {
                FaultKind::Media => &mut self.stats.media_errors,
                FaultKind::Transient => &mut self.stats.transient_errors,
                FaultKind::Torn => &mut self.stats.torn_writes,
                FaultKind::Crashed => &mut self.stats.crashed_ops,
            };
            *count += 1;
            // A failed attempt — read or write — still cost the arm
            // movement and rotation before it was detected.
            self.stats.penalty += op.service_time();
        }
        Applied {
            degraded,
            spike,
            fault,
            lost,
        }
    }

    /// Extra transfer time charged by degraded windows covering this op.
    fn degraded_extra(&self, issued: Instant, extent: Extent, transfer: Nanos) -> Nanos {
        let mut extra = Nanos::ZERO;
        for w in &self.plan.degraded {
            let in_window = issued >= w.from && issued < w.until;
            let in_region = w.region.is_none_or(|r| r.overlaps(extent));
            if in_window && in_region && w.slowdown > 1.0 {
                let stretched = transfer.as_nanos() as f64 * (w.slowdown - 1.0);
                extra += Nanos::from_nanos(stretched as u64);
            }
        }
        extra
    }

    /// Decide whether this read fails, consuming fault state.
    fn read_fault(&mut self, extent: Extent) -> Option<FaultKind> {
        if self.plan.bad.iter().any(|b| b.overlaps(extent)) {
            return Some(FaultKind::Media);
        }
        for (i, t) in self.plan.transients.iter().enumerate() {
            if t.extent.overlaps(extent) {
                if self.transient_remaining[i] > 0 {
                    self.transient_remaining[i] -= 1;
                    return Some(FaultKind::Transient);
                }
                return None;
            }
        }
        if let Some(cfg) = self.plan.random_transients {
            if let Some(rem) = self.random_remaining.get_mut(&extent.start) {
                if *rem > 0 {
                    *rem -= 1;
                    return Some(FaultKind::Transient);
                }
                self.random_remaining.remove(&extent.start);
                return None;
            }
            if cfg.per_read > 0.0 && self.prng.gen_bool(cfg.per_read.min(1.0)) {
                // Burst of 1..=max_failures failures; this attempt
                // consumes the first.
                let burst = 1 + self.prng.bounded_u64(cfg.max_failures.max(1) as u64) as u32;
                self.random_remaining.insert(extent.start, burst - 1);
                return Some(FaultKind::Transient);
            }
        }
        None
    }

    /// Tear a write: a seeded prefix of the extent's sectors stays on
    /// the medium; the rest — returned — is dropped. The payload was
    /// already stored (the MSM stores before it times the write), so
    /// tearing is a partial discard of what just landed.
    fn tear(&mut self, extent: Extent) -> Option<Extent> {
        let kept = self.prng.bounded_u64(extent.sectors);
        (kept < extent.sectors).then(|| Extent::new(extent.start + kept, extent.sectors - kept))
    }

    /// Decide whether this write fails, consuming fault state; a failure
    /// names the sectors the caller must drop from the stored image so
    /// the on-medium bytes match the failure it observes.
    fn write_fault(&mut self, extent: Extent) -> Option<(FaultKind, Option<Extent>)> {
        if matches!(self.plan.crash, Some(CrashPoint::AfterWrites(n)) if self.writes_done >= n) {
            self.crashed = true;
            return Some((FaultKind::Crashed, self.tear(extent)));
        }
        if self.plan.torn.iter().any(|t| t.overlaps(extent)) {
            return Some((FaultKind::Torn, self.tear(extent)));
        }
        for (i, t) in self.plan.write_transients.iter().enumerate() {
            if t.extent.overlaps(extent) {
                if self.write_transient_remaining[i] > 0 {
                    self.write_transient_remaining[i] -= 1;
                    // A failed write attempt persists nothing.
                    return Some((FaultKind::Transient, Some(extent)));
                }
                return None;
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::SimDisk;
    use crate::geometry::DiskGeometry;
    use crate::seek::SeekModel;
    use strandfs_obs::ObsSink;

    fn base_disk() -> SimDisk {
        SimDisk::new(DiskGeometry::tiny_test(), SeekModel::vintage_1991())
    }

    /// A disk seeded with `seed` and armed with `plan`.
    fn armed(plan: FaultPlan, seed: u64) -> SimDisk {
        let mut d = base_disk().with_fault_seed(seed);
        d.arm_faults(plan);
        d
    }

    fn read(d: &mut SimDisk, t: Instant, e: Extent) -> AccessResult {
        d.access(t, e, AccessKind::Read)
    }

    fn write(d: &mut SimDisk, t: Instant, e: Extent, fill: u8) -> AccessResult {
        let data = vec![fill; (e.sectors * 512) as usize];
        d.store_data(e, &data);
        d.access(t, e, AccessKind::Write)
    }

    #[test]
    fn clean_plan_matches_bare_disk_exactly() {
        // Never armed; armed clean; armed with a bad extent and then
        // re-armed clean (a cluster member's rejoin).
        let mut re_armed = armed(FaultPlan::clean().with_bad_extent(Extent::new(0, 2000)), 7);
        re_armed.arm_faults(FaultPlan::clean());
        let mut disks = [base_disk(), armed(FaultPlan::clean(), 7), re_armed];
        let recorders = disks.each_mut().map(|d| {
            let (sink, recorder) = ObsSink::ring(64);
            d.set_obs(sink);
            recorder
        });
        let mut t = Instant::EPOCH;
        for i in 0..40u64 {
            let e = Extent::new((i * 37) % 2000, 1 + i % 4);
            let ops = disks.each_mut().map(|d| {
                if i % 3 == 0 {
                    write(d, t, e, i as u8 + 1)
                } else {
                    read(d, t, e)
                }
                .expect("a clean plan never faults")
            });
            for op in &ops[1..] {
                assert_eq!(
                    (op.seek, op.rotation, op.transfer, op.completed),
                    (
                        ops[0].seek,
                        ops[0].rotation,
                        ops[0].transfer,
                        ops[0].completed
                    ),
                    "access {i} of {e:?}"
                );
            }
            t = ops[0].completed;
        }
        let events: Vec<Vec<_>> = recorders
            .iter()
            .map(|r| r.borrow().events().copied().collect())
            .collect();
        assert_eq!(events[0].len(), 40);
        for d in &disks[1..] {
            assert_eq!(d.stats(), disks[0].stats());
            assert_eq!(d.content_hash(), disks[0].content_hash());
            assert_eq!(d.fault_stats(), FaultStats::default());
        }
        assert_eq!(events[1], events[0]);
        assert_eq!(events[2], events[0]);
    }

    #[test]
    fn bad_extent_always_fails_reads_but_not_writes() {
        let plan = FaultPlan::clean().with_bad_extent(Extent::new(100, 8));
        let mut inj = armed(plan, 1);
        let e = Extent::new(102, 2);
        for _ in 0..3 {
            let err = read(&mut inj, Instant::EPOCH, e).unwrap_err();
            assert_eq!(err.kind, FaultKind::Media);
            assert!(
                err.op.completed > Instant::EPOCH,
                "failure still costs time"
            );
        }
        // Writes are unaffected (remapping is the FS's job).
        assert!(inj.access(Instant::EPOCH, e, AccessKind::Write).is_ok());
        assert_eq!(inj.fault_stats().media_errors, 3);
    }

    #[test]
    fn transient_succeeds_after_n_retries() {
        let plan = FaultPlan::clean().with_transient(Extent::new(40, 8), 2);
        let mut inj = armed(plan, 1);
        let e = Extent::new(40, 4);
        let mut t = Instant::EPOCH;
        let e1 = read(&mut inj, t, e).unwrap_err();
        assert_eq!(e1.kind, FaultKind::Transient);
        t = e1.op.completed;
        let e2 = read(&mut inj, t, e).unwrap_err();
        t = e2.op.completed;
        let ok = read(&mut inj, t, e).expect("third attempt succeeds");
        assert!(ok.completed > t);
        assert_eq!(inj.fault_stats().transient_errors, 2);
        // Subsequent reads stay healthy.
        assert!(read(&mut inj, ok.completed, e).is_ok());
    }

    #[test]
    fn degraded_window_stretches_transfer_inside_window_only() {
        let until = Instant::EPOCH + Nanos::from_millis(100);
        let plan = FaultPlan::clean().with_degraded_window(DegradedWindow {
            from: Instant::EPOCH,
            until,
            region: None,
            slowdown: 3.0,
        });
        let mut inj = armed(plan, 1);
        let mut bare = base_disk();
        let e = Extent::new(0, 8);
        let nominal = read(&mut bare, Instant::EPOCH, e).unwrap();
        let slow = read(&mut inj, Instant::EPOCH, e).unwrap();
        assert!(slow.transfer > nominal.transfer.mul_u64(2), "3x slowdown");
        // Outside the window the same read is nominal again.
        let after = until + Nanos::from_millis(1);
        let normal = read(&mut inj, after, e).unwrap();
        assert_eq!(normal.transfer, nominal.transfer);
        assert_eq!(inj.fault_stats().degraded_ops, 1);
    }

    #[test]
    fn spikes_are_deterministic_under_seed() {
        let mk = |seed| {
            armed(
                FaultPlan::clean().with_spikes(0.5, Nanos::from_millis(5)),
                seed,
            )
        };
        let run = |mut inj: SimDisk| {
            let mut t = Instant::EPOCH;
            let mut completions = Vec::new();
            for i in 0..50u64 {
                let op = read(&mut inj, t, Extent::new((i * 13) % 1000, 2)).unwrap();
                t = op.completed;
                completions.push(op.completed);
            }
            (completions, inj.fault_stats())
        };
        let (a, sa) = run(mk(42));
        let (b, sb) = run(mk(42));
        assert_eq!(a, b, "same seed, same timeline");
        assert_eq!(sa, sb);
        assert!(sa.spikes > 0, "p=0.5 over 50 ops must spike");
        let (c, _) = run(mk(43));
        assert_ne!(a, c, "different seed, different spikes");
    }

    #[test]
    fn rearming_resets_fault_state_and_prng() {
        let plan = FaultPlan::clean().with_transient(Extent::new(0, 4), 1);
        let mut inj = armed(plan.clone(), 9);
        let e = Extent::new(0, 2);
        assert!(read(&mut inj, Instant::EPOCH, e).is_err());
        assert!(read(&mut inj, Instant::EPOCH, e).is_ok());
        inj.arm_faults(plan);
        assert!(
            read(&mut inj, Instant::EPOCH, e).is_err(),
            "re-armed plan fails again"
        );
        assert_eq!(inj.fault_stats().transient_errors, 2, "counters persist");
        assert_eq!(inj.bad_extents(), &[] as &[Extent]);
    }

    #[test]
    fn torn_extent_persists_only_a_prefix() {
        let region = Extent::new(200, 16);
        let plan = FaultPlan::clean().with_torn_extent(region);
        let mut inj = armed(plan, 5);
        let e = Extent::new(204, 8);
        let err = write(&mut inj, Instant::EPOCH, e, 0xAB).unwrap_err();
        assert_eq!(err.kind, FaultKind::Torn);
        assert!(err.op.completed > Instant::EPOCH, "torn write costs time");
        // Some prefix of the sectors persisted; the suffix reads zero.
        let bytes = inj.try_fetch(e).unwrap();
        let kept = bytes.chunks(512).take_while(|s| s[0] == 0xAB).count();
        assert!(kept < 8, "a torn write never lands fully");
        assert!(
            bytes[kept * 512..].iter().all(|&b| b == 0),
            "suffix must be dropped"
        );
        assert_eq!(inj.fault_stats().torn_writes, 1);
        // Writes outside the region are untouched.
        assert!(write(&mut inj, err.op.completed, Extent::new(400, 4), 1).is_ok());
    }

    #[test]
    fn write_transient_persists_nothing_then_succeeds() {
        let e = Extent::new(80, 4);
        let plan = FaultPlan::clean().with_write_transient(e, 2);
        let mut inj = armed(plan, 1);
        let mut t = Instant::EPOCH;
        for _ in 0..2 {
            let err = write(&mut inj, t, e, 7).unwrap_err();
            assert_eq!(err.kind, FaultKind::Transient);
            assert!(
                inj.try_fetch(e).unwrap().iter().all(|&b| b == 0),
                "failed write attempt must persist nothing"
            );
            t = err.op.completed;
        }
        let ok = write(&mut inj, t, e, 7).expect("third attempt lands");
        assert!(inj.try_fetch(e).unwrap().iter().all(|&b| b == 7));
        assert_eq!(inj.fault_stats().transient_errors, 2);
        assert!(ok.completed > t);
    }

    #[test]
    fn crash_point_freezes_image_until_power_cycle() {
        let plan = FaultPlan::clean().with_crash_point(CrashPoint::AfterWrites(2));
        let mut inj = armed(plan, 3);
        let mut t = Instant::EPOCH;
        for i in 0..2u64 {
            let op = write(&mut inj, t, Extent::new(i * 16, 4), 1).expect("pre-crash writes land");
            t = op.completed;
        }
        // The third write tears and freezes the device.
        let err = write(&mut inj, t, Extent::new(64, 4), 2).unwrap_err();
        assert_eq!(err.kind, FaultKind::Crashed);
        assert!(inj.is_crashed());
        let frozen = inj.content_hash();
        // Reads, writes and stores all bounce off the frozen image.
        assert_eq!(
            read(&mut inj, t, Extent::new(0, 4)).unwrap_err().kind,
            FaultKind::Crashed
        );
        let _ = write(&mut inj, t, Extent::new(128, 4), 3);
        inj.discard_data(Extent::new(0, 4));
        assert_eq!(inj.content_hash(), frozen, "post-crash image is frozen");
        assert!(inj.fault_stats().crashed_ops >= 2);
        // Power-cycling disarms the spent crash point and thaws the device.
        inj.power_cycle();
        assert!(!inj.is_crashed());
        assert!(write(&mut inj, t, Extent::new(128, 4), 3).is_ok());
        assert!(read(&mut inj, t, Extent::new(128, 4)).is_ok());
    }

    #[test]
    fn crash_image_is_deterministic_under_seed() {
        let run = |seed| {
            let plan = FaultPlan::clean().with_crash_point(CrashPoint::AfterWrites(3));
            let mut inj = armed(plan, seed);
            let mut t = Instant::EPOCH;
            for i in 0..6u64 {
                let e = Extent::new(i * 24, 6);
                match write(&mut inj, t, e, i as u8 + 1) {
                    Ok(op) => t = op.completed,
                    Err(f) => t = f.op.completed,
                }
            }
            inj.content_hash()
        };
        assert_eq!(run(11), run(11), "same plan+seed, byte-identical image");
    }

    #[test]
    fn silent_corruption_flips_bits_invisibly_and_deterministically() {
        let run = |seed| {
            let mut inj = base_disk().with_fault_seed(seed);
            let e = Extent::new(300, 4);
            let _ = write(&mut inj, Instant::EPOCH, e, 0x5C);
            let clean_sum = inj.fetch_sum(e).unwrap();
            inj.arm_faults(FaultPlan::clean().with_silent_corruption(e));
            (inj, e, clean_sum)
        };
        let (mut inj, e, clean_sum) = run(21);
        // The device is oblivious: the read succeeds with no fault.
        assert!(read(&mut inj, Instant::EPOCH, e).is_ok());
        assert_eq!(inj.fault_stats().corrupted, 1);
        // But the payload rotted: exactly one bit differs.
        let rotten = inj.try_fetch(e).unwrap();
        let flipped: u32 = rotten.iter().map(|&b| (b ^ 0x5Cu8).count_ones()).sum();
        assert_eq!(flipped, 1, "exactly one seeded bit flips");
        assert_ne!(inj.fetch_sum(e).unwrap(), clean_sum);
        // Same seed rots the same bit.
        let (inj2, e2, _) = run(21);
        assert_eq!(inj.try_fetch(e), inj2.try_fetch(e2));
        // A different seed rots a different bit.
        let (inj3, e3, _) = run(22);
        assert_ne!(inj.try_fetch(e), inj3.try_fetch(e3));
    }

    #[test]
    fn fail_slow_stretches_every_op_without_erroring() {
        let plan = FaultPlan::clean().with_fail_slow(10.0);
        let mut slow = armed(plan, 1);
        let mut bare = base_disk();
        let e = Extent::new(64, 8);
        let nominal = read(&mut bare, Instant::EPOCH, e).unwrap();
        let gray = read(&mut slow, Instant::EPOCH, e).expect("fail-slow never errors");
        let want = nominal.service_time().as_nanos() as f64 * 10.0;
        let got = gray.service_time().as_nanos() as f64;
        assert!(
            (got - want).abs() / want < 1e-6,
            "10x stretch: nominal {nominal:?} vs gray {gray:?}"
        );
        assert_eq!(slow.fault_stats().fail_slow_ops, 1);
        assert_eq!(slow.fault_stats().media_errors, 0);
        assert_eq!(slow.fault_stats().transient_errors, 0);
    }
}

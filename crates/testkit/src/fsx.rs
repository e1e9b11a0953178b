//! fsx-style random rope-editing exerciser with model checking.
//!
//! A seeded op stream drives a live [`Mrs`] through long interleaved
//! sequences of `RECORD`, the five §4.1 edit operations (`INSERT` /
//! `REPLACE` / `DELETE` / `SUBSTRING` / `CONCATE`), destructive and
//! non-destructive `PAUSE`/`RESUME`, `delete_rope` and interests-based
//! GC. The exerciser is a **driver** and a model; the rope model
//! (`fsx/rope.rs`) is its first instance.
//!
//! * The driver owns the op loop, the whole-state check every 25 ops,
//!   the op-log hash, the crash hook and the replay line.
//! * The model owns its state, its op generators and its comparison
//!   with the system. The rope model plays every edited rope back byte
//!   for byte against a reference implementation of the edit algebra,
//!   holds every healed boundary to the Eq. 19/20 copy bound in force
//!   ([`Mrs::last_edit_report`]), checks GC never collects a referenced
//!   strand, and expects the MRS to reject exactly the ops it predicts
//!   invalid.
//!
//! **Draw tape.** Every random choice an op makes goes through one draw
//! source. A run takes it from the seeded [`Prng`] in stream order and
//! records each op's draws; a replay reads a recorded tape instead,
//! each value clamped below its draw's bound, 0 once an op's draws run
//! out. Same seed ⇒ same op log ([`FsxOutcome::op_log_hash`]) and same
//! final image ([`FsxOutcome::image_hash`]); a run's tape replays it.
//!
//! **Crash hook.** When the plan's crash point fires, the driver
//! power-cycles the device, remounts through [`Msm::recover`], runs fsck
//! to convergence, checks that every strand it holds a write intent for
//! recovered to a byte-exact prefix of it, and that the volume records.
//!
//! **Shrinking.** A failing [`run`] shrinks its tape with
//! [`prop::shrink_loop`] (chunks of ops deleted at every offset, then
//! single draws lowered toward 0), replaying each candidate on the same
//! seed-derived disk and fault plan. It panics with the seed and op
//! index, the shrunk failure, and a line that pastes as a call to
//! [`replay`]:
//!
//! ```text
//! replay: fsx::replay(&FsxConfig { seed: 23, ..cfg }, &[&[0, 9, 1], &[0, 4, 0], &[1, 0, 2, 3]])
//! ```
//!
//! [`try_run`] never shrinks.

mod rope;

use crate::crash::{check_prefix, probe_writable, strand_image};
use crate::prop::{self, CaseError, Config};
use rope::RopeModel;
use strandfs_core::fsck;
use strandfs_core::journal::{fnv1a, JournalConfig};
use strandfs_core::mrs::Mrs;
use strandfs_core::msm::{Msm, MsmConfig};
use strandfs_disk::{CrashPoint, DiskGeometry, FaultPlan, GapBounds, SeekModel, SimDisk};
use strandfs_units::prng::{mix_seed, Prng};
use strandfs_units::Instant;

/// The volume configuration every fsx run records and recovers with.
fn volume_config() -> MsmConfig {
    // A wide checkpoint slot: the exerciser legitimately grows the
    // strand population past the ~84-entry default (the capacity cliff
    // the exerciser originally drove the volume into) — every healed
    // boundary mints a bridge strand, so hundreds of live strands
    // accumulate between gc passes over a long run. (~21 catalog
    // entries per sector; a long run's live strand population runs into
    // the thousands.)
    MsmConfig::constrained(
        GapBounds {
            min_sectors: 0,
            max_sectors: 128,
        },
        1,
    )
    .with_journal(JournalConfig {
        slots: 64,
        ckpt_sectors: 512,
    })
}

/// The source of every random choice an op makes: the seeded stream,
/// each op's draws recorded, or a recorded tape played back.
enum Draw {
    Record(Prng, Vec<Vec<u64>>),
    Replay(std::vec::IntoIter<Vec<u64>>, std::vec::IntoIter<u64>),
}

impl Draw {
    fn recording(seed: u64) -> Draw {
        Draw::Record(Prng::seed_from_u64(mix_seed(seed, 0xF5E0)), Vec::new())
    }

    fn replaying(tape: Vec<Vec<u64>>) -> Draw {
        Draw::Replay(tape.into_iter(), Vec::new().into_iter())
    }

    /// How many ops the run takes: `asked`, or one per taped op.
    fn ops(&self, asked: u64) -> u64 {
        match self {
            Draw::Record(..) => asked,
            Draw::Replay(ops, _) => ops.len() as u64,
        }
    }

    /// Begin the next op's draws.
    fn start(&mut self) {
        match self {
            Draw::Record(_, tape) => tape.push(Vec::new()),
            Draw::Replay(ops, draws) => *draws = ops.next().unwrap_or_default().into_iter(),
        }
    }

    /// The next draw below `bound`: `fresh` from the stream, recorded,
    /// or the taped value clamped below `bound` (0 once the op's draws
    /// run out).
    fn next(&mut self, bound: u64, fresh: impl FnOnce(&mut Prng) -> u64) -> u64 {
        match self {
            Draw::Record(rng, tape) => {
                let v = fresh(rng);
                tape.last_mut().expect("an op has started").push(v);
                v
            }
            Draw::Replay(_, draws) => draws.next().map_or(0, |v| v.min(bound - 1)),
        }
    }

    /// Uniform in `[0, bound)`, as [`Prng::bounded_u64`].
    fn below(&mut self, bound: u64) -> u64 {
        self.next(bound, |rng| rng.bounded_u64(bound))
    }

    /// True with probability `p`, as [`Prng::gen_bool`]; taped as 0 or 1.
    fn chance(&mut self, p: f64) -> bool {
        self.next(2, |rng| rng.gen_bool(p) as u64) == 1
    }
}

/// An instance of the driver: a system under test and its model.
trait Model {
    /// Draw op `i` from `d`, apply it to the system and the model, and
    /// compare them; the op's log line.
    fn step(&mut self, i: u64, d: &mut Draw) -> Result<String, String>;
    /// Compare everything the system holds with the model.
    fn verify_all(&mut self, ctx: &str) -> Result<(), String>;
    /// True once the device lost power mid-op: the run ends there.
    fn crashed(&self) -> bool;
}

/// Parameters of one exerciser run.
#[derive(Clone, Debug)]
pub struct FsxConfig {
    /// Seed for the op stream (and the disk's fault PRNG).
    pub seed: u64,
    /// Number of ops to attempt (a firing crash point ends the run
    /// early, at the crashing op).
    pub ops: u64,
    /// Fault plan installed on the device before the run. The volume
    /// is always journaled, so a crash point recovers.
    pub plan: FaultPlan,
}

impl FsxConfig {
    /// A faultless, journaled run.
    pub fn healthy(seed: u64, ops: u64) -> FsxConfig {
        FsxConfig {
            seed,
            ops,
            plan: FaultPlan::clean(),
        }
    }

    /// Install a fault plan (transients, bad extents, crash points).
    pub fn with_plan(mut self, plan: FaultPlan) -> FsxConfig {
        self.plan = plan;
        self
    }

    /// A journaled run that crashes at device write `after_writes`.
    pub fn crashing(seed: u64, ops: u64, after_writes: u64) -> FsxConfig {
        FsxConfig::healthy(seed, ops)
            .with_plan(FaultPlan::clean().with_crash_point(CrashPoint::AfterWrites(after_writes)))
    }
}

/// Crash-recovery counters of a run whose crash point fired.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FsxRecovery {
    /// Strands recovered durable (catalog + committed finishes).
    pub durable_strands: u64,
    /// In-flight strands completed from their journaled prefix.
    pub completed_strands: u64,
    /// Blocks kept after checksum verification.
    pub blocks_recovered: u64,
    /// Blocks rolled back (torn, unwritten, or past a torn one).
    pub blocks_rolled_back: u64,
    /// Journaled deletions re-applied.
    pub deleted_strands: u64,
    /// Findings of the first post-recovery fsck pass (the second pass
    /// must be clean — convergence is asserted, not reported).
    pub fsck_findings: u64,
    /// Recovered strands byte-verified against a recorded write intent.
    pub prefix_verified_strands: u64,
}

/// What one exerciser run did and observed. Two runs with the same
/// [`FsxConfig`] compare equal — byte-reproducibility in one assert.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FsxOutcome {
    /// Ops attempted (incl. rejected and benignly failed ones).
    pub ops_attempted: u64,
    /// Mutations that committed and verified.
    pub ops_applied: u64,
    /// Ops the model predicted invalid and the MRS duly rejected.
    pub ops_rejected: u64,
    /// Environmental failures (admission, allocation, injected faults)
    /// verified to have left the target rope unchanged.
    pub ops_benign_failures: u64,
    /// Clips recorded.
    pub records: u64,
    /// Committed in-place edits (insert/replace/delete).
    pub edits: u64,
    /// Edit boundaries healed across all committed edits.
    pub boundaries_healed: u64,
    /// Strand blocks copied by healing.
    pub blocks_copied: u64,
    /// Largest single-boundary copy observed.
    pub max_copied_per_boundary: u64,
    /// Largest Eq. 19/20 bound in force at any healed boundary.
    pub max_bound_seen: u64,
    /// GC sweeps run.
    pub gc_runs: u64,
    /// Strands collected by GC.
    pub strands_collected: u64,
    /// Play/pause/resume cycles completed.
    pub play_cycles: u64,
    /// Model-vs-device verification passes.
    pub verifies: u64,
    /// Media units byte-compared against the model.
    pub cells_checked: u64,
    /// True if the plan's crash point fired.
    pub crashed: bool,
    /// Recovery counters (`Some` iff `crashed`).
    pub recovery: Option<FsxRecovery>,
    /// Ropes cataloged when the run ended.
    pub ropes_final: u64,
    /// Device sector-writes issued (at crash time for crashed runs).
    pub device_writes: u64,
    /// FNV-1a over the op log — the "same op log" fingerprint.
    pub op_log_hash: u64,
    /// Device image fingerprint at the end (post-recovery when
    /// crashed, before the writability probe).
    pub image_hash: u64,
}

/// The op loop: `ops` steps of `model` (a replay takes one per taped
/// op), everything compared every 25; the op log, ending at a crash.
fn drive(model: &mut impl Model, ops: u64, d: &mut Draw, seed: u64) -> Result<Vec<String>, String> {
    let mut log = Vec::new();
    for i in 0..d.ops(ops) {
        d.start();
        let at_op = |e| format!("[fsx seed={seed} op={i}] {e}");
        log.push(model.step(i, d).map_err(at_op)?);
        if model.crashed() {
            log.push(format!("{i:04} crash point fired"));
            break;
        }
        if (i + 1) % 25 == 0 {
            model.verify_all("periodic").map_err(at_op)?;
        }
    }
    Ok(log)
}

/// One run of the rope model on `cfg`'s seed-derived disk and fault
/// plan, its choices taken from `d`.
fn run_with(cfg: &FsxConfig, d: &mut Draw) -> Result<FsxOutcome, String> {
    let mut disk = SimDisk::new(DiskGeometry::vintage_1991(), SeekModel::vintage_1991())
        .with_fault_seed(mix_seed(cfg.seed, 0xD15C));
    disk.arm_faults(cfg.plan.clone());
    let mut model = RopeModel::new(Mrs::new(Msm::new(disk, volume_config())));
    let log = drive(&mut model, cfg.ops, d, cfg.seed)?;
    let end = if model.crashed() { "crash" } else { "final" };
    finish(model, fnv1a(log.join("\n").as_bytes()))
        .map_err(|e| format!("[fsx seed={} {end}] {e}", cfg.seed))
}

/// The run's epilogue. Healthy: compare everything, fsck to convergence,
/// hash the image. Crashed, the crash hook: power-cycle, recover, fsck to
/// convergence, check every strand with a write intent recovered to a
/// prefix of it, and probe writability.
fn finish(mut m: RopeModel, op_log_hash: u64) -> Result<FsxOutcome, String> {
    // Captured before any power-cycle: the recovered allocator's stats
    // start from zero, but the image keeps the placements.
    let wraps = m.mrs.msm().allocator().stats().wraps;
    let ropes_final = m.ropes.len() as u64;
    if !m.crashed() {
        m.verify_all("final")?;
        let now = Instant::from_nanos(m.clock);
        fsck_converges(|| fsck::check_volume(&mut m.mrs, now), wraps)?;
        let disk = m.mrs.msm().disk();
        return Ok(FsxOutcome {
            ropes_final,
            device_writes: disk.stats().writes,
            op_log_hash,
            image_hash: disk.content_hash(),
            ..m.out
        });
    }
    let device_writes = m.mrs.msm().disk().stats().writes;
    let mut device = m.mrs.into_msm().into_device();
    device.power_cycle();
    let (mut rec, report) = Msm::recover(device, volume_config(), Instant::EPOCH)
        .map_err(|e| format!("recovery failed: {e}"))?;
    let image_hash = rec.disk().content_hash();
    let fsck_findings = fsck_converges(|| fsck::check_msm(&mut rec, Instant::EPOCH), wraps)?;
    let mut prefix_verified_strands = 0;
    for (sid, intent) in &m.intents {
        // Absent is the empty prefix (or a replayed delete).
        if let Ok(strand) = rec.strand(*sid) {
            (strand_image(&rec, strand).and_then(|image| check_prefix(&image, intent)))
                .map_err(|e| format!("strand {}: {e}", sid.raw()))?;
            prefix_verified_strands += 1;
        }
    }
    probe_writable(&mut rec, report.finished_at)?;
    Ok(FsxOutcome {
        crashed: true,
        recovery: Some(FsxRecovery {
            durable_strands: report.durable_strands,
            completed_strands: report.completed_strands,
            blocks_recovered: report.blocks_recovered,
            blocks_rolled_back: report.blocks_rolled_back,
            deleted_strands: report.deleted_strands,
            fsck_findings,
            prefix_verified_strands,
        }),
        ropes_final,
        device_writes,
        op_log_hash,
        image_hash,
        ..m.out
    })
}

/// Run fsck to convergence; the first pass's finding count. The second
/// pass may still report forward gaps the allocator's wrap fall-back
/// placed past the scattering bound, an anomaly and not corruption, at
/// most one per wrap (`wraps`, counted at placement time); any other
/// finding, or more of them, is a violation.
fn fsck_converges(mut check: impl FnMut() -> fsck::Report, wraps: u64) -> Result<u64, String> {
    let first = check().findings.len() as u64;
    if first > 0 {
        let second = check().findings;
        let gaps = |f: &fsck::Finding| matches!(f, fsck::Finding::GapOutOfBounds { .. });
        if second.len() as u64 > wraps || !second.iter().all(gaps) {
            return Err(format!("fsck did not converge: {second:?}"));
        }
    }
    Ok(first)
}

/// Shrink a failing tape with [`prop::shrink_loop`] within
/// [`Config::max_shrink_steps`] replays: the smallest tape that still
/// fails, and its failure.
fn shrink(
    tape: Vec<Vec<u64>>,
    err: String,
    replay: impl Fn(Vec<Vec<u64>>) -> Result<(), String>,
) -> (Vec<Vec<u64>>, String) {
    let tapes = prop::vec(prop::vec(0..u64::MAX, 0..usize::MAX), 0..usize::MAX);
    let fails = |t: &Vec<Vec<u64>>| replay(t.clone()).map_err(CaseError::Fail);
    prop::shrink_loop(&Config::from_env(), &tapes, &fails, tape, err)
}

/// A tape as the Rust literal [`replay`] takes: `&[&[3, 0], &[1]]`.
fn tape_literal(tape: &[Vec<u64>]) -> String {
    let ops: Vec<String> = tape.iter().map(|d| format!("&{d:?}")).collect();
    format!("&[{}]", ops.join(", "))
}

/// Run the exerciser, returning the outcome or a diagnostic naming the
/// violated invariant, the seed and the op index. Never shrinks.
pub fn try_run(cfg: &FsxConfig) -> Result<FsxOutcome, String> {
    run_with(cfg, &mut Draw::recording(cfg.seed))
}

/// Replay a tape — one list of draws per op — on `cfg`'s seed-derived
/// disk and fault plan (`cfg.ops` is unused): the call a failing
/// [`run`]'s replay line pastes as.
pub fn replay(cfg: &FsxConfig, tape: &[&[u64]]) -> Result<FsxOutcome, String> {
    let tape = tape.iter().map(|d| d.to_vec()).collect();
    run_with(cfg, &mut Draw::replaying(tape))
}

/// Run the exerciser, panicking on any invariant violation with the
/// seed and op index, the failure its shrunk tape still shows, and the
/// replay line.
pub fn run(cfg: &FsxConfig) -> FsxOutcome {
    let mut d = Draw::recording(cfg.seed);
    let (err, tape) = match (run_with(cfg, &mut d), d) {
        (Ok(out), _) => return out,
        (Err(e), Draw::Record(_, tape)) => (e, tape),
        (Err(e), Draw::Replay(..)) => unreachable!("a run records its draws: {e}"),
    };
    let (tape, last) = shrink(tape, err.clone(), |t| {
        run_with(cfg, &mut Draw::replaying(t)).map(drop)
    });
    panic!(
        "{err}\nshrunk to {} ops: {last}\nreplay: fsx::replay(&FsxConfig {{ seed: {}, ..cfg }}, {})",
        tape.len(),
        cfg.seed,
        tape_literal(&tape)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy instance with a planted bug: op 2 straight after op 1 fails.
    /// Each op also draws an argument the bug does not depend on.
    struct Toy(u64);

    impl Model for Toy {
        fn step(&mut self, i: u64, d: &mut Draw) -> Result<String, String> {
            let (op, arg) = (d.below(12), d.below(1000));
            if (self.0, op) == (1, 2) {
                return Err("op 2 straight after op 1".into());
            }
            self.0 = op;
            Ok(format!("{i:04} op {op} {arg}"))
        }

        fn verify_all(&mut self, _: &str) -> Result<(), String> {
            Ok(())
        }

        fn crashed(&self) -> bool {
            false
        }
    }

    fn toy(d: &mut Draw) -> Result<(), String> {
        drive(&mut Toy(0), 200, d, TOY_SEED).map(drop)
    }

    /// A seed whose 200-op stream first hits the bug at op 196.
    const TOY_SEED: u64 = 22;

    /// The tape a replay line spells: the inverse of `tape_literal`.
    fn parse_tape(literal: &str) -> Vec<Vec<u64>> {
        let ops = literal.strip_prefix("&[").and_then(|l| l.strip_suffix(']'));
        (ops.expect("a tape literal").split("&[").skip(1))
            .map(|op| {
                let op = op.trim_end_matches([']', ',', ' ']);
                op.split(", ")
                    .filter(|v| !v.is_empty())
                    .map(|v| v.parse().unwrap())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn the_driver_shrinks_a_buried_failure_to_the_ops_that_cause_it() {
        let mut d = Draw::recording(TOY_SEED);
        let err = toy(&mut d).expect_err("the planted bug fires");
        assert!(err.contains("op=196]"), "{err}");
        let Draw::Record(_, tape) = d else {
            unreachable!("a run records its draws")
        };
        let (tape, last) = shrink(tape, err, |t| toy(&mut Draw::replaying(t)));
        assert_eq!(tape, [vec![1], vec![2]]);
        // The replay line's tape reproduces the shrunk failure.
        let line = tape_literal(&tape);
        assert_eq!(toy(&mut Draw::replaying(parse_tape(&line))), Err(last));
    }

    #[test]
    fn tiny_run_is_reproducible() {
        let cfg = FsxConfig::healthy(7, 40);
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a, b);
        assert!(a.ops_applied > 0);
        assert!(a.records > 0);
        // A replay line's call pastes as written.
        let out = replay(&FsxConfig { seed: 7, ..cfg }, &[&[0, 4, 1], &[0]]);
        assert_eq!(out.map(|o| (o.ops_attempted, o.records)), Ok((2, 2)));
    }

    #[test]
    fn e15_replays_from_its_own_recorded_tape() {
        let plan = FaultPlan::clean().with_random_transients(0.002, 1);
        let cfg = FsxConfig::healthy(23, 260).with_plan(plan);
        let mut d = Draw::recording(cfg.seed);
        let recorded = run_with(&cfg, &mut d).expect("E15's stream passes");
        let Draw::Record(_, tape) = d else {
            unreachable!("a run records its draws")
        };
        let tape: Vec<&[u64]> = tape.iter().map(Vec::as_slice).collect();
        let replayed = replay(&cfg, &tape).expect("its own tape replays");
        let hashes = format!("{:016x} {:016x}", replayed.op_log_hash, replayed.image_hash);
        assert_eq!(hashes, "32c98207cb06dd04 5fa9437f1c1e55ff");
        assert_eq!(replayed, recorded);
    }
}

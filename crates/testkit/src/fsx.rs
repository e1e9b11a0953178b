//! fsx-style random rope-editing exerciser with model checking.
//!
//! A seeded pseudorandom op stream drives a live [`Mrs`] through long
//! interleaved sequences of `RECORD`, the five §4.1 edit operations
//! (`INSERT` / `REPLACE` / `DELETE` / `SUBSTRING` / `CONCATE`),
//! destructive and non-destructive `PAUSE`/`RESUME`, `delete_rope` and
//! interests-based GC — cross-checking every step against an in-memory
//! **model rope**: a pure byte/duration-level reference implementation
//! of the edit algebra that mirrors `rope/edit.rs` arithmetic exactly
//! (same `round(offset · rate)` splits, same track splicing, same zip
//! re-segmentation, same trigger shifting).
//!
//! Invariants checked after every mutation:
//!
//! 1. **Content** — the edited rope(s) play back byte-for-byte what the
//!    model predicts: each referenced media unit is fetched from the
//!    simulated device and compared against the model's cell (a fill
//!    byte, or a silence hole).
//! 2. **Copy bound** — every healed edit boundary copied at most the
//!    Eq. 19/20 `scattering::copy_bound` in force when the heal was
//!    planned ([`Mrs::last_edit_report`]).
//! 3. **GC safety** — a sweep never collects a strand any cataloged
//!    rope still references.
//! 4. **Error agreement** — interval validation rejects exactly the ops
//!    the model predicts invalid; environmental failures (admission,
//!    allocation, injected faults) must leave the target rope unchanged.
//!
//! The op stream composes with a [`FaultPlan`] (transients, bad
//! extents, crash points). When the plan's crash point fires mid-run,
//! the harness power-cycles the device, remounts through
//! [`Msm::recover`], asserts fsck converges clean, and checks every
//! strand it holds a write intent for recovered to a byte-exact prefix
//! of that intent — i.e. the image is consistent with some prefix of
//! the model history.
//!
//! Everything is deterministic under `seed`: same seed ⇒ same op log
//! (fingerprinted by [`FsxOutcome::op_log_hash`]) and same final device
//! image ([`FsxOutcome::image_hash`]). A failing run panics with the
//! seed and op index; replay with `STRANDFS_TEST_SEED=<seed>`.

use std::collections::BTreeMap;

use strandfs_core::fsck;
use strandfs_core::journal::{fnv1a, JournalConfig};
use strandfs_core::mrs::{Mrs, RecordOpts, TrackOpts};
use strandfs_core::msm::{Msm, MsmConfig};
use strandfs_core::rope::edit::{Interval, MediaSel};
use strandfs_core::rope::{split_balanced, Rope};
use strandfs_core::strand::StrandMeta;
use strandfs_core::{FsError, RequestId, RopeId, StrandId};
use strandfs_disk::{CrashPoint, DiskGeometry, FaultPlan, GapBounds, SeekModel, SimDisk};
use strandfs_media::silence::SilenceDetector;
use strandfs_media::Medium;
use strandfs_units::prng::{mix_seed, Prng};
use strandfs_units::{Bits, Instant, Nanos};

/// Position/interval generation grid: 5 ms lands exactly on the audio
/// unit lattice (2.5 ms) and inside the video one (25 ms), so generated
/// cuts exercise both aligned and mid-unit rounding paths.
const GRID: Nanos = Nanos::from_millis(5);

/// Feeding quantum for `RECORD`: 100 ms = 4 video frames = 1 audio
/// block, so clips are always block-aligned on both media.
const CHUNK_DECI: u64 = 1;

/// Upper bound on a single rope's duration, keeping per-op verification
/// cheap and the op mix lively (inserts/concats past the cap degrade to
/// deletes).
const MAX_ROPE: Nanos = Nanos::from_secs(16);

/// Upper bound on cataloged ropes.
const MAX_ROPES: usize = 6;

fn meta_video() -> StrandMeta {
    StrandMeta {
        medium: Medium::Video,
        unit_rate: 40.0,
        granularity: 2,
        unit_bits: Bits::new(1024), // 128-byte frames, 256-byte blocks
    }
}

fn meta_audio() -> StrandMeta {
    StrandMeta {
        medium: Medium::Audio,
        unit_rate: 400.0,
        granularity: 40,
        unit_bits: Bits::new(8), // 1-byte samples, 40-byte blocks
    }
}

/// The volume configuration every fsx run records and recovers with.
fn volume_config(journal: bool) -> MsmConfig {
    let config = MsmConfig::constrained(
        GapBounds {
            min_sectors: 0,
            max_sectors: 128,
        },
        1,
    );
    if journal {
        // A wide checkpoint slot: the exerciser legitimately grows the
        // strand population past the ~84-entry default (the capacity
        // cliff the exerciser originally drove the volume into) — every
        // healed boundary mints a bridge strand, so hundreds of live
        // strands accumulate between gc passes over a long run.
        // (~21 catalog entries per sector; a long run's live strand
        // population runs into the thousands.)
        config.with_journal(JournalConfig {
            slots: 64,
            ckpt_sectors: 512,
        })
    } else {
        config
    }
}

/// True when every fsck finding is a forward gap the allocator's
/// wrap fall-back legitimately placed past the scattering bound — an
/// anomaly, not corruption. Each wrap allocation can leave at most one
/// out-of-window forward gap, so the allocator's own wrap count (an
/// independent witness, recorded at placement time) bounds how many
/// such findings a sound image may carry; anything beyond that, or any
/// other finding class, is a real violation.
fn wrap_anomalies_only(findings: &[fsck::Finding], wraps: u64) -> bool {
    findings.len() as u64 <= wraps
        && findings
            .iter()
            .all(|f| matches!(f, fsck::Finding::GapOutOfBounds { .. }))
}

// ===================================================================
// The model rope: a byte/duration-level mirror of rope/edit.rs.
// ===================================================================

/// One media unit of the model: a uniform fill byte, or a silence hole.
type Cell = Option<u8>;

/// The model's counterpart of [`strandfs_core::rope::StrandRef`]: it
/// owns its cells outright instead of referencing a strand interval,
/// but splits with the *same* density-proportional arithmetic
/// ([`strandfs_core::rope::split_proportional`]).
#[derive(Clone, Debug, PartialEq)]
struct MRef {
    rate: f64,
    cells: Vec<Cell>,
}

impl MRef {
    fn duration(&self) -> Nanos {
        Nanos::from_secs_f64(self.cells.len() as f64 / self.rate)
    }

    /// Mirror of `StrandRef::split_units`: exact cell-count split.
    fn split_units(&self, units: u64) -> (MRef, MRef) {
        let left = (units.min(self.cells.len() as u64)) as usize;
        (
            MRef {
                rate: self.rate,
                cells: self.cells[..left].to_vec(),
            },
            MRef {
                rate: self.rate,
                cells: self.cells[left..].to_vec(),
            },
        )
    }
}

/// Mirror of the private `Piece` in `rope/edit.rs`.
#[derive(Clone, Debug, PartialEq)]
struct MPiece {
    dur: Nanos,
    r: Option<MRef>,
}

impl MPiece {
    fn gap(dur: Nanos) -> MPiece {
        MPiece { dur, r: None }
    }

    /// Mirror of `Piece::split_at`, boundary short-circuits included.
    fn split_at(&self, offset: Nanos) -> (MPiece, MPiece) {
        let off = offset.min(self.dur);
        if off.is_zero() {
            return (MPiece::gap(Nanos::ZERO), self.clone());
        }
        if off == self.dur {
            return (self.clone(), MPiece::gap(Nanos::ZERO));
        }
        match &self.r {
            None => (MPiece::gap(off), MPiece::gap(self.dur - off)),
            Some(r) => {
                let units = split_balanced(off, self.dur, r.cells.len() as u64, r.rate);
                let (l, rt) = r.split_units(units);
                (
                    MPiece {
                        dur: off,
                        r: (!l.cells.is_empty()).then_some(l),
                    },
                    MPiece {
                        dur: self.dur - off,
                        r: (!rt.cells.is_empty()).then_some(rt),
                    },
                )
            }
        }
    }
}

type MTrack = Vec<MPiece>;

fn track_duration(t: &MTrack) -> Nanos {
    t.iter().map(|p| p.dur).sum()
}

fn track_split(track: &MTrack, at: Nanos) -> (MTrack, MTrack) {
    let mut before = Vec::new();
    let mut after = Vec::new();
    let mut t = Nanos::ZERO;
    for p in track {
        if t + p.dur <= at {
            before.push(p.clone());
        } else if t >= at {
            after.push(p.clone());
        } else {
            let (l, r) = p.split_at(at - t);
            if !l.dur.is_zero() {
                before.push(l);
            }
            if !r.dur.is_zero() {
                after.push(r);
            }
        }
        t += p.dur;
    }
    (before, after)
}

fn track_sub(track: &MTrack, iv: Interval) -> MTrack {
    let (_, tail) = track_split(track, iv.start);
    let (mid, _) = track_split(&tail, iv.len);
    mid
}

fn track_cut(track: &MTrack, iv: Interval) -> MTrack {
    let (mut head, tail) = track_split(track, iv.start);
    let (_, rest) = track_split(&tail, iv.len);
    head.extend(rest);
    head
}

fn track_blank(track: &MTrack, iv: Interval) -> MTrack {
    let (mut head, tail) = track_split(track, iv.start);
    let (_, rest) = track_split(&tail, iv.len);
    head.push(MPiece::gap(iv.len));
    head.extend(rest);
    head
}

fn track_insert(track: &MTrack, at: Nanos, insert: MTrack) -> MTrack {
    let (mut head, tail) = track_split(track, at);
    head.extend(insert);
    head.extend(tail);
    head
}

/// Mirror of `Segment` at the level the model needs: a duration plus
/// up to one cell run per medium.
#[derive(Clone, Debug, PartialEq)]
struct MSeg {
    dur: Nanos,
    video: Option<MRef>,
    audio: Option<MRef>,
}

/// The model rope: segments plus triggers.
#[derive(Clone, Debug, PartialEq)]
struct ModelRope {
    segs: Vec<MSeg>,
    triggers: Vec<(Nanos, String)>,
}

impl ModelRope {
    fn duration(&self) -> Nanos {
        self.segs.iter().map(|s| s.dur).sum()
    }

    fn to_tracks(&self) -> (MTrack, MTrack) {
        let mut video = Vec::new();
        let mut audio = Vec::new();
        for s in &self.segs {
            video.push(MPiece {
                dur: s.dur,
                r: s.video.clone(),
            });
            audio.push(MPiece {
                dur: s.dur,
                r: s.audio.clone(),
            });
        }
        (video, audio)
    }

    /// The flattened per-medium unit cells — the content invariant the
    /// exerciser compares against the device.
    fn flatten(&self, medium: Medium) -> Vec<Cell> {
        let mut out = Vec::new();
        for s in &self.segs {
            let r = match medium {
                Medium::Video => &s.video,
                Medium::Audio => &s.audio,
            };
            if let Some(r) = r {
                out.extend_from_slice(&r.cells);
            }
        }
        out
    }

    /// Mirror of the normalization at the tail of `Mrs::heal_rope`:
    /// drop zero-duration segments (durations themselves are
    /// preserved — re-deriving them from ref durations was the
    /// segment-stretch / gap-collapse bug the exerciser caught).
    fn commit_normalize(&mut self) {
        self.segs.retain(|s| !s.dur.is_zero());
    }
}

/// Mirror of `from_tracks`: zip two tracks back into segments at the
/// union of both tracks' piece boundaries.
fn from_tracks(video: MTrack, audio: MTrack) -> Vec<MSeg> {
    let (dv, da) = (track_duration(&video), track_duration(&audio));
    let mut video = video;
    let mut audio = audio;
    if dv < da {
        video.push(MPiece::gap(da - dv));
    } else if da < dv {
        audio.push(MPiece::gap(dv - da));
    }

    let mut out = Vec::new();
    let mut vi = video.into_iter();
    let mut ai = audio.into_iter();
    let mut cv = vi.next();
    let mut ca = ai.next();
    loop {
        while matches!(&cv, Some(p) if p.dur.is_zero()) {
            cv = vi.next();
        }
        while matches!(&ca, Some(p) if p.dur.is_zero()) {
            ca = ai.next();
        }
        match (cv.take(), ca.take()) {
            (None, None) => break,
            (Some(v), None) => {
                out.push(MSeg {
                    dur: v.dur,
                    video: v.r,
                    audio: None,
                });
                cv = vi.next();
                ca = None;
            }
            (None, Some(a)) => {
                out.push(MSeg {
                    dur: a.dur,
                    video: None,
                    audio: a.r,
                });
                cv = None;
                ca = ai.next();
            }
            (Some(v), Some(a)) => {
                let cut = v.dur.min(a.dur);
                let (vl, vr) = v.split_at(cut);
                let (al, ar) = a.split_at(cut);
                out.push(MSeg {
                    dur: cut,
                    video: vl.r,
                    audio: al.r,
                });
                cv = if vr.dur.is_zero() {
                    vi.next()
                } else {
                    Some(vr)
                };
                ca = if ar.dur.is_zero() {
                    ai.next()
                } else {
                    Some(ar)
                };
            }
        }
    }
    out
}

fn rebuild(video: MTrack, audio: MTrack, triggers: Vec<(Nanos, String)>) -> ModelRope {
    let mut segs = from_tracks(video, audio);
    segs.retain(|s| !s.dur.is_zero());
    ModelRope { segs, triggers }
}

/// Mirror of `Interval::validate`; the strings match the `BadInterval`
/// reasons so divergence reports read the same on both sides.
fn validate(iv: Interval, rope_duration: Nanos) -> Result<(), &'static str> {
    if iv.len.is_zero() {
        return Err("interval is empty");
    }
    if iv.end() > rope_duration {
        return Err("interval extends beyond rope end");
    }
    Ok(())
}

fn model_substring(
    base: &ModelRope,
    sel: MediaSel,
    iv: Interval,
) -> Result<ModelRope, &'static str> {
    validate(iv, base.duration())?;
    let (v, a) = base.to_tracks();
    let video = if sel.video() {
        track_sub(&v, iv)
    } else {
        Vec::new()
    };
    let audio = if sel.audio() {
        track_sub(&a, iv)
    } else {
        Vec::new()
    };
    let triggers = base
        .triggers
        .iter()
        .filter(|(at, _)| *at >= iv.start && *at < iv.end())
        .map(|(at, text)| (*at - iv.start, text.clone()))
        .collect();
    Ok(rebuild(video, audio, triggers))
}

fn model_delete(base: &ModelRope, sel: MediaSel, iv: Interval) -> Result<ModelRope, &'static str> {
    validate(iv, base.duration())?;
    let (v, a) = base.to_tracks();
    let (video, audio, triggers) = match sel {
        MediaSel::Both => {
            let triggers = base
                .triggers
                .iter()
                .filter(|(at, _)| *at < iv.start || *at >= iv.end())
                .map(|(at, text)| {
                    (
                        if *at >= iv.end() { *at - iv.len } else { *at },
                        text.clone(),
                    )
                })
                .collect();
            (track_cut(&v, iv), track_cut(&a, iv), triggers)
        }
        MediaSel::Video => (track_blank(&v, iv), a, base.triggers.clone()),
        MediaSel::Audio => (v, track_blank(&a, iv), base.triggers.clone()),
    };
    Ok(rebuild(video, audio, triggers))
}

fn model_insert(
    base: &ModelRope,
    position: Nanos,
    sel: MediaSel,
    with: &ModelRope,
    with_iv: Interval,
) -> Result<ModelRope, &'static str> {
    if position > base.duration() {
        return Err("insert position beyond rope end");
    }
    validate(with_iv, with.duration())?;
    let (bv, ba) = base.to_tracks();
    let (wv, wa) = with.to_tracks();
    let (video, audio) = match sel {
        MediaSel::Both => (
            track_insert(&bv, position, track_sub(&wv, with_iv)),
            track_insert(&ba, position, track_sub(&wa, with_iv)),
        ),
        MediaSel::Video => (track_insert(&bv, position, track_sub(&wv, with_iv)), ba),
        MediaSel::Audio => (bv, track_insert(&ba, position, track_sub(&wa, with_iv))),
    };
    let triggers = match sel {
        MediaSel::Both => base
            .triggers
            .iter()
            .map(|(at, text)| {
                (
                    if *at >= position {
                        *at + with_iv.len
                    } else {
                        *at
                    },
                    text.clone(),
                )
            })
            .collect(),
        _ => base.triggers.clone(),
    };
    Ok(rebuild(video, audio, triggers))
}

fn model_replace(
    base: &ModelRope,
    sel: MediaSel,
    base_iv: Interval,
    with: &ModelRope,
    with_iv: Interval,
) -> Result<ModelRope, &'static str> {
    validate(base_iv, base.duration())?;
    validate(with_iv, with.duration())?;
    let (bv, ba) = base.to_tracks();
    let (wv, wa) = with.to_tracks();
    let splice = |t: &MTrack, w: &MTrack| -> MTrack {
        let cut = track_cut(t, base_iv);
        track_insert(&cut, base_iv.start, track_sub(w, with_iv))
    };
    let (video, audio) = match sel {
        MediaSel::Both => (splice(&bv, &wv), splice(&ba, &wa)),
        MediaSel::Video => (splice(&bv, &wv), ba),
        MediaSel::Audio => (bv, splice(&ba, &wa)),
    };
    let triggers = match sel {
        MediaSel::Both => base
            .triggers
            .iter()
            .filter(|(at, _)| *at < base_iv.start || *at >= base_iv.end())
            .map(|(at, text)| {
                (
                    if *at >= base_iv.end() {
                        *at - base_iv.len + with_iv.len
                    } else {
                        *at
                    },
                    text.clone(),
                )
            })
            .collect(),
        _ => base.triggers.clone(),
    };
    Ok(rebuild(video, audio, triggers))
}

fn model_concat(first: &ModelRope, second: &ModelRope) -> ModelRope {
    let (mut v1, mut a1) = first.to_tracks();
    let d = first.duration();
    let (dv, da) = (track_duration(&v1), track_duration(&a1));
    if dv < d {
        v1.push(MPiece::gap(d - dv));
    }
    if da < d {
        a1.push(MPiece::gap(d - da));
    }
    let (v2, a2) = second.to_tracks();
    v1.extend(v2);
    a1.extend(a2);
    let mut triggers = first.triggers.clone();
    triggers.extend(second.triggers.iter().map(|(at, t)| (*at + d, t.clone())));
    rebuild(v1, a1, triggers)
}

// ===================================================================
// Configuration and outcome.
// ===================================================================

/// Parameters of one exerciser run.
#[derive(Clone, Debug)]
pub struct FsxConfig {
    /// Seed for the op stream (and the disk's fault PRNG).
    pub seed: u64,
    /// Number of ops to attempt (a firing crash point ends the run
    /// early, at the crashing op).
    pub ops: u64,
    /// Fault plan installed on the device before the run.
    pub plan: FaultPlan,
    /// Mount with an intent journal (required when the plan crashes).
    pub journal: bool,
}

impl FsxConfig {
    /// A faultless, journaled run.
    pub fn healthy(seed: u64, ops: u64) -> FsxConfig {
        FsxConfig {
            seed,
            ops,
            plan: FaultPlan::clean(),
            journal: true,
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

// ===================================================================
// The harness.
// ===================================================================

/// Per-strand write intent: the `try_fetch` image of every block
/// (`None` = silence hole), captured while the device was healthy.
type Intent = Vec<Option<Vec<u8>>>;

struct Harness {
    mrs: Mrs,
    model: BTreeMap<RopeId, ModelRope>,
    intents: BTreeMap<StrandId, Intent>,
    deleted: BTreeMap<StrandId, Intent>,
    rng: Prng,
    log: Vec<String>,
    out: FsxOutcome,
    clock: u64,
}

/// True for failures injected by the environment rather than produced
/// by the edit algebra: the op must then be a no-op on the catalog.
fn benign(e: &FsError) -> bool {
    matches!(
        e,
        FsError::AdmissionRejected { .. }
            | FsError::Alloc(_)
            | FsError::WriteFault { .. }
            | FsError::RetriesExhausted { .. }
            | FsError::TornWrite { .. }
            | FsError::MediaError { .. }
            | FsError::DeadlineAbandoned { .. }
    )
}

impl Harness {
    fn new(cfg: &FsxConfig) -> Harness {
        let mut disk = SimDisk::new(DiskGeometry::vintage_1991(), SeekModel::vintage_1991())
            .with_fault_seed(mix_seed(cfg.seed, 0xD15C));
        disk.arm_faults(cfg.plan.clone());
        let msm = Msm::new(disk, volume_config(cfg.journal));
        Harness {
            mrs: Mrs::new(msm),
            model: BTreeMap::new(),
            intents: BTreeMap::new(),
            deleted: BTreeMap::new(),
            rng: Prng::seed_from_u64(mix_seed(cfg.seed, 0xF5E0)),
            log: Vec::new(),
            out: FsxOutcome::default(),
            clock: 0,
        }
    }

    fn now(&mut self) -> Instant {
        self.clock += 50_000_000; // 50 virtual ms per step
        Instant::from_nanos(self.clock)
    }

    fn crashed(&self) -> bool {
        self.mrs.msm().disk().fault_stats().crashed_ops > 0
    }

    fn rope_ids(&self) -> Vec<RopeId> {
        self.model.keys().copied().collect()
    }

    fn pick_rope(&mut self) -> Option<RopeId> {
        let ids = self.rope_ids();
        ids.get(self.rng.bounded_u64(ids.len().max(1) as u64) as usize)
            .copied()
    }

    fn gen_sel(&mut self) -> MediaSel {
        match self.rng.bounded_u64(5) {
            0 => MediaSel::Video,
            1 => MediaSel::Audio,
            _ => MediaSel::Both,
        }
    }

    /// A grid-aligned interval inside `[0, d]`; `None` when the rope is
    /// too short to hold one grid step.
    fn gen_interval(&mut self, d: Nanos) -> Option<Interval> {
        let slots = d.as_nanos() / GRID.as_nanos();
        if slots == 0 {
            return None;
        }
        let start = self.rng.bounded_u64(slots);
        let len = 1 + self.rng.bounded_u64(slots - start);
        Some(Interval::new(GRID.mul_u64(start), GRID.mul_u64(len)))
    }

    /// A grid position in `[0, d]`, occasionally one step past the end
    /// (so `INSERT` exercises its position validation organically).
    fn gen_pos(&mut self, d: Nanos) -> Nanos {
        let slots = d.as_nanos() / GRID.as_nanos();
        GRID.mul_u64(self.rng.bounded_u64(slots + 2))
    }

    // ----- verification ------------------------------------------------

    /// Read the flattened unit cells of one medium of a real rope off
    /// the device, checking per-unit fill uniformity as it goes.
    fn read_real_cells(&self, rope: &Rope, medium: Medium) -> Result<Vec<Cell>, String> {
        let mut out = Vec::new();
        for (si, seg) in rope.segments.iter().enumerate() {
            let r = match medium {
                Medium::Video => &seg.video,
                Medium::Audio => &seg.audio,
            };
            let Some(r) = r else { continue };
            let strand =
                self.mrs.msm().strand(r.strand).map_err(|e| {
                    format!("segment {si}: referenced strand {}: {e}", r.strand.raw())
                })?;
            let unit_bytes = (strand.meta().unit_bits.get().div_ceil(8)) as usize;
            let q = r.granularity;
            let mut cached: Option<(u64, Option<Vec<u8>>)> = None;
            for u in r.start_unit..r.end_unit() {
                let b = u / q;
                if cached.as_ref().map(|(cb, _)| *cb) != Some(b) {
                    let extent = strand
                        .block(b)
                        .map_err(|e| format!("segment {si} block {b}: {e}"))?;
                    let bytes = match extent {
                        None => None,
                        Some(e) => Some(self.mrs.msm().disk().try_fetch(e).ok_or_else(|| {
                            format!("segment {si} block {b}: extent {e:?} off-device")
                        })?),
                    };
                    cached = Some((b, bytes));
                }
                match &cached.as_ref().unwrap().1 {
                    None => out.push(None),
                    Some(bytes) => {
                        let off = ((u - b * q) as usize) * unit_bytes;
                        let unit = bytes.get(off..off + unit_bytes).ok_or_else(|| {
                            format!("segment {si} block {b}: unit {u} past payload")
                        })?;
                        let fill = unit[0];
                        if unit.iter().any(|&x| x != fill) {
                            return Err(format!(
                                "segment {si} unit {u}: non-uniform payload (corruption)"
                            ));
                        }
                        out.push(Some(fill));
                    }
                }
            }
        }
        Ok(out)
    }

    /// Compare a cataloged rope against a model prediction (content,
    /// triggers, duration), then resync the model's time structure from
    /// the real rope so later splits stay in exact lockstep even after
    /// healing re-segmented it.
    fn verify_and_resync(
        &mut self,
        id: RopeId,
        predicted: &ModelRope,
        exact_duration: bool,
        ctx: &str,
    ) -> Result<(), String> {
        let rope = self
            .mrs
            .rope(id)
            .map_err(|e| format!("{ctx}: rope {} vanished: {e}", id.raw()))?
            .clone();
        let real_dur = rope.duration();
        let pred_dur = predicted.duration();
        if exact_duration {
            if real_dur != pred_dur {
                return Err(format!(
                    "{ctx}: rope {} duration {real_dur:?} != model {pred_dur:?}",
                    id.raw()
                ));
            }
        } else {
            let delta = real_dur.max(pred_dur) - real_dur.min(pred_dur);
            if delta > Nanos::from_millis(100) {
                return Err(format!(
                    "{ctx}: rope {} duration {real_dur:?} drifted {delta:?} from model {pred_dur:?}",
                    id.raw()
                ));
            }
        }
        let real_triggers: Vec<(Nanos, String)> = rope
            .triggers
            .iter()
            .map(|t| (t.at, t.text.clone()))
            .collect();
        if real_triggers != predicted.triggers {
            return Err(format!(
                "{ctx}: rope {} triggers {real_triggers:?} != model {:?}",
                id.raw(),
                predicted.triggers
            ));
        }
        let mut flats = Vec::new();
        for medium in [Medium::Video, Medium::Audio] {
            let real = self
                .read_real_cells(&rope, medium)
                .map_err(|e| format!("{ctx}: rope {}: {e}", id.raw()))?;
            let model = predicted.flatten(medium);
            if real != model {
                let at = real
                    .iter()
                    .zip(model.iter())
                    .position(|(a, b)| a != b)
                    .unwrap_or(real.len().min(model.len()));
                let segs: Vec<String> = rope
                    .segments
                    .iter()
                    .map(|s| format!("dur={:?} v={:?} a={:?}", s.duration, s.video, s.audio))
                    .collect();
                return Err(format!(
                    "{ctx}: rope {} {medium:?} content diverges at unit {at}: \
                     device has {} units, model {} (device[{at}..]={:?}, model[{at}..]={:?})\nsegments:\n{}",
                    id.raw(),
                    real.len(),
                    model.len(),
                    &real[at.min(real.len())..real.len().min(at + 4)],
                    &model[at.min(model.len())..model.len().min(at + 4)],
                    segs.join("\n"),
                ));
            }
            self.out.cells_checked += real.len() as u64;
            flats.push(model);
        }
        self.out.verifies += 1;
        let audio_flat = flats.pop().unwrap();
        let video_flat = flats.pop().unwrap();
        let resynced = resync_model(&rope, &video_flat, &audio_flat, predicted.triggers.clone())
            .map_err(|e| format!("{ctx}: rope {}: {e}", id.raw()))?;
        self.model.insert(id, resynced);
        Ok(())
    }

    /// Verify every cataloged rope against its (already-synced) model.
    fn verify_all(&mut self, ctx: &str) -> Result<(), String> {
        let real_ids = self.mrs.rope_ids();
        let mut sorted = real_ids.clone();
        sorted.sort();
        let model_ids = self.rope_ids();
        if sorted != model_ids {
            return Err(format!(
                "{ctx}: catalog {sorted:?} != model ropes {model_ids:?}"
            ));
        }
        for id in model_ids {
            let current = self.model.get(&id).unwrap().clone();
            self.verify_and_resync(id, &current, true, ctx)?;
        }
        Ok(())
    }

    // ----- ops ---------------------------------------------------------

    /// Record a short AV clip with deterministic fills and seeded
    /// silence holes; catalog it in the model and capture the strands'
    /// write intents.
    fn op_record(&mut self, i: u64) -> Result<String, String> {
        let deci = 4 + self.rng.bounded_u64(17); // 0.4 s ..= 2.0 s
        let clip = self.out.records;
        let now = self.now();
        let opts = RecordOpts {
            video: Some(TrackOpts {
                meta: meta_video(),
                silence: None,
            }),
            audio: Some(TrackOpts {
                meta: meta_audio(),
                silence: Some(SilenceDetector::telephone()),
            }),
        };
        let req = match self.mrs.record("fsx", opts) {
            Ok(req) => req,
            Err(e) if benign(&e) => {
                self.out.ops_benign_failures += 1;
                return Ok(format!("{i:04} record: admission rejected"));
            }
            Err(e) => return Err(format!("op {i}: record failed: {e}")),
        };
        let mut vcells: Vec<Cell> = Vec::new();
        let mut acells: Vec<Cell> = Vec::new();
        let mut feed = || -> Result<(), FsError> {
            for chunk in 0..deci * CHUNK_DECI {
                for frame in 0..4 {
                    let fill = 1 + ((clip * 31 + chunk * 4 + frame) % 250) as u8;
                    self.mrs.record_video_frame(req, now, &[fill; 128])?;
                    vcells.push(Some(fill));
                }
                if self.rng.gen_bool(0.25) {
                    self.mrs.record_audio_samples(req, now, &[0i32; 40])?;
                    acells.extend(std::iter::repeat_n(None, 40));
                } else {
                    let v = 8 + ((clip * 7 + chunk) % 113) as i32;
                    self.mrs.record_audio_samples(req, now, &[v; 40])?;
                    acells.extend(std::iter::repeat_n(Some(v as u8), 40));
                }
            }
            Ok(())
        };
        let fed = feed();
        let now2 = self.now();
        let stopped = self.mrs.stop(req, now2);
        match (fed, stopped) {
            (Ok(()), Ok(Some(rope_id))) => {
                let video = MRef {
                    rate: 40.0,
                    cells: vcells,
                };
                let audio = MRef {
                    rate: 400.0,
                    cells: acells,
                };
                // `stop` derives the segment duration as `Segment::new`
                // does: the longer of the two refs.
                let dur = video.duration().max(audio.duration());
                let predicted = ModelRope {
                    segs: vec![MSeg {
                        dur,
                        video: Some(video),
                        audio: Some(audio),
                    }],
                    triggers: Vec::new(),
                };
                self.verify_and_resync(rope_id, &predicted, true, "record")?;
                self.capture_rope_intents(rope_id)?;
                self.out.records += 1;
                self.out.ops_applied += 1;
                Ok(format!(
                    "{i:04} record {deci}00ms -> rope {}",
                    rope_id.raw()
                ))
            }
            (Err(e), _) | (_, Err(e)) if benign(&e) || self.crashed() => {
                self.out.ops_benign_failures += 1;
                Ok(format!("{i:04} record: aborted by fault"))
            }
            (Err(e), _) | (_, Err(e)) => Err(format!("op {i}: record feed failed: {e}")),
            (Ok(()), Ok(None)) => Err(format!("op {i}: record produced no rope")),
        }
    }

    /// Capture the write intent of every strand a rope references.
    fn capture_rope_intents(&mut self, id: RopeId) -> Result<(), String> {
        let strands = self.mrs.rope(id).map_err(|e| e.to_string())?.strand_ids();
        for sid in strands {
            self.capture_strand_intent(sid)?;
        }
        Ok(())
    }

    fn capture_strand_intent(&mut self, sid: StrandId) -> Result<(), String> {
        if self.intents.contains_key(&sid) {
            return Ok(());
        }
        let strand = self
            .mrs
            .msm()
            .strand(sid)
            .map_err(|e| format!("intent capture for strand {}: {e}", sid.raw()))?;
        let mut blocks = Vec::with_capacity(strand.block_count() as usize);
        for k in 0..strand.block_count() {
            let extent = strand.block(k).map_err(|e| e.to_string())?;
            blocks.push(match extent {
                None => None,
                Some(e) => Some(
                    self.mrs
                        .msm()
                        .disk()
                        .try_fetch(e)
                        .ok_or_else(|| format!("strand {} block {k} off-device", sid.raw()))?,
                ),
            });
        }
        self.intents.insert(sid, blocks);
        Ok(())
    }

    /// Shared tail of the three committing edits: reconcile model vs
    /// real outcome, enforce the copy bound, verify, resync.
    fn reconcile_edit(
        &mut self,
        i: u64,
        kind: &str,
        base: RopeId,
        predicted: Result<ModelRope, &'static str>,
        real: Result<(), FsError>,
    ) -> Result<String, String> {
        match (predicted, real) {
            (Ok(mut pred), Ok(())) => {
                // Commit-edit always runs the heal-tail normalization
                // (drop zero-duration segments, re-derive durations);
                // mirror it before comparing.
                pred.commit_normalize();
                let report = self.mrs.last_edit_report().clone();
                for h in &report.heals {
                    if h.copied > h.bound {
                        return Err(format!(
                            "op {i}: {kind} on rope {}: healed boundary copied {} blocks, \
                             Eq. 19/20 bound was {}",
                            base.raw(),
                            h.copied,
                            h.bound
                        ));
                    }
                    self.out.boundaries_healed += 1;
                    self.out.blocks_copied += h.copied;
                    self.out.max_copied_per_boundary =
                        self.out.max_copied_per_boundary.max(h.copied);
                    self.out.max_bound_seen = self.out.max_bound_seen.max(h.bound);
                }
                for h in &report.heals {
                    self.capture_strand_intent(h.new_strand)?;
                }
                // Healing splices bridge segments but conserves the
                // timeline, so the duration must match the model
                // exactly whether or not boundaries were healed.
                self.verify_and_resync(base, &pred, true, kind)?;
                self.out.edits += 1;
                self.out.ops_applied += 1;
                Ok(format!(
                    "{i:04} {kind} rope {} ok heals={} copied={}",
                    base.raw(),
                    report.heals.len(),
                    report.blocks_copied()
                ))
            }
            (Err(reason), Err(FsError::BadInterval { .. })) => {
                self.out.ops_rejected += 1;
                Ok(format!(
                    "{i:04} {kind} rope {} rejected: {reason}",
                    base.raw()
                ))
            }
            (Err(reason), Err(e)) if benign(&e) => {
                self.out.ops_benign_failures += 1;
                Ok(format!(
                    "{i:04} {kind} rope {} env-failed (model also invalid: {reason})",
                    base.raw()
                ))
            }
            (Err(reason), real) => Err(format!(
                "op {i}: {kind} on rope {}: model rejects ({reason}) but MRS returned {real:?}",
                base.raw()
            )),
            (Ok(_), Err(e)) if benign(&e) => {
                // The environment refused the edit; the catalog must be
                // untouched.
                let current = self.model.get(&base).unwrap().clone();
                self.verify_and_resync(base, &current, true, kind)?;
                self.out.ops_benign_failures += 1;
                Ok(format!(
                    "{i:04} {kind} rope {} env-failed, unchanged",
                    base.raw()
                ))
            }
            (Ok(_), Err(e)) => Err(format!(
                "op {i}: {kind} on rope {}: model accepts but MRS failed: {e}",
                base.raw()
            )),
        }
    }

    fn op_insert(&mut self, i: u64) -> Result<String, String> {
        let (Some(base), Some(with)) = (self.pick_rope(), self.pick_rope()) else {
            return Ok(format!("{i:04} insert: no ropes"));
        };
        let bdur = self.model[&base].duration();
        let wdur = self.model[&with].duration();
        let Some(with_iv) = self.gen_interval(wdur) else {
            return Ok(format!("{i:04} insert: with-rope too short"));
        };
        if bdur + with_iv.len > MAX_ROPE {
            return self.op_delete(i);
        }
        let sel = self.gen_sel();
        let pos = self.gen_pos(bdur);
        let predicted = model_insert(&self.model[&base], pos, sel, &self.model[&with], with_iv);
        let now = self.now();
        let real = self.mrs.insert("fsx", base, pos, sel, with, with_iv, now);
        self.reconcile_edit(i, "insert", base, predicted, real)
    }

    fn op_replace(&mut self, i: u64) -> Result<String, String> {
        let (Some(base), Some(with)) = (self.pick_rope(), self.pick_rope()) else {
            return Ok(format!("{i:04} replace: no ropes"));
        };
        let bdur = self.model[&base].duration();
        let wdur = self.model[&with].duration();
        let (Some(base_iv), Some(with_iv)) = (self.gen_interval(bdur), self.gen_interval(wdur))
        else {
            return Ok(format!("{i:04} replace: rope too short"));
        };
        if bdur - base_iv.len + with_iv.len > MAX_ROPE {
            return self.op_delete(i);
        }
        let sel = self.gen_sel();
        let predicted = model_replace(
            &self.model[&base],
            sel,
            base_iv,
            &self.model[&with],
            with_iv,
        );
        let now = self.now();
        let real = self
            .mrs
            .replace("fsx", base, sel, base_iv, with, with_iv, now);
        self.reconcile_edit(i, "replace", base, predicted, real)
    }

    fn op_delete(&mut self, i: u64) -> Result<String, String> {
        let Some(base) = self.pick_rope() else {
            return Ok(format!("{i:04} delete: no ropes"));
        };
        let dur = self.model[&base].duration();
        let Some(iv) = self.gen_interval(dur) else {
            return Ok(format!("{i:04} delete: rope too short"));
        };
        let sel = self.gen_sel();
        let predicted = model_delete(&self.model[&base], sel, iv);
        let now = self.now();
        let real = self.mrs.delete("fsx", base, sel, iv, now);
        self.reconcile_edit(i, "delete", base, predicted, real)
    }

    fn op_substring(&mut self, i: u64) -> Result<String, String> {
        if self.model.len() >= MAX_ROPES {
            // Keep the catalog hovering at the cap so records (and with
            // them fresh strand writes) stay in the mix.
            return self.op_delete_rope(i);
        }
        let Some(base) = self.pick_rope() else {
            return Ok(format!("{i:04} substring: no ropes"));
        };
        let dur = self.model[&base].duration();
        let Some(iv) = self.gen_interval(dur) else {
            return Ok(format!("{i:04} substring: rope too short"));
        };
        let sel = self.gen_sel();
        let predicted = model_substring(&self.model[&base], sel, iv);
        match (predicted, self.mrs.substring("fsx", base, sel, iv)) {
            (Ok(pred), Ok(new_id)) => {
                // SUBSTRING shares strands and never heals: durations
                // must mirror exactly.
                self.verify_and_resync(new_id, &pred, true, "substring")?;
                self.out.ops_applied += 1;
                Ok(format!(
                    "{i:04} substring rope {} -> rope {}",
                    base.raw(),
                    new_id.raw()
                ))
            }
            (Err(reason), Err(FsError::BadInterval { .. })) => {
                self.out.ops_rejected += 1;
                Ok(format!("{i:04} substring rejected: {reason}"))
            }
            (pred, real) => Err(format!(
                "op {i}: substring on rope {} diverged: model {pred:?} vs MRS {:?}",
                base.raw(),
                real.map(|r| r.raw())
            )),
        }
    }

    fn op_concat(&mut self, i: u64) -> Result<String, String> {
        if self.model.len() >= MAX_ROPES {
            return self.op_delete_rope(i);
        }
        let (Some(a), Some(b)) = (self.pick_rope(), self.pick_rope()) else {
            return Ok(format!("{i:04} concat: no ropes"));
        };
        if self.model[&a].duration() + self.model[&b].duration() > MAX_ROPE {
            return self.op_delete(i);
        }
        let pred = model_concat(&self.model[&a], &self.model[&b]);
        let new_id = self
            .mrs
            .concat("fsx", a, b)
            .map_err(|e| format!("op {i}: concat failed: {e}"))?;
        self.verify_and_resync(new_id, &pred, true, "concat")?;
        self.out.ops_applied += 1;
        Ok(format!(
            "{i:04} concat {}+{} -> rope {}",
            a.raw(),
            b.raw(),
            new_id.raw()
        ))
    }

    fn op_delete_rope(&mut self, i: u64) -> Result<String, String> {
        let Some(id) = self.pick_rope() else {
            return Ok(format!("{i:04} delete_rope: no ropes"));
        };
        self.mrs
            .delete_rope("fsx", id)
            .map_err(|e| format!("op {i}: delete_rope failed: {e}"))?;
        self.model.remove(&id);
        self.out.ops_applied += 1;
        Ok(format!("{i:04} delete_rope {}", id.raw()))
    }

    fn op_gc(&mut self, i: u64) -> Result<String, String> {
        let dead = self.mrs.gc();
        for d in &dead {
            for rid in self.mrs.rope_ids() {
                let rope = self.mrs.rope(rid).map_err(|e| e.to_string())?;
                if rope.strand_ids().contains(d) {
                    return Err(format!(
                        "op {i}: GC collected strand {} still referenced by rope {}",
                        d.raw(),
                        rid.raw()
                    ));
                }
            }
            if let Some(intent) = self.intents.remove(d) {
                self.deleted.insert(*d, intent);
            }
        }
        self.out.gc_runs += 1;
        self.out.strands_collected += dead.len() as u64;
        self.out.ops_applied += 1;
        // Every surviving rope must still read back intact.
        self.verify_all("post-gc")?;
        Ok(format!("{i:04} gc collected {}", dead.len()))
    }

    fn op_add_trigger(&mut self, i: u64) -> Result<String, String> {
        let Some(id) = self.pick_rope() else {
            return Ok(format!("{i:04} trigger: no ropes"));
        };
        let dur = self.model[&id].duration();
        let at = self.gen_pos(dur);
        let text = format!("t{i}");
        let real = self.mrs.add_trigger("fsx", id, at, &text);
        let model_ok = at <= dur;
        match (model_ok, real) {
            (true, Ok(())) => {
                let m = self.model.get_mut(&id).unwrap();
                m.triggers.push((at, text));
                m.triggers.sort_by_key(|(t, _)| *t);
                let rope = self.mrs.rope(id).map_err(|e| e.to_string())?;
                let real_triggers: Vec<(Nanos, String)> = rope
                    .triggers
                    .iter()
                    .map(|t| (t.at, t.text.clone()))
                    .collect();
                if real_triggers != self.model[&id].triggers {
                    return Err(format!(
                        "op {i}: trigger list diverged on rope {}",
                        id.raw()
                    ));
                }
                self.out.ops_applied += 1;
                Ok(format!(
                    "{i:04} trigger rope {} @{}ns",
                    id.raw(),
                    at.as_nanos()
                ))
            }
            (false, Err(FsError::BadInterval { .. })) => {
                self.out.ops_rejected += 1;
                Ok(format!("{i:04} trigger rejected: beyond rope end"))
            }
            (model_ok, real) => Err(format!(
                "op {i}: add_trigger diverged (model_ok={model_ok}, real={real:?})"
            )),
        }
    }

    /// One full play / pause / resume / stop cycle, exercising the
    /// destructive-pause admission round trip.
    fn op_play_cycle(&mut self, i: u64) -> Result<String, String> {
        let Some(id) = self.pick_rope() else {
            return Ok(format!("{i:04} play: no ropes"));
        };
        let dur = self.model[&id].duration();
        if dur.is_zero() {
            return Ok(format!("{i:04} play: rope {} empty", id.raw()));
        }
        let (req, schedule) = match self
            .mrs
            .play("fsx", id, MediaSel::Both, Interval::whole(dur))
        {
            Ok(ok) => ok,
            Err(e) if benign(&e) => {
                self.out.ops_benign_failures += 1;
                return Ok(format!("{i:04} play rope {} rejected", id.raw()));
            }
            Err(e) => return Err(format!("op {i}: play failed: {e}")),
        };
        if schedule.items.is_empty() && !self.model[&id].segs.is_empty() {
            let has_media = self.model[&id]
                .segs
                .iter()
                .any(|s| s.video.is_some() || s.audio.is_some());
            if has_media {
                return Err(format!(
                    "op {i}: play of rope {} compiled an empty schedule",
                    id.raw()
                ));
            }
        }
        let style = self.rng.bounded_u64(3);
        let detail = match style {
            0 => {
                let destructive = self.rng.gen_bool(0.5);
                self.pause_resume_cycle(i, req, destructive)?
            }
            1 => {
                // Pausing a paused session must be rejected.
                self.mrs
                    .pause(req, false)
                    .map_err(|e| format!("op {i}: pause failed: {e}"))?;
                match self.mrs.pause(req, true) {
                    Err(FsError::BadRequestState { .. }) => {}
                    other => {
                        return Err(format!("op {i}: double pause was not rejected: {other:?}"))
                    }
                }
                self.mrs
                    .resume(req)
                    .map_err(|e| format!("op {i}: resume failed: {e}"))?;
                "double-pause"
            }
            _ => "plain",
        };
        let now = self.now();
        self.mrs
            .stop(req, now)
            .map_err(|e| format!("op {i}: stop failed: {e}"))?;
        self.out.play_cycles += 1;
        self.out.ops_applied += 1;
        Ok(format!("{i:04} play rope {} ({detail})", id.raw()))
    }

    fn pause_resume_cycle(
        &mut self,
        i: u64,
        req: RequestId,
        destructive: bool,
    ) -> Result<&'static str, String> {
        self.mrs
            .pause(req, destructive)
            .map_err(|e| format!("op {i}: pause failed: {e}"))?;
        let (_, _, _, paused) = self
            .mrs
            .play_info(req)
            .map_err(|e| format!("op {i}: play_info failed: {e}"))?;
        if !paused {
            return Err(format!("op {i}: session not paused after pause"));
        }
        match self.mrs.resume(req) {
            Ok(()) => {}
            Err(e) if destructive && benign(&e) => {
                // Someone else took the slots; the session must still be
                // paused and stoppable.
                let (_, _, _, still) = self.mrs.play_info(req).map_err(|e| e.to_string())?;
                if !still {
                    return Err(format!("op {i}: failed resume un-paused the session"));
                }
                return Ok("resume-rejected");
            }
            Err(e) => return Err(format!("op {i}: resume failed: {e}")),
        }
        Ok(if destructive {
            "destructive-pause"
        } else {
            "pause"
        })
    }

    /// A deliberately-invalid op: the MRS must reject it exactly as the
    /// model predicts, leaving everything untouched.
    fn op_invalid(&mut self, i: u64) -> Result<String, String> {
        let Some(id) = self.pick_rope() else {
            return Ok(format!("{i:04} invalid: no ropes"));
        };
        let dur = self.model[&id].duration();
        let now = self.now();
        let (what, real): (&str, Result<(), FsError>) = match self.rng.bounded_u64(3) {
            0 => (
                "empty interval",
                self.mrs.delete(
                    "fsx",
                    id,
                    MediaSel::Both,
                    Interval::new(Nanos::ZERO, Nanos::ZERO),
                    now,
                ),
            ),
            1 => (
                "interval beyond end",
                self.mrs
                    .substring("fsx", id, MediaSel::Both, Interval::new(dur + GRID, GRID))
                    .map(|_| ()),
            ),
            _ => (
                "trigger beyond end",
                self.mrs.add_trigger("fsx", id, dur + GRID, "late"),
            ),
        };
        match real {
            Err(FsError::BadInterval { .. }) => {
                self.out.ops_rejected += 1;
                Ok(format!("{i:04} invalid ({what}) rejected"))
            }
            other => Err(format!(
                "op {i}: invalid op ({what}) was not rejected: {other:?}"
            )),
        }
    }

    /// Run one op chosen by seeded weighted selection.
    fn step(&mut self, i: u64) -> Result<(), String> {
        let ropes = self.model.len();
        let kind = if ropes < 2 {
            0 // record
        } else {
            let mut weights: Vec<(u64, u64)> = vec![
                (if ropes < MAX_ROPES { 8 } else { 0 }, 0), // record
                (14, 1),                                    // insert
                (14, 2),                                    // replace
                (14, 3),                                    // delete
                (10, 4),                                    // substring
                (if ropes < MAX_ROPES { 8 } else { 0 }, 5), // concat
                (if ropes > 2 { 6 } else { 0 }, 6),         // delete_rope
                (8, 7),                                     // gc
                (8, 8),                                     // play cycle
                (6, 9),                                     // trigger
                (4, 10),                                    // invalid
            ];
            weights.retain(|(w, _)| *w > 0);
            let total: u64 = weights.iter().map(|(w, _)| w).sum();
            let mut draw = self.rng.bounded_u64(total);
            let mut chosen = weights[0].1;
            for (w, k) in weights {
                if draw < w {
                    chosen = k;
                    break;
                }
                draw -= w;
            }
            chosen
        };
        let line = match kind {
            0 => self.op_record(i)?,
            1 => self.op_insert(i)?,
            2 => self.op_replace(i)?,
            3 => self.op_delete(i)?,
            4 => self.op_substring(i)?,
            5 => self.op_concat(i)?,
            6 => self.op_delete_rope(i)?,
            7 => self.op_gc(i)?,
            8 => self.op_play_cycle(i)?,
            9 => self.op_add_trigger(i)?,
            _ => self.op_invalid(i)?,
        };
        self.log.push(line);
        self.out.ops_attempted += 1;
        Ok(())
    }

    /// Healthy-run epilogue: full verify, convergent fsck, image hash.
    fn finish_healthy(mut self) -> Result<FsxOutcome, String> {
        self.verify_all("final")?;
        let wraps = self.mrs.msm().allocator().stats().wraps;
        let first = fsck::check_volume(&mut self.mrs, Instant::from_nanos(self.clock));
        if !first.clean() {
            let second = fsck::check_volume(&mut self.mrs, Instant::from_nanos(self.clock));
            if !second.clean() && !wrap_anomalies_only(&second.findings, wraps) {
                return Err(format!(
                    "final fsck did not converge: {:?}",
                    second.findings
                ));
            }
        }
        self.out.ropes_final = self.model.len() as u64;
        self.out.device_writes = self.mrs.msm().disk().stats().writes;
        self.out.image_hash = self.mrs.msm().disk().content_hash();
        self.out.op_log_hash = fnv1a(self.log.join("\n").as_bytes());
        Ok(self.out)
    }

    /// Crashed-run epilogue: power-cycle, recover, convergent fsck,
    /// prefix-verify every strand we hold an intent for, probe
    /// writability.
    fn finish_crashed(mut self) -> Result<FsxOutcome, String> {
        self.out.crashed = true;
        self.out.device_writes = self.mrs.msm().disk().stats().writes;
        self.out.op_log_hash = fnv1a(self.log.join("\n").as_bytes());
        // Captured before the power-cycle: the recovered allocator's
        // stats start from zero, but the image keeps the placements.
        let wraps = self.mrs.msm().allocator().stats().wraps;
        let mut device = self.mrs.into_msm().into_device();
        device.power_cycle();
        let (mut rec, report) = Msm::recover(device, volume_config(true), Instant::EPOCH)
            .map_err(|e| format!("recovery failed: {e}"))?;
        self.out.image_hash = rec.disk().content_hash();
        let first = fsck::check_msm(&mut rec, Instant::EPOCH);
        let findings = first.findings.len() as u64;
        if !first.clean() {
            let second = fsck::check_msm(&mut rec, Instant::EPOCH);
            if !second.clean() && !wrap_anomalies_only(&second.findings, wraps) {
                return Err(format!(
                    "post-crash fsck did not converge: {:?}",
                    second.findings
                ));
            }
        }
        let mut verified = 0;
        for (live, map) in [(true, &self.intents), (false, &self.deleted)] {
            for (sid, intent) in map {
                let Ok(strand) = rec.strand(*sid) else {
                    // Absent is the empty prefix (or a replayed delete).
                    continue;
                };
                let n = strand.block_count();
                if n as usize > intent.len() {
                    return Err(format!(
                        "strand {} (live={live}) recovered {n} blocks, intent had {}",
                        sid.raw(),
                        intent.len()
                    ));
                }
                for k in 0..n {
                    let extent = strand.block(k).map_err(|e| e.to_string())?;
                    match (extent, &intent[k as usize]) {
                        (None, None) => {}
                        (Some(e), Some(payload)) => {
                            let bytes = rec.disk().try_fetch(e).ok_or_else(|| {
                                format!("strand {} block {k} off-device", sid.raw())
                            })?;
                            if &bytes != payload {
                                return Err(format!(
                                    "strand {} block {k} content differs from its write intent",
                                    sid.raw()
                                ));
                            }
                        }
                        (got, _) => {
                            return Err(format!(
                                "strand {} block {k} kind mismatch vs intent ({})",
                                sid.raw(),
                                if got.is_some() { "data" } else { "silence" }
                            ));
                        }
                    }
                }
                verified += 1;
            }
        }
        // The recovered volume must remain a working recorder.
        let probe = rec.begin_strand(meta_video());
        let (_, op) = rec
            .append_block(probe, report.finished_at, &[0x42; 256], 2)
            .map_err(|e| format!("post-recovery append failed: {e}"))?;
        rec.finish_strand(probe, op.completed)
            .map_err(|e| format!("post-recovery finish failed: {e}"))?;
        self.out.recovery = Some(FsxRecovery {
            durable_strands: report.durable_strands,
            completed_strands: report.completed_strands,
            blocks_recovered: report.blocks_recovered,
            blocks_rolled_back: report.blocks_rolled_back,
            deleted_strands: report.deleted_strands,
            fsck_findings: findings,
            prefix_verified_strands: verified,
        });
        self.out.ropes_final = self.model.len() as u64;
        Ok(self.out)
    }
}

/// Rebuild the model's time structure from the real rope (which healing
/// may have re-segmented) while keeping the verified model cells as the
/// content ground truth.
fn resync_model(
    rope: &Rope,
    video_flat: &[Cell],
    audio_flat: &[Cell],
    triggers: Vec<(Nanos, String)>,
) -> Result<ModelRope, String> {
    let mut vi = 0usize;
    let mut ai = 0usize;
    let mut segs = Vec::with_capacity(rope.segments.len());
    for s in &rope.segments {
        let video = match &s.video {
            None => None,
            Some(r) => {
                let n = r.len_units as usize;
                let cells = video_flat
                    .get(vi..vi + n)
                    .ok_or("video refs cover more units than the model")?
                    .to_vec();
                vi += n;
                Some(MRef {
                    rate: r.unit_rate,
                    cells,
                })
            }
        };
        let audio = match &s.audio {
            None => None,
            Some(r) => {
                let n = r.len_units as usize;
                let cells = audio_flat
                    .get(ai..ai + n)
                    .ok_or("audio refs cover more units than the model")?
                    .to_vec();
                ai += n;
                Some(MRef {
                    rate: r.unit_rate,
                    cells,
                })
            }
        };
        segs.push(MSeg {
            dur: s.duration,
            video,
            audio,
        });
    }
    if vi != video_flat.len() || ai != audio_flat.len() {
        return Err(format!(
            "resync consumed {vi}/{} video and {ai}/{} audio units",
            video_flat.len(),
            audio_flat.len()
        ));
    }
    Ok(ModelRope { segs, triggers })
}

/// Run the exerciser, returning the outcome or a diagnostic naming the
/// violated invariant, the seed and the op index.
pub fn try_run(cfg: &FsxConfig) -> Result<FsxOutcome, String> {
    if cfg.plan.crash.is_some() && !cfg.journal {
        return Err("a crashing plan requires journal: true to recover".into());
    }
    let mut h = Harness::new(cfg);
    for i in 0..cfg.ops {
        h.step(i)
            .map_err(|e| format!("[fsx seed={} op={i}] {e}", cfg.seed))?;
        if h.crashed() {
            h.log.push(format!("{i:04} crash point fired"));
            return h
                .finish_crashed()
                .map_err(|e| format!("[fsx seed={} crash] {e}", cfg.seed));
        }
        if (i + 1) % 25 == 0 {
            h.verify_all("periodic")
                .map_err(|e| format!("[fsx seed={} op={i}] {e}", cfg.seed))?;
        }
    }
    h.finish_healthy()
        .map_err(|e| format!("[fsx seed={} final] {e}", cfg.seed))
}

/// Run the exerciser, panicking (with seed and op index) on any
/// invariant violation. Replay with `STRANDFS_TEST_SEED=<seed>`.
pub fn run(cfg: &FsxConfig) -> FsxOutcome {
    match try_run(cfg) {
        Ok(out) => out,
        Err(e) => panic!("{e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_split_mirrors_strand_ref_rounding() {
        let r = MRef {
            rate: 40.0,
            cells: (0..40).map(|i| Some(i as u8)).collect(),
        };
        // Same density-balanced arithmetic as the real rope: 400 ms
        // of a nominal 1 s window takes 16 of 40 cells.
        let units =
            strandfs_core::rope::split_proportional(Nanos::from_millis(400), r.duration(), 40);
        assert_eq!(units, 16);
        let (l, rt) = r.split_units(units);
        assert_eq!(l.cells.len(), 16);
        assert_eq!(rt.cells.len(), 24);
        assert_eq!(rt.cells[0], Some(16));
        // Clamped past the end.
        let (l2, r2) = r.split_units(99);
        assert_eq!(l2.cells.len(), 40);
        assert!(r2.cells.is_empty());
    }

    #[test]
    fn model_delete_both_cuts_cells_and_shifts_triggers() {
        let base = ModelRope {
            segs: vec![MSeg {
                dur: Nanos::from_secs(1),
                video: Some(MRef {
                    rate: 40.0,
                    cells: (0..40).map(|i| Some(i as u8)).collect(),
                }),
                audio: None,
            }],
            triggers: vec![
                (Nanos::from_millis(100), "keep".into()),
                (Nanos::from_millis(500), "cut".into()),
                (Nanos::from_millis(900), "shift".into()),
            ],
        };
        let out = model_delete(
            &base,
            MediaSel::Both,
            Interval::new(Nanos::from_millis(400), Nanos::from_millis(400)),
        )
        .unwrap();
        assert_eq!(out.duration(), Nanos::from_millis(600));
        let cells = out.flatten(Medium::Video);
        assert_eq!(cells.len(), 24);
        assert_eq!(cells[16], Some(32)); // unit 32 moved to index 16
        assert_eq!(
            out.triggers,
            vec![
                (Nanos::from_millis(100), "keep".to_string()),
                (Nanos::from_millis(500), "shift".to_string()),
            ]
        );
    }

    #[test]
    fn model_rejects_what_validate_rejects() {
        let base = ModelRope {
            segs: vec![MSeg {
                dur: Nanos::from_secs(1),
                video: None,
                audio: Some(MRef {
                    rate: 400.0,
                    cells: vec![Some(1); 400],
                }),
            }],
            triggers: Vec::new(),
        };
        assert_eq!(
            model_substring(
                &base,
                MediaSel::Both,
                Interval::new(Nanos::ZERO, Nanos::ZERO)
            ),
            Err("interval is empty")
        );
        assert_eq!(
            model_delete(
                &base,
                MediaSel::Both,
                Interval::new(Nanos::from_millis(900), Nanos::from_millis(200))
            ),
            Err("interval extends beyond rope end")
        );
        assert_eq!(
            model_insert(
                &base,
                Nanos::from_secs(2),
                MediaSel::Both,
                &base,
                Interval::whole(Nanos::from_secs(1))
            ),
            Err("insert position beyond rope end")
        );
    }

    #[test]
    fn tiny_run_is_reproducible() {
        let cfg = FsxConfig::healthy(7, 40);
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a, b);
        assert!(a.ops_applied > 0);
        assert!(a.records > 0);
    }
}

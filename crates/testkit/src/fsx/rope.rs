//! The rope model, the driver's first instance.
//!
//! It keeps an in-memory **model rope** per cataloged rope: a byte- and
//! duration-level reference implementation of the edit algebra that
//! mirrors `rope/edit.rs` exactly (same balanced splits, same track
//! splicing, same zip re-segmentation, same trigger shifting). It draws
//! the op mix over a live [`Mrs`] and compares every edited rope with
//! its model: content byte for byte, triggers, duration, the Eq. 19/20
//! copy bound at every healed boundary, GC safety, and agreement on
//! which ops are invalid.

use std::collections::BTreeMap;

use super::{Draw, FsxOutcome, Model};
use crate::crash::{block_image, strand_image, Image};
use strandfs_core::mrs::{Mrs, RecordOpts, TrackOpts};
use strandfs_core::rope::edit::{Interval, MediaSel};
use strandfs_core::rope::{split_balanced, Rope, StrandRef};
use strandfs_core::strand::StrandMeta;
use strandfs_core::{FsError, RequestId, RopeId, StrandId};
use strandfs_media::silence::SilenceDetector;
use strandfs_media::Medium;
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
pub(super) struct ModelRope {
    segs: Vec<MSeg>,
    triggers: Vec<(Nanos, String)>,
}

impl ModelRope {
    fn duration(&self) -> Nanos {
        self.segs.iter().map(|s| s.dur).sum()
    }

    fn to_tracks(&self) -> (MTrack, MTrack) {
        let piece = |dur, r: &Option<MRef>| MPiece { dur, r: r.clone() };
        (self.segs.iter())
            .map(|s| (piece(s.dur, &s.video), piece(s.dur, &s.audio)))
            .unzip()
    }

    /// The flattened per-medium unit cells — the content invariant the
    /// exerciser compares against the device.
    fn flatten(&self, medium: Medium) -> Vec<Cell> {
        let refs = self.segs.iter().filter_map(|s| match medium {
            Medium::Video => s.video.as_ref(),
            Medium::Audio => s.audio.as_ref(),
        });
        refs.flat_map(|r| r.cells.iter().copied()).collect()
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
    let sub = |on: bool, t: &MTrack| if on { track_sub(t, iv) } else { Vec::new() };
    let (video, audio) = (sub(sel.video(), &v), sub(sel.audio(), &a));
    let triggers = base
        .triggers
        .iter()
        .filter(|(at, _)| *at >= iv.start && *at < iv.end())
        .map(|(at, text)| (*at - iv.start, text.clone()))
        .collect();
    Ok(rebuild(video, audio, triggers))
}

/// Mirror of the trigger edit of a splice over the whole timeline:
/// triggers inside `cut` go and later ones move by `added - cut.len`;
/// a one-medium splice leaves them where they are.
fn splice_triggers(
    base: &ModelRope,
    sel: MediaSel,
    cut: Interval,
    added: Nanos,
) -> Vec<(Nanos, String)> {
    let both = sel == MediaSel::Both;
    base.triggers
        .iter()
        .filter(|(at, _)| !both || *at < cut.start || *at >= cut.end())
        .map(|(at, text)| {
            let moved = both && *at >= cut.end();
            (
                if moved { *at - cut.len + added } else { *at },
                text.clone(),
            )
        })
        .collect()
}

fn model_delete(base: &ModelRope, sel: MediaSel, iv: Interval) -> Result<ModelRope, &'static str> {
    validate(iv, base.duration())?;
    let (v, a) = base.to_tracks();
    let (video, audio) = match sel {
        MediaSel::Both => (track_cut(&v, iv), track_cut(&a, iv)),
        MediaSel::Video => (track_blank(&v, iv), a),
        MediaSel::Audio => (v, track_blank(&a, iv)),
    };
    let triggers = splice_triggers(base, sel, iv, Nanos::ZERO);
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
    let triggers = splice_triggers(base, sel, Interval::new(position, Nanos::ZERO), with_iv.len);
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
    let triggers = splice_triggers(base, sel, base_iv, with_iv.len);
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

/// A real rope's triggers as the model keeps them.
fn triggers_of(rope: &Rope) -> Vec<(Nanos, String)> {
    let triggers = rope.triggers.iter();
    triggers.map(|t| (t.at, t.text.clone())).collect()
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

fn gen_sel(d: &mut Draw) -> MediaSel {
    match d.below(5) {
        0 => MediaSel::Video,
        1 => MediaSel::Audio,
        _ => MediaSel::Both,
    }
}

/// A grid-aligned interval inside `[0, dur]`; `None` when the rope is
/// too short to hold one grid step.
fn gen_interval(d: &mut Draw, dur: Nanos) -> Option<Interval> {
    let slots = dur.as_nanos() / GRID.as_nanos();
    if slots == 0 {
        return None;
    }
    let start = d.below(slots);
    let len = 1 + d.below(slots - start);
    Some(Interval::new(GRID.mul_u64(start), GRID.mul_u64(len)))
}

/// A grid position in `[0, dur]`, occasionally one step past the end
/// (so `INSERT` exercises its position validation organically).
fn gen_pos(d: &mut Draw, dur: Nanos) -> Nanos {
    let slots = dur.as_nanos() / GRID.as_nanos();
    GRID.mul_u64(d.below(slots + 2))
}

/// The rope model over a live [`Mrs`]: a [`ModelRope`] per cataloged
/// rope, and the write intent of every strand the run has written.
pub(super) struct RopeModel {
    pub(super) mrs: Mrs,
    pub(super) ropes: BTreeMap<RopeId, ModelRope>,
    /// Each strand's image, captured while the device was healthy; a
    /// collected strand keeps its entry, since a crash may resurrect
    /// a prefix of it.
    pub(super) intents: BTreeMap<StrandId, Image>,
    pub(super) out: FsxOutcome,
    pub(super) clock: u64,
}

impl RopeModel {
    pub(super) fn new(mrs: Mrs) -> RopeModel {
        RopeModel {
            mrs,
            ropes: BTreeMap::new(),
            intents: BTreeMap::new(),
            out: FsxOutcome::default(),
            clock: 0,
        }
    }

    fn now(&mut self) -> Instant {
        self.clock += 50_000_000; // 50 virtual ms per step
        Instant::from_nanos(self.clock)
    }

    fn rope_ids(&self) -> Vec<RopeId> {
        self.ropes.keys().copied().collect()
    }

    fn pick_rope(&self, d: &mut Draw) -> Option<RopeId> {
        let ids = self.rope_ids();
        ids.get(d.below(ids.len().max(1) as u64) as usize).copied()
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
                    let bytes = block_image(self.mrs.msm(), strand, b)
                        .map_err(|e| format!("segment {si} {e}"))?;
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
        ctx: &str,
    ) -> Result<(), String> {
        let rope = self
            .mrs
            .rope(id)
            .map_err(|e| format!("{ctx}: rope {} vanished: {e}", id.raw()))?
            .clone();
        let real_dur = rope.duration();
        let pred_dur = predicted.duration();
        if real_dur != pred_dur {
            return Err(format!(
                "{ctx}: rope {} duration {real_dur:?} != model {pred_dur:?}",
                id.raw()
            ));
        }
        let real_triggers = triggers_of(&rope);
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
        self.ropes.insert(id, resynced);
        Ok(())
    }

    // ----- ops ---------------------------------------------------------

    /// Record a short AV clip with deterministic fills and seeded
    /// silence holes; catalog it in the model and capture the strands'
    /// write intents.
    fn op_record(&mut self, i: u64, d: &mut Draw) -> Result<String, String> {
        let deci = 4 + d.below(17); // 0.4 s ..= 2.0 s
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
                if d.chance(0.25) {
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
                self.verify_and_resync(rope_id, &predicted, "record")?;
                let strands = self.mrs.rope(rope_id).map_err(|e| e.to_string())?;
                self.capture_intents(strands.strand_ids())?;
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

    /// Capture the write intent of every strand not captured yet.
    fn capture_intents(
        &mut self,
        strands: impl IntoIterator<Item = StrandId>,
    ) -> Result<(), String> {
        for sid in strands {
            if !self.intents.contains_key(&sid) {
                let strand = self.mrs.msm().strand(sid).map_err(|e| e.to_string());
                let image = strand.and_then(|s| strand_image(self.mrs.msm(), s));
                let image = image.map_err(|e| format!("intent of strand {}: {e}", sid.raw()))?;
                self.intents.insert(sid, image);
            }
        }
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
                self.capture_intents(report.heals.iter().map(|h| h.new_strand))?;
                // Healing splices bridge segments but conserves the
                // timeline, so the duration must match the model
                // exactly whether or not boundaries were healed.
                self.verify_and_resync(base, &pred, kind)?;
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
                let current = self.ropes.get(&base).unwrap().clone();
                self.verify_and_resync(base, &current, kind)?;
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

    fn op_insert(&mut self, i: u64, d: &mut Draw) -> Result<String, String> {
        let (Some(base), Some(with)) = (self.pick_rope(d), self.pick_rope(d)) else {
            return Ok(format!("{i:04} insert: no ropes"));
        };
        let bdur = self.ropes[&base].duration();
        let wdur = self.ropes[&with].duration();
        let Some(with_iv) = gen_interval(d, wdur) else {
            return Ok(format!("{i:04} insert: with-rope too short"));
        };
        if bdur + with_iv.len > MAX_ROPE {
            return self.op_delete(i, d);
        }
        let sel = gen_sel(d);
        let pos = gen_pos(d, bdur);
        let predicted = model_insert(&self.ropes[&base], pos, sel, &self.ropes[&with], with_iv);
        let now = self.now();
        let real = self.mrs.insert("fsx", base, pos, sel, with, with_iv, now);
        self.reconcile_edit(i, "insert", base, predicted, real)
    }

    fn op_replace(&mut self, i: u64, d: &mut Draw) -> Result<String, String> {
        let (Some(base), Some(with)) = (self.pick_rope(d), self.pick_rope(d)) else {
            return Ok(format!("{i:04} replace: no ropes"));
        };
        let bdur = self.ropes[&base].duration();
        let wdur = self.ropes[&with].duration();
        let (Some(base_iv), Some(with_iv)) = (gen_interval(d, bdur), gen_interval(d, wdur)) else {
            return Ok(format!("{i:04} replace: rope too short"));
        };
        if bdur - base_iv.len + with_iv.len > MAX_ROPE {
            return self.op_delete(i, d);
        }
        let sel = gen_sel(d);
        let predicted = model_replace(
            &self.ropes[&base],
            sel,
            base_iv,
            &self.ropes[&with],
            with_iv,
        );
        let now = self.now();
        let real = self
            .mrs
            .replace("fsx", base, sel, base_iv, with, with_iv, now);
        self.reconcile_edit(i, "replace", base, predicted, real)
    }

    fn op_delete(&mut self, i: u64, d: &mut Draw) -> Result<String, String> {
        let Some(base) = self.pick_rope(d) else {
            return Ok(format!("{i:04} delete: no ropes"));
        };
        let dur = self.ropes[&base].duration();
        let Some(iv) = gen_interval(d, dur) else {
            return Ok(format!("{i:04} delete: rope too short"));
        };
        let sel = gen_sel(d);
        let predicted = model_delete(&self.ropes[&base], sel, iv);
        let now = self.now();
        let real = self.mrs.delete("fsx", base, sel, iv, now);
        self.reconcile_edit(i, "delete", base, predicted, real)
    }

    fn op_substring(&mut self, i: u64, d: &mut Draw) -> Result<String, String> {
        if self.ropes.len() >= MAX_ROPES {
            // Keep the catalog hovering at the cap so records (and with
            // them fresh strand writes) stay in the mix.
            return self.op_delete_rope(i, d);
        }
        let Some(base) = self.pick_rope(d) else {
            return Ok(format!("{i:04} substring: no ropes"));
        };
        let dur = self.ropes[&base].duration();
        let Some(iv) = gen_interval(d, dur) else {
            return Ok(format!("{i:04} substring: rope too short"));
        };
        let sel = gen_sel(d);
        let predicted = model_substring(&self.ropes[&base], sel, iv);
        match (predicted, self.mrs.substring("fsx", base, sel, iv)) {
            (Ok(pred), Ok(new_id)) => {
                // SUBSTRING shares strands and never heals: durations
                // must mirror exactly.
                self.verify_and_resync(new_id, &pred, "substring")?;
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

    fn op_concat(&mut self, i: u64, d: &mut Draw) -> Result<String, String> {
        if self.ropes.len() >= MAX_ROPES {
            return self.op_delete_rope(i, d);
        }
        let (Some(a), Some(b)) = (self.pick_rope(d), self.pick_rope(d)) else {
            return Ok(format!("{i:04} concat: no ropes"));
        };
        if self.ropes[&a].duration() + self.ropes[&b].duration() > MAX_ROPE {
            return self.op_delete(i, d);
        }
        let pred = model_concat(&self.ropes[&a], &self.ropes[&b]);
        let new_id = self
            .mrs
            .concat("fsx", a, b)
            .map_err(|e| format!("op {i}: concat failed: {e}"))?;
        self.verify_and_resync(new_id, &pred, "concat")?;
        self.out.ops_applied += 1;
        Ok(format!(
            "{i:04} concat {}+{} -> rope {}",
            a.raw(),
            b.raw(),
            new_id.raw()
        ))
    }

    fn op_delete_rope(&mut self, i: u64, d: &mut Draw) -> Result<String, String> {
        let Some(id) = self.pick_rope(d) else {
            return Ok(format!("{i:04} delete_rope: no ropes"));
        };
        self.mrs
            .delete_rope("fsx", id)
            .map_err(|e| format!("op {i}: delete_rope failed: {e}"))?;
        self.ropes.remove(&id);
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
        }
        self.out.gc_runs += 1;
        self.out.strands_collected += dead.len() as u64;
        self.out.ops_applied += 1;
        // Every surviving rope must still read back intact.
        self.verify_all("post-gc")?;
        Ok(format!("{i:04} gc collected {}", dead.len()))
    }

    fn op_add_trigger(&mut self, i: u64, d: &mut Draw) -> Result<String, String> {
        let Some(id) = self.pick_rope(d) else {
            return Ok(format!("{i:04} trigger: no ropes"));
        };
        let dur = self.ropes[&id].duration();
        let at = gen_pos(d, dur);
        let text = format!("t{i}");
        let real = self.mrs.add_trigger("fsx", id, at, &text);
        let model_ok = at <= dur;
        match (model_ok, real) {
            (true, Ok(())) => {
                let m = self.ropes.get_mut(&id).unwrap();
                m.triggers.push((at, text));
                m.triggers.sort_by_key(|(t, _)| *t);
                let rope = self.mrs.rope(id).map_err(|e| e.to_string())?;
                if triggers_of(rope) != self.ropes[&id].triggers {
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
    fn op_play_cycle(&mut self, i: u64, d: &mut Draw) -> Result<String, String> {
        let Some(id) = self.pick_rope(d) else {
            return Ok(format!("{i:04} play: no ropes"));
        };
        let dur = self.ropes[&id].duration();
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
        if schedule.items.is_empty() && !self.ropes[&id].segs.is_empty() {
            let has_media = self.ropes[&id]
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
        let style = d.below(3);
        let detail = match style {
            0 => {
                let destructive = d.chance(0.5);
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
    fn op_invalid(&mut self, i: u64, d: &mut Draw) -> Result<String, String> {
        let Some(id) = self.pick_rope(d) else {
            return Ok(format!("{i:04} invalid: no ropes"));
        };
        let dur = self.ropes[&id].duration();
        let now = self.now();
        let (what, real): (&str, Result<(), FsError>) = match d.below(3) {
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
}

impl Model for RopeModel {
    /// Run one op chosen by seeded weighted selection.
    fn step(&mut self, i: u64, d: &mut Draw) -> Result<String, String> {
        let ropes = self.ropes.len();
        let kind = if ropes < 2 {
            0 // record
        } else {
            let when = |on: bool, w: u64| if on { w } else { 0 };
            let weights = [
                when(ropes < MAX_ROPES, 8), // record
                14,                         // insert
                14,                         // replace
                14,                         // delete
                10,                         // substring
                when(ropes < MAX_ROPES, 8), // concat
                when(ropes > 2, 6),         // delete_rope
                8,                          // gc
                8,                          // play cycle
                6,                          // trigger
                4,                          // invalid
            ];
            let mut pick = d.below(weights.iter().sum());
            let mut kind = 0;
            while pick >= weights[kind] {
                pick -= weights[kind];
                kind += 1;
            }
            kind
        };
        self.out.ops_attempted += 1;
        match kind {
            0 => self.op_record(i, d),
            1 => self.op_insert(i, d),
            2 => self.op_replace(i, d),
            3 => self.op_delete(i, d),
            4 => self.op_substring(i, d),
            5 => self.op_concat(i, d),
            6 => self.op_delete_rope(i, d),
            7 => self.op_gc(i),
            8 => self.op_play_cycle(i, d),
            9 => self.op_add_trigger(i, d),
            _ => self.op_invalid(i, d),
        }
    }

    /// Verify every cataloged rope against its (already-synced) model.
    fn verify_all(&mut self, ctx: &str) -> Result<(), String> {
        let mut real_ids = self.mrs.rope_ids();
        real_ids.sort();
        let model_ids = self.rope_ids();
        if real_ids != model_ids {
            return Err(format!(
                "{ctx}: catalog {real_ids:?} != model ropes {model_ids:?}"
            ));
        }
        for id in model_ids {
            let current = self.ropes[&id].clone();
            self.verify_and_resync(id, &current, ctx)?;
        }
        Ok(())
    }

    fn crashed(&self) -> bool {
        self.mrs.msm().disk().fault_stats().crashed_ops > 0
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
    let (mut vi, mut ai) = (0usize, 0usize);
    // The next `r.len_units` cells of `flat` from `at`, as `r`'s model ref.
    let take = |r: &Option<StrandRef>, flat: &[Cell], at: &mut usize| -> Result<_, String> {
        let Some(r) = r else { return Ok(None) };
        let n = r.len_units as usize;
        let cells = flat
            .get(*at..*at + n)
            .ok_or("refs cover more units than the model")?;
        *at += n;
        Ok(Some(MRef {
            rate: r.unit_rate,
            cells: cells.to_vec(),
        }))
    };
    let mut segs = Vec::with_capacity(rope.segments.len());
    for s in &rope.segments {
        segs.push(MSeg {
            dur: s.duration,
            video: take(&s.video, video_flat, &mut vi)?,
            audio: take(&s.audio, audio_flat, &mut ai)?,
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
}

//! Copy-free rope editing: `SUBSTRING`, `INSERT`, `REPLACE`, `CONCATE`,
//! `DELETE` (§4.1).
//!
//! All operations are pure: they take ropes by reference and return a new
//! rope sharing the same immutable strands. Internally a rope's segments
//! are unzipped into two per-medium **tracks** (sequences of
//! `(duration, Option<StrandRef>)` pieces); the edit splices tracks; and
//! the result is re-segmented at the union of both tracks' boundaries,
//! which regenerates the block-level correspondence of every new segment
//! automatically.
//!
//! Duration semantics:
//! * `Both`-media edits change the rope's length (insert lengthens,
//!   delete shortens) — both tracks move together.
//! * Single-medium `DELETE` blanks the medium in the interval; the rope's
//!   length is unchanged (the other medium still plays).
//! * Single-medium `INSERT`/`REPLACE` splice into that medium's track
//!   only; if the spliced track ends up longer than the other, the rope
//!   grows and the other medium is padded with an absent-media gap at the
//!   end (the paper's Rope4/Rope5 merge is the equal-length special
//!   case).
//!
//! The returned rope keeps the base's id, creator and access lists; the
//! MRS assigns a fresh id when it catalogs the result.

use crate::error::FsError;
use crate::rope::{split_balanced, Rope, Segment, StrandRef, Trigger};
use strandfs_media::Medium;
use strandfs_units::Nanos;

/// Which media an operation applies to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MediaSel {
    /// Video only.
    Video,
    /// Audio only.
    Audio,
    /// Both media.
    Both,
}

impl MediaSel {
    /// True if the selection includes video.
    pub fn video(self) -> bool {
        matches!(self, MediaSel::Video | MediaSel::Both)
    }

    /// True if the selection includes audio.
    pub fn audio(self) -> bool {
        matches!(self, MediaSel::Audio | MediaSel::Both)
    }

    /// True if the selection includes `medium`.
    pub fn has(self, medium: Medium) -> bool {
        match medium {
            Medium::Video => self.video(),
            Medium::Audio => self.audio(),
        }
    }
}

/// A rope-relative time interval.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Interval {
    /// Interval start.
    pub start: Nanos,
    /// Interval length.
    pub len: Nanos,
}

impl Interval {
    /// Construct an interval.
    pub fn new(start: Nanos, len: Nanos) -> Self {
        Interval { start, len }
    }

    /// The whole of a rope of duration `d`.
    pub fn whole(d: Nanos) -> Self {
        Interval {
            start: Nanos::ZERO,
            len: d,
        }
    }

    /// One past the interval end.
    pub fn end(&self) -> Nanos {
        self.start + self.len
    }

    fn validate(&self, rope_duration: Nanos) -> Result<(), FsError> {
        if self.len.is_zero() {
            return Err(FsError::BadInterval {
                reason: "interval is empty",
            });
        }
        if self.end() > rope_duration {
            return Err(FsError::BadInterval {
                reason: "interval extends beyond rope end",
            });
        }
        Ok(())
    }
}

/// One piece of a per-medium track.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Piece {
    dur: Nanos,
    r: Option<StrandRef>,
}

impl Piece {
    fn gap(dur: Nanos) -> Piece {
        Piece { dur, r: None }
    }

    /// Split at `offset` (clamped), conserving duration and units.
    ///
    /// Boundary splits are exact: at offset 0 everything goes right, at
    /// the piece's full duration everything goes left. Without the
    /// short-circuit, unit rounding could strand one media unit in a
    /// zero-duration remainder, which re-zipping would then drop.
    fn split_at(&self, offset: Nanos) -> (Piece, Piece) {
        let off = offset.min(self.dur);
        if off.is_zero() {
            return (Piece::gap(Nanos::ZERO), *self);
        }
        if off == self.dur {
            return (*self, Piece::gap(Nanos::ZERO));
        }
        let (l, rt) = match self.r {
            None => (None, None),
            Some(r) => {
                let units = split_balanced(off, self.dur, r.len_units, r.unit_rate);
                let (l, rt) = r.split_units(units);
                (Some(l), Some(rt))
            }
        };
        let piece = |dur, r: Option<StrandRef>| Piece {
            dur,
            r: r.filter(|r| r.len_units > 0),
        };
        (piece(off, l), piece(self.dur - off, rt))
    }
}

type Track = Vec<Piece>;

fn track_duration(t: &Track) -> Nanos {
    t.iter().map(|p| p.dur).sum()
}

/// Split a track at absolute time `at` into (before, after).
fn track_split(track: &Track, at: Nanos) -> (Track, Track) {
    let mut before = Vec::new();
    let mut after = Vec::new();
    let mut t = Nanos::ZERO;
    for p in track {
        if t + p.dur <= at {
            before.push(*p);
        } else if t >= at {
            after.push(*p);
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

/// The sub-track covering `iv`.
fn track_sub(track: &Track, iv: Interval) -> Track {
    let (_, tail) = track_split(track, iv.start);
    let (mid, _) = track_split(&tail, iv.len);
    mid
}

/// Remove `iv` from the track (later pieces move earlier).
fn track_cut(track: &Track, iv: Interval) -> Track {
    let (mut head, tail) = track_split(track, iv.start);
    let (_, rest) = track_split(&tail, iv.len);
    head.extend(rest);
    head
}

/// Replace `iv` with an absent-media gap of the same duration.
fn track_blank(track: &Track, iv: Interval) -> Track {
    let (mut head, tail) = track_split(track, iv.start);
    let (_, rest) = track_split(&tail, iv.len);
    head.push(Piece::gap(iv.len));
    head.extend(rest);
    head
}

/// Splice `insert` into the track at `at`.
fn track_insert(track: &Track, at: Nanos, insert: Track) -> Track {
    let (mut head, tail) = track_split(track, at);
    head.extend(insert);
    head.extend(tail);
    head
}

/// One medium's track of a rope.
fn to_track(rope: &Rope, medium: Medium) -> Track {
    rope.segments
        .iter()
        .map(|s| Piece {
            dur: s.duration,
            r: *s.track(medium),
        })
        .collect()
}

/// The base's video and audio tracks, each selected one through
/// `splice` and the other as it was.
fn splice_media(
    base: &Rope,
    sel: MediaSel,
    splice: impl Fn(Medium, &Track) -> Track,
) -> [Track; 2] {
    Medium::ALL.map(|m| {
        let track = to_track(base, m);
        if sel.has(m) {
            splice(m, &track)
        } else {
            track
        }
    })
}

/// The base's triggers after an edit put `inserted` of time in place of
/// `cut`. A `Both` edit drops the triggers inside `cut` and shifts the
/// later ones by the change in length; a single-medium edit leaves the
/// triggers where they are.
fn shift_triggers(base: &Rope, sel: MediaSel, cut: Interval, inserted: Nanos) -> Vec<Trigger> {
    if sel != MediaSel::Both {
        return base.triggers.clone();
    }
    base.triggers
        .iter()
        .filter(|t| t.at < cut.start || t.at >= cut.end())
        .map(|t| Trigger {
            at: if t.at >= cut.end() {
                t.at - cut.len + inserted
            } else {
                t.at
            },
            text: t.text.clone(),
        })
        .collect()
}

/// Zip two tracks back into segments, cutting at the union of both
/// tracks' piece boundaries. The shorter track is padded with a trailing
/// gap.
fn from_tracks(mut video: Track, mut audio: Track) -> Vec<Segment> {
    let (dv, da) = (track_duration(&video), track_duration(&audio));
    if dv < da {
        video.push(Piece::gap(da - dv));
    } else if da < dv {
        audio.push(Piece::gap(dv - da));
    }
    // Both tracks now span the same time and every cut takes the same
    // time off each, so they run out together. Zero-duration pieces hold
    // no time and are skipped.
    let mut out = Vec::new();
    let mut vi = video.into_iter().filter(|p| !p.dur.is_zero());
    let mut ai = audio.into_iter().filter(|p| !p.dur.is_zero());
    let (mut cv, mut ca) = (vi.next(), ai.next());
    while let (Some(v), Some(a)) = (cv, ca) {
        let cut = v.dur.min(a.dur);
        let (vl, vr) = v.split_at(cut);
        let (al, ar) = a.split_at(cut);
        out.push(Segment::with_duration(vl.r, al.r, cut));
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
    debug_assert!(cv.is_none() && ca.is_none(), "tracks of unequal time");
    out
}

fn rebuild(base: &Rope, [video, audio]: [Track; 2], triggers: Vec<Trigger>) -> Rope {
    let mut rope = Rope {
        segments: from_tracks(video, audio),
        triggers,
        ..base.clone()
    };
    rope.segments.retain(|s| !s.duration.is_zero());
    debug_assert_eq!(rope.check_invariants(), Ok(()));
    rope
}

/// `SUBSTRING[baseRope, media, interval]`: a new rope referencing only
/// the selected media within `iv`.
pub fn substring(base: &Rope, sel: MediaSel, iv: Interval) -> Result<Rope, FsError> {
    iv.validate(base.duration())?;
    let tracks = Medium::ALL.map(|m| {
        if sel.has(m) {
            track_sub(&to_track(base, m), iv)
        } else {
            Vec::new()
        }
    });
    let triggers = base
        .triggers
        .iter()
        .filter(|t| t.at >= iv.start && t.at < iv.end())
        .map(|t| Trigger {
            at: t.at - iv.start,
            text: t.text.clone(),
        })
        .collect();
    Ok(rebuild(base, tracks, triggers))
}

/// `DELETE[baseRope, media, interval]`: for `Both`, removes the interval
/// outright (the rope shortens); for a single medium, blanks that medium
/// within the interval.
pub fn delete(base: &Rope, sel: MediaSel, iv: Interval) -> Result<Rope, FsError> {
    iv.validate(base.duration())?;
    let tracks = splice_media(base, sel, |_, t| {
        if sel == MediaSel::Both {
            track_cut(t, iv)
        } else {
            track_blank(t, iv)
        }
    });
    Ok(rebuild(
        base,
        tracks,
        shift_triggers(base, sel, iv, Nanos::ZERO),
    ))
}

/// `INSERT[baseRope, position, media, withRope, withInterval]`: splices
/// the selected media of `with_iv` of `with` into `base` at `position`.
pub fn insert(
    base: &Rope,
    position: Nanos,
    sel: MediaSel,
    with: &Rope,
    with_iv: Interval,
) -> Result<Rope, FsError> {
    if position > base.duration() {
        return Err(FsError::BadInterval {
            reason: "insert position beyond rope end",
        });
    }
    with_iv.validate(with.duration())?;
    let tracks = splice_media(base, sel, |m, t| {
        track_insert(t, position, track_sub(&to_track(with, m), with_iv))
    });
    let at = Interval::new(position, Nanos::ZERO);
    Ok(rebuild(
        base,
        tracks,
        shift_triggers(base, sel, at, with_iv.len),
    ))
}

/// `REPLACE[baseRope, media, baseInterval, withRope, withInterval]`:
/// replaces the selected media of `base_iv` with those of `with_iv`.
pub fn replace(
    base: &Rope,
    sel: MediaSel,
    base_iv: Interval,
    with: &Rope,
    with_iv: Interval,
) -> Result<Rope, FsError> {
    base_iv.validate(base.duration())?;
    with_iv.validate(with.duration())?;
    let tracks = splice_media(base, sel, |m, t| {
        let cut = track_cut(t, base_iv);
        track_insert(&cut, base_iv.start, track_sub(&to_track(with, m), with_iv))
    });
    Ok(rebuild(
        base,
        tracks,
        shift_triggers(base, sel, base_iv, with_iv.len),
    ))
}

/// `CONCATE[rope1, rope2]`: `rope2` appended after `rope1`.
pub fn concat(first: &Rope, second: &Rope) -> Rope {
    // Pad the shorter medium of `first` so `second` starts aligned.
    let d = first.duration();
    let tracks = Medium::ALL.map(|m| {
        let mut t = to_track(first, m);
        let dt = track_duration(&t);
        if dt < d {
            t.push(Piece::gap(d - dt));
        }
        t.extend(to_track(second, m));
        t
    });
    let mut triggers = first.triggers.clone();
    triggers.extend(second.triggers.iter().map(|t| Trigger {
        at: t.at + d,
        text: t.text.clone(),
    }));
    rebuild(first, tracks, triggers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{RopeId, StrandId};

    fn vref(strand: u64, start: u64, len: u64) -> StrandRef {
        StrandRef {
            strand: StrandId::from_raw(strand),
            start_unit: start,
            len_units: len,
            unit_rate: 30.0,
            granularity: 3,
        }
    }

    fn aref(strand: u64, start: u64, len: u64) -> StrandRef {
        StrandRef {
            strand: StrandId::from_raw(strand),
            start_unit: start,
            len_units: len,
            unit_rate: 8_000.0,
            granularity: 800,
        }
    }

    /// A 10 s AV rope: video strand 1, audio strand 2.
    fn av_rope() -> Rope {
        let mut r = Rope::new(RopeId::from_raw(1), "alice");
        r.segments.push(Segment::new(
            Some(vref(1, 0, 300)),
            Some(aref(2, 0, 80_000)),
        ));
        r.triggers.push(Trigger {
            at: Nanos::from_secs(2),
            text: "title".into(),
        });
        r.triggers.push(Trigger {
            at: Nanos::from_secs(8),
            text: "credits".into(),
        });
        r
    }

    /// A 4 s AV rope on strands 3/4.
    fn clip_rope() -> Rope {
        let mut r = Rope::new(RopeId::from_raw(2), "bob");
        r.segments.push(Segment::new(
            Some(vref(3, 0, 120)),
            Some(aref(4, 0, 32_000)),
        ));
        r
    }

    #[test]
    fn substring_both_media() {
        let base = av_rope();
        let sub = substring(
            &base,
            MediaSel::Both,
            Interval::new(Nanos::from_secs(2), Nanos::from_secs(3)),
        )
        .unwrap();
        assert_eq!(sub.duration(), Nanos::from_secs(3));
        let seg = &sub.segments[0];
        assert_eq!(seg.video.unwrap().start_unit, 60);
        assert_eq!(seg.video.unwrap().len_units, 90);
        assert_eq!(seg.audio.unwrap().start_unit, 16_000);
        assert_eq!(seg.audio.unwrap().len_units, 24_000);
        // Correspondence regenerated: video block 20, audio block 20.
        assert_eq!(seg.correspondence.video_block, Some(20));
        assert_eq!(seg.correspondence.audio_block, Some(20));
        // Trigger at 2 s is included (shifted to 0), 8 s is not.
        assert_eq!(sub.triggers.len(), 1);
        assert_eq!(sub.triggers[0].at, Nanos::ZERO);
        sub.check_invariants().unwrap();
    }

    #[test]
    fn substring_single_medium() {
        let base = av_rope();
        let audio_only = substring(
            &base,
            MediaSel::Audio,
            Interval::new(Nanos::ZERO, Nanos::from_secs(10)),
        )
        .unwrap();
        assert!(!audio_only.has_video());
        assert!(audio_only.has_audio());
        assert_eq!(audio_only.duration(), Nanos::from_secs(10));
    }

    #[test]
    fn substring_rejects_bad_intervals() {
        let base = av_rope();
        assert!(substring(
            &base,
            MediaSel::Both,
            Interval::new(Nanos::from_secs(8), Nanos::from_secs(3))
        )
        .is_err());
        assert!(substring(
            &base,
            MediaSel::Both,
            Interval::new(Nanos::ZERO, Nanos::ZERO)
        )
        .is_err());
    }

    #[test]
    fn insert_both_matches_fig9_structure() {
        // Fig. 9: insert a 4 s clip at t=3 into a 10 s rope -> three
        // entries: base[0,3), clip[0,4), base[3,10).
        let base = av_rope();
        let clip = clip_rope();
        let out = insert(
            &base,
            Nanos::from_secs(3),
            MediaSel::Both,
            &clip,
            Interval::whole(clip.duration()),
        )
        .unwrap();
        assert_eq!(out.duration(), Nanos::from_secs(14));
        assert_eq!(out.segments.len(), 3);
        let s0 = &out.segments[0];
        assert_eq!(s0.video.unwrap().strand, StrandId::from_raw(1));
        assert_eq!(s0.video.unwrap().len_units, 90);
        let s1 = &out.segments[1];
        assert_eq!(s1.video.unwrap().strand, StrandId::from_raw(3));
        assert_eq!(s1.duration, Nanos::from_secs(4));
        let s2 = &out.segments[2];
        assert_eq!(s2.video.unwrap().strand, StrandId::from_raw(1));
        assert_eq!(s2.video.unwrap().start_unit, 90);
        assert_eq!(s2.video.unwrap().len_units, 210);
        // Triggers: 2 s stays, 8 s shifts to 12 s.
        assert_eq!(out.triggers[0].at, Nanos::from_secs(2));
        assert_eq!(out.triggers[1].at, Nanos::from_secs(12));
        out.check_invariants().unwrap();
    }

    #[test]
    fn insert_at_ends() {
        let base = av_rope();
        let clip = clip_rope();
        let at_start = insert(
            &base,
            Nanos::ZERO,
            MediaSel::Both,
            &clip,
            Interval::whole(clip.duration()),
        )
        .unwrap();
        assert_eq!(
            at_start.segments[0].video.unwrap().strand,
            StrandId::from_raw(3)
        );
        let at_end = insert(
            &base,
            base.duration(),
            MediaSel::Both,
            &clip,
            Interval::whole(clip.duration()),
        )
        .unwrap();
        assert_eq!(
            at_end.segments.last().unwrap().video.unwrap().strand,
            StrandId::from_raw(3)
        );
        assert!(insert(
            &base,
            base.duration() + Nanos::from_nanos(1),
            MediaSel::Both,
            &clip,
            Interval::whole(clip.duration())
        )
        .is_err());
    }

    #[test]
    fn insert_single_medium_pads_other_track() {
        let base = av_rope();
        let clip = clip_rope();
        let out = insert(
            &base,
            Nanos::from_secs(10),
            MediaSel::Video,
            &clip,
            Interval::whole(clip.duration()),
        )
        .unwrap();
        // Video grows to 14 s, audio stays 10 s; rope is 14 s with a
        // video-only tail.
        assert_eq!(out.duration(), Nanos::from_secs(14));
        let tail = out.segments.last().unwrap();
        assert!(tail.video.is_some());
        assert!(tail.audio.is_none());
        out.check_invariants().unwrap();
    }

    #[test]
    fn delete_both_shortens() {
        let base = av_rope();
        let out = delete(
            &base,
            MediaSel::Both,
            Interval::new(Nanos::from_secs(2), Nanos::from_secs(6)),
        )
        .unwrap();
        assert_eq!(out.duration(), Nanos::from_secs(4));
        // Two segments remain: [0,2) and the old [8,10).
        assert_eq!(out.segments.len(), 2);
        assert_eq!(out.segments[1].video.unwrap().start_unit, 240);
        // Trigger at 2s fell inside the cut ([2,8)); 8s moved to 2s.
        assert_eq!(out.triggers.len(), 1);
        assert_eq!(out.triggers[0].text, "credits");
        assert_eq!(out.triggers[0].at, Nanos::from_secs(2));
    }

    #[test]
    fn delete_single_medium_blanks() {
        let base = av_rope();
        let out = delete(
            &base,
            MediaSel::Audio,
            Interval::new(Nanos::from_secs(4), Nanos::from_secs(2)),
        )
        .unwrap();
        // Length unchanged; middle segment has video only.
        assert_eq!(out.duration(), Nanos::from_secs(10));
        assert_eq!(out.segments.len(), 3);
        assert!(out.segments[1].audio.is_none());
        assert!(out.segments[1].video.is_some());
        assert_eq!(out.segments[1].duration, Nanos::from_secs(2));
        out.check_invariants().unwrap();
    }

    #[test]
    fn replace_both() {
        let base = av_rope();
        let clip = clip_rope();
        let out = replace(
            &base,
            MediaSel::Both,
            Interval::new(Nanos::from_secs(3), Nanos::from_secs(4)),
            &clip,
            Interval::whole(clip.duration()),
        )
        .unwrap();
        assert_eq!(out.duration(), Nanos::from_secs(10));
        assert_eq!(out.segments.len(), 3);
        assert_eq!(out.segments[1].video.unwrap().strand, StrandId::from_raw(3));
        // Trigger at 2 s survives; 8 s is past the replaced span and
        // stays at 8 s (equal lengths).
        assert_eq!(out.triggers.len(), 2);
        assert_eq!(out.triggers[1].at, Nanos::from_secs(8));
    }

    #[test]
    fn replace_merges_separate_recordings() {
        // The paper's Rope4/Rope5 example: an audio-only rope gains the
        // video of a video-only rope.
        let mut audio_rope = Rope::new(RopeId::from_raw(4), "alice");
        audio_rope
            .segments
            .push(Segment::new(None, Some(aref(10, 0, 40_000)))); // 5 s
        let mut video_rope = Rope::new(RopeId::from_raw(5), "alice");
        video_rope
            .segments
            .push(Segment::new(Some(vref(11, 0, 150)), None)); // 5 s
        let merged = replace(
            &audio_rope,
            MediaSel::Video,
            Interval::whole(Nanos::from_secs(5)),
            &video_rope,
            Interval::whole(Nanos::from_secs(5)),
        )
        .unwrap();
        assert_eq!(merged.duration(), Nanos::from_secs(5));
        assert_eq!(merged.segments.len(), 1);
        let s = &merged.segments[0];
        assert_eq!(s.video.unwrap().strand, StrandId::from_raw(11));
        assert_eq!(s.audio.unwrap().strand, StrandId::from_raw(10));
        // Correspondence pairs the two strands' first blocks.
        assert_eq!(s.correspondence.video_block, Some(0));
        assert_eq!(s.correspondence.audio_block, Some(0));
        merged.check_invariants().unwrap();
    }

    #[test]
    fn concat_appends_and_shifts_triggers() {
        let a = av_rope();
        let mut b = clip_rope();
        b.triggers.push(Trigger {
            at: Nanos::from_secs(1),
            text: "clip".into(),
        });
        let out = concat(&a, &b);
        assert_eq!(out.duration(), Nanos::from_secs(14));
        assert_eq!(out.segments.len(), 2);
        assert_eq!(out.triggers.len(), 3);
        assert_eq!(out.triggers[2].at, Nanos::from_secs(11));
        out.check_invariants().unwrap();
    }

    #[test]
    fn edits_share_strands_not_copies() {
        // SUBSTRING then INSERT: every operation references the original
        // strand ids — no new strand ever appears.
        let base = av_rope();
        let sub = substring(
            &base,
            MediaSel::Both,
            Interval::new(Nanos::from_secs(1), Nanos::from_secs(2)),
        )
        .unwrap();
        let out = insert(
            &base,
            Nanos::from_secs(5),
            MediaSel::Both,
            &sub,
            Interval::whole(sub.duration()),
        )
        .unwrap();
        let ids: Vec<u64> = out.strand_ids().iter().map(|s| s.raw()).collect();
        assert_eq!(ids, vec![1, 2]);
        assert_eq!(out.duration(), Nanos::from_secs(12));
    }

    #[test]
    fn substring_of_insert_identity() {
        // Cutting the inserted span back out recovers the base's media
        // layout.
        let base = av_rope();
        let clip = clip_rope();
        let inserted = insert(
            &base,
            Nanos::from_secs(3),
            MediaSel::Both,
            &clip,
            Interval::whole(clip.duration()),
        )
        .unwrap();
        let recovered = delete(
            &inserted,
            MediaSel::Both,
            Interval::new(Nanos::from_secs(3), Nanos::from_secs(4)),
        )
        .unwrap();
        assert_eq!(recovered.duration(), base.duration());
        // Media content equivalent: same strand, same unit coverage.
        let v0 = recovered.segments[0].video.unwrap();
        let v1 = recovered.segments[1].video.unwrap();
        assert_eq!(v0.strand, StrandId::from_raw(1));
        assert_eq!((v0.start_unit, v0.len_units), (0, 90));
        assert_eq!((v1.start_unit, v1.len_units), (90, 210));
    }
}

//! Multimedia ropes (Fig. 8): multi-strand objects tied together by
//! synchronization information.
//!
//! A rope is a sequence of [`Segment`]s. Each segment pairs (up to) one
//! video and one audio [`StrandRef`] of equal duration, plus the
//! *block-level correspondence* used to line the media up at segment
//! boundaries; within a segment, playing each strand at its recording
//! rate keeps the media simultaneous (§4). [`Trigger`]s attach text to
//! rope-relative instants (the paper's trigger information synchronizes
//! text with audio/video blocks).
//!
//! Ropes never contain media data: they reference intervals of immutable
//! strands, so all editing (see [`crate::rope::edit`]) is pointer
//! manipulation and many ropes may share one strand.

pub mod edit;
pub mod scattering;

use crate::types::{RopeId, StrandId};
use std::collections::BTreeSet;
use strandfs_media::Medium;
use strandfs_units::Nanos;

/// A reference to an interval of an immutable strand.
///
/// Rate and granularity are denormalized from the strand's metadata (as
/// in Fig. 8) so a rope is self-describing for scheduling without strand
/// lookups.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StrandRef {
    /// The referenced strand.
    pub strand: StrandId,
    /// First media unit of the interval within the strand.
    pub start_unit: u64,
    /// Length of the interval in media units.
    pub len_units: u64,
    /// Units per second (copied from the strand's metadata).
    pub unit_rate: f64,
    /// Units per media block (copied from the strand's metadata).
    pub granularity: u64,
}

impl StrandRef {
    /// Playback duration of the referenced interval.
    pub fn duration(&self) -> Nanos {
        Nanos::from_secs_f64(self.len_units as f64 / self.unit_rate)
    }

    /// One past the last unit referenced.
    pub fn end_unit(&self) -> u64 {
        self.start_unit + self.len_units
    }

    /// The strand block containing the first referenced unit — the
    /// block-level correspondence anchor of Fig. 8.
    pub fn start_block(&self) -> u64 {
        self.start_unit / self.granularity
    }

    /// The strand block containing the last referenced unit.
    pub fn end_block(&self) -> u64 {
        if self.len_units == 0 {
            self.start_block()
        } else {
            (self.end_unit() - 1) / self.granularity
        }
    }

    /// Split at a unit count: the left part carries the first `units`
    /// (clamped to the interval), the right part the rest. `left +
    /// right` exactly covers `self`. Callers pick `units` from their
    /// own timeline context (see [`split_proportional`]): a ref does
    /// not know how much wall-clock time its piece was allotted, so a
    /// time-based split cannot live here without assuming the nominal
    /// rate holds — which edit rounding does not guarantee.
    pub fn split_units(&self, units: u64) -> (StrandRef, StrandRef) {
        let left_units = units.min(self.len_units);
        let left = StrandRef {
            len_units: left_units,
            ..*self
        };
        let right = StrandRef {
            start_unit: self.start_unit + left_units,
            len_units: self.len_units - left_units,
            ..*self
        };
        (left, right)
    }
}

/// Units a cut at `offset` into a `window`-long span takes from a run
/// of `len` units: `round(offset/window · len)` — proportional to the
/// span's *actual* unit density, not the nominal rate.
///
/// Rate-based rounding (`round(offset · rate)`) concentrates debt: a
/// piece whose timeline is shorter than its units' nominal duration
/// (legal, within the segment tolerance) loses a sliver of timeline to
/// every small cut that rounds to zero units, until several units sit
/// in a few milliseconds of segment and the rope invariants break.
/// Density-proportional splitting is self-correcting — as a remainder
/// gets unit-heavy, the next cut takes units sooner.
pub fn split_proportional(offset: Nanos, window: Nanos, len: u64) -> u64 {
    if window.is_zero() {
        return len;
    }
    let f = offset.as_secs_f64() / window.as_secs_f64();
    ((f * len as f64).round() as u64).min(len)
}

/// [`split_proportional`], then nudged along the unit lattice to the
/// count that minimizes the larger child's *density drift* — the gap
/// between a child's timeline share and its units' nominal duration at
/// `unit_rate` units per second.
///
/// Proportional rounding alone conserves density but adds up to half a
/// unit of drift to one child at every cut; repeated edits compound
/// those half-units without bound until a segment's duration disagrees
/// with its ref by more than the rope invariant tolerates. Balancing
/// the two children instead gives the recurrence `drift_child ≤
/// drift_parent/2 + unit/2`, whose fixed point is one unit — safely
/// inside the two-unit segment tolerance no matter how many edits
/// stack. Zero-unit children are exempt (they become ref-less gaps,
/// which carry no duration invariant).
pub fn split_balanced(offset: Nanos, window: Nanos, len: u64, unit_rate: f64) -> u64 {
    let base = split_proportional(offset, window, len);
    if window.is_zero() || unit_rate <= 0.0 || unit_rate.is_nan() {
        return base;
    }
    let off = offset.as_secs_f64();
    let rest = (window - offset.min(window)).as_secs_f64();
    let unit = 1.0 / unit_rate;
    let drift = |u: u64| -> f64 {
        let left = if u == 0 {
            0.0
        } else {
            (off - u as f64 * unit).abs()
        };
        let right = if u == len {
            0.0
        } else {
            (rest - (len - u) as f64 * unit).abs()
        };
        left.max(right)
    };
    // The proportional choice sits within ~2 units of the balanced
    // optimum whenever the parent is near tolerance, so scanning its
    // small neighbourhood (nearest candidates first — ties keep the
    // proportional answer) finds the minimum deterministically.
    let mut best = base;
    let mut best_drift = drift(base);
    for delta in [1u64, 2] {
        for cand in [base.saturating_sub(delta), base.saturating_add(delta)] {
            if cand <= len && drift(cand) + 1e-12 < best_drift {
                best = cand;
                best_drift = drift(cand);
            }
        }
    }
    best
}

/// Block-level correspondence at a segment start: which block of each
/// strand plays first, used to synchronize the start of playback of all
/// media at strand-interval boundaries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct Correspondence {
    /// Video strand block number at segment start, if video is present.
    pub video_block: Option<u64>,
    /// Audio strand block number at segment start, if audio is present.
    pub audio_block: Option<u64>,
}

/// One rope segment: aligned intervals of up to one video and one audio
/// strand.
#[derive(Clone, Debug, PartialEq)]
pub struct Segment {
    /// The video interval, if the segment has video.
    pub video: Option<StrandRef>,
    /// The audio interval, if the segment has audio.
    pub audio: Option<StrandRef>,
    /// The segment's duration in rope time.
    pub duration: Nanos,
    /// Block-level correspondence at the segment start.
    pub correspondence: Correspondence,
}

impl Segment {
    /// Build a segment from media refs, deriving duration (the longer of
    /// the two — they should agree to within a unit) and correspondence.
    pub fn new(video: Option<StrandRef>, audio: Option<StrandRef>) -> Segment {
        let duration = [video.as_ref(), audio.as_ref()]
            .into_iter()
            .flatten()
            .map(StrandRef::duration)
            .fold(Nanos::ZERO, Nanos::max);
        Segment {
            correspondence: Correspondence {
                video_block: video.as_ref().map(StrandRef::start_block),
                audio_block: audio.as_ref().map(StrandRef::start_block),
            },
            video,
            audio,
            duration,
        }
    }

    /// A segment with an explicit duration (for media-absent spans).
    pub fn with_duration(
        video: Option<StrandRef>,
        audio: Option<StrandRef>,
        duration: Nanos,
    ) -> Segment {
        let mut s = Segment::new(video, audio);
        s.duration = duration;
        s
    }

    /// True if the segment references no media at all (a pure gap).
    pub fn is_empty(&self) -> bool {
        self.video.is_none() && self.audio.is_none()
    }

    /// The interval of one medium, if the segment has it.
    pub fn track(&self, medium: Medium) -> &Option<StrandRef> {
        match medium {
            Medium::Video => &self.video,
            Medium::Audio => &self.audio,
        }
    }

    /// Mutable access to one medium's interval.
    pub fn track_mut(&mut self, medium: Medium) -> &mut Option<StrandRef> {
        match medium {
            Medium::Video => &mut self.video,
            Medium::Audio => &mut self.audio,
        }
    }
}

/// A text trigger at a rope-relative instant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trigger {
    /// When the text should appear, relative to rope start.
    pub at: Nanos,
    /// The text to synchronize with the media.
    pub text: String,
}

/// An access-control list: explicit principals, with `"*"` meaning
/// everyone. The creator is always allowed.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct AccessList(pub Vec<String>);

impl AccessList {
    /// A list allowing everyone.
    pub fn everyone() -> Self {
        AccessList(vec!["*".to_string()])
    }

    /// A list allowing exactly these principals (plus the creator).
    pub fn only(users: &[&str]) -> Self {
        AccessList(users.iter().map(|u| u.to_string()).collect())
    }

    /// True if `user` is on the list.
    pub fn allows(&self, user: &str) -> bool {
        self.0.iter().any(|u| u == "*" || u == user)
    }
}

/// A multimedia rope: creator, access rights, synchronized segments and
/// triggers (Fig. 8).
#[derive(Clone, Debug, PartialEq)]
pub struct Rope {
    /// The rope's identity.
    pub id: RopeId,
    /// Who created the rope (always has full access).
    pub creator: String,
    /// Who may `PLAY` the rope.
    pub play_access: AccessList,
    /// Who may edit the rope.
    pub edit_access: AccessList,
    /// The synchronized segments, in playback order.
    pub segments: Vec<Segment>,
    /// Text triggers, ordered by time.
    pub triggers: Vec<Trigger>,
}

impl Rope {
    /// An empty rope owned by `creator` with open access.
    pub fn new(id: RopeId, creator: &str) -> Rope {
        Rope {
            id,
            creator: creator.to_string(),
            play_access: AccessList::everyone(),
            edit_access: AccessList::only(&[]),
            segments: Vec::new(),
            triggers: Vec::new(),
        }
    }

    /// Total playback duration.
    pub fn duration(&self) -> Nanos {
        self.segments.iter().map(|s| s.duration).sum()
    }

    /// True if the rope has a video component anywhere.
    pub fn has_video(&self) -> bool {
        self.segments.iter().any(|s| s.video.is_some())
    }

    /// True if the rope has an audio component anywhere.
    pub fn has_audio(&self) -> bool {
        self.segments.iter().any(|s| s.audio.is_some())
    }

    /// All strands the rope references (the interest set for GC).
    pub fn strand_ids(&self) -> BTreeSet<StrandId> {
        self.segments
            .iter()
            .flat_map(|s| [s.video, s.audio])
            .flatten()
            .map(|r| r.strand)
            .collect()
    }

    /// True if `user` may play the rope.
    pub fn can_play(&self, user: &str) -> bool {
        user == self.creator || self.play_access.allows(user)
    }

    /// True if `user` may edit the rope.
    pub fn can_edit(&self, user: &str) -> bool {
        user == self.creator || self.edit_access.allows(user)
    }

    /// Internal consistency: per-segment media durations agree with the
    /// segment duration to within one media unit; triggers lie within
    /// the rope. Used by tests and debug assertions.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (i, s) in self.segments.iter().enumerate() {
            for medium in Medium::ALL {
                if let Some(r) = s.track(medium) {
                    let d = r.duration();
                    let unit = Nanos::from_secs_f64(1.0 / r.unit_rate);
                    let delta = d.max(s.duration) - d.min(s.duration);
                    if delta > unit + unit {
                        return Err(format!(
                            "segment {i} {medium} duration {d} vs segment {} (unit {unit})",
                            s.duration
                        ));
                    }
                    if r.len_units == 0 {
                        return Err(format!("segment {i} {medium} is empty"));
                    }
                }
            }
        }
        let total = self.duration();
        for t in &self.triggers {
            if t.at > total {
                return Err(format!("trigger at {} beyond rope end {total}", t.at));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn vref(strand: u64, start: u64, len: u64) -> StrandRef {
        StrandRef {
            strand: StrandId::from_raw(strand),
            start_unit: start,
            len_units: len,
            unit_rate: 30.0,
            granularity: 3,
        }
    }

    pub(crate) fn aref(strand: u64, start: u64, len: u64) -> StrandRef {
        StrandRef {
            strand: StrandId::from_raw(strand),
            start_unit: start,
            len_units: len,
            unit_rate: 8_000.0,
            granularity: 800,
        }
    }

    #[test]
    fn strand_ref_durations_and_blocks() {
        let r = vref(1, 6, 30); // 1 s of NTSC from unit 6
        assert_eq!(r.duration(), Nanos::from_secs(1));
        assert_eq!(r.start_block(), 2);
        assert_eq!(r.end_block(), 11); // unit 35 / 3
        assert_eq!(r.end_unit(), 36);
    }

    #[test]
    fn strand_ref_split_exact() {
        let r = vref(1, 0, 30);
        // 400 ms into the ref's nominal 1 s window takes 12 of 30 units.
        let units = split_proportional(Nanos::from_millis(400), r.duration(), r.len_units);
        assert_eq!(units, 12);
        let (l, rt) = r.split_units(units);
        assert_eq!(l.len_units, 12);
        assert_eq!(rt.start_unit, 12);
        assert_eq!(rt.len_units, 18);
        // Degenerate splits: zero units, and a request past the end.
        let (l0, r0) = r.split_units(0);
        assert_eq!(l0.len_units, 0);
        assert_eq!(r0.len_units, 30);
        let (l1, r1) = r.split_units(99);
        assert_eq!(l1.len_units, 30);
        assert_eq!(r1.len_units, 0);
    }

    #[test]
    fn split_proportional_tracks_density_not_rate() {
        // A 30-unit run squeezed into a 750 ms window (denser than the
        // nominal rate): a 25 ms cut takes 1 unit proportionally where
        // nominal-rate rounding would keep taking zero and concentrate
        // the units in an ever-thinner remainder.
        let w = Nanos::from_millis(750);
        assert_eq!(split_proportional(Nanos::from_millis(25), w, 30), 1);
        assert_eq!(split_proportional(Nanos::ZERO, w, 30), 0);
        assert_eq!(split_proportional(w, w, 30), 30);
        // Zero-duration window: all units go left.
        assert_eq!(split_proportional(Nanos::ZERO, Nanos::ZERO, 30), 30);
    }

    #[test]
    fn segment_derives_duration_and_correspondence() {
        let s = Segment::new(Some(vref(1, 6, 30)), Some(aref(2, 1600, 8000)));
        assert_eq!(s.duration, Nanos::from_secs(1));
        assert_eq!(s.correspondence.video_block, Some(2));
        assert_eq!(s.correspondence.audio_block, Some(2));
        let gap = Segment::with_duration(None, None, Nanos::from_secs(2));
        assert!(gap.is_empty());
        assert_eq!(gap.duration, Nanos::from_secs(2));
    }

    #[test]
    fn rope_duration_and_media_presence() {
        let mut rope = Rope::new(RopeId::from_raw(1), "alice");
        rope.segments
            .push(Segment::new(Some(vref(1, 0, 30)), Some(aref(2, 0, 8000))));
        rope.segments.push(Segment::new(Some(vref(3, 0, 60)), None));
        assert_eq!(rope.duration(), Nanos::from_secs(3));
        assert!(rope.has_video());
        assert!(rope.has_audio());
        let ids: Vec<u64> = rope.strand_ids().iter().map(|s| s.raw()).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        rope.check_invariants().unwrap();
    }

    #[test]
    fn access_control() {
        let mut rope = Rope::new(RopeId::from_raw(1), "alice");
        rope.play_access = AccessList::only(&["bob"]);
        rope.edit_access = AccessList::only(&[]);
        assert!(rope.can_play("alice")); // creator
        assert!(rope.can_play("bob"));
        assert!(!rope.can_play("carol"));
        assert!(rope.can_edit("alice"));
        assert!(!rope.can_edit("bob"));
        assert!(AccessList::everyone().allows("anyone"));
    }

    #[test]
    fn invariant_violations_detected() {
        let mut rope = Rope::new(RopeId::from_raw(1), "alice");
        let mut seg = Segment::new(Some(vref(1, 0, 30)), None);
        seg.duration = Nanos::from_secs(5); // inconsistent
        rope.segments.push(seg);
        assert!(rope.check_invariants().is_err());

        let mut rope2 = Rope::new(RopeId::from_raw(2), "alice");
        rope2
            .segments
            .push(Segment::new(Some(vref(1, 0, 30)), None));
        rope2.triggers.push(Trigger {
            at: Nanos::from_secs(99),
            text: "late".into(),
        });
        assert!(rope2.check_invariants().is_err());
    }
}

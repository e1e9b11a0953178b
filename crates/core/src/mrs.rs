//! The Multimedia Rope Server (MRS) — the device-independent layer of
//! the prototype's architecture (§5.2).
//!
//! The MRS catalogs ropes, enforces access rights, maintains the
//! interest registry for garbage collection, and exposes the user-facing
//! operations of §4.1:
//!
//! * `RECORD` / `STOP` — session-based recording of new strands, with
//!   per-block flushing through the MSM and audio silence elimination;
//! * `PLAY` / `STOP` — admission-controlled playback, compiled into a
//!   [`PlaySchedule`] that deadline-stamps every block fetch;
//! * `PAUSE` / `RESUME` — destructive (resources released, `RESUME`
//!   re-runs admission) or non-destructive;
//! * `INSERT`, `REPLACE`, `SUBSTRING`, `CONCATE`, `DELETE` — pointer
//!   edits, followed by scattering-maintenance healing (§4.2) of the
//!   interval boundaries they create.

use crate::admission::RequestSpec;
use crate::error::FsError;
use crate::gc::InterestRegistry;
use crate::msm::Msm;
use crate::rope::edit::{self, Interval, MediaSel};
use crate::rope::scattering::{CopyPlan, CopySide};
use crate::rope::{split_proportional, Rope, Segment, StrandRef, Trigger};
use crate::strand::StrandMeta;
use crate::types::{BlockNo, RequestId, RopeId, StrandId};
use std::collections::BTreeMap;
use std::sync::Arc;
use strandfs_disk::DiskOp;
use strandfs_media::silence::{BlockClass, SilenceDetector};
use strandfs_media::Medium;
use strandfs_units::{Instant, Nanos};

/// Parameters for one medium of a `RECORD` request.
#[derive(Clone, Debug)]
pub struct TrackOpts {
    /// Strand recording parameters (rate, granularity, unit size).
    pub meta: StrandMeta,
    /// Silence detector (audio only; `None` stores everything).
    pub silence: Option<SilenceDetector>,
}

/// Parameters of a `RECORD` request.
#[derive(Clone, Debug, Default)]
pub struct RecordOpts {
    /// Video track, if recording video.
    pub video: Option<TrackOpts>,
    /// Audio track, if recording audio.
    pub audio: Option<TrackOpts>,
}

/// One deadline-stamped block fetch of a playback schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlayItem {
    /// When (relative to playback start) the block's first unit plays —
    /// the block must be buffered by this instant.
    pub at: Nanos,
    /// The medium of the block.
    pub medium: Medium,
    /// The strand holding the block.
    pub strand: StrandId,
    /// The block number within the strand.
    pub block: BlockNo,
    /// Number of units of this block the schedule actually plays.
    pub units: u64,
    /// Playback duration of those units.
    pub duration: Nanos,
    /// True if the block is an eliminated-silence hole (no fetch needed).
    pub silence: bool,
}

/// A compiled playback schedule for one `PLAY` request.
///
/// The items are shared, not owned: a clone — one per viewer of a
/// title, one per failover — copies a pointer, the way a rope only
/// refers to its immutable strands (§4). The few places that edit
/// items go through [`Arc::make_mut`].
#[derive(Clone, Debug, Default)]
pub struct PlaySchedule {
    /// The block fetches in deadline order.
    pub items: Arc<[PlayItem]>,
    /// Total playback duration.
    pub duration: Nanos,
    /// Text triggers within the played interval, shifted to playback
    /// time (Fig. 8's trigger information: text synchronized with the
    /// media).
    pub triggers: Vec<Trigger>,
}

impl PlaySchedule {
    /// Items that actually need disk I/O (non-silence).
    pub fn fetch_count(&self) -> usize {
        self.items.iter().filter(|i| !i.silence).count()
    }
}

/// One healed boundary within an edit commit: what the §4.2 pass copied
/// and the Eq. 19/20 bound it planned against.
#[derive(Clone, Copy, Debug)]
pub struct BoundaryHeal {
    /// The medium whose boundary was healed.
    pub medium: Medium,
    /// Which side of the boundary lost blocks to the bridge.
    pub side: CopySide,
    /// Media blocks copied into the bridging strand.
    pub copied: u64,
    /// The Eq. 19/20 copy bound in force when the plan was made.
    pub bound: u64,
    /// The freshly-created bridging strand.
    pub new_strand: StrandId,
}

/// The healing report of one edit commit (`INSERT`/`REPLACE`/`DELETE`,
/// or an explicit [`Mrs::heal_rope`] call): one entry per boundary the
/// scattering-maintenance pass actually copied blocks for.
#[derive(Clone, Debug, Default)]
pub struct EditReport {
    /// The healed boundaries, in rope order.
    pub heals: Vec<BoundaryHeal>,
}

impl EditReport {
    /// Total media blocks copied across all healed boundaries.
    pub fn blocks_copied(&self) -> u64 {
        self.heals.iter().map(|h| h.copied).sum()
    }

    /// True if every healed boundary respected its Eq. 19/20 bound.
    pub fn within_bounds(&self) -> bool {
        self.heals.iter().all(|h| h.copied <= h.bound)
    }
}

/// Cumulative editing statistics for one MRS instance.
#[derive(Clone, Copy, Debug, Default)]
pub struct EditStats {
    /// In-place edits committed (`INSERT`/`REPLACE`/`DELETE`).
    pub edits: u64,
    /// Boundaries the scattering pass copied blocks for.
    pub boundaries_healed: u64,
    /// Total media blocks copied by healing.
    pub blocks_copied: u64,
    /// Largest copy count any single boundary needed.
    pub max_copied_per_boundary: u64,
    /// Largest Eq. 19/20 bound in force at any heal.
    pub max_bound: u64,
}

struct TrackAccum {
    strand: StrandId,
    opts: TrackOpts,
    /// Buffered unit payloads not yet flushed into a block.
    pending: Vec<u8>,
    pending_units: u64,
    /// Audio only: buffered raw samples for silence classification.
    pending_samples: Vec<i32>,
    units_total: u64,
}

impl TrackAccum {
    fn new(msm: &mut Msm, opts: TrackOpts) -> TrackAccum {
        TrackAccum {
            strand: msm.begin_strand(opts.meta),
            opts,
            pending: Vec::new(),
            pending_units: 0,
            pending_samples: Vec::new(),
            units_total: 0,
        }
    }
}

struct RecordState {
    user: String,
    video: Option<TrackAccum>,
    audio: Option<TrackAccum>,
    admission_ids: Vec<RequestId>,
}

struct PlayState {
    user: String,
    rope: RopeId,
    schedule: PlaySchedule,
    admission_ids: Vec<RequestId>,
    specs: Vec<RequestSpec>,
    paused: bool,
    destructive_pause: bool,
}

enum Session {
    Record(RecordState),
    Play(PlayState),
}

/// The Multimedia Rope Server.
pub struct Mrs {
    msm: Msm,
    ropes: BTreeMap<RopeId, Rope>,
    interests: InterestRegistry,
    sessions: BTreeMap<RequestId, Session>,
    next_rope: u64,
    next_request: u64,
    edit_stats: EditStats,
    last_edit: EditReport,
}

impl Mrs {
    /// A rope server over the given storage manager.
    pub fn new(msm: Msm) -> Self {
        Mrs {
            msm,
            ropes: BTreeMap::new(),
            interests: InterestRegistry::new(),
            sessions: BTreeMap::new(),
            next_rope: 0,
            next_request: 0,
            edit_stats: EditStats::default(),
            last_edit: EditReport::default(),
        }
    }

    /// Cumulative editing statistics (heal counts, blocks copied, the
    /// largest Eq. 19/20 bound seen).
    pub fn edit_stats(&self) -> &EditStats {
        &self.edit_stats
    }

    /// The healing report of the most recent committed edit (empty when
    /// no edit has run, or the last edit healed nothing).
    pub fn last_edit_report(&self) -> &EditReport {
        &self.last_edit
    }

    /// Tear the MRS down to its storage manager — the crash-composition
    /// path: `mrs.into_msm().into_device()` yields the device image to
    /// power-cycle and remount.
    pub fn into_msm(self) -> Msm {
        self.msm
    }

    /// The storage manager (read-only).
    pub fn msm(&self) -> &Msm {
        &self.msm
    }

    /// The storage manager (mutable — for experiment instrumentation).
    pub fn msm_mut(&mut self) -> &mut Msm {
        &mut self.msm
    }

    /// Route observability events from the whole stack under this MRS
    /// (allocation, disk ops, admission) into `obs`.
    pub fn set_obs(&mut self, obs: strandfs_obs::ObsSink) {
        self.msm.set_obs(obs);
    }

    /// A cataloged rope.
    pub fn rope(&self, id: RopeId) -> Result<&Rope, FsError> {
        self.ropes.get(&id).ok_or(FsError::UnknownRope(id))
    }

    /// Mutable access to a cataloged rope — fsck's repair hook for
    /// dropping or clamping references to truncated strands.
    pub(crate) fn rope_mut(&mut self, id: RopeId) -> Result<&mut Rope, FsError> {
        self.ropes.get_mut(&id).ok_or(FsError::UnknownRope(id))
    }

    /// All cataloged rope ids.
    pub fn rope_ids(&self) -> Vec<RopeId> {
        self.ropes.keys().copied().collect()
    }

    fn fresh_request(&mut self) -> RequestId {
        let id = RequestId::from_raw(self.next_request);
        self.next_request += 1;
        id
    }

    fn fresh_rope(&mut self) -> RopeId {
        let id = RopeId::from_raw(self.next_rope);
        self.next_rope += 1;
        id
    }

    /// Admit one stream per spec, in order, or none (Eq. 15–18): a
    /// rejected stream uses up its id, and the streams admitted before
    /// it are released.
    fn admit_all(&mut self, specs: &[RequestSpec]) -> Result<Vec<RequestId>, FsError> {
        let mut ids = Vec::new();
        for spec in specs {
            let rid = self.fresh_request();
            if let Err(e) = self.msm.admission().try_admit(rid, *spec) {
                self.release_all(&ids);
                return Err(e);
            }
            ids.push(rid);
        }
        Ok(ids)
    }

    fn release_all(&mut self, ids: &[RequestId]) {
        for id in ids {
            self.msm.admission().release(*id).ok();
        }
    }

    /// Put a new rope created by `user` in the catalog under a fresh id.
    fn catalog(&mut self, mut rope: Rope, user: &str) -> RopeId {
        let id = self.fresh_rope();
        rope.id = id;
        rope.creator = user.to_string();
        self.interests.register(&rope);
        self.ropes.insert(id, rope);
        id
    }

    // ----- RECORD ------------------------------------------------------

    /// `RECORD [media] → requestID`: begin recording a new rope. Runs
    /// admission control for each medium's stream; on rejection nothing
    /// is allocated.
    pub fn record(&mut self, user: &str, opts: RecordOpts) -> Result<RequestId, FsError> {
        assert!(
            opts.video.is_some() || opts.audio.is_some(),
            "RECORD needs at least one medium"
        );
        let specs: Vec<RequestSpec> = [&opts.video, &opts.audio]
            .into_iter()
            .flatten()
            .map(|t| t.meta.request_spec())
            .collect();
        let admission_ids = self.admit_all(&specs)?;
        let video = opts.video.map(|t| TrackAccum::new(&mut self.msm, t));
        let audio = opts.audio.map(|t| TrackAccum::new(&mut self.msm, t));
        let req = self.fresh_request();
        self.sessions.insert(
            req,
            Session::Record(RecordState {
                user: user.to_string(),
                video,
                audio,
                admission_ids,
            }),
        );
        Ok(req)
    }

    /// Feed one captured, compressed video frame into a `RECORD` session.
    /// Returns the disk write when the frame completed a block.
    pub fn record_video_frame(
        &mut self,
        req: RequestId,
        now: Instant,
        payload: &[u8],
    ) -> Result<Option<DiskOp>, FsError> {
        let state = Self::record_state(&mut self.sessions, req)?;
        let track = state.video.as_mut().ok_or(FsError::BadRequestState {
            request: req,
            expected: "session recording video",
        })?;
        track.pending.extend_from_slice(payload);
        track.pending_units += 1;
        track.units_total += 1;
        if track.pending_units == track.opts.meta.granularity {
            // The buffer is emptied whether or not the append succeeds
            // and keeps its capacity for the next block.
            let appended =
                self.msm
                    .append_block(track.strand, now, &track.pending, track.pending_units);
            track.pending.clear();
            track.pending_units = 0;
            Ok(Some(appended?.1))
        } else {
            Ok(None)
        }
    }

    /// Feed captured audio samples into a `RECORD` session. Full blocks
    /// are classified by the session's silence detector: silent blocks
    /// become index holes, audible blocks are written. Returns the disk
    /// writes performed.
    pub fn record_audio_samples(
        &mut self,
        req: RequestId,
        now: Instant,
        samples: &[i32],
    ) -> Result<Vec<DiskOp>, FsError> {
        // Gather full blocks first (borrow of the track ends before MSM
        // calls).
        let mut flushes: Vec<(StrandId, Option<Vec<u8>>, u64)> = Vec::new();
        {
            let state = Self::record_state(&mut self.sessions, req)?;
            let track = state.audio.as_mut().ok_or(FsError::BadRequestState {
                request: req,
                expected: "session recording audio",
            })?;
            let q = track.opts.meta.granularity;
            track.pending_samples.extend_from_slice(samples);
            track.units_total += samples.len() as u64;
            while track.pending_samples.len() as u64 >= q {
                let block: Vec<i32> = track.pending_samples.drain(..q as usize).collect();
                let silent = track
                    .opts
                    .silence
                    .as_ref()
                    .map(|d| d.classify(&block) == BlockClass::Silent)
                    .unwrap_or(false);
                flushes.push((track.strand, (!silent).then(|| audio_bytes(&block)), q));
            }
        }
        let mut ops = Vec::new();
        let mut t = now;
        for (strand, payload, units) in flushes {
            match payload {
                None => {
                    let (_, op) = self.msm.append_silence(strand, units, t)?;
                    if let Some(op) = op {
                        t = op.completed;
                        ops.push(op);
                    }
                }
                Some(data) => {
                    let (_, op) = self.msm.append_block(strand, t, &data, units)?;
                    t = op.completed;
                    ops.push(op);
                }
            }
        }
        Ok(ops)
    }

    /// Over the session table alone, so a caller can hold the track
    /// while it writes through `self.msm`.
    fn record_state(
        sessions: &mut BTreeMap<RequestId, Session>,
        req: RequestId,
    ) -> Result<&mut RecordState, FsError> {
        match sessions.get_mut(&req) {
            Some(Session::Record(s)) => Ok(s),
            Some(Session::Play(_)) => Err(FsError::BadRequestState {
                request: req,
                expected: "RECORD session",
            }),
            None => Err(FsError::UnknownRequest(req)),
        }
    }

    /// `STOP [requestID]`: end a session. For `RECORD`, flushes partial
    /// blocks, finishes the strands, builds and catalogs the rope, and
    /// returns its id. For `PLAY`, releases resources and returns `None`.
    pub fn stop(&mut self, req: RequestId, now: Instant) -> Result<Option<RopeId>, FsError> {
        let session = self
            .sessions
            .remove(&req)
            .ok_or(FsError::UnknownRequest(req))?;
        // A destructive pause has already released a session's slots
        // and left it none to release.
        let (admission_ids, result) = match session {
            Session::Play(p) => (p.admission_ids, Ok(None)),
            // Finalize the tracks, but release the admission slots no
            // matter what — a full disk must not leak capacity.
            Session::Record(mut r) => {
                let result = self.finalize_record(&mut r, now);
                (r.admission_ids, result)
            }
        };
        self.release_all(&admission_ids);
        result
    }

    fn finalize_record(
        &mut self,
        r: &mut RecordState,
        now: Instant,
    ) -> Result<Option<RopeId>, FsError> {
        let mut t = now;
        let mut seg = Segment::new(None, None);
        let tracks = [
            (Medium::Video, r.video.as_mut()),
            (Medium::Audio, r.audio.as_mut()),
        ];
        for (medium, track) in tracks {
            let Some(track) = track else { continue };
            // Flush partials.
            if medium == Medium::Audio {
                if !track.pending_samples.is_empty() {
                    let payload = audio_bytes(&track.pending_samples);
                    let units = track.pending_samples.len() as u64;
                    let (_, op) = self.msm.append_block(track.strand, t, &payload, units)?;
                    t = op.completed;
                    track.pending_samples.clear();
                }
            } else if track.pending_units > 0 {
                let data = std::mem::take(&mut track.pending);
                let (_, op) = self
                    .msm
                    .append_block(track.strand, t, &data, track.pending_units)?;
                t = op.completed;
                track.pending_units = 0;
            }
            self.msm.finish_strand(track.strand, t)?;
            if track.units_total == 0 {
                // Nothing recorded on this track: drop the empty strand
                // quietly.
                self.msm.delete_strand(track.strand)?;
                continue;
            }
            let strand = self.msm.strand(track.strand)?;
            *seg.track_mut(medium) = Some(StrandRef {
                strand: track.strand,
                start_unit: 0,
                len_units: strand.unit_count(),
                unit_rate: strand.meta().unit_rate,
                granularity: strand.meta().granularity,
            });
        }
        if seg.is_empty() {
            return Ok(None);
        }
        let rope_id = self.fresh_rope();
        let mut rope = Rope::new(rope_id, &r.user);
        rope.segments.push(Segment::new(seg.video, seg.audio));
        self.interests.register(&rope);
        self.ropes.insert(rope_id, rope);
        Ok(Some(rope_id))
    }

    // ----- PLAY --------------------------------------------------------

    /// `PLAY [mmRopeID, interval, media] → requestID`: admission-check
    /// and compile a playback schedule. The returned schedule drives the
    /// caller's (or the simulator's) block fetches.
    pub fn play(
        &mut self,
        user: &str,
        rope_id: RopeId,
        sel: MediaSel,
        interval: Interval,
    ) -> Result<(RequestId, PlaySchedule), FsError> {
        let rope = self.playable(user, rope_id)?;
        let schedule = compile_schedule(rope, sel, interval)?;
        // One admission entry per distinct medium actually scheduled, in
        // the order the segments first carry it.
        let mut media = Vec::new();
        let mut specs = Vec::new();
        for seg in &rope.segments {
            for m in Medium::ALL {
                if let (true, Some(r)) = (sel.has(m), seg.track(m)) {
                    if !media.contains(&m) {
                        media.push(m);
                        specs.push(self.msm.strand(r.strand)?.meta().request_spec());
                    }
                }
            }
        }
        let admission_ids = self.admit_all(&specs)?;
        let req = self.fresh_request();
        self.sessions.insert(
            req,
            Session::Play(PlayState {
                user: user.to_string(),
                rope: rope_id,
                schedule: schedule.clone(),
                admission_ids,
                specs,
                paused: false,
                destructive_pause: false,
            }),
        );
        Ok((req, schedule))
    }

    /// `PAUSE [requestID]`: suspend a `PLAY` request. A *destructive*
    /// pause releases the admission slots (another client may take them);
    /// a non-destructive pause keeps them reserved.
    pub fn pause(&mut self, req: RequestId, destructive: bool) -> Result<(), FsError> {
        let state = self.play_state(req)?;
        if state.paused {
            return Err(FsError::BadRequestState {
                request: req,
                expected: "a running PLAY session",
            });
        }
        state.paused = true;
        state.destructive_pause = destructive;
        if destructive {
            let ids = std::mem::take(&mut state.admission_ids);
            self.release_all(&ids);
        }
        Ok(())
    }

    /// `RESUME [requestID]`: resume a paused `PLAY`. After a destructive
    /// pause this re-runs admission control and may be rejected.
    pub fn resume(&mut self, req: RequestId) -> Result<(), FsError> {
        let state = self.play_state(req)?;
        if !state.paused {
            return Err(FsError::BadRequestState {
                request: req,
                expected: "a paused PLAY session",
            });
        }
        if state.destructive_pause {
            let specs = state.specs.clone();
            let ids = self.admit_all(&specs)?;
            self.play_state(req)?.admission_ids = ids;
        }
        let state = self.play_state(req)?;
        state.paused = false;
        state.destructive_pause = false;
        Ok(())
    }

    /// Inspect an active `PLAY` session: `(user, rope, schedule,
    /// paused)`.
    pub fn play_info(
        &self,
        req: RequestId,
    ) -> Result<(&str, RopeId, &PlaySchedule, bool), FsError> {
        match self.sessions.get(&req) {
            Some(Session::Play(s)) => Ok((&s.user, s.rope, &s.schedule, s.paused)),
            Some(Session::Record(_)) => Err(FsError::BadRequestState {
                request: req,
                expected: "PLAY session",
            }),
            None => Err(FsError::UnknownRequest(req)),
        }
    }

    fn play_state(&mut self, req: RequestId) -> Result<&mut PlayState, FsError> {
        match self.sessions.get_mut(&req) {
            Some(Session::Play(s)) => Ok(s),
            Some(Session::Record(_)) => Err(FsError::BadRequestState {
                request: req,
                expected: "PLAY session",
            }),
            None => Err(FsError::UnknownRequest(req)),
        }
    }

    // ----- editing ------------------------------------------------------

    /// `INSERT [baseRope, position, media, withRope, withInterval]`:
    /// edits `base` in place, then heals the new interval boundaries.
    #[allow(clippy::too_many_arguments)] // mirrors the paper's operation signature
    pub fn insert(
        &mut self,
        user: &str,
        base: RopeId,
        position: Nanos,
        sel: MediaSel,
        with: RopeId,
        with_interval: Interval,
        now: Instant,
    ) -> Result<(), FsError> {
        let base_rope = self.editable(user, base)?.clone();
        let with_rope = self.rope(with)?.clone();
        let edited = edit::insert(&base_rope, position, sel, &with_rope, with_interval)?;
        self.commit_edit(base, edited, now)
    }

    /// `REPLACE [baseRope, media, baseInterval, withRope, withInterval]`.
    #[allow(clippy::too_many_arguments)] // mirrors the paper's operation signature
    pub fn replace(
        &mut self,
        user: &str,
        base: RopeId,
        sel: MediaSel,
        base_interval: Interval,
        with: RopeId,
        with_interval: Interval,
        now: Instant,
    ) -> Result<(), FsError> {
        let base_rope = self.editable(user, base)?.clone();
        let with_rope = self.rope(with)?.clone();
        let edited = edit::replace(&base_rope, sel, base_interval, &with_rope, with_interval)?;
        self.commit_edit(base, edited, now)
    }

    /// `DELETE [baseRope, media, interval]`.
    pub fn delete(
        &mut self,
        user: &str,
        base: RopeId,
        sel: MediaSel,
        interval: Interval,
        now: Instant,
    ) -> Result<(), FsError> {
        let base_rope = self.editable(user, base)?.clone();
        let edited = edit::delete(&base_rope, sel, interval)?;
        self.commit_edit(base, edited, now)
    }

    /// `SUBSTRING [baseRope, media, interval]` → a *new* rope sharing the
    /// base's strands.
    pub fn substring(
        &mut self,
        user: &str,
        base: RopeId,
        sel: MediaSel,
        interval: Interval,
    ) -> Result<RopeId, FsError> {
        let sub = edit::substring(self.playable(user, base)?, sel, interval)?;
        Ok(self.catalog(sub, user))
    }

    /// `CONCATE [rope1, rope2]` → a *new* rope.
    pub fn concat(&mut self, user: &str, first: RopeId, second: RopeId) -> Result<RopeId, FsError> {
        // An unknown rope is reported before a refused one.
        self.rope(first).and(self.rope(second))?;
        let joined = edit::concat(self.playable(user, first)?, self.playable(user, second)?);
        Ok(self.catalog(joined, user))
    }

    /// Add a text trigger to a rope.
    pub fn add_trigger(
        &mut self,
        user: &str,
        rope: RopeId,
        at: Nanos,
        text: &str,
    ) -> Result<(), FsError> {
        let r = self.editable(user, rope)?;
        if at > r.duration() {
            return Err(FsError::BadInterval {
                reason: "trigger beyond rope end",
            });
        }
        r.triggers.push(Trigger {
            at,
            text: text.to_string(),
        });
        r.triggers.sort_by_key(|t| t.at);
        Ok(())
    }

    fn playable(&self, user: &str, id: RopeId) -> Result<&Rope, FsError> {
        let rope = self.rope(id)?;
        if !rope.can_play(user) {
            return Err(denied(user, "play"));
        }
        Ok(rope)
    }

    fn editable(&mut self, user: &str, id: RopeId) -> Result<&mut Rope, FsError> {
        let rope = self.rope_mut(id)?;
        if !rope.can_edit(user) {
            return Err(denied(user, "edit"));
        }
        Ok(rope)
    }

    fn commit_edit(&mut self, id: RopeId, mut edited: Rope, now: Instant) -> Result<(), FsError> {
        edited.id = id;
        let report = self.heal_rope(&mut edited, now)?;
        self.note_edit(id, report, now);
        self.interests.register(&edited);
        self.ropes.insert(id, edited);
        Ok(())
    }

    /// Fold one edit's healing report into the cumulative stats and emit
    /// an obs event per healed boundary.
    fn note_edit(&mut self, id: RopeId, report: EditReport, now: Instant) {
        self.edit_stats.edits += 1;
        for h in &report.heals {
            self.edit_stats.boundaries_healed += 1;
            self.edit_stats.blocks_copied += h.copied;
            self.edit_stats.max_copied_per_boundary =
                self.edit_stats.max_copied_per_boundary.max(h.copied);
            self.edit_stats.max_bound = self.edit_stats.max_bound.max(h.bound);
            let (copied, bound, new_strand) = (h.copied, h.bound, h.new_strand);
            self.msm.obs().emit(|| strandfs_obs::Event::EditHeal {
                rope: id.raw(),
                copied,
                bound,
                new_strand: new_strand.raw(),
                at: now,
            });
        }
        self.last_edit = report;
    }

    // ----- scattering healing (§4.2) -------------------------------------

    /// Walk a rope's segment boundaries and heal every one that breaks
    /// strand continuity, rewriting refs to point at the bridging
    /// strands. Returns a report with one entry per healed boundary:
    /// blocks copied and the Eq. 19/20 bound each plan was made under.
    pub fn heal_rope(&mut self, rope: &mut Rope, now: Instant) -> Result<EditReport, FsError> {
        let mut report = EditReport::default();
        let mut i = 0;
        while i + 1 < rope.segments.len() {
            let mut next = i + 1;
            for medium in Medium::ALL {
                let (Some(l), Some(r)) = (
                    *rope.segments[i].track(medium),
                    *rope.segments[i + 1].track(medium),
                ) else {
                    continue;
                };
                // Contiguous continuation of the same strand needs no
                // healing: the allocator bounded those gaps already.
                if l.strand == r.strand && l.end_unit() == r.start_unit {
                    continue;
                }
                // The bound the heal will plan against, captured before
                // the copy (the copy itself raises occupancy and can
                // flip the regime for the *next* boundary).
                let bound = self.msm.current_copy_bound();
                if let Some((plan, new_strand)) = self.msm.heal_boundary(&l, &r, now)? {
                    let lost = match plan.side {
                        CopySide::Left => i,
                        CopySide::Right => i + 1,
                    };
                    let bridge = splice_bridge(&mut rope.segments[lost], medium, plan, new_strand);
                    // Either way the bridge lands between the two sides.
                    rope.segments.insert(i + 1, bridge);
                    report.heals.push(BoundaryHeal {
                        medium,
                        side: plan.side,
                        copied: plan.count,
                        bound,
                        new_strand,
                    });
                    // One heal per boundary. Resume past the bridge: its
                    // seam to the rest of the side it copied is the one
                    // long seek the copies pay for, not a boundary.
                    next = i + 2;
                    break;
                }
            }
            i = next;
        }
        // A whole-segment bridge empties its source segment (both media
        // moved out, zero timeline left); sweep such husks. Timeline is
        // conserved by construction: every splice hands the bridge
        // exactly the span it takes from its neighbour, and the
        // density-proportional splits never mint or lose units.
        rope.segments
            .retain(|s| !(s.duration.is_zero() && s.video.is_none() && s.audio.is_none()));
        for s in rope.segments.iter_mut() {
            // Refresh block-level correspondence: healing re-points
            // refs at bridge strands.
            *s = Segment::with_duration(s.video, s.audio, s.duration);
        }
        Ok(report)
    }

    // ----- garbage collection --------------------------------------------

    /// Delete a rope from the catalog, dropping its interests.
    pub fn delete_rope(&mut self, user: &str, id: RopeId) -> Result<(), FsError> {
        self.editable(user, id)?;
        self.ropes.remove(&id);
        self.interests.unregister(id);
        Ok(())
    }

    /// Sweep: delete every finished strand no rope holds an interest in.
    /// Returns the ids collected.
    pub fn gc(&mut self) -> Vec<StrandId> {
        let candidates = self.msm.strand_ids();
        let dead = self.interests.collectable(candidates.iter());
        for id in &dead {
            self.msm.delete_strand(*id).ok();
        }
        dead
    }
}

/// An audio block's stored bytes: each sample clamped to one signed byte.
fn audio_bytes(samples: &[i32]) -> Vec<u8> {
    samples
        .iter()
        .map(|&s| s.clamp(-128, 127) as i8 as u8)
        .collect()
}

fn denied(user: &str, right: &'static str) -> FsError {
    FsError::AccessDenied {
        user: user.to_string(),
        right,
    }
}

/// Cut the blocks a §4.2 heal copied out of `seg`, the segment on the
/// side of the boundary that lost them, and return the segment that
/// refers to their copies in `new_strand`: `seg`'s first `plan.count`
/// blocks of `medium` for a right-side copy, its last `plan.count` for a
/// left-side one. The bridge takes the matching span of `seg`'s
/// timeline (its head for a right-side copy, its tail for a left-side
/// one), and the companion medium's units in that span move with it.
fn splice_bridge(
    seg: &mut Segment,
    medium: Medium,
    plan: CopyPlan,
    new_strand: StrandId,
) -> Segment {
    let r = seg.track(medium).expect("a healed medium has a ref");
    let q = r.granularity;
    let first = plan.first_block(&r);
    let lo = (first * q).max(r.start_unit);
    let hi = ((first + plan.count) * q).min(r.end_unit());
    let bridge = StrandRef {
        strand: new_strand,
        start_unit: lo - first * q,
        len_units: hi - lo,
        ..r
    };
    // The copied units leave one end of the ref.
    let rest = match plan.side {
        CopySide::Right => StrandRef {
            start_unit: hi,
            len_units: r.end_unit() - hi,
            ..r
        },
        CopySide::Left => StrandRef {
            len_units: lo - r.start_unit,
            ..r
        },
    };
    let seg_dur = seg.duration;
    let bdur = bridge.duration().min(seg_dur);
    let (moved, kept) = match *seg.track(medium.other()) {
        None => (None, None),
        // A bridge over the segment's whole timeline takes the companion
        // whole: a rounded split could strand a unit in the zero-length
        // remainder (the hazard `Piece::split_at` short-circuits).
        Some(o) if bdur >= seg_dur => (Some(o), None),
        // Otherwise the companion splits where the timeline does, in
        // proportion to its own density, not its nominal rate.
        Some(o) => {
            let at = match plan.side {
                CopySide::Right => bdur,
                CopySide::Left => seg_dur - bdur,
            };
            let (head, tail) = o.split_units(split_proportional(at, seg_dur, o.len_units));
            match plan.side {
                CopySide::Right => (Some(head), Some(tail)),
                CopySide::Left => (Some(tail), Some(head)),
            }
        }
    };
    // A heal can empty a ref (a whole-ref copy leaves a zero-unit rest),
    // and an empty ref inside a timed segment breaks the rope invariants.
    let nonempty = |r: Option<StrandRef>| r.filter(|r| r.len_units > 0);
    let mut out = Segment::new(None, None);
    for (m, to_bridge, left_behind) in [
        (medium, Some(bridge), Some(rest)),
        (medium.other(), moved, kept),
    ] {
        *out.track_mut(m) = nonempty(to_bridge);
        *seg.track_mut(m) = nonempty(left_behind);
    }
    // Both durations come from the segment's timeline, not from ref
    // lengths: deriving them with `Segment::new` let a coarse-unit medium
    // stretch a segment past the other medium's tolerance and drift the
    // rope's total duration.
    *seg = Segment::with_duration(seg.video, seg.audio, seg_dur - bdur);
    Segment::with_duration(out.video, out.audio, bdur)
}

/// Compile a rope interval into a deadline-stamped block schedule.
pub fn compile_schedule(
    rope: &Rope,
    sel: MediaSel,
    interval: Interval,
) -> Result<PlaySchedule, FsError> {
    if interval.len.is_zero() {
        return Err(FsError::BadInterval {
            reason: "interval is empty",
        });
    }
    if interval.end() > rope.duration() {
        return Err(FsError::BadInterval {
            reason: "interval extends beyond rope end",
        });
    }
    // Work on the substring so segment-relative arithmetic is simple.
    let sub = edit::substring(rope, sel, interval)?;
    let mut items = Vec::new();
    let mut t0 = Nanos::ZERO;
    for seg in &sub.segments {
        for medium in Medium::ALL {
            let Some(r) = seg.track(medium) else { continue };
            let unit_dur = 1.0 / r.unit_rate;
            for block in r.start_block()..=r.end_block() {
                let block_first_unit = (block * r.granularity).max(r.start_unit);
                let block_last_unit = ((block + 1) * r.granularity).min(r.end_unit());
                let units = block_last_unit - block_first_unit;
                if units == 0 {
                    continue;
                }
                let offset =
                    Nanos::from_secs_f64((block_first_unit - r.start_unit) as f64 * unit_dur);
                items.push(PlayItem {
                    at: t0 + offset,
                    medium,
                    strand: r.strand,
                    block,
                    units,
                    duration: Nanos::from_secs_f64(units as f64 * unit_dur),
                    silence: false, // resolved against the strand below
                });
            }
        }
        t0 += seg.duration;
    }
    items.sort_by_key(|i| i.at);
    Ok(PlaySchedule {
        items: items.into(),
        duration: sub.duration(),
        // `substring` already filtered the triggers to the interval and
        // shifted them to interval-relative time.
        triggers: sub.triggers,
    })
}

impl Mrs {
    /// Resolve the `silence` flags of a schedule against the stored
    /// strands (silence holes need no disk fetch).
    pub fn resolve_silence(&self, schedule: &mut PlaySchedule) -> Result<(), FsError> {
        for item in Arc::make_mut(&mut schedule.items) {
            let strand = self.msm.strand(item.strand)?;
            item.silence = strand.block(item.block)?.is_none();
        }
        Ok(())
    }

    /// A cataloged rope's whole timeline, compiled and with its silence
    /// resolved — the schedule a simulator plays.
    pub fn schedule(&self, id: RopeId, sel: MediaSel) -> Result<PlaySchedule, FsError> {
        let rope = self.rope(id)?;
        let mut schedule = compile_schedule(rope, sel, Interval::whole(rope.duration()))?;
        self.resolve_silence(&mut schedule)?;
        Ok(schedule)
    }

    /// Grant or restrict a rope's access lists. Requires edit rights.
    pub fn set_access(
        &mut self,
        user: &str,
        rope: RopeId,
        play: crate::rope::AccessList,
        edit: crate::rope::AccessList,
    ) -> Result<(), FsError> {
        let r = self.editable(user, rope)?;
        r.play_access = play;
        r.edit_access = edit;
        Ok(())
    }

    /// Rewrite a strand's blocks to fresh constrained placement and
    /// rebind every cataloged rope to the new copy (§6.2 future work:
    /// reorganizing storage when dense disks accumulate scattering
    /// anomalies). The old strand becomes unreferenced and is collected.
    ///
    /// Correct because the copy is logically identical (same block/unit
    /// numbering, silence holes included), so refs transfer verbatim.
    pub fn reorganize_strand(
        &mut self,
        strand: StrandId,
        now: Instant,
    ) -> Result<StrandId, FsError> {
        let blocks = self.msm.strand(strand)?.block_count();
        let new_id = self
            .msm
            .copy_blocks_to_new_strand(strand, 0, blocks, None, now)?;
        let rope_ids: Vec<RopeId> = self.ropes.keys().copied().collect();
        for rid in rope_ids {
            let rope = self.ropes.get_mut(&rid).expect("listed");
            let mut touched = false;
            for seg in &mut rope.segments {
                for r in [&mut seg.video, &mut seg.audio].into_iter().flatten() {
                    if r.strand == strand {
                        r.strand = new_id;
                        touched = true;
                    }
                }
            }
            if touched {
                let rope = self.ropes.get(&rid).expect("listed").clone();
                self.interests.register(&rope);
            }
        }
        self.gc();
        Ok(new_id)
    }
}

/// Playback-mode transformation of a schedule (§3.3.2): fast-forward
/// (with or without block skipping) and slow motion.
///
/// * `speed > 1`, `skip = false`: every block is fetched but deadlines
///   compress by `speed` — both the continuity requirement and the
///   buffer flow rate rise (the paper's "increases both").
/// * `speed > 1`, `skip = true`: only every `round(speed)`-th block of
///   each medium is fetched, at the *normal* per-block deadline spacing
///   — the fetch rate is unchanged, only the physical gap to the next
///   fetched block grows (the paper's "increases only the continuity
///   requirement").
/// * `speed < 1` (slow motion): deadlines stretch; an open-loop disk
///   runs ahead and blocks accumulate in buffers, which is exactly the
///   effect §3.3.2 bounds with the task-switch read-ahead `h`.
pub fn apply_play_mode(schedule: &PlaySchedule, speed: f64, skip: bool) -> PlaySchedule {
    assert!(speed > 0.0 && speed.is_finite(), "speed must be positive");
    let stride = if skip && speed > 1.0 {
        speed.round().max(1.0) as u64
    } else {
        1
    };
    let mut per_medium_ordinal: std::collections::BTreeMap<(Medium, StrandId), u64> =
        std::collections::BTreeMap::new();
    let mut items = Vec::new();
    for item in schedule.items.iter() {
        let ordinal = per_medium_ordinal
            .entry((item.medium, item.strand))
            .or_insert(0);
        let keep = (*ordinal).is_multiple_of(stride);
        *ordinal += 1;
        if !keep {
            continue;
        }
        let scale = if stride > 1 {
            // Skipped playback: kept blocks display back to back at the
            // normal block rate, so deadline = ordinal-among-kept ×
            // block duration; equivalently at / stride.
            stride as f64
        } else {
            speed
        };
        items.push(PlayItem {
            at: Nanos::from_secs_f64(item.at.as_secs_f64() / scale),
            duration: Nanos::from_secs_f64(item.duration.as_secs_f64() / scale),
            ..*item
        });
    }
    items.sort_by_key(|i| i.at);
    let scale = if stride > 1 { stride as f64 } else { speed };
    PlaySchedule {
        items: items.into(),
        duration: Nanos::from_secs_f64(schedule.duration.as_secs_f64() / scale),
        triggers: schedule
            .triggers
            .iter()
            .map(|t| Trigger {
                at: Nanos::from_secs_f64(t.at.as_secs_f64() / scale),
                text: t.text.clone(),
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msm::MsmConfig;
    use strandfs_disk::{DiskGeometry, GapBounds, SeekModel, SimDisk};
    use strandfs_media::silence::TalkSpurtSource;
    use strandfs_units::Bits;

    fn mrs() -> Mrs {
        let disk = SimDisk::new(DiskGeometry::vintage_1991(), SeekModel::vintage_1991());
        let bounds = GapBounds {
            min_sectors: 0,
            max_sectors: 40_000,
        };
        Mrs::new(Msm::new(disk, MsmConfig::constrained(bounds, 11)))
    }

    fn video_opts() -> TrackOpts {
        TrackOpts {
            meta: StrandMeta {
                medium: Medium::Video,
                unit_rate: 30.0,
                granularity: 3,
                unit_bits: Bits::new(96_000),
            },
            silence: None,
        }
    }

    fn audio_opts() -> TrackOpts {
        TrackOpts {
            meta: StrandMeta {
                medium: Medium::Audio,
                unit_rate: 8_000.0,
                granularity: 800,
                unit_bits: Bits::new(8),
            },
            silence: Some(SilenceDetector::telephone()),
        }
    }

    /// Record `seconds` of AV content and return the rope.
    fn record_av(m: &mut Mrs, seconds: u64, seed: u64) -> RopeId {
        let req = m
            .record(
                "alice",
                RecordOpts {
                    video: Some(video_opts()),
                    audio: Some(audio_opts()),
                },
            )
            .unwrap();
        let mut t = Instant::EPOCH;
        let mut talk = TalkSpurtSource::telephone(seed);
        for i in 0..seconds * 30 {
            let frame = vec![(i % 251) as u8; 12_000];
            if let Some(op) = m.record_video_frame(req, t, &frame).unwrap() {
                t = op.completed;
            }
        }
        let samples = talk.generate((seconds * 8_000) as usize);
        for chunk in samples.chunks(4_000) {
            let ops = m.record_audio_samples(req, t, chunk).unwrap();
            if let Some(op) = ops.last() {
                t = op.completed;
            }
        }
        m.stop(req, t).unwrap().unwrap()
    }

    #[test]
    fn record_builds_av_rope() {
        let mut m = mrs();
        let rope_id = record_av(&mut m, 4, 3);
        let rope = m.rope(rope_id).unwrap();
        assert!(rope.has_video());
        assert!(rope.has_audio());
        let d = rope.duration();
        assert!(
            d >= Nanos::from_millis(3_900) && d <= Nanos::from_millis(4_100),
            "duration = {d}"
        );
        rope.check_invariants().unwrap();
        // Admission slots were released at STOP.
        assert_eq!(m.msm().admission_ref().active(), 0);
        // Audio silence elimination left holes.
        let audio_ref = rope.segments[0].audio.unwrap();
        let strand = m.msm().strand(audio_ref.strand).unwrap();
        assert!(strand.silence_fraction() > 0.0, "expected silence holes");
    }

    #[test]
    fn play_schedule_deadlines_are_monotone_and_cover() {
        let mut m = mrs();
        let rope_id = record_av(&mut m, 4, 5);
        let dur = m.rope(rope_id).unwrap().duration();
        let (req, mut schedule) = m
            .play("bob", rope_id, MediaSel::Both, Interval::whole(dur))
            .unwrap();
        m.resolve_silence(&mut schedule).unwrap();
        assert!(!schedule.items.is_empty());
        let mut prev = Nanos::ZERO;
        for item in schedule.items.iter() {
            assert!(item.at >= prev);
            prev = item.at;
        }
        // Video portion covers 30*4 = 120 frames at q=3 -> 40 blocks.
        let video_blocks = schedule
            .items
            .iter()
            .filter(|i| i.medium == Medium::Video)
            .count();
        assert_eq!(video_blocks, 40);
        // Some audio items are silence (no fetch).
        assert!(schedule.fetch_count() < schedule.items.len());
        assert_eq!(m.msm().admission_ref().active(), 2);
        m.stop(req, Instant::EPOCH).unwrap();
        assert_eq!(m.msm().admission_ref().active(), 0);
    }

    #[test]
    fn play_access_enforced() {
        let mut m = mrs();
        let rope_id = record_av(&mut m, 2, 7);
        {
            let rope = m.ropes.get_mut(&rope_id).unwrap();
            rope.play_access = crate::rope::AccessList::only(&["bob"]);
        }
        let dur = m.rope(rope_id).unwrap().duration();
        assert!(matches!(
            m.play("mallory", rope_id, MediaSel::Both, Interval::whole(dur)),
            Err(FsError::AccessDenied { .. })
        ));
        assert!(m
            .play("alice", rope_id, MediaSel::Both, Interval::whole(dur))
            .is_ok());
    }

    #[test]
    fn pause_resume_cycle() {
        let mut m = mrs();
        let rope_id = record_av(&mut m, 2, 9);
        let dur = m.rope(rope_id).unwrap().duration();
        let (req, _) = m
            .play("alice", rope_id, MediaSel::Both, Interval::whole(dur))
            .unwrap();
        let active = m.msm().admission_ref().active();
        // Non-destructive pause keeps the slots.
        m.pause(req, false).unwrap();
        assert_eq!(m.msm().admission_ref().active(), active);
        m.resume(req).unwrap();
        // Destructive pause releases them.
        m.pause(req, true).unwrap();
        assert_eq!(m.msm().admission_ref().active(), 0);
        m.resume(req).unwrap();
        assert_eq!(m.msm().admission_ref().active(), active);
        // Double pause / double resume are state errors.
        m.pause(req, false).unwrap();
        assert!(m.pause(req, false).is_err());
        m.resume(req).unwrap();
        assert!(m.resume(req).is_err());
        m.stop(req, Instant::EPOCH).unwrap();
    }

    #[test]
    fn insert_edit_heals_boundaries() {
        let mut m = mrs();
        let base = record_av(&mut m, 4, 1);
        let clip = record_av(&mut m, 2, 2);
        let clip_dur = m.rope(clip).unwrap().duration();
        let strands_before = m.msm().strand_ids().len();
        m.insert(
            "alice",
            base,
            Nanos::from_secs(2),
            MediaSel::Both,
            clip,
            Interval::whole(clip_dur),
            Instant::EPOCH,
        )
        .unwrap();
        let rope = m.rope(base).unwrap().clone();
        rope.check_invariants().unwrap();
        let d = rope.duration();
        assert!(
            d >= Nanos::from_millis(5_800) && d <= Nanos::from_millis(6_200),
            "duration = {d}"
        );
        // Healing created bridging strands.
        assert!(m.msm().strand_ids().len() > strands_before);
        // The healed rope still plays end-to-end.
        let (_, schedule) = m
            .play("alice", base, MediaSel::Video, Interval::whole(d))
            .unwrap();
        let total_units: u64 = schedule
            .items
            .iter()
            .filter(|i| i.medium == Medium::Video)
            .map(|i| i.units)
            .sum();
        assert_eq!(total_units, 180); // 6 s * 30 fps
    }

    #[test]
    fn substring_and_concat_create_new_ropes() {
        let mut m = mrs();
        let base = record_av(&mut m, 4, 4);
        let sub = m
            .substring(
                "alice",
                base,
                MediaSel::Both,
                Interval::new(Nanos::from_secs(1), Nanos::from_secs(2)),
            )
            .unwrap();
        assert_ne!(sub, base);
        let sub_dur = m.rope(sub).unwrap().duration();
        assert!((sub_dur.as_secs_f64() - 2.0).abs() < 0.1);
        let joined = m.concat("alice", base, sub).unwrap();
        let joined_dur = m.rope(joined).unwrap().duration();
        assert!((joined_dur.as_secs_f64() - 6.0).abs() < 0.2);
        // All three ropes share the same underlying strands.
        let base_strands = m.rope(base).unwrap().strand_ids();
        let sub_strands = m.rope(sub).unwrap().strand_ids();
        assert!(sub_strands.is_subset(&base_strands));
    }

    #[test]
    fn gc_collects_only_unreferenced() {
        let mut m = mrs();
        let base = record_av(&mut m, 2, 6);
        let sub = m
            .substring(
                "alice",
                base,
                MediaSel::Both,
                Interval::new(Nanos::ZERO, Nanos::from_secs(1)),
            )
            .unwrap();
        // Nothing collectable: both ropes reference the strands.
        assert!(m.gc().is_empty());
        m.delete_rope("alice", base).unwrap();
        // Still referenced by the substring.
        assert!(m.gc().is_empty());
        m.delete_rope("alice", sub).unwrap();
        let collected = m.gc();
        assert!(!collected.is_empty());
        // Space was reclaimed.
        for id in collected {
            assert!(matches!(m.msm().strand(id), Err(FsError::UnknownStrand(_))));
        }
    }

    #[test]
    fn triggers_attach_and_validate() {
        let mut m = mrs();
        let base = record_av(&mut m, 2, 8);
        m.add_trigger("alice", base, Nanos::from_secs(1), "chapter 1")
            .unwrap();
        assert!(matches!(
            m.add_trigger("alice", base, Nanos::from_secs(100), "late"),
            Err(FsError::BadInterval { .. })
        ));
        assert_eq!(m.rope(base).unwrap().triggers.len(), 1);
    }

    #[test]
    fn play_mode_fast_forward_no_skip() {
        let mut m = mrs();
        let rope_id = record_av(&mut m, 4, 12);
        let dur = m.rope(rope_id).unwrap().duration();
        let rope = m.rope(rope_id).unwrap().clone();
        let base = compile_schedule(&rope, MediaSel::Video, Interval::whole(dur)).unwrap();
        let ff = apply_play_mode(&base, 2.0, false);
        assert_eq!(ff.items.len(), base.items.len(), "no-skip keeps all blocks");
        // Deadlines compress by 2.
        for (a, b) in base.items.iter().zip(ff.items.iter()) {
            let ratio = a.at.as_secs_f64() / b.at.as_secs_f64().max(1e-12);
            if a.at > Nanos::ZERO {
                assert!((ratio - 2.0).abs() < 1e-6);
            }
        }
        assert_eq!(ff.duration, Nanos::from_secs_f64(dur.as_secs_f64() / 2.0));
    }

    #[test]
    fn play_mode_fast_forward_with_skip() {
        let mut m = mrs();
        let rope_id = record_av(&mut m, 4, 13);
        let dur = m.rope(rope_id).unwrap().duration();
        let rope = m.rope(rope_id).unwrap().clone();
        let base = compile_schedule(&rope, MediaSel::Video, Interval::whole(dur)).unwrap();
        let ff = apply_play_mode(&base, 2.0, true);
        // Every other block dropped.
        assert_eq!(ff.items.len(), base.items.len().div_ceil(2));
        // Kept blocks are the even ordinals.
        assert_eq!(ff.items[0].block, 0);
        assert_eq!(ff.items[1].block, 2);
        // Fetch rate unchanged: deadline spacing equals one block
        // duration.
        let spacing = ff.items[1].at - ff.items[0].at;
        assert_eq!(spacing, Nanos::from_millis(100));
    }

    #[test]
    fn play_mode_slow_motion_stretches() {
        let mut m = mrs();
        let rope_id = record_av(&mut m, 2, 14);
        let dur = m.rope(rope_id).unwrap().duration();
        let rope = m.rope(rope_id).unwrap().clone();
        let base = compile_schedule(&rope, MediaSel::Video, Interval::whole(dur)).unwrap();
        let slow = apply_play_mode(&base, 0.5, false);
        assert_eq!(slow.items.len(), base.items.len());
        assert_eq!(slow.duration, Nanos::from_secs_f64(dur.as_secs_f64() * 2.0));
    }

    #[test]
    #[should_panic(expected = "speed must be positive")]
    fn play_mode_rejects_bad_speed() {
        let s = PlaySchedule::default();
        apply_play_mode(&s, 0.0, false);
    }

    #[test]
    fn set_access_requires_edit_rights() {
        let mut m = mrs();
        let rope_id = record_av(&mut m, 2, 15);
        assert!(matches!(
            m.set_access(
                "mallory",
                rope_id,
                crate::rope::AccessList::everyone(),
                crate::rope::AccessList::everyone()
            ),
            Err(FsError::AccessDenied { .. })
        ));
        m.set_access(
            "alice",
            rope_id,
            crate::rope::AccessList::only(&["bob"]),
            crate::rope::AccessList::only(&["bob"]),
        )
        .unwrap();
        // Bob can now edit (e.g. grant again).
        m.set_access(
            "bob",
            rope_id,
            crate::rope::AccessList::everyone(),
            crate::rope::AccessList::only(&["bob"]),
        )
        .unwrap();
    }

    #[test]
    fn reorganize_strand_rebinds_ropes_and_collects_old() {
        let mut m = mrs();
        let rope_id = record_av(&mut m, 2, 16);
        let old = m.rope(rope_id).unwrap().segments[0].video.unwrap().strand;
        let new = m.reorganize_strand(old, Instant::EPOCH).unwrap();
        assert_ne!(old, new);
        let rope = m.rope(rope_id).unwrap().clone();
        assert_eq!(rope.segments[0].video.unwrap().strand, new);
        // The old strand was garbage-collected.
        assert!(matches!(
            m.msm().strand(old),
            Err(FsError::UnknownStrand(_))
        ));
        // Content identical block for block.
        let s = m.msm().strand(new).unwrap();
        assert_eq!(s.block_count(), 20);
        // Still playable.
        let dur = rope.duration();
        let (_req, sched) = m
            .play("alice", rope_id, MediaSel::Video, Interval::whole(dur))
            .unwrap();
        assert_eq!(sched.items.len(), 20);
    }

    #[test]
    fn schedule_carries_shifted_triggers() {
        let mut m = mrs();
        let rope_id = record_av(&mut m, 4, 17);
        m.add_trigger("alice", rope_id, Nanos::from_secs(1), "one")
            .unwrap();
        m.add_trigger("alice", rope_id, Nanos::from_secs(3), "three")
            .unwrap();
        let rope = m.rope(rope_id).unwrap().clone();
        let sched = compile_schedule(
            &rope,
            MediaSel::Video,
            Interval::new(Nanos::from_millis(500), Nanos::from_secs(2)),
        )
        .unwrap();
        // Only the 1 s trigger lies in [0.5 s, 2.5 s); it shifts to 0.5 s.
        assert_eq!(sched.triggers.len(), 1);
        assert_eq!(sched.triggers[0].text, "one");
        assert_eq!(sched.triggers[0].at, Nanos::from_millis(500));
        // Play modes rescale trigger times with the media.
        let ff = apply_play_mode(&sched, 2.0, false);
        assert_eq!(ff.triggers[0].at, Nanos::from_millis(250));
    }

    #[test]
    fn record_rejected_when_server_full() {
        let mut m = mrs();
        // Saturate the server with recordings that are never stopped.
        let mut live = Vec::new();
        loop {
            match m.record(
                "alice",
                RecordOpts {
                    video: Some(video_opts()),
                    audio: None,
                },
            ) {
                Ok(req) => live.push(req),
                Err(FsError::AdmissionRejected { .. }) => break,
                Err(e) => panic!("unexpected {e}"),
            }
            assert!(live.len() < 200, "admission never rejected");
        }
        assert!(!live.is_empty());
    }

    fn vref(start_unit: u64, len_units: u64) -> StrandRef {
        StrandRef {
            strand: StrandId::from_raw(1),
            start_unit,
            len_units,
            unit_rate: 30.0,
            granularity: 3,
        }
    }

    fn aref(start_unit: u64, len_units: u64) -> StrandRef {
        StrandRef {
            strand: StrandId::from_raw(2),
            start_unit,
            len_units,
            unit_rate: 8_000.0,
            granularity: 800,
        }
    }

    /// Splice a video bridge of `count` blocks out of a copy of `seg` and
    /// check what every splice holds: the bridge starts at the copied
    /// unit's offset in its first copied block, the bridge and the rest
    /// cover the original video ref end to end, their timelines sum to
    /// the segment's and no companion unit is lost. Returns `(bridge,
    /// rest)`.
    fn spliced(seg: &Segment, side: CopySide, count: u64) -> (Segment, Segment) {
        let plan = CopyPlan { side, count };
        let new_strand = StrandId::from_raw(9);
        let mut rest = seg.clone();
        let bridge = splice_bridge(&mut rest, Medium::Video, plan, new_strand);
        let (v, b) = (seg.video.unwrap(), bridge.video.unwrap());
        let first = plan.first_block(&v);
        let lo = (first * v.granularity).max(v.start_unit);
        assert_eq!(b.strand, new_strand);
        assert_eq!(b.start_unit, lo - first * v.granularity);
        let copied = (lo, lo + b.len_units);
        let kept = rest.video.map(|r| (r.start_unit, r.end_unit()));
        let (head, tail) = match side {
            CopySide::Right => (Some(copied), kept),
            CopySide::Left => (kept, Some(copied)),
        };
        let (start, end) = (head.unwrap_or(copied).0, tail.unwrap_or(copied).1);
        assert_eq!((start, end), (v.start_unit, v.end_unit()));
        if let (Some(h), Some(t)) = (head, tail) {
            assert_eq!(h.1, t.0, "the two parts meet");
        }
        assert_eq!(bridge.duration + rest.duration, seg.duration);
        let units = |s: &Segment| s.audio.map_or(0, |a| a.len_units);
        assert_eq!(units(&bridge) + units(&rest), units(seg));
        (bridge, rest)
    }

    #[test]
    fn tail_split_moves_companion_into_bridge() {
        // 3 s of video and audio; a 1 s video bridge off the end takes
        // the last 1 s of audio along.
        let seg = Segment::new(Some(vref(0, 90)), Some(aref(0, 24_000)));
        let (bridge, rest) = spliced(&seg, CopySide::Left, 10);
        assert_eq!(rest.audio.unwrap().len_units, 16_000);
        assert_eq!(bridge.audio.unwrap().start_unit, 16_000);
        assert_eq!(bridge.duration, Nanos::from_secs(1));
        assert_eq!(rest.duration, Nanos::from_secs(2));
    }

    #[test]
    fn tail_split_whole_segment_bridge_takes_companion_whole() {
        // The video bridge spans the segment's entire timeline: the
        // companion must move into the bridge whole. A rounded split
        // would strand units in the zero-duration remainder, which the
        // heal's sweep then drops — lost media.
        let seg = Segment::new(Some(vref(0, 30)), Some(aref(0, 8_000)));
        let (bridge, rest) = spliced(&seg, CopySide::Left, 10);
        assert_eq!(bridge.audio.unwrap().len_units, 8_000);
        assert!(rest.is_empty(), "{rest:?}");
        assert_eq!(bridge.duration, Nanos::from_secs(1));
        assert_eq!(rest.duration, Nanos::ZERO);
    }

    #[test]
    fn head_split_takes_proportional_share_into_bridge() {
        // Right-side healing: the bridge occupies the first 1 s of the
        // 3 s timeline, so one third of the companion's units follow it.
        let seg = Segment::new(Some(vref(0, 90)), Some(aref(0, 24_000)));
        let (bridge, rest) = spliced(&seg, CopySide::Right, 10);
        assert_eq!(bridge.audio.unwrap().len_units, 8_000);
        assert_eq!(rest.audio.unwrap().start_unit, 8_000);
        assert_eq!(bridge.duration, Nanos::from_secs(1));
        assert_eq!(rest.duration, Nanos::from_secs(2));
    }

    #[test]
    fn head_split_whole_segment_bridge_takes_companion_whole() {
        // Mirror of the tail case: the bridge covers the whole segment,
        // the companion bridges whole and the remainder is empty.
        let seg = Segment::new(Some(vref(0, 30)), Some(aref(0, 8_000)));
        let (bridge, rest) = spliced(&seg, CopySide::Right, 10);
        assert_eq!(bridge.audio.unwrap().len_units, 8_000);
        assert!(rest.is_empty(), "{rest:?}");
        assert_eq!(rest.duration, Nanos::ZERO);
    }

    #[test]
    fn unaligned_refs_splice_on_either_side() {
        // Video units 4..89 at q = 3 start and end inside blocks 1 and
        // 29; the audio companion starts mid-block too.
        let seg = Segment::new(Some(vref(4, 85)), Some(aref(123, 22_667)));
        let (bridge, rest) = spliced(&seg, CopySide::Right, 4);
        // Blocks 1..5 hold units 3..15: the bridge copies them and plays
        // from unit 1 of its own first block.
        assert_eq!(bridge.video.unwrap().start_unit, 1);
        assert_eq!(bridge.video.unwrap().len_units, 11);
        assert_eq!(rest.video.unwrap().start_unit, 15);
        // Blocks 26..30 hold units 78..90; the ref ends at 89.
        let (bridge, rest) = spliced(&seg, CopySide::Left, 4);
        assert_eq!(bridge.video.unwrap().start_unit, 0);
        assert_eq!(bridge.video.unwrap().len_units, 11);
        assert_eq!(rest.video.unwrap().end_unit(), 78);
        // Copying every block the ref touches keeps its mid-block start.
        for side in [CopySide::Left, CopySide::Right] {
            let (bridge, rest) = spliced(&seg, side, 29);
            assert_eq!(bridge.video.unwrap().start_unit, 1);
            assert_eq!(bridge.video.unwrap().len_units, 85);
            assert!(rest.video.is_none());
        }
    }
}

//! Volume consistency checking — `fsck` for a continuous-media volume.
//!
//! Checks the cross-layer invariants that the rest of the system relies
//! on:
//!
//! 1. every stored media block and index block of every finished strand
//!    lies on the device and is marked allocated in the free map;
//! 2. no two strands' blocks overlap, nor overlap the journal region or
//!    a text file;
//! 3. each strand's on-disk index decodes and reconstructs the in-memory
//!    strand exactly: meta, blocks, checksum stamps, units and index
//!    extents;
//! 4. successive stored blocks of a strand respect the volume's
//!    scattering gap bounds (wrap transitions are reported, not errors —
//!    the allocator records them as anomalies by design);
//! 5. no allocated sector is reachable from nothing (the journal region,
//!    a text file or a strand, finished or recording);
//! 6. every rope in the catalog references only existing, finished
//!    strands, within their unit ranges, and holds matching interests.
//!
//! The checker is read-mostly (index verification re-reads the on-disk
//! blocks) and reports all findings rather than stopping at the first.
//!
//! # Repair mode
//!
//! [`repair_msm`] and [`repair_volume`] go further than reporting, and
//! repair applies check's rules inside the same walk: a strand whose
//! block map points at sectors that are off-device, unallocated or
//! claimed earlier is **truncated** to the blocks before the first bad
//! pointer (its index is rewritten); space that is allocated but
//! reachable from nothing is **released** back to the free map; and
//! rope references to missing or shortened strands are **dropped or
//! clamped**. Each fix is reported as a `Repaired*` finding and a second
//! check pass comes back clean — repair converges.

use crate::mrs::Mrs;
use crate::msm::Msm;
use crate::rope::Segment;
use crate::types::{RopeId, StrandId};
use std::collections::BTreeMap;
use std::fmt;
use strandfs_disk::Extent;
use strandfs_obs::{Event, RepairAction};
use strandfs_units::Instant;

/// One finding of a consistency check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Finding {
    /// A block extent extends beyond the device.
    ExtentOffDevice {
        /// The owning strand.
        strand: StrandId,
        /// The offending extent.
        extent: Extent,
    },
    /// A block extent is not marked allocated in the free map.
    ExtentNotAllocated {
        /// The owning strand.
        strand: StrandId,
        /// The offending extent.
        extent: Extent,
    },
    /// Two claims overlap.
    OverlappingExtents {
        /// First claimant (`u64::MAX` for the journal region or a text
        /// file).
        a: StrandId,
        /// Second claimant.
        b: StrandId,
        /// The overlapping region's start sector.
        at: u64,
    },
    /// The on-disk index does not reconstruct the in-memory strand.
    IndexMismatch {
        /// The strand whose index failed verification.
        strand: StrandId,
        /// What went wrong.
        detail: String,
    },
    /// A gap between successive stored blocks violates the volume's
    /// scattering bounds (forward gaps only; wraps are anomalies, see
    /// [`Report::wrap_gaps`]).
    GapOutOfBounds {
        /// The owning strand.
        strand: StrandId,
        /// Block number of the earlier block.
        after_block: u64,
        /// The measured gap in sectors.
        gap: u64,
    },
    /// A strand block lies on media the device reports as permanently
    /// bad: its content is unreadable and the strand needs healing
    /// (re-copying from a replica or splicing a silence hole).
    BlockOnBadMedia {
        /// The owning strand.
        strand: StrandId,
        /// The affected block extent.
        extent: Extent,
        /// The bad region it overlaps.
        bad: Extent,
    },
    /// A rope references a strand that does not exist or is not
    /// finished.
    DanglingStrandRef {
        /// The referencing rope.
        rope: RopeId,
        /// The missing strand.
        strand: StrandId,
    },
    /// A rope references units beyond a strand's recorded length.
    RefOutOfRange {
        /// The referencing rope.
        rope: RopeId,
        /// The referenced strand.
        strand: StrandId,
        /// One past the last unit referenced.
        end_unit: u64,
        /// The strand's unit count.
        unit_count: u64,
    },
    /// An allocated region is reachable from no strand, journal or text
    /// file.
    LeakedExtent {
        /// The region.
        extent: Extent,
    },
    /// Repair truncated a strand at its first bad block pointer and
    /// rewrote its index (`dropped_blocks == 0` means only the index
    /// was rebuilt). A strand truncated to zero blocks is deleted.
    RepairedTruncatedStrand {
        /// The repaired strand.
        strand: StrandId,
        /// Blocks kept (the intact prefix).
        kept_blocks: u64,
        /// Blocks dropped (the dangling tail).
        dropped_blocks: u64,
    },
    /// Repair released an allocated region reachable from no strand,
    /// journal or text file back to the free map.
    RepairedLeakedExtent {
        /// The region released.
        extent: Extent,
    },
    /// Repair dropped or clamped a rope's reference to a missing or
    /// shortened strand.
    RepairedRopeRef {
        /// The rope whose reference was fixed.
        rope: RopeId,
        /// The strand the reference pointed at.
        strand: StrandId,
    },
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Finding::ExtentOffDevice { strand, extent } => {
                write!(f, "{strand}: extent {extent:?} off device")
            }
            Finding::ExtentNotAllocated { strand, extent } => {
                write!(f, "{strand}: extent {extent:?} not marked allocated")
            }
            Finding::OverlappingExtents { a, b, at } => {
                write!(f, "{a} and {b} overlap at sector {at}")
            }
            Finding::IndexMismatch { strand, detail } => {
                write!(f, "{strand}: index mismatch: {detail}")
            }
            Finding::GapOutOfBounds {
                strand,
                after_block,
                gap,
            } => write!(
                f,
                "{strand}: gap {gap} sectors after block {after_block} out of bounds"
            ),
            Finding::BlockOnBadMedia {
                strand,
                extent,
                bad,
            } => write!(
                f,
                "{strand}: extent {extent:?} overlaps bad media region {bad:?}"
            ),
            Finding::DanglingStrandRef { rope, strand } => {
                write!(f, "{rope}: dangling reference to {strand}")
            }
            Finding::RefOutOfRange {
                rope,
                strand,
                end_unit,
                unit_count,
            } => write!(
                f,
                "{rope}: references {strand} units ..{end_unit} of {unit_count}"
            ),
            Finding::LeakedExtent { extent } => {
                write!(f, "extent {extent:?} allocated but reachable from nothing")
            }
            Finding::RepairedTruncatedStrand {
                strand,
                kept_blocks,
                dropped_blocks,
            } => write!(
                f,
                "repaired {strand}: kept {kept_blocks} blocks, dropped {dropped_blocks}"
            ),
            Finding::RepairedLeakedExtent { extent } => {
                write!(f, "repaired leak: released {extent:?}")
            }
            Finding::RepairedRopeRef { rope, strand } => {
                write!(f, "repaired {rope}: fixed reference to {strand}")
            }
        }
    }
}

/// The result of a volume check.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Consistency violations found.
    pub findings: Vec<Finding>,
    /// Strands checked.
    pub strands_checked: usize,
    /// Ropes checked.
    pub ropes_checked: usize,
    /// Backward (wrap) gaps observed — expected anomalies, not errors.
    pub wrap_gaps: usize,
}

impl Report {
    /// True if the volume is fully consistent.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Check the storage layer: what the walk finds (extents, allocation
/// marks, overlaps, index round-trips, scattering gaps), then every
/// leaked run.
pub fn check_msm(msm: &mut Msm, now: Instant) -> Report {
    let mut report = walk(msm, now, |_, _, _| {});
    let leaked = leaks(msm)
        .into_iter()
        .map(|extent| Finding::LeakedExtent { extent });
    report.findings.extend(leaked);
    report
}

/// Sector claims of a walk: start sector → (length, owner).
type Claims = BTreeMap<u64, (u64, StrandId)>;

/// The owner of the journal region's and the text files' claims, and
/// the strand a released leak's repair event names.
const VOLUME: StrandId = StrandId::from_raw(u64::MAX);

/// The one walk check and repair share. The claim map starts with the
/// journal region and the text files; every finished strand's stored
/// blocks, then its index extents, go through [`rule`]. A strand is cut
/// before its first unusable stored pointer, or at its full length when
/// an index extent is unusable or the index fails its round-trip (read
/// only while nothing else cut it). `cut(msm, id, keep)` runs before the
/// walk reads the next strand; a strand the cut rewrote claims what it
/// kept and wrote, and no more.
fn walk(msm: &mut Msm, now: Instant, mut cut: impl FnMut(&mut Msm, StrandId, u64)) -> Report {
    let mut report = Report::default();
    let mut claims = Claims::new();
    for e in msm
        .journal_region()
        .into_iter()
        .chain(msm.text_extents().iter().copied())
    {
        claims.insert(e.start, (e.sectors, VOLUME));
    }
    let bounds = msm.gap_bounds();
    for id in msm.strand_ids() {
        report.strands_checked += 1;
        let s = msm.strand(id).expect("listed id").clone();
        let mut keep = None;
        let mut prev: Option<(u64, Extent)> = None;
        for (n, e) in s.stored_iter() {
            if !rule(msm, id, e, &mut claims, &mut report.findings) {
                keep.get_or_insert(n);
            }
            match prev {
                Some((_, pe)) if e.start < pe.end() => report.wrap_gaps += 1,
                Some((pn, pe)) if !bounds.admits(e.start - pe.end()) => {
                    report.findings.push(Finding::GapOutOfBounds {
                        strand: id,
                        after_block: pn,
                        gap: e.start - pe.end(),
                    })
                }
                _ => {}
            }
            prev = Some((n, e));
        }
        let mut index_ok = true;
        for &e in s.index_extents() {
            index_ok &= rule(msm, id, e, &mut claims, &mut report.findings);
        }
        if let (None, true, Some(&header)) = (keep, index_ok, s.index_extents().last()) {
            let detail = match msm.load_strand(id, header, now) {
                Ok(l) => (l != s).then(|| "reloaded strand differs from memory".to_string()),
                Err(e) => Some(e.to_string()),
            };
            if let Some(detail) = detail {
                report
                    .findings
                    .push(Finding::IndexMismatch { strand: id, detail });
                index_ok = false;
            }
        }
        let Some(keep) = keep.or((!index_ok).then_some(s.block_count())) else {
            continue;
        };
        cut(msm, id, keep);
        let after = msm.strand(id).ok();
        if after.map(|a| (a.blocks(), a.index_extents())) != Some((s.blocks(), s.index_extents())) {
            claims.retain(|_, &mut (_, owner)| owner != id);
            for e in after.into_iter().flat_map(|s| s.extents()) {
                claims.insert(e.start, (e.sectors, id));
            }
        }
    }
    report
}

/// The one extent rule, for an extent `id` claims: it is reported when
/// it runs off the device, lies on bad media, is not allocated (a
/// zero-sector extent never is) or overlaps an earlier claim. Bad media
/// is the healing layer's to fix, not fsck's, so only the other three
/// make an extent unusable; a usable extent claims its sectors.
fn rule(msm: &Msm, id: StrandId, e: Extent, claims: &mut Claims, out: &mut Vec<Finding>) -> bool {
    if e.end() > msm.disk().geometry().total_sectors() {
        out.push(Finding::ExtentOffDevice {
            strand: id,
            extent: e,
        });
        return false;
    }
    for &bad in msm.disk().bad_extents().iter().filter(|b| e.overlaps(**b)) {
        out.push(Finding::BlockOnBadMedia {
            strand: id,
            extent: e,
            bad,
        });
    }
    let before = out.len();
    if e.sectors == 0 || !msm.allocator().freemap().extent_used(e) {
        out.push(Finding::ExtentNotAllocated {
            strand: id,
            extent: e,
        });
    }
    out.extend(overlaps(claims, id, e).map(|(a, at)| Finding::OverlappingExtents { a, b: id, at }));
    let usable = out.len() == before;
    if usable {
        claims.insert(e.start, (e.sectors, id));
    }
    usable
}

/// The earlier claims `e` overlaps, as `(owner, first shared sector)`:
/// the claim at or before `e`'s start that reaches into it, then the
/// first claim that starts past that sector inside it. `id` claiming the
/// very same start again is not an overlap.
fn overlaps(
    claims: &Claims,
    id: StrandId,
    e: Extent,
) -> impl Iterator<Item = (StrandId, u64)> + '_ {
    let before = claims
        .range(..=e.start)
        .next_back()
        .filter(|&(&start, &(len, owner))| {
            (owner != id || start != e.start) && start + len > e.start
        })
        .map(|(_, &(_, owner))| (owner, e.start));
    let inside = claims
        .range(e.start..e.end())
        .find(|&(&start, _)| start > e.start)
        .map(|(&start, &(_, owner))| (owner, start));
    before.into_iter().chain(inside)
}

/// The one leak rule: the allocated sectors nothing reaches — not the
/// journal region, a text file or any strand, finished or recording
/// ([`Msm::reachable`]) — as maximal runs.
fn leaks(msm: &Msm) -> Vec<Extent> {
    let mut unreached = msm.allocator().freemap().clone();
    for e in msm.reachable() {
        unreached.clear(e);
    }
    // A sound volume leaves nothing: skip the scan of every sector.
    if unreached.used() == 0 {
        return Vec::new();
    }
    // What is still allocated lies between the free runs.
    let mut leaks = Vec::new();
    let mut cursor = 0;
    let end = Extent::new(unreached.total(), 0);
    for free in unreached.free_extents().into_iter().chain([end]) {
        if free.start > cursor {
            leaks.push(Extent::new(cursor, free.start - cursor));
        }
        cursor = free.end();
    }
    leaks
}

/// Check the rope layer on top of the storage layer.
pub fn check_volume(mrs: &mut Mrs, now: Instant) -> Report {
    let rope_ids = mrs.rope_ids();
    let mut report = check_msm(mrs.msm_mut(), now);
    for rid in rope_ids {
        report.ropes_checked += 1;
        let rope = mrs.rope(rid).expect("listed id").clone();
        for seg in &rope.segments {
            for r in [&seg.video, &seg.audio].into_iter().flatten() {
                match mrs.msm().strand(r.strand) {
                    Err(_) => report.findings.push(Finding::DanglingStrandRef {
                        rope: rid,
                        strand: r.strand,
                    }),
                    Ok(s) => {
                        if r.end_unit() > s.unit_count() {
                            report.findings.push(Finding::RefOutOfRange {
                                rope: rid,
                                strand: r.strand,
                                end_unit: r.end_unit(),
                                unit_count: s.unit_count(),
                            });
                        }
                    }
                }
            }
        }
    }
    report
}

// ----- repair mode ------------------------------------------------------

/// Repair the storage layer in place, inside [`check_msm`]'s walk and by
/// its rules:
///
/// 1. every strand the walk cuts is truncated there and its index
///    rewritten, before the walk reads the next strand — a strand with
///    no intact prefix is deleted;
/// 2. every leak is released back to the free map and scrubbed.
///
/// The returned report lists the fixes as `Repaired*` findings; a
/// subsequent [`check_msm`] pass reports clean (bad-media findings
/// excepted — decayed media is the healing layer's job, not fsck's).
pub fn repair_msm(msm: &mut Msm, now: Instant) -> Report {
    let obs = msm.obs();
    let mut findings = Vec::new();
    let walked = walk(msm, now, |msm, id, keep| {
        let dropped = msm.strand(id).expect("walked").block_count() - keep;
        if let Err(e) = msm.truncate_strand(id, keep, now) {
            findings.push(Finding::IndexMismatch {
                strand: id,
                detail: format!("repair failed: {e}"),
            });
            return;
        }
        findings.push(Finding::RepairedTruncatedStrand {
            strand: id,
            kept_blocks: keep,
            dropped_blocks: dropped,
        });
        obs.emit(|| Event::Repair {
            action: RepairAction::TruncateStrand,
            strand: id.raw(),
            detail: dropped,
            at: now,
        });
    });
    for extent in leaks(msm) {
        msm.free(extent);
        findings.push(Finding::RepairedLeakedExtent { extent });
        obs.emit(|| Event::Repair {
            action: RepairAction::ReleaseExtent,
            strand: VOLUME.raw(),
            detail: extent.start,
            at: now,
        });
    }
    Report { findings, ..walked }
}

/// Repair the rope layer on top of [`repair_msm`]: references to
/// missing strands are dropped, references past a (possibly just
/// truncated) strand's length are clamped to it, and segments left
/// without any media are removed.
pub fn repair_volume(mrs: &mut Mrs, now: Instant) -> Report {
    let mut report = repair_msm(mrs.msm_mut(), now);
    let obs = mrs.msm().obs();
    for rid in mrs.rope_ids() {
        report.ropes_checked += 1;
        let segments = mrs.rope(rid).expect("listed id").segments.clone();
        let mut fixed: Vec<StrandId> = Vec::new();
        let mut repaired_segments = Vec::with_capacity(segments.len());
        for seg in segments {
            let mut media = [seg.video, seg.audio];
            for r in media.iter_mut() {
                let Some(sref) = r.as_mut() else { continue };
                match mrs.msm().strand(sref.strand) {
                    Err(_) => {
                        fixed.push(sref.strand);
                        *r = None;
                    }
                    Ok(s) => {
                        let avail = s.unit_count();
                        if sref.end_unit() > avail {
                            fixed.push(sref.strand);
                            if sref.start_unit >= avail {
                                *r = None;
                            } else {
                                sref.len_units = avail - sref.start_unit;
                            }
                        }
                    }
                }
            }
            let [video, audio] = media;
            let seg = Segment::new(video, audio);
            if !seg.is_empty() {
                repaired_segments.push(seg);
            }
        }
        if !fixed.is_empty() {
            mrs.rope_mut(rid).expect("listed id").segments = repaired_segments;
            for strand in fixed {
                report
                    .findings
                    .push(Finding::RepairedRopeRef { rope: rid, strand });
                let sid = strand.raw();
                obs.emit(|| Event::Repair {
                    action: RepairAction::RopeRef,
                    strand: sid,
                    detail: rid.raw(),
                    at: now,
                });
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msm::MsmConfig;
    use crate::strand::StrandMeta;
    use strandfs_disk::{DiskGeometry, GapBounds, SeekModel, SimDisk};
    use strandfs_media::Medium;
    use strandfs_units::Bits;

    fn msm() -> Msm {
        let disk = SimDisk::new(DiskGeometry::vintage_1991(), SeekModel::vintage_1991());
        Msm::new(
            disk,
            MsmConfig::constrained(
                GapBounds {
                    min_sectors: 0,
                    max_sectors: 40_000,
                },
                3,
            ),
        )
    }

    fn record(m: &mut Msm, blocks: u64) -> StrandId {
        let (id, t) = recording(m, blocks);
        m.finish_strand(id, t).unwrap();
        id
    }

    /// A strand begun and `blocks` blocks into its recording, with the
    /// instant its last append completed.
    fn recording(m: &mut Msm, blocks: u64) -> (StrandId, Instant) {
        let id = m.begin_strand(StrandMeta {
            medium: Medium::Video,
            unit_rate: 30.0,
            granularity: 3,
            unit_bits: Bits::new(96_000),
        });
        let mut t = Instant::EPOCH;
        for i in 0..blocks {
            let (_, op) = m
                .append_block(id, t, &vec![(i % 250) as u8; 36_000], 3)
                .unwrap();
            t = op.completed;
        }
        (id, t)
    }

    /// Strand `a` of 10 blocks, then strand `b` of one block recorded
    /// onto `a`'s block 1 after a corruption handed that block's sectors
    /// back to the free map: `(volume, a, b, the shared extent)`.
    fn overlapped() -> (Msm, StrandId, StrandId, Extent) {
        let mut m = msm();
        let a = record(&mut m, 10);
        let shared = m.strand(a).unwrap().block(1).unwrap().unwrap();
        m.allocator_mut().release(shared);
        let b = record(&mut m, 1);
        assert_eq!(m.strand(b).unwrap().block(0).unwrap(), Some(shared));
        (m, a, b, shared)
    }

    #[test]
    fn a_same_start_overlap_is_reported_once() {
        let (mut m, a, b, shared) = overlapped();
        let report = check_msm(&mut m, Instant::EPOCH);
        let overlaps: Vec<_> = report
            .findings
            .iter()
            .filter(|f| matches!(f, Finding::OverlappingExtents { .. }))
            .collect();
        let once = Finding::OverlappingExtents {
            a,
            b,
            at: shared.start,
        };
        assert_eq!(overlaps, [&once], "findings: {:?}", report.findings);
    }

    #[test]
    fn a_repaired_overlap_keeps_its_first_claimant() {
        let (mut m, a, b, shared) = overlapped();
        let repair = repair_msm(&mut m, Instant::EPOCH);
        assert!(m.strand(b).is_err(), "repair: {:?}", repair.findings);
        assert_eq!(m.strand(a).unwrap().block_count(), 10);
        assert!(m.allocator().freemap().extent_used(shared));
        let after = check_msm(&mut m, Instant::EPOCH);
        assert!(after.clean(), "after repair: {:?}", after.findings);
        let second = repair_msm(&mut m, Instant::EPOCH);
        assert!(second.clean(), "second pass: {:?}", second.findings);
    }

    #[test]
    fn repair_during_a_recording_keeps_its_blocks() {
        let mut m = msm();
        record(&mut m, 4);
        let (id, t) = recording(&mut m, 3);
        let used = m.allocator().freemap().used();
        let repair = repair_msm(&mut m, t);
        assert!(repair.clean(), "repair findings: {:?}", repair.findings);
        assert_eq!(m.allocator().freemap().used(), used);
        m.finish_strand(id, t).unwrap();
        assert_eq!(m.strand(id).unwrap().block_count(), 3);
        let after = check_msm(&mut m, t);
        assert!(after.clean(), "after finishing: {:?}", after.findings);
    }

    #[test]
    fn healthy_volume_is_clean() {
        let mut m = msm();
        record(&mut m, 20);
        record(&mut m, 20);
        let report = check_msm(&mut m, Instant::EPOCH);
        assert!(report.clean(), "findings: {:?}", report.findings);
        assert_eq!(report.strands_checked, 2);
        assert_eq!(report.wrap_gaps, 0);
    }

    #[test]
    fn wraps_are_reported_as_anomalies_not_errors() {
        let disk = SimDisk::new(DiskGeometry::tiny_test(), SeekModel::vintage_1991());
        let mut m = Msm::new(
            disk,
            MsmConfig::constrained(
                GapBounds {
                    min_sectors: 64,
                    max_sectors: 128,
                },
                1,
            ),
        );
        let id = m.begin_strand(StrandMeta {
            medium: Medium::Video,
            unit_rate: 30.0,
            granularity: 1,
            unit_bits: Bits::new(4_096),
        });
        let mut t = Instant::EPOCH;
        for i in 0..50u64 {
            match m.append_block(id, t, &vec![i as u8; 512], 1) {
                Ok((_, op)) => t = op.completed,
                Err(_) => break,
            }
        }
        m.finish_strand(id, t).unwrap();
        let report = check_msm(&mut m, t);
        assert!(report.wrap_gaps > 0, "expected wrap anomalies");
        // Wrap fall-back placement may legitimately exceed the forward
        // bound once per wrap; nothing else may be wrong.
        for f in &report.findings {
            assert!(
                matches!(f, Finding::GapOutOfBounds { .. }),
                "unexpected finding: {f}"
            );
        }
    }

    #[test]
    fn bad_media_under_a_strand_is_reported() {
        use strandfs_disk::FaultPlan;
        let disk = SimDisk::new(DiskGeometry::vintage_1991(), SeekModel::vintage_1991());
        let mut m = Msm::new(
            disk.with_fault_seed(7),
            MsmConfig::constrained(
                GapBounds {
                    min_sectors: 0,
                    max_sectors: 40_000,
                },
                3,
            ),
        );
        let id = record(&mut m, 10);
        let victim = m.strand(id).unwrap().block(4).unwrap().unwrap();
        // Mark one sector in the middle of block 4 bad, post-recording
        // (media decays after the write).
        m.arm_faults(FaultPlan::clean().with_bad_extent(Extent::new(victim.start + 1, 1)));
        let report = check_msm(&mut m, Instant::EPOCH);
        let hits: Vec<_> = report
            .findings
            .iter()
            .filter(|f| matches!(f, Finding::BlockOnBadMedia { .. }))
            .collect();
        assert_eq!(hits.len(), 1, "findings: {:?}", report.findings);
        assert!(matches!(
            hits[0],
            Finding::BlockOnBadMedia { strand, extent, .. } if *strand == id && *extent == victim
        ));
    }

    #[test]
    fn repair_truncates_at_a_dangling_pointer_and_converges() {
        let mut m = msm();
        let id = record(&mut m, 10);
        // Hand-corrupt: block 6's sectors vanish from the free map, as
        // if a crash lost the allocation metadata.
        let victim = m.strand(id).unwrap().block(6).unwrap().unwrap();
        m.allocator_mut().release(victim);
        let before = check_msm(&mut m, Instant::EPOCH);
        assert!(
            before
                .findings
                .iter()
                .any(|f| matches!(f, Finding::ExtentNotAllocated { .. })),
            "corruption must be visible first: {:?}",
            before.findings
        );
        let repair = repair_msm(&mut m, Instant::EPOCH);
        assert!(
            repair.findings.iter().any(|f| matches!(
                f,
                Finding::RepairedTruncatedStrand {
                    strand,
                    kept_blocks: 6,
                    dropped_blocks: 4,
                } if *strand == id
            )),
            "repair findings: {:?}",
            repair.findings
        );
        assert_eq!(m.strand(id).unwrap().block_count(), 6);
        // Convergence: the repaired volume checks clean and a second
        // repair pass has nothing left to fix.
        let after = check_msm(&mut m, Instant::EPOCH);
        assert!(after.clean(), "after repair: {:?}", after.findings);
        let second = repair_msm(&mut m, Instant::EPOCH);
        assert!(second.clean(), "second pass: {:?}", second.findings);
    }

    #[test]
    fn repair_rebuilds_an_index_off_bad_media() {
        use strandfs_disk::FaultPlan;
        let mut m = msm();
        let id = record(&mut m, 10);
        // The strand's first primary index sector decays: the index no
        // longer loads, and first-fit would reuse that very sector.
        let primary = m.strand(id).unwrap().index_extents()[0];
        m.arm_faults(FaultPlan::clean().with_bad_extent(primary));
        assert!(!check_msm(&mut m, Instant::EPOCH).clean());
        let repair = repair_msm(&mut m, Instant::EPOCH);
        assert!(
            repair.findings.iter().any(|f| matches!(
                f,
                Finding::RepairedTruncatedStrand { strand, kept_blocks: 10, .. } if *strand == id
            )),
            "repair findings: {:?}",
            repair.findings
        );
        let after = check_msm(&mut m, Instant::EPOCH);
        assert!(after.clean(), "after repair: {:?}", after.findings);
        // The fenced sector went back to the free map.
        assert!(m.allocator().freemap().extent_free(primary));
    }

    #[test]
    fn repair_deletes_a_strand_with_no_intact_prefix() {
        let mut m = msm();
        let id = record(&mut m, 4);
        let first = m.strand(id).unwrap().block(0).unwrap().unwrap();
        m.allocator_mut().release(first);
        let repair = repair_msm(&mut m, Instant::EPOCH);
        assert!(
            repair
                .findings
                .iter()
                .any(|f| matches!(f, Finding::RepairedTruncatedStrand { kept_blocks: 0, .. })),
            "repair findings: {:?}",
            repair.findings
        );
        assert!(m.strand(id).is_err(), "empty strand must be deleted");
        assert!(check_msm(&mut m, Instant::EPOCH).clean());
    }

    #[test]
    fn repair_releases_leaked_extents() {
        let mut m = msm();
        record(&mut m, 8);
        // Hand-corrupt: allocate space reachable from nothing, as if a
        // crash left an in-flight allocation behind.
        let leak = m.allocator_mut().allocate_anywhere(8).unwrap();
        assert!(m.allocator().freemap().extent_used(leak));
        let before = check_msm(&mut m, Instant::EPOCH);
        assert_eq!(
            before.findings,
            [Finding::LeakedExtent { extent: leak }],
            "check must see the leak repair releases"
        );
        let repair = repair_msm(&mut m, Instant::EPOCH);
        assert!(
            repair.findings.iter().any(|f| matches!(
                f,
                Finding::RepairedLeakedExtent { extent }
                    if extent.start <= leak.start && extent.end() >= leak.end()
            )),
            "repair findings: {:?}",
            repair.findings
        );
        assert!(m.allocator().freemap().extent_free(leak));
        let after = check_msm(&mut m, Instant::EPOCH);
        assert!(after.clean(), "after repair: {:?}", after.findings);
        assert!(repair_msm(&mut m, Instant::EPOCH).clean(), "converges");
    }

    #[test]
    fn repair_volume_clamps_rope_refs_to_a_truncated_strand() {
        use strandfs_sim_free::standard_volume_like;
        let mut mrs = standard_volume_like();
        let rid = mrs.rope_ids()[0];
        let sref = mrs.rope(rid).unwrap().segments[0]
            .video
            .expect("video segment");
        let id = sref.strand;
        // Hand-corrupt: the strand's last block loses its allocation.
        let last_block = mrs.msm().strand(id).unwrap().block_count() - 1;
        let victim = mrs
            .msm()
            .strand(id)
            .unwrap()
            .block(last_block)
            .unwrap()
            .unwrap();
        mrs.msm_mut().allocator_mut().release(victim);
        let repair = repair_volume(&mut mrs, Instant::EPOCH);
        assert!(
            repair
                .findings
                .iter()
                .any(|f| matches!(f, Finding::RepairedTruncatedStrand { .. })),
            "repair findings: {:?}",
            repair.findings
        );
        assert!(
            repair.findings.iter().any(
                |f| matches!(f, Finding::RepairedRopeRef { rope, strand } if *rope == rid && *strand == id)
            ),
            "repair findings: {:?}",
            repair.findings
        );
        // The clamped reference now fits the shortened strand and the
        // volume checks clean end to end.
        let units = mrs.msm().strand(id).unwrap().unit_count();
        let clamped = mrs.rope(rid).unwrap().segments[0]
            .video
            .expect("still present");
        assert!(clamped.end_unit() <= units);
        let after = check_volume(&mut mrs, Instant::EPOCH);
        assert!(after.clean(), "after repair: {:?}", after.findings);
        assert!(repair_volume(&mut mrs, Instant::EPOCH).clean());
    }

    #[test]
    fn rope_layer_checks_through_mrs() {
        use strandfs_sim_free::standard_volume_like;
        let mut mrs = standard_volume_like();
        let report = check_volume(&mut mrs, Instant::EPOCH);
        assert!(report.clean(), "findings: {:?}", report.findings);
        assert!(report.ropes_checked >= 1);
    }

    /// Random corruptions of small volumes — a block or an index extent
    /// handed back to the free map (and perhaps recorded over), a leak,
    /// decayed media under an index extent — each repaired once: check
    /// saw something wherever repair fixed something, the repaired volume
    /// checks clean but for bad media, and a second repair is a no-op.
    #[test]
    fn repair_converges_on_random_corruptions() {
        use strandfs_disk::FaultPlan;
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut draw = |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        for case in 0..40 {
            let mut m = msm();
            let mut ids: Vec<StrandId> = (0..1 + draw(4))
                .map(|_| record(&mut m, 1 + draw(12)))
                .collect();
            for _ in 0..1 + draw(4) {
                let Ok(s) = m.strand(ids[draw(ids.len() as u64) as usize]) else {
                    continue;
                };
                let block = s.block(draw(s.block_count())).unwrap().unwrap();
                let index = s.index_extents()[draw(s.index_extents().len() as u64) as usize];
                let used = |m: &Msm, e| m.allocator().freemap().extent_used(e);
                match draw(5) {
                    0 if used(&m, block) => m.allocator_mut().release(block),
                    1 if used(&m, block) => {
                        m.allocator_mut().release(block);
                        ids.push(record(&mut m, 1 + draw(3)));
                    }
                    2 => drop(m.allocator_mut().allocate_anywhere(1 + draw(20))),
                    3 => m.arm_faults(FaultPlan::clean().with_bad_extent(index)),
                    4 if used(&m, index) => m.allocator_mut().release(index),
                    _ => {}
                }
            }
            let before = check_msm(&mut m, Instant::EPOCH);
            let repair = repair_msm(&mut m, Instant::EPOCH);
            let seen = format!(
                "case {case}: {:?}, repaired {:?}",
                before.findings, repair.findings
            );
            assert!(repair.clean() || !before.clean(), "{seen}");
            let after = check_msm(&mut m, Instant::EPOCH);
            let media = |f: &Finding| matches!(f, Finding::BlockOnBadMedia { .. });
            assert!(
                after.findings.iter().all(media),
                "{seen}, after {:?}",
                after.findings
            );
            let second = repair_msm(&mut m, Instant::EPOCH);
            assert!(second.clean(), "{seen}, second {:?}", second.findings);
        }
    }

    // A tiny local stand-in for the sim crate's standard_volume (the
    // core crate cannot depend on strandfs-sim).
    mod strandfs_sim_free {
        use super::*;
        use crate::mrs::{Mrs, RecordOpts, TrackOpts};

        pub fn standard_volume_like() -> Mrs {
            let mut mrs = Mrs::new(msm());
            let req = mrs
                .record(
                    "alice",
                    RecordOpts {
                        video: Some(TrackOpts {
                            meta: StrandMeta {
                                medium: Medium::Video,
                                unit_rate: 30.0,
                                granularity: 3,
                                unit_bits: Bits::new(96_000),
                            },
                            silence: None,
                        }),
                        audio: None,
                    },
                )
                .unwrap();
            let mut t = Instant::EPOCH;
            for i in 0..30u64 {
                if let Some(op) = mrs
                    .record_video_frame(req, t, &vec![(i % 250) as u8; 12_000])
                    .unwrap()
                {
                    t = op.completed;
                }
            }
            mrs.stop(req, t).unwrap().unwrap();
            mrs
        }
    }
}

//! Volume consistency checking — `fsck` for a continuous-media volume.
//!
//! Checks the cross-layer invariants that the rest of the system relies
//! on:
//!
//! 1. every stored media block and index block of every finished strand
//!    lies on the device and is marked allocated in the free map;
//! 2. no two strands' blocks overlap;
//! 3. each strand's on-disk index decodes and reconstructs the in-memory
//!    block map exactly;
//! 4. successive stored blocks of a strand respect the volume's
//!    scattering gap bounds (wrap transitions are reported, not errors —
//!    the allocator records them as anomalies by design);
//! 5. every rope in the catalog references only existing, finished
//!    strands, within their unit ranges, and holds matching interests.
//!
//! The checker is read-mostly (index verification re-reads the on-disk
//! blocks) and reports all findings rather than stopping at the first.
//!
//! # Repair mode
//!
//! [`repair_msm`] and [`repair_volume`] go further than reporting: a
//! strand whose block map points at sectors that are off-device,
//! unallocated or claimed by another strand is **truncated** to the
//! blocks before the first bad pointer (its index is rewritten); space
//! that is allocated but reachable from no strand, rope, journal or
//! text file is **released** back to the free map; and rope references
//! to missing or shortened strands are **dropped or clamped**. Each fix
//! is reported as a `Repaired*` finding and a second check pass comes
//! back clean — repair converges.

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
    /// Two strands claim overlapping sectors.
    OverlappingExtents {
        /// First claimant.
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

/// Check the storage layer: strand extents, allocation marks, overlaps,
/// index round-trips and scattering gaps.
pub fn check_msm(msm: &mut Msm, now: Instant) -> Report {
    let mut report = Report::default();
    let total = msm.disk().geometry().total_sectors();
    let bad: Vec<Extent> = msm.disk().bad_extents().to_vec();
    let bounds = msm.gap_bounds();
    let ids = msm.strand_ids();
    let mut claims = Claims::new();

    for id in &ids {
        report.strands_checked += 1;
        let (blocks, index_extents, header) = {
            let s = msm.strand(*id).expect("listed id");
            (
                s.blocks().to_vec(),
                s.index_extents().to_vec(),
                s.index_extents().last().copied(),
            )
        };
        let mut prev: Option<(u64, Extent)> = None;
        for (n, block) in blocks.iter().enumerate() {
            let Some(e) = block else { continue };
            check_extent(msm, *id, *e, total, &bad, &mut claims, &mut report);
            if let Some((pn, pe)) = prev {
                if e.start >= pe.end() {
                    let gap = e.start - pe.end();
                    if !bounds.admits(gap) {
                        report.findings.push(Finding::GapOutOfBounds {
                            strand: *id,
                            after_block: pn,
                            gap,
                        });
                    }
                } else {
                    report.wrap_gaps += 1;
                }
            }
            prev = Some((n as u64, *e));
        }
        for e in &index_extents {
            check_extent(msm, *id, *e, total, &bad, &mut claims, &mut report);
        }
        // Index round-trip from disk.
        if let Some(header_extent) = header {
            match msm.load_strand(*id, header_extent, now) {
                Ok(loaded) => {
                    let orig = msm.strand(*id).expect("listed id");
                    if loaded.blocks() != orig.blocks() || loaded.unit_count() != orig.unit_count()
                    {
                        report.findings.push(Finding::IndexMismatch {
                            strand: *id,
                            detail: "reloaded strand differs from memory".into(),
                        });
                    }
                }
                Err(e) => report.findings.push(Finding::IndexMismatch {
                    strand: *id,
                    detail: e.to_string(),
                }),
            }
        }
    }
    report
}

fn check_extent(
    msm: &Msm,
    id: StrandId,
    e: Extent,
    total: u64,
    bad: &[Extent],
    claims: &mut Claims,
    report: &mut Report,
) {
    if e.end() > total {
        report.findings.push(Finding::ExtentOffDevice {
            strand: id,
            extent: e,
        });
        return;
    }
    for b in bad {
        if e.overlaps(*b) {
            report.findings.push(Finding::BlockOnBadMedia {
                strand: id,
                extent: e,
                bad: *b,
            });
        }
    }
    if !msm.allocator().freemap().extent_used(e) {
        report.findings.push(Finding::ExtentNotAllocated {
            strand: id,
            extent: e,
        });
    }
    for (a, at) in overlaps(claims, id, e) {
        report
            .findings
            .push(Finding::OverlappingExtents { a, b: id, at });
    }
    claims.insert(e.start, (e.sectors, id));
}

/// Sector claims of a walk: start sector → (length, owner).
type Claims = BTreeMap<u64, (u64, StrandId)>;

/// The earlier claims `e` overlaps, as `(owner, first shared sector)`:
/// the claim before `e` that reaches into it, then the first claim that
/// starts inside it. `id` claiming the very same start again is not an
/// overlap.
fn overlaps(
    claims: &Claims,
    id: StrandId,
    e: Extent,
) -> impl Iterator<Item = (StrandId, u64)> + '_ {
    let other = move |start: u64, owner: StrandId| owner != id || start != e.start;
    let before = claims
        .range(..=e.start)
        .next_back()
        .filter(|&(&start, &(len, owner))| other(start, owner) && start + len > e.start)
        .map(|(_, &(_, owner))| (owner, e.start));
    let inside = claims
        .range(e.start..e.end())
        .next()
        .filter(|&(&start, &(_, owner))| other(start, owner))
        .map(|(&start, &(_, owner))| (owner, start));
    before.into_iter().chain(inside)
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

/// Pseudo-owner for non-strand claims (journal region, text files) in
/// the repair walk's overlap map.
const RESERVED_OWNER: u64 = u64::MAX;

/// True when an extent cannot be part of a healthy strand: it runs off
/// the device, the free map does not hold it allocated, or an earlier
/// claimant already owns (part of) its sectors.
fn extent_bad(msm: &Msm, id: StrandId, e: Extent, total: u64, claims: &Claims) -> bool {
    e.end() > total
        || e.sectors == 0
        || !msm.allocator().freemap().extent_used(e)
        || overlaps(claims, id, e).next().is_some()
}

/// Merge possibly-overlapping `(start, end)` intervals into a sorted
/// disjoint list.
fn merge_intervals(mut v: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    v.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(v.len());
    for (s, e) in v {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// Subtract the (merged, sorted) `keep` intervals from `from`,
/// returning what remains of `from`.
fn subtract_intervals(from: &[(u64, u64)], keep: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    for &(mut s, e) in from {
        for &(ks, ke) in keep {
            if ke <= s || ks >= e {
                continue;
            }
            if ks > s {
                out.push((s, ks));
            }
            s = s.max(ke);
            if s >= e {
                break;
            }
        }
        if s < e {
            out.push((s, e));
        }
    }
    out
}

/// Repair the storage layer in place:
///
/// 1. every strand is truncated at its first bad block pointer (and its
///    index rewritten when the index itself is damaged or fails its
///    round-trip) — a strand with no intact prefix is deleted;
/// 2. allocated space reachable from no strand, the journal region or
///    a text file is released back to the free map and scrubbed.
///
/// The returned report lists the fixes as `Repaired*` findings; a
/// subsequent [`check_msm`] pass reports clean (bad-media findings
/// excepted — decayed media is the healing layer's job, not fsck's).
pub fn repair_msm(msm: &mut Msm, now: Instant) -> Report {
    let obs = msm.obs();
    let mut report = Report::default();
    let total = msm.disk().geometry().total_sectors();
    let ids = msm.strand_ids();
    let mut claims = Claims::new();
    let reserved = StrandId::from_raw(RESERVED_OWNER);
    if let Some(region) = msm.journal_region() {
        claims.insert(region.start, (region.sectors, reserved));
    }
    for e in msm.text_extents().to_vec() {
        claims.insert(e.start, (e.sectors, reserved));
    }

    for id in &ids {
        report.strands_checked += 1;
        let (blocks, index_extents, unit_count) = {
            let s = msm.strand(*id).expect("listed id");
            (
                s.blocks().to_vec(),
                s.index_extents().to_vec(),
                s.unit_count(),
            )
        };
        let count = blocks.len() as u64;
        // The intact prefix ends at the first bad stored pointer. Good
        // blocks claim their sectors immediately so intra-strand
        // self-overlaps are caught too.
        let mut keep = count;
        for (n, block) in blocks.iter().enumerate() {
            let Some(e) = block else { continue };
            if extent_bad(msm, *id, *e, total, &claims) {
                keep = n as u64;
                break;
            }
            claims.insert(e.start, (e.sectors, *id));
        }
        let mut rebuild = keep < count;
        if !rebuild {
            rebuild = index_extents
                .iter()
                .any(|e| extent_bad(msm, *id, *e, total, &claims));
        }
        if !rebuild {
            if let Some(header) = index_extents.last() {
                rebuild = match msm.load_strand(*id, *header, now) {
                    Ok(loaded) => {
                        loaded.blocks() != &blocks[..] || loaded.unit_count() != unit_count
                    }
                    Err(_) => true,
                };
            }
        }
        if rebuild {
            let dropped = count - keep;
            if let Err(e) = msm.truncate_strand(*id, keep, now) {
                report.findings.push(Finding::IndexMismatch {
                    strand: *id,
                    detail: format!("repair failed: {e}"),
                });
                continue;
            }
            report.findings.push(Finding::RepairedTruncatedStrand {
                strand: *id,
                kept_blocks: keep,
                dropped_blocks: dropped,
            });
            let sid = id.raw();
            obs.emit(|| Event::Repair {
                action: RepairAction::TruncateStrand,
                strand: sid,
                detail: dropped,
                at: now,
            });
        }
        // Claim whatever survived (including a rebuilt index) so later
        // strands pointing into it are truncated, not this one.
        if let Ok(s) = msm.strand(*id) {
            for e in s.index_extents() {
                claims.insert(e.start, (e.sectors, *id));
            }
        }
    }

    // Leak sweep: allocated space minus everything reachable.
    let mut reachable: Vec<(u64, u64)> = Vec::new();
    if let Some(region) = msm.journal_region() {
        reachable.push((region.start, region.end()));
    }
    for e in msm.text_extents() {
        reachable.push((e.start, e.end()));
    }
    for id in msm.strand_ids() {
        let s = msm.strand(id).expect("listed id");
        reachable.extend(s.extents().map(|e| (e.start, e.end())));
    }
    let reachable = merge_intervals(reachable);
    let mut allocated: Vec<(u64, u64)> = Vec::new();
    let mut cursor = 0u64;
    for free in msm.allocator().freemap().free_extents() {
        if free.start > cursor {
            allocated.push((cursor, free.start));
        }
        cursor = free.end();
    }
    if cursor < total {
        allocated.push((cursor, total));
    }
    for (s, e) in subtract_intervals(&allocated, &reachable) {
        let extent = Extent::new(s, e - s);
        msm.free(extent);
        report
            .findings
            .push(Finding::RepairedLeakedExtent { extent });
        obs.emit(|| Event::Repair {
            action: RepairAction::ReleaseExtent,
            strand: RESERVED_OWNER,
            detail: extent.start,
            at: now,
        });
    }
    report
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
        m.finish_strand(id, t).unwrap();
        id
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

//! Property-based tests over the core invariants: index encoding,
//! rope-edit algebra, allocator constraints, admission monotonicity.
//!
//! Runs on the in-tree `strandfs-testkit` harness: inputs are drawn from
//! a seeded deterministic PRNG (`STRANDFS_TEST_SEED` to replay,
//! `STRANDFS_TEST_CASES` to rescale) and failures are shrunk before
//! being reported.

use strandfs::core::admission::{Aggregates, RequestSpec};
use strandfs::core::model::DiskParams;
use strandfs::core::rope::edit::{self, Interval, MediaSel};
use strandfs::core::rope::{Rope, Segment, StrandRef};
use strandfs::core::strand::index::{
    build_primaries, HeaderBlock, IndexPtr, PrimaryBlock, PrimaryEntry, SecondaryBlock,
    SecondaryEntry,
};
use strandfs::core::{RopeId, StrandId};
use strandfs::disk::{
    block_sum, block_sum_padded, fnv1a, AllocPolicy, Allocator, DiskGeometry, Extent, GapBounds,
    Lba, SeekModel, SimDisk,
};
use strandfs::units::{BitRate, Bits, Bytes, Nanos, Prng, Seconds};
use strandfs_testkit::{
    any_bool, check, check_with, prop_assert, prop_assert_eq, prop_assume, vec as prop_vec,
    CaseError, Config,
};

// ---------- index encoding ----------

/// `(silence, sector, sector_count)` → a [`PrimaryEntry`]; stored
/// entries carry a sector-derived payload checksum stamp.
fn primary_entry((silence, sector, sector_count): (bool, u64, u32)) -> PrimaryEntry {
    if silence {
        PrimaryEntry::SILENCE
    } else {
        PrimaryEntry {
            sector,
            sector_count,
            sum: sector ^ 0x00C0_FFEE,
        }
    }
}

#[test]
fn primary_block_round_trips() {
    check(
        "primary_block_round_trips",
        prop_vec((any_bool(), 0u64..1 << 40, 1u32..1 << 16), 0..25),
        |raw| {
            let pb = PrimaryBlock {
                entries: raw.iter().copied().map(primary_entry).collect(),
            };
            let bytes = pb.encode(512);
            prop_assert_eq!(bytes.len(), 512);
            prop_assert_eq!(PrimaryBlock::decode(&bytes).unwrap(), pb);
            Ok(())
        },
    );
}

#[test]
fn secondary_block_round_trips() {
    check(
        "secondary_block_round_trips",
        prop_vec(
            (0u64..1 << 40, 1u32..1 << 16, 0u64..1 << 40, 1u32..8),
            0..21,
        ),
        |raw| {
            let sb = SecondaryBlock {
                entries: raw
                    .iter()
                    .map(
                        |&(start_block, block_count, sector, sector_count)| SecondaryEntry {
                            start_block,
                            block_count,
                            sector,
                            sector_count,
                        },
                    )
                    .collect(),
            };
            let bytes = sb.encode(512);
            prop_assert_eq!(SecondaryBlock::decode(&bytes).unwrap(), sb);
            Ok(())
        },
    );
}

#[test]
fn header_block_round_trips() {
    check(
        "header_block_round_trips",
        (
            1.0f64..100_000.0,
            1u64..10_000,
            1u64..1 << 24,
            0u64..1 << 40,
            0u64..1 << 32,
            prop_vec((0u64..1 << 40, 1u32..8), 0..30),
            any_bool(),
        ),
        |(rate, granularity, unit_bits, unit_count, block_count, ptrs, audio)| {
            let hb = HeaderBlock {
                medium: if *audio {
                    strandfs::media::Medium::Audio
                } else {
                    strandfs::media::Medium::Video
                },
                unit_rate: *rate,
                granularity: *granularity,
                unit_bits: *unit_bits,
                unit_count: *unit_count,
                block_count: *block_count,
                secondaries: ptrs
                    .iter()
                    .map(|&(sector, sector_count)| IndexPtr {
                        sector,
                        sector_count,
                    })
                    .collect(),
            };
            let bytes = hb.encode(512);
            prop_assert_eq!(HeaderBlock::decode(&bytes).unwrap(), hb);
            Ok(())
        },
    );
}

#[test]
fn build_primaries_preserves_every_block() {
    check(
        "build_primaries_preserves_every_block",
        (
            prop_vec((any_bool(), 0u64..1 << 30, 1u64..64), 0..400),
            1usize..64,
        ),
        |(raw, per_primary)| {
            let blocks: Vec<Option<Extent>> = raw
                .iter()
                .map(|&(hole, s, n)| if hole { None } else { Some(Extent::new(s, n)) })
                .collect();
            let sums: Vec<u64> = raw.iter().map(|&(_, s, _)| s ^ 0x5AFE).collect();
            let (pbs, coverage) = build_primaries(&blocks, &sums, *per_primary);
            let rebuilt: Vec<Option<Extent>> = pbs
                .iter()
                .flat_map(|pb| pb.entries.iter().map(|e| e.extent()))
                .collect();
            prop_assert_eq!(&rebuilt, &blocks);
            // Stored entries carry their stamped sums at the right offsets.
            let flat: Vec<PrimaryEntry> = pbs
                .iter()
                .flat_map(|pb| pb.entries.iter().copied())
                .collect();
            for (i, e) in flat.iter().enumerate() {
                if !e.is_silence() {
                    prop_assert_eq!(e.sum, sums[i]);
                }
            }
            // Coverage tiles the block range exactly.
            let mut next = 0u64;
            for (start, count) in &coverage {
                prop_assert_eq!(*start, next);
                next += *count as u64;
            }
            prop_assert_eq!(next, blocks.len() as u64);
            Ok(())
        },
    );
}

// ---------- rope edit algebra ----------

fn test_rope(video_units: u64, audio_units: u64) -> Rope {
    let mut rope = Rope::new(RopeId::from_raw(1), "p");
    rope.segments.push(Segment::new(
        Some(StrandRef {
            strand: StrandId::from_raw(1),
            start_unit: 0,
            len_units: video_units,
            unit_rate: 30.0,
            granularity: 3,
        }),
        Some(StrandRef {
            strand: StrandId::from_raw(2),
            start_unit: 0,
            len_units: audio_units,
            unit_rate: 8_000.0,
            granularity: 800,
        }),
    ));
    rope
}

#[test]
fn substring_length_is_interval_length() {
    check(
        "substring_length_is_interval_length",
        (30u64..3_000, 0u64..10_000, 100u64..10_000),
        |&(frames, start_ms, len_ms)| {
            let rope = test_rope(frames, frames * 8_000 / 30);
            let dur_ms = rope.duration().as_nanos() / 1_000_000;
            prop_assume!(start_ms + len_ms <= dur_ms);
            let iv = Interval::new(Nanos::from_millis(start_ms), Nanos::from_millis(len_ms));
            let sub = edit::substring(&rope, MediaSel::Both, iv).unwrap();
            sub.check_invariants().unwrap();
            let got = sub.duration().as_nanos() as i128;
            let want = iv.len.as_nanos() as i128;
            // Exact to within one media unit of rounding.
            prop_assert!((got - want).abs() <= 34_000_000, "got {got} want {want}");
            Ok(())
        },
    );
}

#[test]
fn insert_then_delete_restores_duration() {
    check(
        "insert_then_delete_restores_duration",
        (60u64..1_500, 30u64..600, 0u64..2_000),
        |&(frames, clip_frames, pos_ms)| {
            let base = test_rope(frames, frames * 8_000 / 30);
            let clip = test_rope(clip_frames, clip_frames * 8_000 / 30);
            let base_dur = base.duration();
            prop_assume!(Nanos::from_millis(pos_ms) <= base_dur);
            let clip_dur = clip.duration();
            let inserted = edit::insert(
                &base,
                Nanos::from_millis(pos_ms),
                MediaSel::Both,
                &clip,
                Interval::whole(clip_dur),
            )
            .unwrap();
            inserted.check_invariants().unwrap();
            let grew = inserted.duration().as_nanos() as i128 - base_dur.as_nanos() as i128;
            prop_assert!((grew - clip_dur.as_nanos() as i128).abs() <= 34_000_000);
            let removed = edit::delete(
                &inserted,
                MediaSel::Both,
                Interval::new(Nanos::from_millis(pos_ms), clip_dur),
            )
            .unwrap();
            removed.check_invariants().unwrap();
            let back = removed.duration().as_nanos() as i128 - base_dur.as_nanos() as i128;
            prop_assert!(back.abs() <= 67_000_000, "off by {back}");
            Ok(())
        },
    );
}

#[test]
fn concat_duration_is_sum() {
    check(
        "concat_duration_is_sum",
        (30u64..1_000, 30u64..1_000),
        |&(f1, f2)| {
            let a = test_rope(f1, f1 * 8_000 / 30);
            let b = test_rope(f2, f2 * 8_000 / 30);
            let joined = edit::concat(&a, &b);
            joined.check_invariants().unwrap();
            let got = joined.duration().as_nanos() as i128;
            let want = (a.duration() + b.duration()).as_nanos() as i128;
            prop_assert!((got - want).abs() <= 2);
            Ok(())
        },
    );
}

#[test]
fn edits_never_invent_strands() {
    check(
        "edits_never_invent_strands",
        (60u64..1_000, 0u64..1_000, 100u64..1_000),
        |&(frames, start_ms, len_ms)| {
            let rope = test_rope(frames, frames * 8_000 / 30);
            let dur_ms = rope.duration().as_nanos() / 1_000_000;
            prop_assume!(start_ms + len_ms <= dur_ms);
            let iv = Interval::new(Nanos::from_millis(start_ms), Nanos::from_millis(len_ms));
            let ids = rope.strand_ids();
            for edited in [
                edit::substring(&rope, MediaSel::Both, iv).unwrap(),
                edit::delete(&rope, MediaSel::Both, iv).unwrap(),
                edit::insert(
                    &rope,
                    Nanos::from_millis(start_ms),
                    MediaSel::Both,
                    &rope,
                    iv,
                )
                .unwrap(),
            ] {
                prop_assert!(edited.strand_ids().is_subset(&ids));
            }
            Ok(())
        },
    );
}

// ---------- multi-segment rope algebra ----------

/// A rope of `n` segments, each from distinct strand pairs, with varied
/// lengths.
fn multi_rope(seg_frames: &[u64]) -> Rope {
    let mut rope = Rope::new(RopeId::from_raw(9), "p");
    for (i, &frames) in seg_frames.iter().enumerate() {
        rope.segments.push(Segment::new(
            Some(StrandRef {
                strand: StrandId::from_raw(100 + i as u64),
                start_unit: 0,
                len_units: frames,
                unit_rate: 30.0,
                granularity: 3,
            }),
            Some(StrandRef {
                strand: StrandId::from_raw(200 + i as u64),
                start_unit: 0,
                len_units: frames * 8_000 / 30,
                unit_rate: 8_000.0,
                granularity: 800,
            }),
        ));
    }
    rope
}

/// The multi-segment cut/splice property, shared by the generated cases
/// and the pinned regression below.
fn multi_segment_property(
    seg_frames: &[u64],
    cut_start_pct: u64,
    cut_len_pct: u64,
) -> Result<(), CaseError> {
    let rope = multi_rope(seg_frames);
    rope.check_invariants().unwrap();
    let dur = rope.duration();
    let start = Nanos::from_nanos(dur.as_nanos() * cut_start_pct / 100);
    let len = Nanos::from_nanos(dur.as_nanos() * cut_len_pct / 100);
    let iv = Interval::new(start, len);

    let sub = edit::substring(&rope, MediaSel::Both, iv).unwrap();
    sub.check_invariants().unwrap();
    prop_assert!(sub.strand_ids().is_subset(&rope.strand_ids()));

    let cut = edit::delete(&rope, MediaSel::Both, iv).unwrap();
    cut.check_invariants().unwrap();
    // substring + remainder conserve total duration to unit rounding.
    let total = sub.duration() + cut.duration();
    let delta = total.as_nanos() as i128 - dur.as_nanos() as i128;
    prop_assert!(delta.abs() <= 67_000_000, "off by {delta} ns");

    // Re-inserting the substring at the cut point restores duration.
    let restored = edit::insert(
        &cut,
        start,
        MediaSel::Both,
        &sub,
        Interval::whole(sub.duration()),
    )
    .unwrap();
    restored.check_invariants().unwrap();
    let delta2 = restored.duration().as_nanos() as i128 - dur.as_nanos() as i128;
    prop_assert!(delta2.abs() <= 134_000_000, "off by {delta2} ns");
    Ok(())
}

#[test]
fn multi_segment_edits_hold_invariants() {
    check(
        "multi_segment_edits_hold_invariants",
        (prop_vec(30u64..600, 2..5), 0u64..80, 5u64..20),
        |(seg_frames, cut_start_pct, cut_len_pct)| {
            multi_segment_property(seg_frames, *cut_start_pct, *cut_len_pct)
        },
    );
}

/// Pinned regression (formerly `tests/proptests.proptest-regressions`):
/// a three-segment cut landing on a segment boundary once double-counted
/// the boundary unit. Shrunk input preserved verbatim.
#[test]
fn multi_segment_regression_boundary_cut() {
    multi_segment_property(&[107, 74, 73], 8, 6).unwrap();
}

#[test]
fn single_medium_delete_preserves_duration_multi() {
    check(
        "single_medium_delete_preserves_duration_multi",
        (prop_vec(60u64..300, 2..4), 0u64..70, 5u64..25),
        |(seg_frames, start_pct, len_pct)| {
            let rope = multi_rope(seg_frames);
            let dur = rope.duration();
            let iv = Interval::new(
                Nanos::from_nanos(dur.as_nanos() * start_pct / 100),
                Nanos::from_nanos(dur.as_nanos() * len_pct / 100),
            );
            let out = edit::delete(&rope, MediaSel::Audio, iv).unwrap();
            out.check_invariants().unwrap();
            prop_assert_eq!(out.duration(), dur, "blanking must not change length");
            // Video track untouched: same total video units.
            let vu = |r: &Rope| -> u64 {
                r.segments
                    .iter()
                    .filter_map(|s| s.video.map(|v| v.len_units))
                    .sum()
            };
            prop_assert_eq!(vu(&out), vu(&rope));
            Ok(())
        },
    );
}

// ---------- allocator constraints ----------

#[test]
fn constrained_allocator_always_honours_bounds() {
    check_with(
        &Config::with_cases(64),
        "constrained_allocator_always_honours_bounds",
        (0u64..128, 1u64..512, 1u64..48, 1usize..200, 0u64..1_000),
        |&(min_gap, extra, block, blocks, seed)| {
            let max_gap = min_gap + extra;
            let bounds = GapBounds {
                min_sectors: min_gap,
                max_sectors: max_gap,
            };
            let mut a = Allocator::new(1 << 20, AllocPolicy::Constrained { bounds }, seed);
            let mut prev = a.allocate_first(block).unwrap();
            for _ in 1..blocks {
                let wraps = a.stats().wraps;
                let next = a.allocate_after(prev, block).unwrap();
                // A wrap pays one long seek by design and is counted;
                // every other placement honours the bounds.
                if a.stats().wraps == wraps {
                    let gap = next.start.checked_sub(prev.end());
                    prop_assert!(
                        gap.is_some_and(|g| bounds.admits(g)),
                        "gap {gap:?} outside [{min_gap},{max_gap}]"
                    );
                }
                prev = next;
            }
            Ok(())
        },
    );
}

#[test]
fn freed_space_is_reusable() {
    check(
        "freed_space_is_reusable",
        (1usize..100, 1u64..32, 0u64..1_000),
        |&(blocks, block, seed)| {
            let mut a = Allocator::new(1 << 16, AllocPolicy::Random, seed);
            let mut held = Vec::new();
            for _ in 0..blocks {
                match a.allocate_anywhere(block) {
                    Ok(e) => held.push(e),
                    Err(_) => break,
                }
            }
            let used = a.freemap().used();
            prop_assert_eq!(used, held.len() as u64 * block);
            for e in held {
                a.release(e);
            }
            prop_assert_eq!(a.freemap().used(), 0);
            Ok(())
        },
    );
}

// ---------- the sector store against a naive model ----------

/// `SimDisk`'s chunked payload store behaves as one map from sector to
/// bytes: after every store / discard / torn store, each read-side
/// answer equals the formula a `HashMap<Lba, [u8; 512]>` gives for it.
/// Extents start on, end on and straddle chunk boundaries (64 sectors),
/// overlap earlier writes and run off a device whose last chunk is half
/// on it.
#[test]
fn sector_store_matches_a_sector_map() {
    use std::collections::HashMap;
    const CHUNK: u64 = 64;
    const OFFSETS: [u64; 5] = [0, 1, 17, 62, 63];
    let geometry = DiskGeometry {
        cylinders: 7,
        ..DiskGeometry::tiny_test()
    };
    let total = geometry.total_sectors();
    assert_eq!(total % CHUNK, CHUNK / 2, "last chunk half off the device");
    check_with(
        &Config::with_cases(64),
        "sector_store_matches_a_sector_map",
        prop_vec(
            (
                0u8..4,
                0..total / CHUNK + 2,
                0usize..OFFSETS.len(),
                1u64..150,
                any_bool(),
                0u8..=255,
            ),
            1..40,
        ),
        |ops| {
            let mut disk = SimDisk::new(geometry, SeekModel::vintage_1991());
            let mut model: HashMap<Lba, [u8; 512]> = HashMap::new();
            for &(kind, chunk, off, len, snap, fill) in ops {
                let start = chunk * CHUNK + OFFSETS[off];
                let end = if snap {
                    (start + len).next_multiple_of(CHUNK)
                } else {
                    start + len
                };
                let e = Extent::new(start, end - start);
                let on_device = geometry.extent_valid(e);
                let sector = |lba: Lba| -> [u8; 512] {
                    std::array::from_fn(|i| fill ^ (lba as u8).wrapping_mul(31) ^ (i as u8))
                };
                // Sectors that survive the op: a whole store; a torn one
                // (the armed disk stores the extent, then discards
                // the lost tail); a discard of the whole extent.
                let kept = match kind {
                    0 | 1 => e.sectors,
                    2 => len % e.sectors,
                    _ => 0,
                };
                if kind < 3 && on_device {
                    let data: Vec<u8> = (e.start..e.end()).flat_map(sector).collect();
                    disk.store_data(e, &data);
                    model.extend((e.start..e.end()).map(|lba| (lba, sector(lba))));
                }
                if kind >= 2 {
                    let lost = Extent::new(e.start + kept, e.sectors - kept);
                    disk.discard_data(lost);
                    for lba in lost.start..lost.end() {
                        model.remove(&lba);
                    }
                }

                let want: Vec<u8> = (e.start..e.end())
                    .flat_map(|lba| model.get(&lba).copied().unwrap_or([0; 512]))
                    .collect();
                prop_assert_eq!(&disk.fetch_data(e), &want, "fetch_data {e:?}");
                prop_assert_eq!(disk.try_fetch(e), on_device.then(|| want.clone()));
                prop_assert_eq!(disk.fetch_sum(e), on_device.then(|| block_sum(&want)));
                prop_assert_eq!(disk.sectors_written(), model.len());
                let mut image = Vec::new();
                let mut lbas: Vec<Lba> = model.keys().copied().collect();
                lbas.sort_unstable();
                for lba in lbas {
                    image.extend_from_slice(&lba.to_le_bytes());
                    image.extend_from_slice(&model[&lba]);
                }
                prop_assert_eq!(disk.content_hash(), fnv1a(&image));
            }
            Ok(())
        },
    );
}

/// A batch hashed ahead is the stamp: every sum `stamp_batch` fills in
/// is `block_sum` of its extent's stored bytes. Two disks of 512- or
/// 4096-byte sectors, written in seeded runs that straddle store chunks
/// around unwritten ones; batches of any size from empty up, their
/// extents of unequal lengths paired across both disks, and — when
/// `split` — repeated past what a split needs on every core.
#[test]
fn a_batched_stamp_is_the_stamp_of_the_stored_bytes() {
    use strandfs::disk::{stamp_batch, StampJob, STAMP_SHARE_MIN_BYTES};
    const CHUNK: u64 = 64;
    const OFFSETS: [u64; 5] = [0, 1, 17, 62, 63];
    check_with(
        &Config::with_cases(32),
        "a_batched_stamp_is_the_stamp_of_the_stored_bytes",
        (
            any_bool(),
            any_bool(),
            0u64..1 << 32,
            prop_vec(
                (any_bool(), 0u64..28, 0usize..OFFSETS.len(), 1u64..150),
                0..10,
            ),
        ),
        |(big, split, seed, drawn)| {
            let ss = if *big { 4096 } else { 512 };
            let geometry = DiskGeometry {
                sector_size: Bytes::new(ss),
                ..DiskGeometry::tiny_test()
            };
            let mut disks = [0, 1].map(|_| SimDisk::new(geometry, SeekModel::vintage_1991()));
            for (d, disk) in disks.iter_mut().enumerate() {
                for c in (0..28).filter(|c| seed >> (c + d as u64) & 1 == 1) {
                    let e = Extent::new(c * CHUNK + 7, 90);
                    disk.store_data(e, &nonzero_noise(seed ^ c, 90 * ss as usize));
                }
            }
            let mut jobs: Vec<StampJob> = drawn
                .iter()
                .map(|&(second, chunk, off, sectors)| StampJob {
                    store: usize::from(second),
                    extent: Extent::new(chunk * CHUNK + OFFSETS[off], sectors),
                    sum: 0,
                })
                .collect();
            let bytes = |jobs: &[StampJob]| jobs.iter().map(|j| j.extent.sectors * ss).sum::<u64>();
            if *split && !jobs.is_empty() {
                let cores = std::thread::available_parallelism().map_or(1, |n| n.get() as u64);
                let drawn_jobs = jobs.clone();
                while bytes(&jobs) < cores.max(2) * STAMP_SHARE_MIN_BYTES {
                    jobs.extend_from_slice(&drawn_jobs);
                }
            }
            stamp_batch(&disks.each_ref().map(SimDisk::payload), &mut jobs);
            for job in &jobs {
                let stored = disks[job.store].fetch_data(job.extent);
                prop_assert_eq!(job.sum, block_sum(&stored), "{job:?} of {}", jobs.len());
            }
            Ok(())
        },
    );
}

// ---------- the padded store and stamp against a padded copy ----------

/// `len` seeded bytes, none of them zero — a pad that fails to replace
/// them cannot hide behind a byte that was zero anyway.
fn nonzero_noise(seed: u64, len: usize) -> Vec<u8> {
    let mut bytes = vec![0u8; len];
    Prng::seed_from_u64(seed).fill_bytes(&mut bytes);
    bytes.iter_mut().for_each(|b| *b |= 1);
    bytes
}

/// `payload` followed by zeroes up to `len`: the copy `append_block`
/// used to materialise, here as the reference.
fn padded_copy(payload: &[u8], len: usize) -> Vec<u8> {
    let mut padded = payload.to_vec();
    padded.resize(len, 0);
    padded
}

/// The stamp of a short payload is the stamp of its padded copy, for
/// every payload length up to two sectors and a stripe past, padded to
/// its own sector count and to sectors beyond (rewrites of a longer
/// extent).
#[test]
fn padded_stamp_is_the_stamp_of_the_padded_copy() {
    check(
        "padded_stamp_is_the_stamp_of_the_padded_copy",
        (any_bool(), 0usize..2 * 4096 + 34, 0u64..3, 0u64..1 << 32),
        |&(big, raw_len, extra_sectors, seed)| {
            let ss = if big { 4096 } else { 512 };
            let len = raw_len % (2 * ss + 34);
            let payload = nonzero_noise(seed, len);
            let padded_len = (len.div_ceil(ss).max(1) + extra_sectors as usize) * ss;
            prop_assert_eq!(
                block_sum_padded(&payload, padded_len),
                block_sum(&padded_copy(&payload, padded_len)),
                "{len} bytes padded to {padded_len}"
            );
            // Not only to sector multiples: any length at or past the
            // payload's.
            let odd = len + (seed % 97) as usize;
            prop_assert_eq!(
                block_sum_padded(&payload, odd),
                block_sum(&padded_copy(&payload, odd)),
                "{len} bytes padded to {odd}"
            );
            Ok(())
        },
    );
}

/// Storing a short payload leaves the device exactly as storing its
/// padded copy does on a twin disk — image fingerprint, fetched bytes,
/// in-place sum and written-sector count — for extents inside one store
/// chunk and straddling two and three, on fresh sectors and over sectors
/// that held non-zero bytes (heal copies, `rewrite_block` and reused
/// extents store over old data: the pad must really zero it).
#[test]
fn short_store_equals_the_store_of_the_padded_copy() {
    const CHUNK: u64 = 64;
    const OFFSETS: [u64; 5] = [0, 1, 17, 62, 63];
    check_with(
        &Config::with_cases(64),
        "short_store_equals_the_store_of_the_padded_copy",
        (
            any_bool(),
            prop_vec(
                (
                    0u64..6,
                    0usize..OFFSETS.len(),
                    1u64..150,
                    0usize..2 * 4096,
                    any_bool(),
                    0u64..1 << 32,
                ),
                1..12,
            ),
        ),
        |(big, ops)| {
            let ss = if *big { 4096 } else { 512 };
            let geometry = DiskGeometry {
                sector_size: Bytes::new(ss as u64),
                ..DiskGeometry::tiny_test()
            };
            let mut short = SimDisk::new(geometry, SeekModel::vintage_1991());
            let mut twin = SimDisk::new(geometry, SeekModel::vintage_1991());
            for &(chunk, off, sectors, cut, dirty, seed) in ops {
                let e = Extent::new(chunk * CHUNK + OFFSETS[off], sectors);
                let bytes = sectors as usize * ss;
                if dirty {
                    let old = nonzero_noise(!seed, bytes);
                    short.store_data(e, &old);
                    twin.store_data(e, &old);
                }
                // Anything from the empty payload to the full extent;
                // mostly ending inside the last sector or two.
                let payload = nonzero_noise(seed, bytes - cut % (2 * ss).min(bytes + 1));
                short.store_data(e, &payload);
                twin.store_data(e, &padded_copy(&payload, bytes));
                prop_assert_eq!(short.try_fetch(e), twin.try_fetch(e), "{e:?}");
                prop_assert_eq!(
                    short.fetch_sum(e),
                    Some(block_sum_padded(&payload, bytes)),
                    "{e:?}"
                );
                prop_assert_eq!(short.fetch_sum(e), twin.fetch_sum(e), "{e:?}");
                prop_assert_eq!(short.sectors_written(), twin.sectors_written());
                prop_assert_eq!(short.content_hash(), twin.content_hash(), "{e:?}");
            }
            Ok(())
        },
    );
}

/// On an armed disk the short store is the same store: a torn extent
/// persists only its seeded sector prefix of the padded block, and a
/// crashed device drops it on the floor.
#[test]
fn faults_treat_a_short_store_as_the_store_of_the_padded_copy() {
    use strandfs::disk::{AccessKind, CrashPoint, FaultKind, FaultPlan};
    use strandfs::units::Instant;
    check_with(
        &Config::with_cases(64),
        "faults_treat_a_short_store_as_the_store_of_the_padded_copy",
        (1u64..150, 1usize..512, 0u64..1 << 32),
        |&(sectors, cut, seed)| {
            let e = Extent::new(40, sectors);
            let bytes = sectors as usize * 512;
            let payload = nonzero_noise(seed, bytes - cut.min(bytes));
            let padded = padded_copy(&payload, bytes);
            let plan = FaultPlan::clean()
                .with_torn_extent(e)
                .with_crash_point(CrashPoint::AfterWrites(1));
            let device = || {
                let mut disk = SimDisk::new(DiskGeometry::tiny_test(), SeekModel::vintage_1991())
                    .with_fault_seed(seed);
                disk.store_data(e, &nonzero_noise(!seed, bytes));
                disk.arm_faults(plan.clone());
                disk
            };
            let (mut short, mut twin) = (device(), device());
            let write = |d: &mut SimDisk, data: &[u8]| {
                d.store_data(e, data);
                d.access(Instant::EPOCH, e, AccessKind::Write)
                    .expect_err("torn, then crashed")
                    .kind
            };
            // Write 0 tears: a seeded prefix of the padded block's
            // sectors survives, the last sector never does.
            prop_assert_eq!(write(&mut short, &payload), FaultKind::Torn);
            prop_assert_eq!(write(&mut twin, &padded), FaultKind::Torn);
            let torn = short.try_fetch(e).expect("on device");
            let kept = short.sectors_written() * 512;
            prop_assert!(kept < bytes);
            prop_assert_eq!(&torn[..kept], &padded[..kept]);
            prop_assert!(torn[kept..].iter().all(|&b| b == 0));
            prop_assert_eq!(short.content_hash(), twin.content_hash());
            // Write 1 is the crash point: the image freezes, and stores
            // after it — short or padded — leave no trace.
            prop_assert_eq!(write(&mut short, &payload), FaultKind::Crashed);
            prop_assert_eq!(write(&mut twin, &padded), FaultKind::Crashed);
            let frozen = short.content_hash();
            short.store_data(e, &payload);
            twin.store_data(e, &padded);
            prop_assert_eq!(short.content_hash(), frozen);
            prop_assert_eq!(twin.content_hash(), frozen);
            Ok(())
        },
    );
}

// ---------- the disk's timing tables against the formulas ----------

/// `SimDisk::access` answers from tables built once per disk. Every
/// field of every `DiskOp` must equal the value recomputed per access
/// from the public formulas — `seek_model().seek_time(d).to_nanos()`,
/// `rotation_time()`, `sector_time()`, `head_switch` — over random
/// geometries and both seek-model shapes. The access kinds steer at the
/// edges: a second access on the cylinder the arm rests on (distance
/// 0), the last cylinder, an extent run up to the end of its cylinder
/// and past it (track and cylinder switches), and an issue instant that
/// puts the head a few nanoseconds short of, on, or past the target
/// sector (the 256 ns rotation-epsilon wrap).
#[test]
fn table_driven_access_matches_the_timing_formulas() {
    use strandfs::disk::{AccessKind, DiskOp};
    use strandfs::units::Instant;
    const ROT_EPSILON_NS: u64 = 256;

    fn expected(disk: &SimDisk, now: Instant, e: Extent, kind: AccessKind) -> DiskOp {
        let g = disk.geometry();
        let model = disk.seek_model();
        let distance = g.cylinder_of(e.start).abs_diff(disk.head_cylinder());
        let seek = model.seek_time(distance).to_nanos();
        let at = now + seek;
        let rot_ns = g.rotation_time().to_nanos().as_nanos();
        let target =
            (g.sector_of(e.start) as f64 / g.sectors_per_track as f64 * rot_ns as f64) as u64;
        let angle = at.as_nanos() % rot_ns;
        let wait = if target >= angle {
            target - angle
        } else {
            rot_ns - (angle - target)
        };
        let rotation = if wait + ROT_EPSILON_NS >= rot_ns {
            Nanos::ZERO
        } else {
            Nanos::from_nanos(wait)
        };
        let last = e.end() - 1;
        let track_switches = last / g.sectors_per_track - e.start / g.sectors_per_track;
        let cyl_switches = g.cylinder_of(last) - g.cylinder_of(e.start);
        let transfer = g.sector_time().to_nanos().mul_u64(e.sectors)
            + g.head_switch.to_nanos().mul_u64(track_switches)
            + model.seek_time(1).to_nanos().mul_u64(cyl_switches);
        DiskOp {
            extent: e,
            kind,
            issued: now,
            seek,
            rotation,
            transfer,
            completed: at + rotation + transfer,
        }
    }

    check_with(
        &Config::with_cases(96),
        "table_driven_access_matches_the_timing_formulas",
        (
            (
                1u64..300,
                1u64..6,
                1u64..80,
                600.0f64..15_000.0,
                0.0f64..2.0,
            ),
            (
                any_bool(),
                0.0f64..5.0,
                0.0f64..1.0,
                0.0f64..0.05,
                0u64..400,
            ),
            prop_vec(
                (
                    0u8..5,
                    0u64..1 << 40,
                    1u64..200,
                    0u64..40_000_000,
                    0u64..600,
                ),
                1..40,
            ),
        ),
        |&(
            (cylinders, tracks, spt, rpm, switch_ms),
            (affine, settle, a, linear, threshold),
            ref ops,
        )| {
            let geometry = DiskGeometry {
                cylinders,
                tracks_per_cylinder: tracks,
                sectors_per_track: spt,
                rpm,
                head_switch: Seconds::from_millis(switch_ms),
                ..DiskGeometry::tiny_test()
            };
            let settle = Seconds::from_millis(settle);
            let model = if affine {
                SeekModel::Affine {
                    settle,
                    per_cylinder: Seconds::from_millis(linear),
                }
            } else {
                SeekModel::HybridSqrt {
                    settle,
                    accel: Seconds::from_millis(a),
                    linear: Seconds::from_millis(linear),
                    threshold,
                }
            };
            let mut disk = SimDisk::new(geometry, model);
            let total = geometry.total_sectors();
            let per_cyl = geometry.sectors_per_cylinder();
            let rot_ns = geometry.rotation_time().to_nanos().as_nanos();
            let mut now = Instant::EPOCH;
            for &(edge, pick, len, gap, skew) in ops {
                let start = match edge {
                    // On the cylinder the arm rests on: distance 0.
                    0 => disk.head_cylinder() * per_cyl + pick % per_cyl,
                    // On the last cylinder: the longest seeks.
                    1 => total - 1 - pick % per_cyl,
                    _ => pick % total,
                };
                let sectors = match edge {
                    // Up to the end of the cylinder, then (if the device
                    // goes on) one sector past it.
                    2 => per_cyl - start % per_cyl,
                    3 => per_cyl - start % per_cyl + 1,
                    _ => len,
                }
                .min(total - start);
                let e = Extent::new(start, sectors);
                now += Nanos::from_nanos(gap);
                if edge == 4 {
                    // Land the head `skew − 300` ns from the target
                    // sector once the seek is done.
                    let want = expected(&disk, now, e, AccessKind::Read);
                    let late = want.rotation.as_nanos() + rot_ns + 300 - skew;
                    now += Nanos::from_nanos(late % rot_ns);
                }
                let kind = if pick % 2 == 0 {
                    AccessKind::Read
                } else {
                    AccessKind::Write
                };
                let want = expected(&disk, now, e, kind);
                let got = disk
                    .access(now, e, kind)
                    .expect("an unarmed disk never faults");
                prop_assert_eq!(got.extent, want.extent);
                prop_assert_eq!(got.kind, want.kind);
                prop_assert_eq!(got.issued, want.issued);
                prop_assert_eq!(got.seek, want.seek, "seek, {e:?}");
                prop_assert_eq!(got.rotation, want.rotation, "rotation, {e:?} at {now:?}");
                prop_assert_eq!(got.transfer, want.transfer, "transfer, {e:?}");
                prop_assert_eq!(got.completed, want.completed);
                prop_assert_eq!(disk.head_cylinder(), geometry.cylinder_of(e.end() - 1));
                now = got.completed;
            }
            Ok(())
        },
    );
}

/// One request's blocks as a chain (`SimDisk::access_chained`): over
/// drawn geometries, a first extent starting anywhere or just short of a
/// track or cylinder end, adjacent extents of up to two tracks each, and
/// a drawn issue instant, every block issued when the one before it
/// ended completes exactly when one `access` of the chain's union up to
/// that block would, from the same head and instant. Then a chained
/// access that does not continue the last one — issued a nanosecond
/// late, starting a sector on, or a disk's first — is `access` exactly:
/// op, stats and events.
#[test]
fn a_chain_of_adjacent_extents_times_like_one_access() {
    use strandfs::disk::AccessKind::Read;
    use strandfs::obs::ObsSink;
    use strandfs::units::Instant;

    check_with(
        &Config::with_cases(96),
        "a_chain_of_adjacent_extents_times_like_one_access",
        (
            (2u64..40, 1u64..6, 1u64..80, 600.0f64..15_000.0, 0.0f64..2.0),
            (0u8..3, 0u64..1 << 40, 0u64..1 << 40, 0u64..40_000_000),
            (prop_vec(1u64..160, 1..8), 0u8..3),
        ),
        |&((cylinders, tracks, spt, rpm, switch_ms), (edge, head, pick, gap), (ref lens, miss))| {
            let geometry = DiskGeometry {
                cylinders,
                tracks_per_cylinder: tracks,
                sectors_per_track: spt,
                rpm,
                head_switch: Seconds::from_millis(switch_ms),
                ..DiskGeometry::tiny_test()
            };
            let total = geometry.total_sectors();
            let start = match edge {
                // A sector or two short of a track end.
                0 => (pick % total / spt + 1) * spt - 1 - pick % 2,
                // Just short of a cylinder end.
                1 => {
                    let per_cyl = geometry.sectors_per_cylinder();
                    (pick % total / per_cyl + 1) * per_cyl - 1 - pick % 3
                }
                _ => pick % total,
            }
            .min(total - 1);
            let model = SeekModel::vintage_1991();
            let fresh = || {
                let (sink, ring) = ObsSink::ring(64);
                let mut d = SimDisk::new(geometry, model);
                d.set_obs(sink);
                (d, ring)
            };
            // A disk whose head rests on `head`'s cylinder at `t0`.
            let t0 = Instant::EPOCH + Nanos::from_nanos(gap) + Nanos::from_secs(1);
            let primed = || {
                let (mut d, ring) = fresh();
                d.access(Instant::EPOCH, Extent::new(head % total, 1), Read)
                    .expect("an unarmed disk never faults");
                (d, ring)
            };
            let (mut chain, _) = primed();
            let (mut now, mut end) = (t0, start);
            for &len in lens {
                let e = Extent::new(end, len.min(total - end));
                if e.sectors == 0 {
                    break;
                }
                let got = chain.access_chained(now, e, Read).expect("unarmed");
                let whole = Extent::new(start, e.end() - start);
                let want = primed().0.access(t0, whole, Read).expect("unarmed");
                prop_assert_eq!(got.completed, want.completed, "{e:?} of {whole:?}");
                (now, end) = (got.completed, e.end());
            }
            prop_assert_eq!(chain.head_cylinder(), geometry.cylinder_of(end - 1));

            // A chained access that does not continue: the same history on
            // two disks, then `access_chained` on one and `access` on the
            // other. `miss` 2 is a disk's first access.
            let ((mut a, ring_a), (mut b, ring_b)) = if miss < 2 {
                (primed(), primed())
            } else {
                (fresh(), fresh())
            };
            let mut at = t0;
            if miss < 2 {
                for d in [&mut a, &mut b] {
                    let prefix = Extent::new(start, end - start);
                    at = d.access(t0, prefix, Read).expect("unarmed").completed;
                }
            }
            let e = |s: u64| Extent::new(s % total, 1 + s % spt.min(total - s % total));
            let next = match miss {
                0 => {
                    at += Nanos::from_nanos(1);
                    e(end)
                }
                1 => e(end + 1),
                _ => e(start),
            };
            let chained = a.access_chained(at, next, Read).expect("unarmed");
            let plain = b.access(at, next, Read).expect("unarmed");
            prop_assert_eq!(format!("{chained:?}"), format!("{plain:?}"));
            prop_assert_eq!(a.stats(), b.stats());
            let events = |r: &std::rc::Rc<std::cell::RefCell<strandfs::obs::RingRecorder>>| {
                r.borrow().events().copied().collect::<Vec<_>>()
            };
            prop_assert_eq!(events(&ring_a), events(&ring_b));
            Ok(())
        },
    );
}

// ---------- admission monotonicity ----------

#[test]
fn admission_k_and_nmax_behave() {
    check(
        "admission_k_and_nmax_behave",
        (1.0f64..100.0, 0.05f64..1.0, 1u64..32, 8u64..2_000),
        |&(l_seek_ms, l_avg_frac, q, frame_kbit)| {
            let env = DiskParams {
                r_dt: BitRate::mbit_per_sec(60.0),
                l_seek_max: Seconds::from_millis(l_seek_ms),
                l_ds_avg: Seconds::from_millis(l_seek_ms * l_avg_frac),
            };
            let spec = RequestSpec {
                q,
                unit_bits: Bits::new(frame_kbit * 1_000),
                unit_rate: 30.0,
            };
            let agg = Aggregates::compute(&env, &[spec]).unwrap();
            let n_max = agg.n_max();
            // Feasibility boundary is exactly n_max.
            if n_max > 0 {
                prop_assert!(agg.k_transient(n_max).is_some());
            }
            prop_assert!(agg.k_transient(n_max + 1).is_none());
            // k is monotone and Eq.18 dominates Eq.16.
            let mut prev = 0u64;
            for n in 1..=n_max.min(20) {
                let ks = agg.k_steady(n).unwrap();
                let kt = agg.k_transient(n).unwrap();
                prop_assert!(kt >= ks);
                prop_assert!(kt >= prev);
                prev = kt;
                // And the feasibility predicates agree with the formulas.
                prop_assert!(agg.steady_feasible(n, ks));
                prop_assert!(agg.transient_feasible(n, kt));
            }
            Ok(())
        },
    );
}

/// Both feasibility predicates say exactly what Eqs. 15 and 18 say, in
/// the same comparison direction, on drawn disks and mixes at every
/// `n` and `k` around the feasibility boundary.
#[test]
fn feasibility_predicates_are_eqs_15_and_18() {
    const RATES: [f64; 4] = [24.0, 25.0, 30.0, 8_000.0];
    check(
        "feasibility_predicates_are_eqs_15_and_18",
        (
            (5.0f64..200.0, 1.0f64..100.0, 0.05f64..1.0),
            prop_vec((1u64..32, 1u64..2_000, 0usize..RATES.len()), 1..6),
        ),
        |(disk, mix)| {
            let (mbit, l_seek_ms, l_avg_frac) = *disk;
            let env = DiskParams {
                r_dt: BitRate::mbit_per_sec(mbit),
                l_seek_max: Seconds::from_millis(l_seek_ms),
                l_ds_avg: Seconds::from_millis(l_seek_ms * l_avg_frac),
            };
            let specs: Vec<RequestSpec> = mix
                .iter()
                .map(|&(q, kbit, rate)| RequestSpec {
                    q,
                    unit_bits: Bits::new(kbit * 100),
                    unit_rate: RATES[rate],
                })
                .collect();
            let agg = Aggregates::compute(&env, &specs).unwrap();
            let (a, b, g) = (agg.alpha.get(), agg.beta.get(), agg.gamma.get());
            let n_max = agg.n_max();
            for n in n_max.saturating_sub(1).max(1)..=n_max + 1 {
                let mut ks = vec![1, 2, 64];
                for k in [agg.k_steady(n), agg.k_transient(n)].into_iter().flatten() {
                    ks.extend([k - 1, k, k + 1]);
                }
                for k in ks.into_iter().filter(|&k| k >= 1) {
                    let (nf, kf) = (n as f64, k as f64);
                    let eq15 = nf * a + nf * (kf - 1.0) * b <= kf * g;
                    let eq18 = nf * a + nf * kf * b <= kf * g;
                    prop_assert_eq!(agg.steady_feasible(n, k), eq15, "Eq. 15 at n={n} k={k}");
                    prop_assert_eq!(agg.transient_feasible(n, k), eq18, "Eq. 18 at n={n} k={k}");
                    prop_assert_eq!(agg.slack(n, k) >= Seconds::ZERO, eq18);
                }
            }
            Ok(())
        },
    );
}

//! Property tests over the simulation substrate: disk timing physics,
//! codec behaviour and schedule transformations.
//!
//! Runs on the in-tree `strandfs-testkit` harness (seeded deterministic
//! PRNG; see `tests/proptests.rs` for the replay knobs).

use strandfs::core::mrs::{apply_play_mode, PlayItem, PlaySchedule};
use strandfs::core::StrandId;
use strandfs::disk::{AccessKind, DiskGeometry, Extent, SeekModel, SimDisk};
use strandfs::media::silence::SilenceDetector;
use strandfs::media::{Medium, VideoCodec};
use strandfs::units::{Instant, Nanos, Prng};
use strandfs_testkit::fsx::{try_run as fsx_try_run, FsxConfig};
use strandfs_testkit::{
    any_bool, check, check_with, prop_assert, prop_assert_eq, vec as prop_vec, CaseError, Config,
};

fn tiny_disk() -> SimDisk {
    SimDisk::new(DiskGeometry::tiny_test(), SeekModel::vintage_1991())
}

#[test]
fn disk_access_is_deterministic() {
    check(
        "disk_access_is_deterministic",
        (0u64..10_000_000, 0u64..2_040, 1u64..8),
        |&(now_us, lba, sectors)| {
            let e = Extent::new(lba, sectors);
            let t = Instant::EPOCH + Nanos::from_micros(now_us);
            let op1 = tiny_disk().access(t, e, AccessKind::Read).unwrap();
            let op2 = tiny_disk().access(t, e, AccessKind::Read).unwrap();
            prop_assert_eq!(op1.completed, op2.completed);
            prop_assert_eq!(op1.seek, op2.seek);
            prop_assert_eq!(op1.rotation, op2.rotation);
            prop_assert_eq!(op1.transfer, op2.transfer);
            Ok(())
        },
    );
}

#[test]
fn disk_timing_physics_hold() {
    check(
        "disk_timing_physics_hold",
        (0u64..10_000_000, 0u64..2_040, 1u64..8, 0u64..2_047),
        |&(now_us, lba, sectors, warm_lba)| {
            let mut disk = tiny_disk();
            // Warm the arm to an arbitrary position first.
            let w = disk
                .access(Instant::EPOCH, Extent::new(warm_lba, 1), AccessKind::Read)
                .unwrap();
            let t = w.completed + Nanos::from_micros(now_us);
            let op = disk
                .access(t, Extent::new(lba, sectors), AccessKind::Read)
                .unwrap();
            // Completion after issue; decomposition sums.
            prop_assert!(op.completed > t || op.service_time() == Nanos::ZERO);
            prop_assert_eq!(op.completed, t + op.seek + op.rotation + op.transfer);
            // Rotation bounded by one revolution.
            let rev = disk.geometry().rotation_time().to_nanos();
            prop_assert!(op.rotation < rev);
            // Transfer at least the raw sector time.
            let floor = disk.geometry().sector_time().to_nanos().mul_u64(sectors);
            prop_assert!(op.transfer + Nanos::from_nanos(16) >= floor);
            // Arm ends on the extent's final cylinder.
            prop_assert_eq!(
                disk.head_cylinder(),
                disk.geometry().cylinder_of(lba + sectors - 1)
            );
            Ok(())
        },
    );
}

#[test]
fn positioning_time_is_monotone_in_distance() {
    check(
        "positioning_time_is_monotone_in_distance",
        (0u64..64, 0u64..64),
        |&(d1, d2)| {
            let disk = tiny_disk();
            let (lo, hi) = (d1.min(d2), d1.max(d2));
            prop_assert!(disk.positioning_time(lo) <= disk.positioning_time(hi));
            prop_assert!(
                disk.positioning_time(hi).to_nanos() <= disk.max_positioning_time().to_nanos()
            );
            Ok(())
        },
    );
}

#[test]
fn payload_round_trips_any_extent() {
    check(
        "payload_round_trips_any_extent",
        (0u64..2_000, 1u64..8, 0u32..256),
        |&(lba, sectors, seed)| {
            let seed = seed as u8;
            let mut disk = tiny_disk();
            let e = Extent::new(lba, sectors);
            let data: Vec<u8> = (0..sectors * 512)
                .map(|i| (i as u8).wrapping_add(seed))
                .collect();
            disk.store_data(e, &data);
            prop_assert_eq!(disk.fetch_data(e), data);
            disk.discard_data(e);
            prop_assert!(disk.fetch_data(e).iter().all(|&b| b == 0));
            Ok(())
        },
    );
}

#[test]
fn codec_sizes_bounded_by_raw() {
    check(
        "codec_sizes_bounded_by_raw",
        (0u64..u64::MAX, 0u64..500),
        |&(seed, frame)| {
            for codec in [VideoCodec::uvc_ntsc(seed), VideoCodec::uvc_ntsc_vbr(seed)] {
                let bits = codec.frame_bits(frame);
                prop_assert!(bits.get() >= 8);
                prop_assert!(bits <= codec.format().raw_frame_bits());
            }
            Ok(())
        },
    );
}

#[test]
fn silence_detection_monotone_in_threshold() {
    check(
        "silence_detection_monotone_in_threshold",
        (
            prop_vec(-127i32..=127, 1..200),
            0.0f64..20_000.0,
            0.0f64..20_000.0,
        ),
        |(samples, t1, t2)| {
            let (lo, hi) = (t1.min(*t2), t1.max(*t2));
            let f_lo = SilenceDetector::new(lo).silence_fraction(samples, 16);
            let f_hi = SilenceDetector::new(hi).silence_fraction(samples, 16);
            prop_assert!(f_hi >= f_lo, "higher threshold must classify more silence");
            Ok(())
        },
    );
}

fn synthetic_schedule(blocks: u64) -> PlaySchedule {
    let items = (0..blocks)
        .map(|b| PlayItem {
            at: Nanos::from_millis(b * 100),
            medium: Medium::Video,
            strand: StrandId::from_raw(1),
            block: b,
            units: 3,
            duration: Nanos::from_millis(100),
            silence: false,
        })
        .collect();
    PlaySchedule {
        items,
        duration: Nanos::from_millis(blocks * 100),
        triggers: Vec::new(),
    }
}

#[test]
fn play_mode_identity_at_unit_speed() {
    check("play_mode_identity_at_unit_speed", 1u64..100, |&blocks| {
        let s = synthetic_schedule(blocks);
        let out = apply_play_mode(&s, 1.0, false);
        prop_assert_eq!(out.items.len(), s.items.len());
        prop_assert_eq!(out.duration, s.duration);
        for (a, b) in s.items.iter().zip(out.items.iter()) {
            prop_assert_eq!(a.at, b.at);
        }
        Ok(())
    });
}

#[test]
fn play_mode_duration_scales() {
    check(
        "play_mode_duration_scales",
        (1u64..100, 1.0f64..8.0),
        |&(blocks, speed)| {
            let s = synthetic_schedule(blocks);
            let out = apply_play_mode(&s, speed, false);
            let want = s.duration.as_secs_f64() / speed;
            prop_assert!((out.duration.as_secs_f64() - want).abs() < 1e-6);
            prop_assert_eq!(out.items.len(), s.items.len());
            // Deadlines stay sorted.
            for w in out.items.windows(2) {
                prop_assert!(w[0].at <= w[1].at);
            }
            Ok(())
        },
    );
}

#[test]
fn random_fault_plans_keep_trace_invariants_and_shield_non_victims() {
    use std::collections::HashMap;
    use strandfs::core::mrs::compile_schedule;
    use strandfs::core::rope::edit::{Interval, MediaSel};
    use strandfs::disk::FaultPlan;
    use strandfs::obs::{Event, ObsSink};
    use strandfs::sim::playback::{simulate_playback, DegradeMode, PlaybackConfig};
    use strandfs::sim::{faulty_volume, ClipSpec};

    // Each case records a fresh two-stream volume and plays it through a
    // randomly parameterised fault plan, so the case count stays small;
    // `STRANDFS_TEST_CASES` rescales it for chaos runs.
    check_with(
        &Config::with_cases(6),
        "random_fault_plans_keep_trace_invariants",
        (0u64..1_000, 2u64..14, 1u64..5, 1u64..4, 1u64..3),
        |&(seed, start, len, revoke_after, readmit_clean)| {
            let clips = [ClipSpec::video_seconds(2.0); 2];
            let (mut mrs, ropes) = faulty_volume(&clips, seed).expect("build volume");
            let scheds: Vec<_> = ropes
                .iter()
                .map(|r| {
                    let rope = mrs.rope(*r).unwrap().clone();
                    let mut s =
                        compile_schedule(&rope, MediaSel::Both, Interval::whole(rope.duration()))
                            .unwrap();
                    mrs.resolve_silence(&mut s).unwrap();
                    s
                })
                .collect();
            // Permanently corrupt a random run of stream 1's blocks; the
            // plan arms only after the clean recording, like real decay.
            let mut plan = FaultPlan::clean();
            for item in scheds[1]
                .items
                .iter()
                .skip(start as usize)
                .take(len as usize)
            {
                let e = mrs
                    .msm()
                    .strand(item.strand)
                    .unwrap()
                    .block(item.block)
                    .unwrap()
                    .unwrap();
                plan = plan.with_bad_extent(e);
            }
            mrs.msm_mut().arm_faults(plan);
            let (sink, rec) = ObsSink::ring(1 << 16);
            mrs.set_obs(sink);
            let report = simulate_playback(
                &mut mrs,
                scheds,
                PlaybackConfig::with_k(6).degraded(DegradeMode::Ladder {
                    revoke_after_drops: revoke_after,
                    readmit_clean_rounds: readmit_clean,
                }),
            )
            .expect("simulate");

            // Round slices from the event stream: starts monotone, every
            // slice well-formed.
            let r = rec.borrow();
            let mut slices: HashMap<u64, (Option<Instant>, Option<Instant>)> = HashMap::new();
            let mut last_start = None;
            for e in r.events() {
                match *e {
                    Event::RoundStart { round, at, .. } => {
                        if let Some(prev) = last_start {
                            prop_assert!(at >= prev, "round starts must be monotone");
                        }
                        last_start = Some(at);
                        slices.entry(round).or_insert((None, None)).0 = Some(at);
                    }
                    Event::RoundEnd { round, at } => {
                        slices.entry(round).or_insert((None, None)).1 = Some(at);
                    }
                    _ => {}
                }
            }
            for (round, (s, e)) in &slices {
                let (s, e) = (s.expect("round started"), e.expect("round ended"));
                prop_assert!(s <= e, "round {} slice inverted", round);
            }
            // Every degrade decision and deadline completion lands inside
            // the round slice it claims.
            let inside = |round: u64, at: Instant| {
                let (s, e) = slices[&round];
                s.unwrap() <= at && at <= e.unwrap()
            };
            for e in r.events() {
                match *e {
                    Event::Degrade { round, at, .. } => {
                        prop_assert!(inside(round, at), "degrade outside its round slice");
                    }
                    Event::Deadline {
                        round, completed, ..
                    } => {
                        prop_assert!(inside(round, completed), "deadline outside its round");
                    }
                    _ => {}
                }
            }

            // The non-victim stream is fully shielded by the ladder.
            prop_assert_eq!(report.streams[0].violations, 0);
            prop_assert_eq!(report.streams[0].dropped_blocks, 0);
            // Every victim item was delivered or degraded into a hole —
            // none simply vanished.
            let v = &report.streams[1];
            prop_assert_eq!(v.fetched + v.dropped_blocks, v.blocks);
            Ok(())
        },
    );
}

#[test]
fn random_crash_points_recover_to_a_verified_prefix() {
    use strandfs::core::journal::JournalConfig;
    use strandfs::core::msm::{Msm, MsmConfig, RecoveryReport};
    use strandfs::core::strand::{Strand, StrandMeta};
    use strandfs::core::{fsck, StrandId as Sid};
    use strandfs::disk::{CrashPoint, FaultPlan, GapBounds};
    use strandfs::units::Bits;

    fn config() -> MsmConfig {
        MsmConfig::constrained(
            GapBounds {
                min_sectors: 0,
                max_sectors: 128,
            },
            1,
        )
        .with_journal(JournalConfig {
            slots: 64,
            ..JournalConfig::default()
        })
    }
    fn meta() -> StrandMeta {
        StrandMeta {
            medium: Medium::Video,
            unit_rate: 30.0,
            granularity: 3,             // blocks carry one to three units
            unit_bits: Bits::new(4096), // 512 B units: one sector each
        }
    }
    // Distinct nonzero fills, so a torn suffix can never pass for the
    // intended content.
    fn fill(strand: u64, block: u64) -> u8 {
        (7 + strand * 31 + block * 3) as u8
    }
    fn payload(strand: u64, block: u64, units: u64) -> Vec<u8> {
        vec![fill(strand, block); units as usize * 512]
    }
    // Record `counts[i]` blocks into strand `i` (block `b` carries
    // `1 + (b % 3)` units), optionally deleting strand 0 at the end;
    // crash at device-write `crash_at`, power-cycle and recover.
    fn crashed_recovery(
        seed: u64,
        crash_at: u64,
        counts: &[u64],
        delete_first: bool,
    ) -> Result<(Msm, RecoveryReport), strandfs::core::FsError> {
        let mut disk = SimDisk::new(DiskGeometry::tiny_test(), SeekModel::vintage_1991())
            .with_fault_seed(seed);
        disk.arm_faults(FaultPlan::clean().with_crash_point(CrashPoint::AfterWrites(crash_at)));
        let mut msm = Msm::new(disk, config());
        let mut t = Instant::EPOCH;
        let workload = |msm: &mut Msm, t: &mut Instant| -> Result<(), strandfs::core::FsError> {
            for (i, &blocks) in counts.iter().enumerate() {
                let id = msm.begin_strand(meta());
                for b in 0..blocks {
                    let units = 1 + (b % 3);
                    let (_, op) = msm.append_block(id, *t, &payload(i as u64, b, units), units)?;
                    *t = op.completed;
                }
                msm.finish_strand(id, *t)?;
            }
            if delete_first {
                msm.delete_strand(Sid::from_raw(0))?;
            }
            Ok(())
        };
        // A crash mid-recording surfaces as a write fault — exactly
        // what it does to a real recorder.
        let _ = workload(&mut msm, &mut t);
        let mut device = msm.into_device();
        device.power_cycle();
        Msm::recover(device, config(), Instant::EPOCH)
    }
    fn strands(msm: &Msm) -> Vec<Strand> {
        let ids = msm.strand_ids().into_iter();
        ids.map(|id| msm.strand(id).unwrap().clone()).collect()
    }

    check_with(
        &Config::with_cases(12),
        "random_crash_points_recover_to_a_verified_prefix",
        (0u64..1_000, 0u64..90, 1u64..7, 0u64..7, any_bool()),
        |&(seed, crash_at, n0, n1, delete_first)| {
            let counts = [n0, n1];
            let (mut rec, _) = crashed_recovery(seed, crash_at, &counts, delete_first)
                .expect("recovery must mount any crashed image");
            // Every recovered strand is a verified prefix of the intent.
            for (i, &blocks) in counts.iter().enumerate() {
                let Ok(strand) = rec.strand(Sid::from_raw(i as u64)) else {
                    continue; // absent: the empty prefix (or deleted)
                };
                let n = strand.block_count();
                prop_assert!(n <= blocks, "strand {} grew past its intent", i);
                for b in 0..n {
                    let e = strand.block(b).unwrap().expect("no silence in intent");
                    let got = rec.disk().try_fetch(e).expect("recovered block on device");
                    prop_assert_eq!(got, payload(i as u64, b, 1 + (b % 3)));
                    prop_assert!(
                        rec.allocator().freemap().extent_used(e),
                        "recovered block missing from the free map"
                    );
                }
            }
            // The volume is internally consistent without repairs.
            let report = fsck::check_msm(&mut rec, Instant::EPOCH);
            prop_assert!(report.clean(), "fsck after recovery: {:?}", report.findings);
            // Same seed, same crash: byte-identical recovered image.
            let (rec2, _) = crashed_recovery(seed, crash_at, &counts, delete_first)
                .expect("replayed recovery must mount");
            prop_assert_eq!(rec.disk().content_hash(), rec2.disk().content_hash());
            // Recovery is idempotent: the recovered image mounts again
            // with nothing left to replay, to the very same strands.
            let first = strands(&rec);
            let mut device = rec.into_device();
            device.power_cycle();
            let (mut again, report) = Msm::recover(device, config(), Instant::EPOCH)
                .expect("a recovered image mounts again");
            prop_assert_eq!(
                (
                    report.completed_strands,
                    report.blocks_recovered,
                    report.blocks_rolled_back,
                    report.deleted_strands
                ),
                (0, 0, 0, 0)
            );
            prop_assert_eq!(strands(&again), first);
            let report = fsck::check_msm(&mut again, Instant::EPOCH);
            prop_assert!(report.clean(), "fsck after remount: {:?}", report.findings);
            Ok(())
        },
    );
}

#[test]
fn play_mode_skip_keeps_every_nth() {
    check(
        "play_mode_skip_keeps_every_nth",
        (1u64..200, 2u32..6),
        |&(blocks, speed)| {
            let s = synthetic_schedule(blocks);
            let out = apply_play_mode(&s, speed as f64, true);
            let stride = speed as u64;
            prop_assert_eq!(out.items.len() as u64, blocks.div_ceil(stride));
            for (j, item) in out.items.iter().enumerate() {
                prop_assert_eq!(item.block, j as u64 * stride);
                // Fetch cadence unchanged: one block duration apart.
                prop_assert_eq!(item.at, Nanos::from_millis(j as u64 * 100));
            }
            Ok(())
        },
    );
}

#[test]
fn optimized_service_loop_matches_the_reference_loop() {
    use strandfs::core::mrs::compile_schedule;
    use strandfs::core::rope::edit::{Interval, MediaSel};
    use strandfs::disk::FaultPlan;
    use strandfs::sim::playback::{simulate_degraded, Arrival, DegradeMode, ServiceOrder};
    use strandfs::sim::reference::simulate_degraded_reference;
    use strandfs::sim::{faulty_volume, ClipSpec};

    // The scale-reworked loop (persistent round buffers, memoized SCAN
    // keys, payload-free reads, O(1) slack) must be observationally
    // identical to the naive reference transliteration: same per-stream
    // outcomes, same round count, same disk busy time — across random
    // populations, service orders, degradation modes, fault plans and
    // mid-flight arrivals. Both runs build the same volume from the
    // same seed, so any divergence is the loops', not the scenario's.
    //
    // `extra` > 0 gives every clip `1 + extra` viewers, plus one viewer
    // of an edit that cuts from the last clip into the first, in a
    // seeded shuffled order, and lists the arrivals out of activation
    // order. The sweep loop then lays streams out in an order that is
    // not index order, and the edit's viewer meets the first clip's
    // viewers at one address with its slot and its activation ordinal
    // ranked differently against theirs.
    check_with(
        &Config::with_cases(8),
        "optimized_service_loop_matches_the_reference_loop",
        (
            0u64..1_000,
            1usize..4,
            0u8..3,
            0u8..3,
            any_bool(),
            2u64..6,
            0usize..4,
        ),
        |&(seed, n, order_sel, degrade_sel, with_arrival, k, extra)| {
            let order = match order_sel {
                0 => ServiceOrder::RoundRobin,
                1 => ServiceOrder::Scan,
                _ => ServiceOrder::Cscan,
            };
            let degrade = match degrade_sel {
                0 => DegradeMode::Strict,
                1 => DegradeMode::Abandon,
                _ => DegradeMode::Ladder {
                    revoke_after_drops: 2,
                    readmit_clean_rounds: 2,
                },
            };
            let build = || {
                let clips = vec![ClipSpec::video_seconds(2.0); n];
                let (mut mrs, ropes) = faulty_volume(&clips, seed).expect("build volume");
                let scheds: Vec<_> = ropes
                    .iter()
                    .map(|r| {
                        let rope = mrs.rope(*r).unwrap().clone();
                        let mut s = compile_schedule(
                            &rope,
                            MediaSel::Both,
                            Interval::whole(rope.duration()),
                        )
                        .unwrap();
                        mrs.resolve_silence(&mut s).unwrap();
                        s
                    })
                    .collect();
                // Strict service must stay fault-free (faults abort the
                // run); the degraded modes face transient decay plus, on
                // the ladder, one permanently bad block to force the
                // revoke/readmit path.
                if !matches!(degrade, DegradeMode::Strict) {
                    let mut plan = FaultPlan::clean().with_random_transients(0.08, 1);
                    if matches!(degrade, DegradeMode::Ladder { .. }) {
                        let item = scheds[0].items[8];
                        if !item.silence {
                            let e = mrs
                                .msm()
                                .strand(item.strand)
                                .unwrap()
                                .block(item.block)
                                .unwrap()
                                .unwrap();
                            plan = plan.with_bad_extent(e);
                        }
                    }
                    mrs.msm_mut().arm_faults(plan);
                }
                let mut arrivals = Vec::new();
                if with_arrival {
                    arrivals.push(Arrival {
                        at_round: 3,
                        schedule: scheds[0].clone(),
                    });
                    if extra > 0 {
                        arrivals.push(Arrival {
                            at_round: 2,
                            schedule: scheds[n - 1].clone(),
                        });
                    }
                }
                let mut streams: Vec<_> = (0..=extra).flat_map(|_| scheds.clone()).collect();
                if extra > 0 {
                    // The cut: the last clip's first two items, then the
                    // first clip from its third (clips share timing).
                    let (head, tail) = (&scheds[n - 1].items, &scheds[0].items);
                    streams.push(PlaySchedule {
                        items: head[..2].iter().chain(&tail[2..]).copied().collect(),
                        ..scheds[0].clone()
                    });
                    Prng::seed_from_u64(seed).shuffle(&mut streams);
                }
                (mrs, streams, arrivals)
            };
            let k_of_round = move |round: u64, live: usize| k + (round + live as u64) % 2;

            let (mut mrs, scheds, arrivals) = build();
            let optimized = simulate_degraded(
                &mut mrs,
                scheds,
                arrivals,
                |k| k,
                k_of_round,
                order,
                degrade,
            )
            .expect("optimized run");
            let (mut mrs, scheds, arrivals) = build();
            let reference = simulate_degraded_reference(
                &mut mrs,
                scheds,
                arrivals,
                |k| k,
                k_of_round,
                order,
                degrade,
            )
            .expect("reference run");
            prop_assert_eq!(&optimized, &reference);
            Ok(())
        },
    );
}

#[test]
fn cluster_chaos_replicated_streams_survive_member_loss() {
    use strandfs::cluster::{
        simulate_cluster, Cluster, ClusterAction, ClusterConfig, ClusterPlayback, Placement,
        ScriptedAction,
    };
    use strandfs::sim::ClipSpec;

    // Random placement × random member kill/rejoin: streams of k≥2-
    // replicated titles lose zero blocks (failover covers the outage),
    // single-replica streams obey the block-conservation law of the
    // degradation ladder, and the rejoined member comes back fsck-clean
    // with a catalog that matches its strand inventory exactly.
    check_with(
        &Config::with_cases(6),
        "cluster_chaos_replicated_streams_survive_member_loss",
        (
            (0u64..1_000, 2usize..5, 0u8..3),
            (1usize..3, 1u64..4, 2u64..8),
            (any_bool(), 1u64..4, 1u64..3),
        ),
        |&(
            (seed, volumes, placement_sel),
            (base_replicas, kill_round, rejoin_delay),
            (wiped, revoke_after, readmit_clean),
        )| {
            let placement = match placement_sel {
                0 => Placement::RoundRobin,
                1 => Placement::LeastLoaded,
                _ => Placement::Popularity {
                    hot_threshold: 0.5,
                    extra: 1,
                },
            };
            let mut c = Cluster::new(ClusterConfig {
                volumes,
                placement,
                base_replicas,
                seed,
            })
            .expect("cluster");
            let hot = c
                .ingest(
                    "hot",
                    &ClipSpec::video_seconds(1.0).with_seed(seed ^ 1),
                    1.0,
                )
                .expect("ingest hot");
            let cold = c
                .ingest(
                    "cold",
                    &ClipSpec::video_seconds(1.0).with_seed(seed ^ 2),
                    0.0,
                )
                .expect("ingest cold");
            let victim = (seed as usize) % volumes;
            let script = [
                ScriptedAction {
                    at_round: kill_round,
                    action: ClusterAction::Kill(victim),
                },
                ScriptedAction {
                    at_round: kill_round + rejoin_delay,
                    action: if wiped {
                        ClusterAction::RejoinWiped(victim)
                    } else {
                        ClusterAction::Rejoin(victim)
                    },
                },
            ];
            let mut cfg = ClusterPlayback::with_k(3).restore(2);
            cfg.revoke_after_drops = revoke_after;
            cfg.readmit_clean_rounds = readmit_clean;
            let report =
                simulate_cluster(&mut c, &[hot, cold], &script, &cfg).expect("cluster sim");

            for (i, s) in report.sim.streams.iter().enumerate() {
                if report.replicated[i] {
                    // Failover guarantee: a k≥2 title rides out one
                    // member loss without losing a single block.
                    prop_assert_eq!(
                        s.dropped_blocks,
                        0,
                        "replicated stream {} dropped blocks",
                        i
                    );
                } else {
                    // Ladder conservation: every block was delivered or
                    // explicitly degraded — none simply vanished.
                    prop_assert_eq!(
                        s.fetched + s.dropped_blocks,
                        s.blocks,
                        "stream {} leaked blocks",
                        i
                    );
                }
            }
            // A surviving replica existed for the replicated title, so
            // losing its serving volume must have forced a failover —
            // unless the viewer was already on a surviving copy.
            prop_assert!(report.rejoins.len() == 1, "exactly one rejoin ran");
            let rj = &report.rejoins[0];
            prop_assert_eq!(rj.volume, victim);
            prop_assert_eq!(rj.wiped, wiped);
            prop_assert_eq!(rj.fsck_findings, 0, "rejoin left fsck findings");
            if !wiped {
                prop_assert_eq!(rj.reconcile.lost, 0, "intact rejoin lost replicas");
            }
            // The rejoined member is internally consistent…
            let far_future = Instant::from_nanos(u64::MAX / 4);
            prop_assert!(
                c.fsck_member(victim, far_future).clean(),
                "rejoined member not fsck-clean"
            );
            // …and the catalog agrees with every member's strand
            // inventory: a fresh reconciliation pass is a no-op.
            for v in 0..volumes {
                let mut cat = c.catalog().clone();
                let rec = cat.reconcile(v, c.members()[v].mrs().msm());
                prop_assert_eq!(rec.restored, 0, "catalog stale on volume {}", v);
                prop_assert_eq!(rec.lost, 0, "catalog overstates volume {}", v);
            }
            let _ = cold;
            Ok(())
        },
    );
}

/// Events in emission order, each tagged with the member whose sink
/// emitted it: `None` for the cluster's own sink (rounds, turns, scrub
/// probes), `Some(v)` for member `v`'s disk and index.
type TaggedLog = std::rc::Rc<std::cell::RefCell<Vec<(Option<usize>, strandfs::obs::Event)>>>;

struct Tagged(Option<usize>, TaggedLog);

impl strandfs::obs::Recorder for Tagged {
    fn record(&mut self, event: strandfs::obs::Event) {
        self.1.borrow_mut().push((self.0, event));
    }
}

/// Give the cluster and each of its members a [`Tagged`] sink over one log.
fn tagged_sinks(c: &mut strandfs::cluster::Cluster) -> TaggedLog {
    use std::{cell::RefCell, rc::Rc};
    use strandfs::obs::ObsSink;
    let log = TaggedLog::default();
    let sink = |tag| ObsSink::shared(&Rc::new(RefCell::new(Tagged(tag, log.clone()))));
    c.set_obs(&sink(None));
    for v in 0..c.members().len() {
        c.member_mut(v).mrs_mut().set_obs(sink(Some(v)));
    }
    log
}

/// Restore spends slack, never the round, and only a lane no viewer
/// served lends it: kill / rejoin / wiped-rejoin scripts on otherwise
/// fault-free members, one victim per volume pair and one viewer per
/// member (so a survivor carries two), over `k` in 2..=5, a restore cap
/// of 1, 2 or 8 blocks per destination, scrub on or off. Every turn of a
/// service round begins at or after its `RoundStart`; the round ends at
/// the frontier — its latest turn completion, or the round end before it
/// when that is later, an idle round's end being its window's end or its
/// last copy's completion, where the next round starts; no disk read or
/// restore data write issued in it
/// completes after that; and no disk op or scrub probe of its barrier
/// lands on a lane a turn read from. Replicated viewers drop nothing,
/// and every replica is live again at the end.
#[test]
fn restore_in_slack_never_moves_a_round_end() {
    use strandfs::cluster::{
        simulate_cluster, Cluster, ClusterAction, ClusterConfig, ClusterPlayback, Placement,
        ReplicaState, ScriptedAction,
    };
    use strandfs::obs::{AccessDir, Event};
    use strandfs::sim::ClipSpec;

    check_with(
        &Config::with_cases(8),
        "restore_in_slack_never_moves_a_round_end",
        (
            (0u64..1_000, 2usize..4, 2u32..5),
            (2u64..6, 0usize..3, any_bool()),
            prop_vec((0usize..2, 0u8..3, 1u64..5, 1u64..6), 3..4),
        ),
        |&((seed, pairs, halves), (k, cap, scrub), ref victims)| {
            let mut c = Cluster::new(ClusterConfig {
                volumes: 2 * pairs,
                placement: Placement::RoundRobin,
                base_replicas: 2,
                seed,
            })
            .expect("cluster");
            let log = tagged_sinks(&mut c);
            // Round-robin puts title `p` on the pair (2p, 2p + 1).
            let mut viewers = Vec::new();
            for p in 0..pairs as u64 {
                let clip = ClipSpec::video_seconds(f64::from(halves) / 2.0).with_seed(seed ^ p);
                let title = c.ingest("clip", &clip, 0.0).expect("ingest");
                viewers.extend([title, title]);
            }
            let mut script = Vec::new();
            for (p, &(side, kind, at_round, delay)) in victims.iter().take(pairs).enumerate() {
                let v = 2 * p + side;
                let back = match kind {
                    0 => continue,
                    1 => ClusterAction::Rejoin(v),
                    _ => ClusterAction::RejoinWiped(v),
                };
                script.push(ScriptedAction {
                    at_round,
                    action: ClusterAction::Kill(v),
                });
                script.push(ScriptedAction {
                    at_round: at_round + delay,
                    action: back,
                });
            }
            let mut cfg = ClusterPlayback::with_k(k).restore([1, 2, 8][cap]);
            if scrub {
                cfg = cfg.scrub(2);
            }
            let report = simulate_cluster(&mut c, &viewers, &script, &cfg).expect("cluster sim");
            prop_assert_eq!(report.replicated_dropped(), 0, "replicated blocks dropped");
            for t in c.catalog().titles() {
                for r in &t.replicas {
                    prop_assert_eq!(r.state, ReplicaState::Live, "replica on {}", r.volume);
                }
            }

            let log = log.borrow();
            // The open service round: where it starts in the log and in
            // time, its latest turn end, the log index of that turn, and
            // the latest completion of a read or data write issued in it.
            let mut open = None;
            // The round end before it: a service round's, or an idle
            // round's window end or its last copy's completion if later.
            // The reads of a rejoin fired after an idle round are mount
            // work, not copies.
            let mut frontier = Instant::EPOCH;
            let mut idle = None;
            let rejoins = |v: usize, round: u64| {
                script.iter().any(|a| {
                    a.at_round == round
                        && matches!(a.action, ClusterAction::Rejoin(x) | ClusterAction::RejoinWiped(x) if x == v)
                })
            };
            let mut data_write = vec![None; 2 * pairs];
            let mut checked = 0;
            for (i, &(tag, ref e)) in log.iter().enumerate() {
                match *e {
                    Event::RoundStart { at, .. } => {
                        if idle.take().is_some() {
                            prop_assert_eq!(at, frontier, "a round starts inside an idle one");
                        }
                        open = Some((i, at, at, i, at));
                    }
                    Event::RoundIdle {
                        round,
                        at,
                        advanced,
                        ..
                    } => {
                        prop_assert_eq!(at, frontier, "idle round {} start", round);
                        frontier = at + advanced;
                        idle = Some(round);
                    }
                    Event::StreamService {
                        round, begin, end, ..
                    } => {
                        if let Some((_, start, latest, last_turn, _)) = &mut open {
                            prop_assert!(begin >= *start, "round {} turn before its start", round);
                            *latest = end.max(*latest);
                            *last_turn = i;
                        }
                    }
                    Event::Alloc { lba, .. } => {
                        data_write[tag.expect("a member's event")] = Some(lba)
                    }
                    Event::DiskOp {
                        dir,
                        lba,
                        issued,
                        seek,
                        rotation,
                        transfer,
                        ..
                    } => {
                        let done = issued + seek + rotation + transfer;
                        let v = tag.expect("a member's event");
                        let bounded = dir == AccessDir::Read || Some(lba) == data_write[v];
                        if let (Some((.., last)), true) = (&mut open, bounded) {
                            *last = done.max(*last);
                        } else if idle.is_some_and(|r| !rejoins(v, r + 1)) && bounded {
                            frontier = done.max(frontier);
                        }
                    }
                    Event::RoundEnd { round, at } => {
                        let (first, _, latest, last_turn, last) =
                            open.take().expect("a round end closes a start");
                        prop_assert_eq!(at, latest.max(frontier), "round {} end", round);
                        prop_assert!(last <= at, "round {} has I/O past its end", round);
                        let (turns, barrier) = log[first..i].split_at(last_turn + 1 - first);
                        let read = |v: usize| {
                            turns
                                .iter()
                                .any(|(t, e)| *t == Some(v) && matches!(e, Event::DiskOp { .. }))
                        };
                        for (t, e) in barrier {
                            let lane = match *e {
                                Event::DiskOp { .. } => *t,
                                Event::Scrub { volume, .. } => Some(volume),
                                _ => None,
                            };
                            if let Some(v) = lane.filter(|&v| read(v)) {
                                return Err(CaseError::Fail(format!(
                                    "round {round}: background work on serving lane {v}"
                                )));
                            }
                        }
                        frontier = at;
                        checked += 1;
                    }
                    _ => {}
                }
            }
            prop_assert!(checked > 0, "no service round ran");
            Ok(())
        },
    );
}

/// Faults stay on their volume pair. Titles sit one per pair
/// (round-robin, two replicas), two viewers each, under verified reads,
/// hedging, scrub and restore; every fault lands on one member of pair
/// 0 — a kill, with an intact or wiped rejoin or none, a fail-slow
/// stretch, bit flips under its copy, any mix of them. Every viewer of
/// another pair gets the `StreamOutcome` the fault-free run gives it.
#[test]
fn faults_on_one_pair_leave_every_other_pair_untouched() {
    use strandfs::cluster::{
        simulate_cluster, Cluster, ClusterAction, ClusterConfig, ClusterPlayback, Placement,
        ScriptedAction,
    };
    use strandfs::disk::FaultPlan;
    use strandfs::sim::ClipSpec;

    check_with(
        &Config::with_cases(8),
        "faults_on_one_pair_leave_every_other_pair_untouched",
        (
            (0u64..1_000, 2usize..4, 2u32..5, 2u64..4),
            (0usize..2, 0u8..4, 1u64..4, 1u64..6),
            (any_bool(), 2u64..12, 0u64..4),
        ),
        |&((seed, pairs, halves, k), (v, kill, at_round, delay), (slow, factor, flips))| {
            let run = |faulty: bool| {
                let mut c = Cluster::new(ClusterConfig {
                    volumes: 2 * pairs,
                    placement: Placement::RoundRobin,
                    base_replicas: 2,
                    seed,
                })
                .expect("cluster");
                let mut viewers = Vec::new();
                for p in 0..pairs as u64 {
                    let clip = ClipSpec::video_seconds(f64::from(halves) / 2.0).with_seed(seed ^ p);
                    let title = c.ingest("clip", &clip, 0.0).expect("ingest");
                    viewers.extend([title, title]);
                }
                c.set_verify_reads(true);
                let mut script = Vec::new();
                if faulty {
                    let replicas = &c.catalog().title(viewers[0]).replicas;
                    let loc = replicas
                        .iter()
                        .find(|r| r.volume == v)
                        .expect("on pair 0")
                        .strands[0];
                    let strand = c.members()[v]
                        .mrs()
                        .msm()
                        .strand(loc.strand)
                        .expect("strand");
                    let mut plan = FaultPlan::clean();
                    for n in 0..flips.min(loc.blocks) {
                        if let Some(e) = strand.block(n).expect("block") {
                            plan = plan.with_silent_corruption(e);
                        }
                    }
                    if slow {
                        plan = plan.with_fail_slow(factor as f64);
                    }
                    assert!(c.arm_member_faults(v, plan));
                    let back = match kill {
                        0 => None,
                        1 => Some(None),
                        2 => Some(Some(ClusterAction::Rejoin(v))),
                        _ => Some(Some(ClusterAction::RejoinWiped(v))),
                    };
                    if let Some(back) = back {
                        script.push(ScriptedAction {
                            at_round,
                            action: ClusterAction::Kill(v),
                        });
                        script.extend(back.map(|action| ScriptedAction {
                            at_round: at_round + delay,
                            action,
                        }));
                    }
                }
                let cfg = ClusterPlayback::with_k(k)
                    .scrub(2)
                    .restore(2)
                    .hedged()
                    .audited();
                simulate_cluster(&mut c, &viewers, &script, &cfg)
            };
            let clean = run(false).expect("fault-free run");
            let faulted = run(true).expect("faulted run");
            let others = 2..clean.sim.streams.len();
            for i in others {
                prop_assert_eq!(
                    &faulted.sim.streams[i],
                    &clean.sim.streams[i],
                    "viewer {} of pair {}",
                    i,
                    i / 2
                );
            }
            Ok(())
        },
    );
}

/// The first `(volume, strand, block)` on an up member whose stored
/// payload no longer hashes to its stamp.
fn first_corrupt_block(c: &strandfs::cluster::Cluster) -> Option<(usize, StrandId, u64)> {
    let up = (0..c.members().len()).filter(|&v| c.is_up(v));
    up.flat_map(|v| {
        let msm = c.members()[v].mrs().msm();
        let strands = msm.strand_ids().into_iter();
        strands.flat_map(move |sid| {
            let blocks = 0..msm.strand(sid).unwrap().block_count();
            blocks.map(move |b| (v, sid, b))
        })
    })
    .find(|&(v, sid, b)| {
        let msm = c.members()[v].mrs().msm();
        msm.check_block_sum(sid, b).unwrap() == Some(false)
    })
}

#[test]
fn cluster_integrity_chaos_scrub_repairs_and_viewers_stay_clean() {
    use strandfs::cluster::{simulate_cluster, Cluster, ClusterConfig, ClusterPlayback, Placement};
    use strandfs::disk::FaultPlan;
    use strandfs::sim::ClipSpec;

    // Random silent corruption on one replica plus a gray fail-slow
    // member at the same time: the scrubber must detect the decay,
    // repair it from the live copy through the re-replication path, and
    // the audited service loop must hand viewers zero corrupt and zero
    // dropped blocks throughout. Afterwards no corrupt block may remain
    // anywhere, every member is fsck-clean and the catalog reconciles
    // as a no-op.
    check_with(
        &Config::with_cases(6),
        "cluster_integrity_chaos_scrub_repairs_and_viewers_stay_clean",
        ((0u64..1_000, 2usize..4), (0u64..24, 1u64..5, 4u64..12)),
        |&((seed, volumes), (start, len, slow_x))| {
            let mut c = Cluster::new(ClusterConfig {
                volumes,
                placement: Placement::LeastLoaded,
                base_replicas: 2,
                seed,
            })
            .expect("cluster");
            let id = c
                .ingest(
                    "hot",
                    &ClipSpec::video_seconds(1.5).with_seed(seed ^ 9),
                    1.0,
                )
                .expect("ingest");
            c.set_verify_reads(true);
            // Flip one bit in a random run of replica 0's stored blocks,
            // invisibly to the device.
            let (v0, loc) = {
                let rep = &c.catalog().title(id).replicas[0];
                (rep.volume, rep.strands[0])
            };
            let v1 = c.catalog().title(id).replicas[1].volume;
            let first = start % loc.blocks;
            let mut plan = FaultPlan::clean();
            let mut corrupted = 0u64;
            for n in first..(first + len).min(loc.blocks) {
                let block = c.members()[v0]
                    .mrs()
                    .msm()
                    .strand(loc.strand)
                    .unwrap()
                    .block(n)
                    .unwrap();
                if let Some(e) = block {
                    plan = plan.with_silent_corruption(e);
                    corrupted += 1;
                }
            }
            prop_assert!(corrupted > 0, "video strands hold only stored blocks");
            prop_assert!(c.arm_member_faults(v0, plan));
            // Replica 1's member turns fail-slow: every op stretches,
            // nothing errors.
            prop_assert!(c.arm_member_faults(v1, FaultPlan::clean().with_fail_slow(slow_x as f64)));
            let mut cfg = ClusterPlayback::with_k(3)
                .scrub(3)
                .restore(2)
                .audited()
                .hedged();
            cfg.quarantine_after_rounds = 1;
            // Zero drops needs the glitch window covered: the paper's
            // buffer-ahead defense, provisioned for the fault envelope.
            // Steady state needs 2k (one degraded round until quarantine
            // kicks the slow member out); the corrupt run adds one
            // remote read-around serve per bad block, each costing
            // ~0.3·slow_x item durations on the slow source.
            cfg.read_ahead = 2 * cfg.k + (3 * len * slow_x).div_ceil(10);
            let report = simulate_cluster(&mut c, &[id, id], &[], &cfg).expect("cluster sim");

            // Every corrupt block was detected — by the scrubber or by a
            // verified viewer read — and repaired in place (or the
            // replica invalidated for rebuild); the audience never saw
            // it.
            prop_assert!(report.scrubbed_blocks > 0, "scrub never ran");
            prop_assert!(
                report.scrub_corrupt + report.read_repairs >= 1,
                "the corruption was never detected"
            );
            prop_assert!(
                report.scrub_repaired + report.read_repairs + report.scrub_invalidated >= 1,
                "no repair was triggered"
            );
            prop_assert_eq!(report.corrupt_served, 0, "a corrupt block reached a viewer");
            prop_assert_eq!(report.replicated_dropped(), 0, "replicated stream dropped");
            for (i, s) in report.sim.streams.iter().enumerate() {
                prop_assert_eq!(
                    s.fetched + s.dropped_blocks,
                    s.blocks,
                    "stream {} leaked",
                    i
                );
            }
            // Gray failure: both members stayed up the whole time.
            prop_assert!(
                c.is_up(v0) && c.is_up(v1),
                "gray faults must not down members"
            );
            // No corrupt block survives anywhere in the cluster.
            prop_assert_eq!(first_corrupt_block(&c), None, "a corrupt block survives");
            // Every replica is live again, members are fsck-clean, and
            // a fresh reconciliation pass is a no-op.
            let far_future = Instant::from_nanos(u64::MAX / 4);
            for r in &c.catalog().title(id).replicas {
                prop_assert!(
                    matches!(r.state, strandfs::cluster::ReplicaState::Live),
                    "replica on volume {} not restored",
                    r.volume
                );
            }
            for v in 0..volumes {
                prop_assert!(c.fsck_member(v, far_future).clean(), "volume {} dirty", v);
                let mut cat = c.catalog().clone();
                let rec = cat.reconcile(v, c.members()[v].mrs().msm());
                prop_assert_eq!(rec.restored, 0, "catalog stale on volume {}", v);
                prop_assert_eq!(rec.lost, 0, "catalog overstates volume {}", v);
            }
            Ok(())
        },
    );
}

#[test]
fn cluster_integrity_chaos_scrub_coverage() {
    use std::collections::{BTreeMap, BTreeSet};
    use strandfs::cluster::{simulate_cluster, Cluster, ClusterConfig, ClusterPlayback, Placement};
    use strandfs::obs::{Event, ObsSink};
    use strandfs::sim::ClipSpec;

    // What the scrub cursor covers, against a model of what is stored
    // and what was read. On a healthy cluster every viewer reads each
    // block of its replica once, all in step, so a block can be credited
    // at most once in a run — and only with verified reads, and only on
    // the member the viewer read it from. Nothing here makes an image
    // suspect, so a member's cursor walks its stamped blocks in order
    // exactly once and then rests, however long the other members and
    // the viewers keep the run open: every stamped block is covered
    // once, by a probe (an `Event::Scrub`) or by its credit.
    check_with(
        &Config::with_cases(8),
        "cluster_integrity_chaos_scrub_coverage",
        (
            (0u64..1_000, 2usize..5, 0u8..3, 1usize..3),
            prop_vec(0usize..3, 1..6),
            (1u64..5, 1u64..6, any_bool()),
        ),
        |&((seed, volumes, placement_sel, base_replicas), ref viewers, (k, budget, verify))| {
            let placement = match placement_sel {
                0 => Placement::RoundRobin,
                1 => Placement::LeastLoaded,
                _ => Placement::Popularity {
                    hot_threshold: 0.5,
                    extra: 1,
                },
            };
            let mut c = Cluster::new(ClusterConfig {
                volumes,
                placement,
                base_replicas,
                seed,
            })
            .expect("cluster");
            let (sink, ring) = ObsSink::ring(1 << 16);
            c.set_obs(&sink);
            let titles: Vec<_> = [(0.6, 1.0), (1.1, 0.4), (1.7, 0.0)]
                .iter()
                .enumerate()
                .map(|(t, &(secs, popularity))| {
                    let clip = ClipSpec::video_seconds(secs).with_seed(seed ^ t as u64);
                    c.ingest("title", &clip, popularity).expect("ingest")
                })
                .collect();
            c.set_verify_reads(verify);

            // The model: every stamped block, and every block a viewer
            // will read — viewer `i` plays replica `i mod n` — as
            // `(volume, strand, block)`.
            let mut stamped = BTreeSet::new();
            for (v, m) in c.members().iter().enumerate() {
                let msm = m.mrs().msm();
                for id in msm.strand_ids() {
                    let sums = msm.strand(id).unwrap().sums();
                    let blocks = (0..sums.len()).filter(|&b| sums[b] != 0);
                    stamped.extend(blocks.map(|b| (v, id.raw(), b as u64)));
                }
            }
            // At most two viewers a member — the load it can carry
            // without dropping a block.
            let mut read = BTreeSet::new();
            let mut load = vec![0; volumes];
            let mut admitted = Vec::new();
            for &t in viewers {
                let replicas = &c.catalog().title(titles[t]).replicas;
                let r = &replicas[admitted.len() % replicas.len()];
                if load[r.volume] == 2 {
                    continue;
                }
                load[r.volume] += 1;
                admitted.push(titles[t]);
                let items = r.schedule.items.iter().filter(|it| !it.silence);
                read.extend(items.map(|it| (r.volume, it.strand.raw(), it.block)));
            }
            let viewers = admitted;
            prop_assert!(read.is_subset(&stamped), "every stored block is stamped");

            let cfg = ClusterPlayback::with_k(k).scrub(budget);
            let report = simulate_cluster(&mut c, &viewers, &[], &cfg).expect("cluster sim");
            prop_assert_eq!(
                report.sim.total_dropped(),
                0,
                "a healthy cluster drops nothing"
            );

            let ring = ring.borrow();
            prop_assert_eq!(ring.dropped(), 0, "ring too small for the run");
            let mut probes: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
            for e in ring.events() {
                if let Event::Scrub {
                    volume,
                    strand,
                    block,
                    ok,
                    ..
                } = *e
                {
                    prop_assert!(ok, "a healthy block failed its probe");
                    probes.entry(volume).or_default().push((strand, block));
                }
            }
            let probed: u64 = probes.values().map(|p| p.len() as u64).sum();
            prop_assert_eq!(report.scrubbed_blocks - report.scrub_credited, probed);
            prop_assert_eq!(ring.metrics().tally.scrubbed, probed);
            let by_volume: u64 = report.volumes.iter().map(|v| v.scrubbed).sum();
            prop_assert_eq!(by_volume, report.scrubbed_blocks);
            prop_assert_eq!(report.scrubbed_blocks, stamped.len() as u64);
            if !verify {
                prop_assert_eq!(report.scrub_credited, 0, "credit without verification");
            }

            for v in 0..volumes {
                let walk: Vec<(u64, u64)> = stamped
                    .range((v, 0, 0)..(v + 1, 0, 0))
                    .map(|&(_, s, b)| (s, b))
                    .collect();
                let probes = probes.remove(&v).unwrap_or_default();
                // The run ends only after a full pass over every member,
                // and a finished pass is not followed by another.
                prop_assert_eq!(
                    report.volumes[v].scrubbed as usize,
                    walk.len(),
                    "volume {} was not covered exactly once",
                    v
                );
                // The probes fall on the cursor's walk, in its order —
                // so none falls on a block twice.
                let mut ahead = walk.iter();
                for p in &probes {
                    prop_assert!(
                        ahead.any(|w| w == p),
                        "volume {} probed {:?} off the walk or twice",
                        v,
                        p
                    );
                }
                // What the cursor passed without a probe it passed on
                // credit, which takes a verified read of that block.
                for &(s, b) in walk.iter().filter(|w| !probes.contains(w)) {
                    prop_assert!(
                        verify && read.contains(&(v, s, b)),
                        "volume {} block {:?} was neither probed nor creditable",
                        v,
                        (s, b)
                    );
                }
            }
            Ok(())
        },
    );
}

#[test]
fn cluster_integrity_chaos_scrub_passes_open_on_suspicion_only() {
    use std::collections::BTreeMap;
    use strandfs::cluster::{
        simulate_cluster, Cluster, ClusterAction, ClusterConfig, ClusterPlayback, Placement,
        ScriptedAction,
    };
    use strandfs::disk::FaultPlan;
    use strandfs::obs::{Event, ObsSink};
    use strandfs::sim::ClipSpec;

    // The same accounting with everything that makes an image suspect
    // switched on: a member killed and rejoined (with its media or
    // wiped), a throttled restore that keeps the run idling long after
    // the viewers are done, and bit flips under a replica viewers read.
    // A pass never probes a block twice, and a new pass opens only on a
    // trigger — so a member's probes split into at most one ascending
    // sweep more than the triggers it saw. The triggers are not in the
    // event stream; the model counts them: the script's actions on the
    // member, the replicas restored, and — on the flipped member, whose
    // clean partner is never the victim, so every read that trips over a
    // flip is repaired — the read repairs. And the chaos contract holds:
    // no flip survives on a member that is up at the end.
    check_with(
        &Config::with_cases(8),
        "cluster_integrity_chaos_scrub_passes_open_on_suspicion_only",
        (
            (0u64..1_000, 2usize..5, prop_vec(0usize..3, 1..5)),
            (1u64..4, 1u64..5, any_bool()),
            (1u64..4, 1u64..6, any_bool()),
            (0u64..24, 1u64..4),
        ),
        |&(
            (seed, volumes, ref viewers),
            (k, budget, verify),
            (kill_round, rejoin_delay, wiped),
            (start, len),
        )| {
            let mut c = Cluster::new(ClusterConfig {
                volumes,
                placement: Placement::RoundRobin,
                base_replicas: 2,
                seed,
            })
            .expect("cluster");
            let (sink, ring) = ObsSink::ring(1 << 17);
            c.set_obs(&sink);
            let titles: Vec<_> = [0.6, 1.1, 1.7]
                .iter()
                .enumerate()
                .map(|(t, &secs)| {
                    let clip = ClipSpec::video_seconds(secs).with_seed(seed ^ t as u64);
                    c.ingest("title", &clip, 0.5).expect("ingest")
                })
                .collect();
            c.set_verify_reads(verify);

            // Flips under the first title's first replica; its partner
            // stays clean and up, everyone else may die.
            let (flipped, loc) = {
                let rep = &c.catalog().title(titles[0]).replicas[0];
                (rep.volume, rep.strands[0])
            };
            let partner = c.catalog().title(titles[0]).replicas[1].volume;
            let mut plan = FaultPlan::clean();
            let first = start % loc.blocks;
            for n in first..(first + len).min(loc.blocks) {
                let msm = c.members()[flipped].mrs().msm();
                let e = msm.strand(loc.strand).unwrap().block(n).unwrap();
                plan = plan.with_silent_corruption(e.expect("video blocks are stored"));
            }
            prop_assert!(c.arm_member_faults(flipped, plan));
            let mortal: Vec<usize> = (0..volumes).filter(|&v| v != partner).collect();
            let victim = mortal[seed as usize % mortal.len()];
            let script = [
                ScriptedAction {
                    at_round: kill_round,
                    action: ClusterAction::Kill(victim),
                },
                ScriptedAction {
                    at_round: kill_round + rejoin_delay,
                    action: if wiped {
                        ClusterAction::RejoinWiped(victim)
                    } else {
                        ClusterAction::Rejoin(victim)
                    },
                },
            ];
            let viewers: Vec<_> = viewers.iter().map(|&t| titles[t]).collect();
            let mut cfg = ClusterPlayback::with_k(k)
                .scrub(budget)
                .restore(1)
                .audited();
            cfg.quarantine_after_rounds = 0;
            let report = simulate_cluster(&mut c, &viewers, &script, &cfg).expect("cluster sim");
            if verify {
                prop_assert_eq!(report.corrupt_served, 0, "a corrupt block reached a viewer");
            }

            let ring = ring.borrow();
            prop_assert_eq!(ring.dropped(), 0, "ring too small for the run");
            let mut probes: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
            for e in ring.events() {
                if let Event::Scrub {
                    volume,
                    strand,
                    block,
                    ..
                } = *e
                {
                    probes.entry(volume).or_default().push((strand, block));
                }
            }
            let probed: u64 = probes.values().map(|p| p.len() as u64).sum();
            prop_assert_eq!(report.scrubbed_blocks - report.scrub_credited, probed);
            for (&v, probes) in &probes {
                let sweeps = 1 + probes.windows(2).filter(|w| w[1] <= w[0]).count() as u64;
                let triggers = 2 * u64::from(v == victim)
                    + report.restored_replicas
                    + u64::from(v == flipped) * report.read_repairs;
                prop_assert!(
                    sweeps <= 1 + triggers,
                    "volume {}: {} sweeps on {} triggers: {:?}",
                    v,
                    sweeps,
                    triggers,
                    probes
                );
            }

            prop_assert_eq!(first_corrupt_block(&c), None, "a corrupt block survives");
            Ok(())
        },
    );
}

#[test]
fn fsx_model_checks_on_random_streams() {
    // The fsx exerciser as a shrinking property: any (seed, ops) stream
    // must keep the real MRS and the in-memory model rope in lockstep
    // (durations, flattened bytes, triggers, copy bounds). On failure
    // the harness shrinks `ops` toward the shortest prefix that still
    // diverges, and the panic carries the replay seed.
    check_with(
        &Config::with_cases(6),
        "fsx_model_checks_on_random_streams",
        (0u64..1 << 32, 30u64..90),
        |&(seed, ops)| {
            let cfg = FsxConfig::healthy(seed, ops);
            match fsx_try_run(&cfg) {
                Ok(out) => {
                    prop_assert_eq!(out.ops_attempted, ops);
                    prop_assert!(out.verifies > 0);
                    Ok(())
                }
                Err(e) => Err(CaseError::fail(e)),
            }
        },
    );
}

//! Tier-1 cluster failover smoke: one bounded kill-one-member run on a
//! two-volume cluster with a replicated title, seeded from
//! `STRANDFS_TEST_SEED` (the seed is logged; replay any failure with
//! the printed value). The contract checked is the cluster layer's
//! headline guarantee: a stream of a 2-replicated title survives the
//! loss of the member it is playing from with zero dropped blocks and
//! a read-ahead-bounded glitch, and the member rejoins fsck-clean with
//! a reconciled catalog.

mod report_fields;

use report_fields::ReportFields;
use strandfs::cluster::{
    simulate_cluster, Cluster, ClusterAction, ClusterConfig, ClusterPlayback, MemberState,
    Placement, ScriptedAction,
};
use strandfs::sim::ClipSpec;
use strandfs::units::Instant;
use strandfs_testkit::prop::Config;

#[test]
fn replicated_title_survives_a_seeded_member_kill() {
    let seed = Config::from_env().seed;
    eprintln!(
        "cluster failover smoke: replay with STRANDFS_TEST_SEED={seed} \
         cargo test -q --test cluster_failover"
    );
    let volumes = 2;
    let victim = (seed % volumes as u64) as usize;
    let kill_round = 1 + seed % 3;
    let rejoin_round = kill_round + 3;

    let mut c = Cluster::new(ClusterConfig {
        base_replicas: 2,
        ..ClusterConfig::round_robin(volumes, seed)
    })
    .expect("cluster");
    let id = c
        .ingest("title", &ClipSpec::video_seconds(2.0).with_seed(5), 1.0)
        .expect("ingest");
    // Viewer i starts on replica i % 2, so each member serves one of
    // the two viewers — whichever member dies, a stream fails over.
    let script = [
        ScriptedAction {
            at_round: kill_round,
            action: ClusterAction::Kill(victim),
        },
        ScriptedAction {
            at_round: rejoin_round,
            action: ClusterAction::Rejoin(victim),
        },
    ];
    let cfg = ClusterPlayback::with_k(3);
    let report = simulate_cluster(&mut c, &[id, id], &script, &cfg).expect("simulate");

    assert_eq!(
        report.replicated_dropped(),
        0,
        "failover lost blocks (seed {seed}, victim {victim}, kill round {kill_round})"
    );
    assert!(
        report.failovers >= 1,
        "the kill must force a failover (seed {seed})"
    );
    assert!(
        report.replicated_miss_burst() <= cfg.read_ahead + 1,
        "glitch {} exceeds the read-ahead bound (seed {seed})",
        report.replicated_miss_burst()
    );
    for s in &report.sim.streams {
        assert_eq!(s.blocks, s.fetched + s.dropped_blocks, "seed {seed}");
    }
    // The victim came back clean: journal replay + fsck found nothing,
    // the catalog lost nothing, and the member serves again.
    let rejoin = &report.rejoins[0];
    assert_eq!(rejoin.volume, victim);
    assert_eq!(rejoin.fsck_findings, 0, "seed {seed}");
    assert_eq!(rejoin.reconcile.lost, 0, "seed {seed}");
    assert_eq!(c.members()[victim].state(), MemberState::Up);
    assert!(
        c.fsck_member(victim, Instant::from_nanos(u64::MAX / 2))
            .clean(),
        "rejoined member must be fsck-clean (seed {seed})"
    );
}

#[test]
fn least_loaded_placement_is_deterministic_across_identical_runs() {
    let seed = Config::from_env().seed;
    eprintln!(
        "placement determinism smoke: replay with STRANDFS_TEST_SEED={seed} \
         cargo test -q --test cluster_failover"
    );
    // Slack ties are the dangerous case: a fresh symmetric cluster has
    // identical Eq. 18 slack on every volume, so only the stable
    // placed-then-volume-id tie-break keeps two identical runs from
    // diverging. Ingest the same mix twice and pin the layouts equal.
    let layout = |seed: u64| -> Vec<Vec<usize>> {
        let mut c = Cluster::new(ClusterConfig {
            base_replicas: 2,
            placement: Placement::LeastLoaded,
            ..ClusterConfig::round_robin(3, seed)
        })
        .expect("cluster");
        for (i, secs) in [0.6, 0.4, 0.8, 0.4].iter().enumerate() {
            c.ingest(
                "title",
                &ClipSpec::video_seconds(*secs).with_seed(seed ^ i as u64),
                0.5,
            )
            .expect("ingest");
        }
        c.catalog()
            .titles()
            .iter()
            .map(|t| t.replicas.iter().map(|r| r.volume).collect())
            .collect()
    };
    let a = layout(seed);
    let b = layout(seed);
    assert_eq!(a, b, "identical runs must place identically (seed {seed})");
    // The first title lands on a fully symmetric cluster: the
    // tie-break pins it to the lowest volume ids, ascending.
    assert_eq!(a[0], vec![0, 1], "seed {seed}");
    // Every replica pair is on distinct volumes.
    for (t, replicas) in a.iter().enumerate() {
        assert_eq!(replicas.len(), 2, "title {t} (seed {seed})");
        assert_ne!(replicas[0], replicas[1], "title {t} (seed {seed})");
    }
}

/// `failover_storm` in miniature, so that a scrubber that goes back to
/// lapping fails `cargo test` and not only the benchmark: four volume
/// pairs, a title per member, one viewer per member; one member killed
/// and rejoined with its media, one killed and rejoined wiped, bit flips
/// under a replica a third one is serving, and `restore(1)` — so the run
/// idles some sixty rounds behind the rebuild after six of playback.
#[test]
fn a_small_storm_is_survived_on_one_scrub_pass_per_suspicion() {
    use strandfs::cluster::ReplicaState;
    use strandfs::disk::FaultPlan;

    let seed = Config::from_env().seed;
    eprintln!(
        "small storm: replay with STRANDFS_TEST_SEED={seed} \
         cargo test -q --test cluster_failover"
    );
    let volumes = 8;
    let mut c = Cluster::new(ClusterConfig {
        base_replicas: 2,
        ..ClusterConfig::round_robin(volumes, seed)
    })
    .expect("cluster");
    let titles: Vec<_> = (0..volumes as u64)
        .map(|i| {
            let clip = ClipSpec::video_seconds(3.0).with_seed(seed ^ i);
            c.ingest("title", &clip, 0.0).expect("ingest")
        })
        .collect();
    c.set_verify_reads(true);
    // Round-robin placement puts titles `p` and `p + 4` on the pair
    // `(2p, 2p + 1)`, and viewer `i` starts on replica `i % 2`: one
    // stream per member.
    let viewers: Vec<_> = (0..4).flat_map(|p| [titles[p], titles[p + 4]]).collect();
    let serving: Vec<usize> = (0..volumes)
        .map(|i| c.catalog().title(viewers[i]).replicas[i % 2].volume)
        .collect();
    let mut members = serving.clone();
    members.sort_unstable();
    assert_eq!(members, (0..volumes).collect::<Vec<_>>());
    let stamped: u64 = titles
        .iter()
        .flat_map(|&t| &c.catalog().title(t).replicas)
        .map(|r| r.strands[0].blocks)
        .sum();

    // The seed picks which member of pairs 0, 1 and 2 is hit.
    let pick = |pair: usize| 2 * pair + (seed >> pair & 1) as usize;
    let (kept, wiped, rotten) = (pick(0), pick(1), pick(2));
    let action = |at_round, action| ScriptedAction { at_round, action };
    let script = [
        action(1, ClusterAction::Kill(kept)),
        action(2, ClusterAction::Kill(wiped)),
        action(3, ClusterAction::Rejoin(kept)),
        action(4, ClusterAction::RejoinWiped(wiped)),
    ];
    let viewer = serving.iter().position(|&v| v == rotten).expect("viewer");
    let loc = c.catalog().title(viewers[viewer]).replicas[viewer % 2].strands[0];
    let mut plan = FaultPlan::clean();
    let flips = [10, 11 + seed % 10, loc.blocks - 1];
    for n in flips {
        let strand = c.members()[rotten].mrs().msm().strand(loc.strand);
        let extent = strand.expect("strand").block(n).expect("block");
        plan = plan.with_silent_corruption(extent.expect("video blocks are stored"));
    }
    assert!(c.arm_member_faults(rotten, plan));

    let cfg = ClusterPlayback::with_k(5)
        .scrub(4)
        .restore(1)
        .hedged()
        .audited();
    let report = simulate_cluster(&mut c, &viewers, &script, &cfg).expect("simulate");

    assert_eq!(report.replicated_dropped(), 0, "seed {seed}");
    assert_eq!(report.corrupt_served, 0, "seed {seed}");
    assert_eq!(
        report.read_repairs + report.scrub_repaired,
        flips.len() as u64,
        "every flip is repaired, once (seed {seed})"
    );
    let replicas = titles.iter().flat_map(|&t| &c.catalog().title(t).replicas);
    assert!(replicas.into_iter().all(|r| r.state == ReplicaState::Live));
    assert!(
        report.sim.rounds > 60,
        "the throttled restore keeps the run idling (seed {seed})"
    );
    let probes = report.scrubbed_blocks - report.scrub_credited;
    assert!(
        probes <= 2 * stamped,
        "{probes} scrub probes over {stamped} stamped blocks in {} rounds: \
         the scrubber is lapping (seed {seed})",
        report.sim.rounds
    );
}

/// One seeded scenario from the space the two cluster chaos properties
/// in `tests/proptests_sim.rs` draw from — placement × kill / rejoin /
/// wiped rejoin × restore × silent corruption × fail-slow × transient
/// faults × scrub × hedging × audit, with a monitor ring attached —
/// folded into two hashes of everything observable: `(behaviour, image)`,
/// the report's fields (`report_fields`) plus the event stream, and
/// every member's disk image. A
/// change to what is *stored* (a checksum stamp, an index layout) moves
/// only the second; a change to what the loop *does* moves the first.
fn cluster_fingerprint(seed: u64) -> (u64, u64) {
    use strandfs::disk::{fnv1a, DegradedWindow, FaultPlan};
    use strandfs::obs::ObsSink;
    use strandfs::units::{Nanos, Prng};

    let mut rng = Prng::seed_from_u64(seed);
    let volumes = rng.gen_range(2usize..5);
    let placement = match rng.bounded_u64(3) {
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
        base_replicas: if rng.gen_bool(0.75) { 2 } else { 1 },
        seed,
    })
    .expect("cluster");
    let (sink, ring) = ObsSink::ring(1 << 17);
    c.set_obs(&sink);
    let hot = c
        .ingest(
            "hot",
            &ClipSpec::video_seconds(1.5).with_seed(seed ^ 1),
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
    c.set_verify_reads(rng.gen_bool(0.6));

    // Per-member fault plans: a run of bit flips under the hot title's
    // first replica (sometimes under its last one too, so no clean
    // source exists), a member that is slow for good or only for the
    // first second, sparse transient read errors.
    let mut plans = vec![FaultPlan::clean(); volumes];
    if rng.gen_bool(0.6) {
        let blocks = c.catalog().title(hot).replicas[0].strands[0].blocks;
        let first = rng.bounded_u64(blocks);
        let len = rng.gen_range(1u64..5);
        let nrep = c.catalog().title(hot).replicas.len();
        let both = rng.gen_bool(0.6);
        for r in [0, nrep - 1] {
            let (v, strand) = {
                let rep = &c.catalog().title(hot).replicas[r];
                (rep.volume, rep.strands[0].strand)
            };
            for n in first..(first + len).min(blocks) {
                let strand = c.members()[v].mrs().msm().strand(strand).unwrap();
                if let Some(e) = strand.block(n).unwrap() {
                    plans[v] = plans[v].clone().with_silent_corruption(e);
                }
            }
            if !both || nrep == 1 {
                break;
            }
        }
    }
    if rng.gen_bool(0.6) {
        let v = c.catalog().title(hot).replicas.last().unwrap().volume;
        let factor = rng.gen_range(4u64..12) as f64;
        plans[v] = if rng.gen_bool(0.5) {
            plans[v].clone().with_fail_slow(factor)
        } else {
            plans[v].clone().with_degraded_window(DegradedWindow {
                from: Instant::EPOCH,
                until: Instant::EPOCH + Nanos::from_millis(rng.gen_range(300u64..1_500)),
                region: None,
                slowdown: 4.0 * factor,
            })
        };
    }
    if rng.gen_bool(0.25) {
        let v = rng.bounded_u64(volumes as u64) as usize;
        plans[v] = plans[v].clone().with_random_transients(0.1, 2);
    }
    for (v, plan) in plans.into_iter().enumerate() {
        assert!(c.arm_member_faults(v, plan));
    }

    let mut script = Vec::new();
    if rng.gen_bool(0.5) {
        let victim = rng.bounded_u64(volumes as u64) as usize;
        let at_round = rng.gen_range(1u64..4);
        script.push(ScriptedAction {
            at_round,
            action: ClusterAction::Kill(victim),
        });
        let back = at_round + rng.gen_range(2u64..8);
        match rng.bounded_u64(3) {
            0 => {}
            1 => script.push(ScriptedAction {
                at_round: back,
                action: ClusterAction::Rejoin(victim),
            }),
            _ => script.push(ScriptedAction {
                at_round: back,
                action: ClusterAction::RejoinWiped(victim),
            }),
        }
    }

    let mut cfg = ClusterPlayback::with_k(rng.gen_range(2u64..4));
    cfg.read_ahead = cfg.k + rng.bounded_u64(cfg.k + 1);
    cfg.revoke_after_drops = rng.gen_range(1u64..4);
    cfg.readmit_clean_rounds = rng.gen_range(1u64..3);
    cfg.quarantine_after_rounds = rng.bounded_u64(3);
    if rng.gen_bool(0.5) {
        cfg = cfg.restore(2);
    }
    if rng.gen_bool(0.5) {
        cfg = cfg.scrub(3);
    }
    if rng.gen_bool(0.6) {
        cfg = cfg.hedged();
    }
    if rng.gen_bool(0.5) {
        cfg = cfg.audited();
    }
    let report = simulate_cluster(&mut c, &[hot, cold, hot, hot], &script, &cfg);

    let mut seen = Vec::new();
    report.put_fields(&mut seen);
    for e in ring.borrow().events() {
        seen.extend_from_slice(format!("{e:?}").as_bytes());
    }
    let mut image = Vec::new();
    for m in c.members() {
        image.extend_from_slice(&m.mrs().msm().disk().content_hash().to_le_bytes());
    }
    (fnv1a(&seen), fnv1a(&image))
}

/// Byte-identity pin for `simulate_cluster`: fixed seeds (independent
/// of `STRANDFS_TEST_SEED`), one committed hash pair each. A refactor of
/// the cluster loop must reproduce every one; an intended behaviour
/// change re-records `BEHAVIOUR`, a change to the stored bytes alone
/// re-records `IMAGE`, and either says so. Between them the 32 runs take
/// every branch of the loop: media failover, hedges won and lost,
/// quarantine and probe re-admission, read-around, scrub repair / skip /
/// invalidation, restore, the revoke ladder and idle rounds — and seed
/// 22 pins an `Err` (a restore pass reading a corrupt source under
/// verified reads aborts the run).
#[test]
fn cluster_loop_fingerprints_are_pinned() {
    #[rustfmt::skip]
    const BEHAVIOUR: [u64; 32] = [
        0x93356c98be51c1bc, 0x3cf9a7f13fc6918c, 0x08b3611b303d2b5d, 0x6a2f6ae265179b00,
        0xc828dba7fa4c7550, 0x30dfa11babd9e533, 0xf8790870a6373397, 0x070fd77c20950c82,
        0x0cb73c5b08b52650, 0xd656cce7db7dee5c, 0x8e2261caa0e9948a, 0xd8a7e7064fc43f47,
        0xc8ec14eeaa51fc08, 0x058033687b3e3abc, 0x32b2b048860ab773, 0xac6f6d90ed4f66b6,
        0x37d3e868451f6be3, 0x996f2c3906afdaf0, 0x27753c90817b0264, 0x6e62a5f9d83974af,
        0x5ec5acd24d6052c9, 0x7aeec63ed67973f7, 0x5a8f4fdf15ae669f, 0x2e4b3b9d9e9b3508,
        0x1a02df1eae9fdbf9, 0x2219a9b86b4e1099, 0xb902c9991bbe16c0, 0x0784716e88062892,
        0x2f0cc1c21e1c835b, 0x6a2c0b87bdad64af, 0x995b9d60c8295140, 0xa0b4a5f936ada1d4,
    ];
    #[rustfmt::skip]
    const IMAGE: [u64; 32] = [
        0xd649fcea3c757d3f, 0xf5b169a176765eb1, 0x664407aff7b1b44d, 0xb67647c6c4ca8b8d,
        0x44d7aa6dfa8407ed, 0xb63cc61e00d5890d, 0xd7f2e49b17c28e8a, 0x307a4bd39fd10aae,
        0xe8ffc32878ee813f, 0x27f7155a238fc795, 0x76d639634294b305, 0x49ee3b3e24e15b54,
        0xc5d042ebc1ca558e, 0x57a0713794f81f02, 0x64a4b3e85e8debe2, 0x3ee01a81174f2e91,
        0x3f1bd66b4310057d, 0xd80501f37c9aac09, 0xab65187be70940e6, 0xd65cbcc8e5c3bb85,
        0xda0a403e5bb5b35a, 0xda584ef6c1299e25, 0x058f607da1a1c08a, 0x74a7a91a8fac81c4,
        0x47c8e877747b48b8, 0x79d1559496bf1f14, 0xb21e182cd9c6436f, 0x7fda19e87fb50536,
        0xfcd620bace520351, 0xb13021cd07a1e975, 0x35af06617865fbd5, 0x27167f12b2406cf5,
    ];
    let (behaviour, image): (Vec<u64>, Vec<u64>) = (0..32).map(cluster_fingerprint).unzip();
    let table = |got: &[u64]| {
        got.chunks(4)
            .map(|row| {
                let row: Vec<_> = row.iter().map(|h| format!("{h:#018x},")).collect();
                row.join(" ")
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert!(
        behaviour == BEHAVIOUR,
        "cluster loop behaviour (report + events) drifted; observed:\n{}",
        table(&behaviour)
    );
    assert!(
        image == IMAGE,
        "member disk images drifted, behaviour unchanged; observed:\n{}",
        table(&image)
    );
}

//! Determinism and perturbation, at smoke scale: what must repeat
//! exactly does, and observing a run does not change it.

use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;

use strandfs_benchmark::cluster_wl::ClusterWorkload;
use strandfs_benchmark::driver::{run, RunArgs, Sink, StormOverrides, Workload};
use strandfs_benchmark::json;
use strandfs_benchmark::outcome::Outcome;
use strandfs_benchmark::overload::OverloadWorkload;
use strandfs_benchmark::spec::{Scale, WorkloadId, PER_LAYER};
use strandfs_benchmark::tracer::{StampRecorder, Tracer};

fn out_dir(test: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test)
}

fn smoke(workload: WorkloadId, seed: u64, trace: bool, test: &str) -> Outcome {
    run(&RunArgs {
        workload,
        seed,
        seconds: 1.0,
        trace,
        smoke: true,
        out_dir: out_dir(test),
        storm: StormOverrides::default(),
    })
    .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", workload.name()))
}

#[test]
fn the_same_seed_repeats_every_virtual_time_metric_and_count() {
    for w in WorkloadId::ALL {
        let (a, b) = (smoke(w, 7, false, "same"), smoke(w, 7, false, "same"));
        assert_eq!(a.virt, b.virt, "{}", w.name());
        assert_eq!(a.counts, b.counts, "{}", w.name());
        assert_eq!(a.fingerprint, b.fingerprint, "{}", w.name());
        assert_eq!(a.failed, 0, "{}", w.name());
        assert!(a.attempted > 0, "{}", w.name());
    }
}

#[test]
fn another_seed_changes_the_content_and_passes_the_same_checks() {
    for w in WorkloadId::ALL {
        let (a, b) = (smoke(w, 7, false, "other"), smoke(w, 8, false, "other"));
        assert_ne!(a.fingerprint, b.fingerprint, "{}", w.name());
        assert_ne!(
            a.virt,
            b.virt,
            "{}: virtual time must depend on the seed",
            w.name()
        );
        assert_eq!(b.failed, 0, "{}", w.name());
    }
}

#[test]
fn tracing_leaves_virtual_time_and_counts_untouched() {
    for w in WorkloadId::ALL {
        let plain = smoke(w, 7, false, "traced");
        let traced = smoke(w, 7, true, "traced");
        assert_eq!(plain.virt, traced.virt, "{}", w.name());
        assert_eq!(plain.counts, traced.counts, "{}", w.name());
        assert!(plain.per_layer.is_empty());

        // Every per-layer metric is reported, by name, as a number.
        let names: Vec<&str> = traced.per_layer.iter().map(|m| m.0).collect();
        let declared: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names, declared, "{}", w.name());
        assert!(traced.per_layer.iter().all(|m| m.1.is_finite()));

        // The spans were written out and nest under the driver's calls.
        let path = out_dir("traced").join(format!("{}.trace.json", w.name()));
        let doc = json::parse(&std::fs::read_to_string(&path).expect("trace file")).expect("json");
        let spans = doc.get("spans").expect("spans").as_arr();
        let named = |n: &'static str| {
            spans
                .iter()
                .filter(move |s| s.get("name").unwrap().as_str() == Some(n))
        };
        assert!(named("build").count() >= 2, "{}", w.name());
        assert!(named("serve").count() >= 3, "{}", w.name());
        assert!(named("round").count() >= 1, "{}", w.name());
        let serve_ids: Vec<f64> = named("serve")
            .map(|s| s.get("id").unwrap().as_f64().unwrap())
            .collect();
        for round in named("round") {
            let parent = round
                .get("parent")
                .unwrap()
                .as_f64()
                .expect("rounds have a parent");
            assert!(
                serve_ids.contains(&parent),
                "{}: round outside serve",
                w.name()
            );
        }
    }
}

/// Virtual-time metrics and counts are reported from repetition 0; on a
/// warm system later repetitions must make the same counts, so which
/// repetition is reported does not matter for them.
#[test]
fn warm_repetitions_repeat_the_observed_counts() {
    let scale = Scale::smoke();
    let mut workloads: Vec<(&str, Box<dyn Workload>)> = vec![
        (
            "vod_defended",
            Box::new(ClusterWorkload::new(
                WorkloadId::VodDefended,
                7,
                scale,
                StormOverrides::default(),
            )),
        ),
        (
            "vod_bare",
            Box::new(ClusterWorkload::new(
                WorkloadId::VodBare,
                7,
                scale,
                StormOverrides::default(),
            )),
        ),
        ("volume_overload", Box::new(OverloadWorkload::new(7, scale))),
    ];
    for (name, wl) in &mut workloads {
        assert!(!wl.rebuild_each_rep());
        let mut tr = Tracer::new(false);
        wl.build(&mut tr).expect("build");
        let recorder = Rc::new(RefCell::new(StampRecorder::counting(tr.origin())));
        let first = wl
            .rep(&Sink::Stamped(Rc::clone(&recorder)), &mut tr)
            .expect("observed repetition");
        assert!(first.virt.makespan_ns > 0, "{name}");
        for n in 1..4 {
            let later = wl.rep(&Sink::Default, &mut tr).expect("warm repetition");
            let (a, b) = (first.counts, later.counts);
            assert_eq!(
                (
                    a.rounds,
                    a.blocks_fetched,
                    a.scrubbed_blocks,
                    a.disk_ops,
                    a.admits,
                    a.rejects
                ),
                (
                    b.rounds,
                    b.blocks_fetched,
                    b.scrubbed_blocks,
                    b.disk_ops,
                    b.admits,
                    b.rejects
                ),
                "{name}: repetition {n}"
            );
            assert_eq!(first.virt.blocks_due, later.virt.blocks_due, "{name}");
            assert_eq!(first.virt.failed_blocks, later.virt.failed_blocks, "{name}");
            assert_eq!(first.virt.late, later.virt.late, "{name}");
        }
    }
    assert_eq!(smoke(WorkloadId::VodBare, 7, false, "warm").virtual_rep, 0);
}

/// A fresh cluster per repetition: the storm's repetitions are not just
/// alike in counts but identical.
#[test]
fn storm_repetitions_are_identical() {
    let mut wl = ClusterWorkload::new(
        WorkloadId::FailoverStorm,
        7,
        Scale::smoke(),
        StormOverrides::default(),
    );
    assert!(wl.rebuild_each_rep());
    let mut tr = Tracer::new(false);
    let mut reps = Vec::new();
    for _ in 0..2 {
        wl.build(&mut tr).expect("build");
        let recorder = Rc::new(RefCell::new(StampRecorder::counting(tr.origin())));
        reps.push(wl.rep(&Sink::Stamped(recorder), &mut tr).expect("storm"));
    }
    assert_eq!(reps[0].virt, reps[1].virt);
    assert_eq!(reps[0].counts, reps[1].counts);
    assert!(reps[0].counts.failovers > 0 && reps[0].counts.restored_blocks > 0);
}

//! A news/entertainment video server: capacity planning and concurrent
//! playback, the workload the paper's introduction motivates.
//!
//! Records a library of clips on a projected-future disk, asks the
//! admission controller how many clients it can serve, serves exactly
//! that many plus one rejected straggler, and verifies every admitted
//! client plays continuously.
//!
//! ```text
//! cargo run --release --example video_server
//! ```

use strandfs::core::admission::Aggregates;
use strandfs::core::msm::MsmConfig;
use strandfs::core::rope::edit::{Interval, MediaSel};
use strandfs::core::FsError;
use strandfs::disk::{DiskGeometry, GapBounds, SeekModel};
use strandfs::obs::ObsSink;
use strandfs::sim::playback::{simulate_playback, PlaybackConfig};
use strandfs::sim::{volume_on, ClipSpec};
use strandfs::trace::{chrome_trace, TraceOptions};
use strandfs::units::{Instant, Nanos};

fn main() {
    // A library of 12 news clips on the projected-future disk.
    let library: Vec<ClipSpec> = (0..12)
        .map(|i| ClipSpec::video_seconds(10.0).with_seed(100 + i))
        .collect();
    let (mut mrs, ropes) = volume_on(
        DiskGeometry::projected_fast(),
        SeekModel::projected_fast(),
        MsmConfig::constrained(
            GapBounds {
                min_sectors: 0,
                max_sectors: 120_000,
            },
            1,
        ),
        &library,
    )
    .expect("build volume");
    // Watch the server work: a bounded ring recorder captures every
    // admission decision, service round and per-block deadline margin
    // without perturbing the simulation.
    let (sink, recorder) = ObsSink::ring(1 << 18);
    mrs.set_obs(sink);
    println!(
        "library: {} clips, volume {:.0}% full",
        ropes.len(),
        mrs.msm().utilization() * 100.0
    );

    // Admit clients until the server refuses.
    let mut admitted = Vec::new();
    let mut rejected = 0;
    for (client, rope_id) in ropes.iter().enumerate() {
        let rope = mrs.rope(*rope_id).unwrap().clone();
        match mrs.play(
            &format!("client-{client}"),
            *rope_id,
            MediaSel::Both,
            Interval::whole(rope.duration()),
        ) {
            Ok((req, mut schedule)) => {
                mrs.resolve_silence(&mut schedule).unwrap();
                admitted.push((req, schedule));
            }
            Err(FsError::AdmissionRejected { active, n_max }) => {
                rejected += 1;
                println!(
                    "client-{client}: REJECTED (server at {active} streams, capacity {n_max})"
                );
            }
            Err(e) => panic!("unexpected: {e}"),
        }
    }
    println!("admitted {} clients, rejected {rejected}", admitted.len());

    // The controller's own k drives the service rounds.
    let k = mrs.msm().admission_ref().k().max(1);
    let agg = mrs.msm().admission_ref().aggregates().unwrap();
    println!(
        "service plan: k = {k} blocks/request/round (alpha {:.1} ms, beta {:.1} ms, gamma {:.0} ms)",
        agg.alpha.get() * 1e3,
        agg.beta.get() * 1e3,
        agg.gamma.get() * 1e3,
    );
    sanity_check_formula(&agg, admitted.len());

    let schedules: Vec<_> = admitted.iter().map(|(_, s)| s.clone()).collect();
    let report =
        simulate_playback(&mut mrs, schedules, PlaybackConfig::with_k(k)).expect("simulate");
    for (i, s) in report.streams.iter().enumerate() {
        println!(
            "client-{i}: {} blocks, {} violations, start latency {}, buffers {}",
            s.blocks, s.violations, s.start_latency, s.max_buffered
        );
    }
    assert!(
        report.all_continuous(),
        "every admitted client must play continuously"
    );
    for (req, _) in admitted {
        mrs.stop(req, Instant::EPOCH).unwrap();
    }
    println!(
        "OK — {} concurrent continuous streams, {} service rounds, disk busy {}",
        report.streams.len(),
        report.rounds,
        report.disk_busy
    );

    // What the observability layer saw.
    {
        let r = recorder.borrow();
        let m = r.metrics();
        let t = &m.tally;
        println!(
            "obs: {} reads / {} writes (mean service {}), \
             {} admits / {} rejects (min Eq.18 slack {}), \
             {} rounds, tightest deadline margin {}",
            t.disk_reads,
            t.disk_writes,
            m.disk_service.summary().mean,
            t.admits,
            t.rejects,
            m.admit_slack.summary().min,
            t.rounds,
            Nanos::from_nanos(m.deadline_margin.min() as u64),
        );
        assert_eq!(t.rejects, rejected, "every rejection was recorded");
        assert_eq!(t.deadline_late, 0, "continuous run has no late blocks");
    }

    // A rejected client can still compile a schedule for later (e.g.
    // reservation), it just cannot be serviced now.
    let offline = mrs.schedule(ropes[0], MediaSel::Both).unwrap();
    println!(
        "(offline schedule for a waitlisted client: {} blocks)",
        offline.items.len()
    );

    // The continuity SLO view of the same run: aggregate miss rate,
    // worst and p99 deadline margins across every admitted client.
    println!(
        "slo: {} blocks, miss rate {:.4}, worst margin {} ns, p99 margin {} ns",
        report.total_blocks(),
        report.miss_rate(),
        report.worst_margin_ns(),
        report.p99_margin_ns()
    );
    assert!(report.all_continuous());

    // Export the whole session — recording, admission, rounds, per-op
    // disk mechanics, deadline outcomes — as a Chrome trace. Load it in
    // https://ui.perfetto.dev (γ enables the round-slack counter).
    let doc = chrome_trace(
        recorder.borrow().events(),
        &TraceOptions {
            gamma: Some(Nanos::from_secs_f64(agg.gamma.get())),
            dropped_events: recorder.borrow().dropped(),
        },
    );
    let path = "TRACE_video_server.json";
    std::fs::write(path, &doc).expect("write trace");
    println!("wrote {path} — open in Perfetto to see the timeline");
}

fn sanity_check_formula(agg: &Aggregates, n: usize) {
    // Eq. 15 must hold for the k the server chose.
    let k = agg.k_transient(n).expect("admitted set is feasible");
    assert!(agg.steady_feasible(n, k));
    assert!(agg.transient_feasible(n, k));
}

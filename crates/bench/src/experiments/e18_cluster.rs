//! **E18 — multi-volume cluster**: aggregate capacity scaling and
//! volume-failure failover.
//!
//! The paper sizes a *single* disk with Eq. 17/18; E18 asks the two
//! cluster questions layered on top of it. First, **scaling**: members
//! admit independently, so aggregate `n_max` should be linear in the
//! member count — the sweep pins `n_max` and a small round-robin
//! playback run for volumes ∈ {1, 2, 4, 8}. Second, **failover**: a
//! member is killed mid-playback (its fault plan is armed; the failure
//! is *detected* by the read path, not announced), and the run must
//! show the replication contract — every stream of a `k ≥ 2`-replicated
//! title completes with **zero** dropped blocks and a glitch bounded by
//! its read-ahead, while the single-replica stream rides the
//! degradation ladder, is revoked, and returns after the member
//! rejoins (`Msm::recover` + fsck + catalog reconciliation).
//!
//! The failover run is watched live by the windowed monitor carrying a
//! `volume-down` fault-storm tripwire (`max_faults: 0` — in a
//! replicated cluster, *any* media fault on the read path means a
//! member is gone), so the kill also produces a deterministic alert and
//! a flight dump. Everything committed under `sections/cluster` is
//! virtual-time deterministic.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

use crate::table::Table;
use strandfs_cluster::{
    simulate_cluster, standard_spec, Cluster, ClusterAction, ClusterConfig, ClusterPlayback,
    ClusterReport, Placement, ScriptedAction, TitleId,
};
use strandfs_obs::{MonitorConfig, ObsSink, SloRule, WindowedMonitor};
use strandfs_sim::ClipSpec;

/// Member counts of the scaling sweep.
pub const VOLUMES: [usize; 4] = [1, 2, 4, 8];

/// Fault seed shared by every cluster in the experiment (the
/// clusters are fault-free until a scripted kill arms a plan, so the
/// seed only has to be fixed, not interesting).
const SEED: u64 = 0xE18;

/// Round of the failover scenario at whose start the victim is killed.
pub const KILL_ROUND: u64 = 2;

/// Round at whose start the victim rejoins with surviving media.
pub const REJOIN_ROUND: u64 = 8;

/// One cell of the scaling sweep.
pub struct ScaleRow {
    /// Member count.
    pub volumes: usize,
    /// Aggregate Eq. 17 capacity for the standard video spec.
    pub n_max: usize,
    /// Streams actually played (one per member).
    pub streams: usize,
    /// Blocks fetched across all members.
    pub fetched: u64,
    /// Blocks dropped (must stay 0 — the clusters are healthy).
    pub dropped: u64,
    /// Service rounds the run took.
    pub rounds: u64,
}

/// Run the scaling leg: per member count, a round-robin cluster holding
/// one single-replica title per member, one viewer per title.
pub fn run_scaling() -> Vec<ScaleRow> {
    VOLUMES
        .iter()
        .map(|&v| {
            let mut c = Cluster::new(ClusterConfig::round_robin(v, SEED)).expect("cluster");
            let n_max = c.n_max(standard_spec());
            let viewers: Vec<TitleId> = (0..v)
                .map(|i| {
                    c.ingest(
                        &format!("title-{i}"),
                        &ClipSpec::video_seconds(1.0).with_seed(i as u64 + 1),
                        0.0,
                    )
                    .expect("ingest")
                })
                .collect();
            let report = simulate_cluster(&mut c, &viewers, &[], &ClusterPlayback::with_k(2))
                .expect("simulate");
            ScaleRow {
                volumes: v,
                n_max,
                streams: viewers.len(),
                fetched: report.volumes.iter().map(|s| s.fetched).sum(),
                dropped: report.sim.total_dropped(),
                rounds: report.sim.rounds,
            }
        })
        .collect()
}

/// The monitor watching the failover run: two-round windows and the
/// `volume-down` tripwire — zero tolerable faults, because on a healthy
/// replicated cluster the only source of a media fault is a dead
/// member.
pub fn monitor_config() -> MonitorConfig {
    MonitorConfig::rounds(2)
        .max_dumps(1)
        .rule(SloRule::FaultStorm {
            label: "volume-down",
            max_faults: 0,
        })
}

/// Everything the monitored failover run produced.
pub struct FailoverOutcome {
    /// The cluster playback report.
    pub report: ClusterReport,
    /// The member the script killed (the one holding the single-replica
    /// title — the kill must hurt both a replicated and an
    /// unreplicated stream).
    pub victim: usize,
    /// The monitor after `finish()`.
    pub monitor: WindowedMonitor,
}

/// Run the failover leg: 3 members, popularity-aware placement (hot
/// titles get 2 replicas, the cold one keeps 1), kill the member
/// holding the cold title's only replica mid-playback, rejoin it with
/// surviving media a few rounds later.
///
/// Viewer `i` starts on replica `i % replicas`, so the second `hot-a`
/// viewer plays the replica that shares the victim with the cold
/// title — the kill forces that stream to fail over while the cold
/// stream rides the degradation ladder, in the same run.
pub fn run_failover() -> FailoverOutcome {
    let mut c = Cluster::new(ClusterConfig {
        volumes: 3,
        placement: Placement::Popularity {
            hot_threshold: 0.5,
            extra: 1,
        },
        base_replicas: 1,
        seed: SEED,
    })
    .expect("cluster");
    let monitor = Rc::new(RefCell::new(WindowedMonitor::new(monitor_config())));
    c.set_obs(&ObsSink::shared(&monitor));
    let hot_a = c
        .ingest("hot-a", &ClipSpec::video_seconds(1.0).with_seed(1), 1.0)
        .expect("ingest hot-a");
    // All three titles are video-only: an AV schedule carries two items
    // per 100 ms of timeline, which halves what a 3-item read-ahead is
    // worth in wall-clock margin against the detection stall.
    let hot_b = c
        .ingest("hot-b", &ClipSpec::video_seconds(1.0).with_seed(2), 0.9)
        .expect("ingest hot-b");
    let cold = c
        .ingest("cold", &ClipSpec::video_seconds(1.0).with_seed(3), 0.1)
        .expect("ingest cold");
    let victim = c.catalog().title(cold).replicas[0].volume;
    let script = [
        ScriptedAction {
            at_round: KILL_ROUND,
            action: ClusterAction::Kill(victim),
        },
        ScriptedAction {
            at_round: REJOIN_ROUND,
            action: ClusterAction::Rejoin(victim),
        },
    ];
    let report = simulate_cluster(
        &mut c,
        &[hot_a, hot_a, hot_b, cold],
        &script,
        &ClusterPlayback::with_k(3),
    )
    .expect("simulate");
    monitor.borrow_mut().finish();
    drop(c);
    let monitor = Rc::try_unwrap(monitor)
        .expect("run dropped its sink")
        .into_inner();
    FailoverOutcome {
        report,
        victim,
        monitor,
    }
}

/// The `sections/cluster` JSON merged into `BENCH_core.json`: the
/// scaling sweep plus the failover run's contract numbers and its
/// monitor verdict. Virtual-time deterministic throughout.
pub fn section_json() -> String {
    let mut out = String::from("{\"scaling\":{");
    for (i, row) in run_scaling().iter().enumerate() {
        let _ = write!(
            out,
            "{}\"v{}\":{{\"n_max\":{},\"streams\":{},\"fetched\":{},\"dropped\":{},\"rounds\":{}}}",
            if i == 0 { "" } else { "," },
            row.volumes,
            row.n_max,
            row.streams,
            row.fetched,
            row.dropped,
            row.rounds
        );
    }
    let f = run_failover();
    let alerts = f
        .monitor
        .alerts()
        .iter()
        .filter(|a| a.rule == "volume-down")
        .count();
    let dump_events: usize = f.monitor.dumps().iter().map(|d| d.events.len()).sum();
    let rejoin = &f.report.rejoins[0];
    let _ = write!(
        out,
        concat!(
            "}},\"failover\":{{\"volumes\":3,\"streams\":{},\"killed\":{},",
            "\"kill_round\":{},\"rejoin_round\":{},",
            "\"replicated_dropped\":{},\"unreplicated_dropped\":{},",
            "\"replicated_miss_burst\":{},\"failovers\":{},",
            "\"fsck_findings\":{},\"reconcile_lost\":{},",
            "\"blocks\":{},\"fetched\":{},\"rounds\":{},",
            "\"volume_down_alerts\":{},\"dump_events\":{}}}}}"
        ),
        f.report.sim.streams.len(),
        f.victim,
        KILL_ROUND,
        REJOIN_ROUND,
        f.report.replicated_dropped(),
        f.report.unreplicated_dropped(),
        f.report.replicated_miss_burst(),
        f.report.failovers,
        rejoin.fsck_findings,
        rejoin.reconcile.lost,
        f.report.sim.streams.iter().map(|s| s.blocks).sum::<u64>(),
        f.report.sim.streams.iter().map(|s| s.fetched).sum::<u64>(),
        f.report.sim.rounds,
        alerts,
        dump_events
    );
    out
}

/// Render the scaling sweep and the failover verdict.
pub fn table() -> Table {
    let mut t = Table::new(
        "E18 — cluster capacity scaling and kill-one-member failover \
         (standard video spec, k=2)",
        &[
            "volumes", "n_max", "streams", "fetched", "dropped", "rounds",
        ],
    );
    let rows = run_scaling();
    for row in &rows {
        t.row(vec![
            row.volumes.to_string(),
            row.n_max.to_string(),
            row.streams.to_string(),
            row.fetched.to_string(),
            row.dropped.to_string(),
            row.rounds.to_string(),
        ]);
    }
    if let (Some(first), Some(last)) = (rows.first(), rows.last()) {
        t.note(format!(
            "scaling: n_max {} -> {} over {}x members ({})",
            first.n_max,
            last.n_max,
            last.volumes / first.volumes.max(1),
            if last.n_max == last.volumes / first.volumes.max(1) * first.n_max {
                "linear"
            } else {
                "sub-linear"
            }
        ));
    }
    let f = run_failover();
    t.note(format!(
        "failover: killed volume {} at round {}, {} replica switches, \
         replicated streams dropped {} blocks (worst glitch {} items), \
         unreplicated stream dropped {}",
        f.victim,
        KILL_ROUND,
        f.report.failovers,
        f.report.replicated_dropped(),
        f.report.replicated_miss_burst(),
        f.report.unreplicated_dropped(),
    ));
    let rejoin = &f.report.rejoins[0];
    t.note(format!(
        "rejoin at round {}: {} fsck findings, {} replicas lost in reconcile",
        REJOIN_ROUND, rejoin.fsck_findings, rejoin.reconcile.lost
    ));
    for a in f.monitor.alerts() {
        t.note(format!(
            "ALERT {} ({}) at window {}: {:.0} faults breached {:.0}",
            a.rule, a.kind, a.window, a.value, a.threshold
        ));
    }
    for d in f.monitor.dumps() {
        let rounds = d
            .rounds_covered()
            .map(|(a, b)| format!("rounds {a}–{b}"))
            .unwrap_or_else(|| "no rounds".into());
        t.note(format!(
            "flight dump for `{}`: {} raw events covering {}",
            d.alert.rule,
            d.events.len(),
            rounds
        ));
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn n_max_scales_linearly_with_members() {
        let rows = run_scaling();
        assert_eq!(rows.len(), VOLUMES.len());
        let per = rows[0].n_max;
        assert!(per >= 1);
        for row in &rows {
            // Members admit independently, so the aggregate is exactly
            // linear — the committed baseline pins it.
            assert_eq!(row.n_max, row.volumes * per, "volumes={}", row.volumes);
            assert_eq!(row.dropped, 0, "healthy cluster must not drop");
            assert!(row.fetched > 0);
        }
        assert!(
            rows.last().unwrap().fetched > rows[0].fetched,
            "more members serve more blocks"
        );
    }

    #[test]
    fn killed_member_costs_replicated_streams_nothing() {
        let f = run_failover();
        // The replication contract: k >= 2 streams lose zero blocks and
        // glitch no longer than their read-ahead lets them.
        assert_eq!(f.report.replicated_dropped(), 0);
        assert!(f.report.failovers >= 1, "the kill must force a failover");
        assert!(
            f.report.replicated_miss_burst() <= ClusterPlayback::with_k(3).read_ahead + 1,
            "glitch {} exceeds the read-ahead bound",
            f.report.replicated_miss_burst()
        );
        // The single-replica stream rides the ladder instead.
        assert!(f.report.unreplicated_dropped() > 0);
        // The victim rejoined clean and lost nothing (its media
        // survived the outage).
        let rejoin = &f.report.rejoins[0];
        assert_eq!(rejoin.volume, f.victim);
        assert_eq!(rejoin.fsck_findings, 0);
        assert_eq!(rejoin.reconcile.lost, 0);
        // Every stream still accounts for every block.
        for s in &f.report.sim.streams {
            assert_eq!(s.blocks, s.fetched + s.dropped_blocks);
        }
    }

    #[test]
    fn kill_raises_volume_down_alert_with_dump() {
        let f = run_failover();
        let alert = f
            .monitor
            .alerts()
            .iter()
            .find(|a| a.rule == "volume-down")
            .copied()
            .expect("the kill must trip the volume-down rule");
        assert_eq!(alert.kind, "fault_storm");
        // Detection is lazy: the fault surfaces when the read path
        // first touches the dead member, at or after the kill round.
        assert!(alert.window >= KILL_ROUND / 2);
        let dumps = f.monitor.dumps();
        assert_eq!(dumps.len(), 1);
        assert_eq!(dumps[0].alert.rule, "volume-down");
        assert!(!dumps[0].events.is_empty());
    }

    #[test]
    fn section_json_is_balanced_and_deterministic() {
        let json = section_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(!json.contains("NaN"));
        for key in ["\"v1\":", "\"v2\":", "\"v4\":", "\"v8\":", "\"failover\":"] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(json, section_json(), "same seed must give same bytes");
    }
}

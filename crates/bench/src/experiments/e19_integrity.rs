//! **E19 — end-to-end integrity**: silent-corruption defense,
//! slack-budgeted scrubbing, and fail-slow hedged reads.
//!
//! Three legs, all virtual-time deterministic. First, **corruption**:
//! bit-flips are armed under the first blocks of a replicated title and
//! the same playback runs twice — defenses off (no checksum
//! verification, no scrub) the audience receives every flip; defenses
//! on (verified reads + read-around repair + the scrubber) the run
//! serves **zero** corrupt and zero dropped blocks, rewrites every
//! damaged extent in place from the live replica, and leaves the
//! member fsck-clean. Second, **fail-slow**: one member serves at 10×
//! nominal latency without erroring — the gray failure Eq. 17/18 never
//! priced in. Hedged reads race the healthy replica past the
//! deadline-derived threshold and quarantine the laggard, holding the
//! replicated streams at the healthy baseline's zero misses, while the
//! identical non-hedged run's viewer on the 10× member misses its
//! deadlines. The hedged run is watched live by the
//! windowed monitor carrying the `volume-slow` tripwire (`max_hedges:
//! 0` — any hedge means some member is breaching its service-time
//! bound), so the gray failure also produces a deterministic alert and
//! a flight dump. Third, **zero perturbation**: on a healthy cluster
//! the scrubber probes only on lanes no viewer served that round, in
//! their Eq. 18 slack, so scrub-on vs scrub-off per-stream timing must
//! match exactly.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

use crate::table::Table;
use strandfs_cluster::{
    simulate_cluster, Cluster, ClusterConfig, ClusterPlayback, ClusterReport, ReplicaState, TitleId,
};
use strandfs_disk::FaultPlan;
use strandfs_obs::{MonitorConfig, ObsSink, SloRule, WindowedMonitor};
use strandfs_sim::ClipSpec;
use strandfs_units::Instant;

/// Fault seed shared by every cluster in the experiment.
const SEED: u64 = 0xE19;

/// Blocks whose payloads the corruption leg flips a bit in.
pub const CORRUPT_BLOCKS: u64 = 3;

/// Latency multiplier of the fail-slow member (it never errors).
pub const SLOW_FACTOR: f64 = 10.0;

/// A fresh two-member cluster holding one 2-replicated title.
fn cluster_with_title(clip_seed: u64) -> (Cluster, TitleId) {
    let mut c = Cluster::new(ClusterConfig {
        base_replicas: 2,
        ..ClusterConfig::round_robin(2, SEED)
    })
    .expect("cluster");
    let id = c
        .ingest(
            "hot",
            &ClipSpec::video_seconds(2.0).with_seed(clip_seed),
            1.0,
        )
        .expect("ingest");
    (c, id)
}

/// Flip one bit in each of the first [`CORRUPT_BLOCKS`] stored blocks
/// of the title's replica on volume 0, invisibly to the device.
fn corrupt_first_blocks(c: &mut Cluster, id: TitleId) {
    let loc = {
        let rep = &c.catalog().title(id).replicas[0];
        assert_eq!(rep.volume, 0, "round-robin puts replica 0 on volume 0");
        rep.strands[0]
    };
    let mut plan = FaultPlan::clean();
    for n in 0..CORRUPT_BLOCKS.min(loc.blocks) {
        let e = c.members()[0]
            .mrs()
            .msm()
            .strand(loc.strand)
            .expect("strand")
            .block(n)
            .expect("block")
            .expect("stored block");
        plan = plan.with_silent_corruption(e);
    }
    assert!(c.arm_member_faults(0, plan));
}

/// Both sides of the corruption leg.
pub struct CorruptionOutcome {
    /// Blocks whose payloads were flipped.
    pub corrupted: u64,
    /// Defenses off: corrupt payloads the audience received.
    pub undefended_corrupt_served: u64,
    /// Defenses on: corrupt payloads served (must be 0).
    pub defended_corrupt_served: u64,
    /// Defenses on: blocks dropped (must be 0 — repair is read-around,
    /// not a stall).
    pub defended_dropped: u64,
    /// Corrupt extents rewritten in place on the viewer's read path.
    pub read_repairs: u64,
    /// Corrupt blocks the scrub cursor found and repaired itself.
    pub scrub_repaired: u64,
    /// Stamped extents the scrub cursors covered across the run: probed
    /// by the scrubber or credited.
    pub scrubbed: u64,
    /// The covered extents the scrubber did not hash: the viewer's
    /// verified read had already passed them in the same pass.
    pub credited: u64,
    /// Replicas the repair path had to invalidate (must be 0 — every
    /// flip is fixable in place from the live copy).
    pub invalidated: u64,
    /// Both replicas live and the flipped member fsck-clean afterward.
    pub converged_clean: bool,
}

/// Run the corruption leg: identical clusters and viewers, defenses
/// off vs on.
pub fn run_corruption() -> CorruptionOutcome {
    // Defenses off: reads are not verified and no scrubber runs, so the
    // flips ride the wire undetected (the audit recount is the
    // experiment's witness, not part of the served path).
    let (mut off, id) = cluster_with_title(21);
    corrupt_first_blocks(&mut off, id);
    let undefended = simulate_cluster(&mut off, &[id], &[], &ClusterPlayback::with_k(3).audited())
        .expect("undefended run");

    // Defenses on: verified reads, read-around repair, and the
    // slack-budgeted scrubber with a small restore budget for the
    // invalidation fallback (unused when in-place repair suffices).
    let (mut on, id) = cluster_with_title(21);
    on.set_verify_reads(true);
    corrupt_first_blocks(&mut on, id);
    let cfg = ClusterPlayback::with_k(3).scrub(4).restore(2).audited();
    let defended = simulate_cluster(&mut on, &[id], &[], &cfg).expect("defended run");

    let converged_clean = on
        .catalog()
        .title(id)
        .replicas
        .iter()
        .all(|r| r.state == ReplicaState::Live)
        && on.fsck_member(0, Instant::from_nanos(u64::MAX / 4)).clean();
    CorruptionOutcome {
        corrupted: CORRUPT_BLOCKS,
        undefended_corrupt_served: undefended.corrupt_served,
        defended_corrupt_served: defended.corrupt_served,
        defended_dropped: defended.replicated_dropped(),
        read_repairs: defended.read_repairs,
        scrub_repaired: defended.scrub_repaired,
        scrubbed: defended.scrubbed_blocks,
        credited: defended.scrub_credited,
        invalidated: defended.scrub_invalidated,
        converged_clean,
    }
}

/// The monitor watching the hedged fail-slow run: two-round windows
/// and the `volume-slow` tripwire — zero tolerable hedges, because on
/// a healthy cluster no fetch ever exceeds its deadline-derived
/// service-time bound.
pub fn monitor_config() -> MonitorConfig {
    MonitorConfig::rounds(2)
        .max_dumps(1)
        .rule(SloRule::VolumeSlow {
            label: "volume-slow",
            max_hedges: 0,
        })
}

/// All three runs of the fail-slow leg.
pub struct FailSlowOutcome {
    /// The hedged run against the 10× member.
    pub hedged: ClusterReport,
    /// The identical run without hedging.
    pub bare: ClusterReport,
    /// The fault-free control run (hedging on, nothing to hedge).
    pub healthy: ClusterReport,
    /// The monitor that watched the hedged run, after `finish()`.
    pub monitor: WindowedMonitor,
}

/// Run the fail-slow leg: volume 0 serves at [`SLOW_FACTOR`]× nominal
/// latency without erroring; two viewers of a 2-replicated title pin
/// one stream to each member. Hedged vs bare vs a healthy control.
pub fn run_fail_slow() -> FailSlowOutcome {
    let run = |slow: bool, hedge: bool, obs: Option<&ObsSink>| -> ClusterReport {
        let (mut c, id) = cluster_with_title(23);
        if let Some(sink) = obs {
            c.set_obs(sink);
        }
        if slow {
            assert!(c.arm_member_faults(0, FaultPlan::clean().with_fail_slow(SLOW_FACTOR)));
        }
        let mut cfg = ClusterPlayback::with_k(3);
        if hedge {
            cfg = cfg.hedged();
            cfg.quarantine_after_rounds = 1;
        }
        simulate_cluster(&mut c, &[id, id], &[], &cfg).expect("simulate")
    };
    let monitor = Rc::new(RefCell::new(WindowedMonitor::new(monitor_config())));
    let hedged = run(true, true, Some(&ObsSink::shared(&monitor)));
    monitor.borrow_mut().finish();
    let monitor = Rc::try_unwrap(monitor)
        .expect("run dropped its sink")
        .into_inner();
    FailSlowOutcome {
        hedged,
        bare: run(true, false, None),
        healthy: run(false, true, None),
        monitor,
    }
}

/// Both sides of the zero-perturbation leg.
pub struct PerturbationOutcome {
    /// Extents the scrub-on run verified.
    pub scrubbed: u64,
    /// Per-stream violations, start latency, and max lateness all
    /// identical between scrub-off and scrub-on.
    pub identical: bool,
}

/// Run the zero-perturbation leg: healthy cluster, two viewers, scrub
/// budget 0 vs 4 — per-stream timing must match to the nanosecond.
pub fn run_perturbation() -> PerturbationOutcome {
    let run = |scrub: u64| -> ClusterReport {
        let (mut c, id) = cluster_with_title(29);
        c.set_verify_reads(true);
        let cfg = if scrub > 0 {
            ClusterPlayback::with_k(3).scrub(scrub)
        } else {
            ClusterPlayback::with_k(3)
        };
        simulate_cluster(&mut c, &[id, id], &[], &cfg).expect("simulate")
    };
    let off = run(0);
    let on = run(4);
    let identical = off.sim.streams.len() == on.sim.streams.len()
        && off.sim.streams.iter().zip(&on.sim.streams).all(|(a, b)| {
            a.violations == b.violations
                && a.start_latency == b.start_latency
                && a.lateness.max == b.lateness.max
                && a.dropped_blocks == b.dropped_blocks
        });
    PerturbationOutcome {
        scrubbed: on.scrubbed_blocks,
        identical,
    }
}

/// The `sections/integrity` JSON merged into `BENCH_core.json`: the
/// corruption defense, the fail-slow hedging contract, and the scrub
/// perturbation invariant. Every leaf is gated for equality, so a
/// verdict a numeric leaf already carries is not restated; the two
/// string leaves (`fsck`, `healthy_streams_perturbed`) are facts no
/// number beside them holds.
pub fn section_json() -> String {
    let c = run_corruption();
    let mut out = String::new();
    let _ = write!(
        out,
        concat!(
            "{{\"corruption\":{{\"corrupted\":{},",
            "\"undefended_corrupt_served\":{},",
            "\"defended_corrupt_served\":{},",
            "\"defended_dropped\":{},",
            "\"read_repairs\":{},\"scrub_repaired\":{},\"scrubbed\":{},",
            "\"credited\":{},\"invalidated\":{},\"fsck\":\"{}\"}}"
        ),
        c.corrupted,
        c.undefended_corrupt_served,
        c.defended_corrupt_served,
        c.defended_dropped,
        c.read_repairs,
        c.scrub_repaired,
        c.scrubbed,
        c.credited,
        c.invalidated,
        if c.converged_clean { "clean" } else { "dirty" },
    );
    let f = run_fail_slow();
    let alerts = f
        .monitor
        .alerts()
        .iter()
        .filter(|a| a.rule == "volume-slow")
        .count();
    let dump_events: usize = f.monitor.dumps().iter().map(|d| d.events.len()).sum();
    let _ = write!(
        out,
        concat!(
            ",\"fail_slow\":{{\"slow_factor\":{},",
            "\"hedges\":{},\"hedge_wins\":{},\"quarantines\":{},",
            "\"readmits\":{},",
            "\"hedged_dropped\":{},\"hedged_violations\":{},",
            "\"bare_dropped\":{},\"bare_violations\":{},",
            "\"healthy_violations\":{},",
            "\"volume_slow_alerts\":{},\"dump_events\":{}}}"
        ),
        SLOW_FACTOR,
        f.hedged.hedges,
        f.hedged.hedge_wins,
        f.hedged.quarantines,
        f.hedged.quarantine_readmits,
        f.hedged.replicated_dropped(),
        f.hedged.sim.total_violations(),
        f.bare.replicated_dropped(),
        f.bare.sim.total_violations(),
        f.healthy.sim.total_violations(),
        alerts,
        dump_events,
    );
    let p = run_perturbation();
    let _ = write!(
        out,
        ",\"scrub_perturbation\":{{\"scrubbed\":{},\"healthy_streams_perturbed\":\"{}\"}}}}",
        p.scrubbed,
        if p.identical { "no" } else { "yes" },
    );
    out
}

/// Render the three verdicts.
pub fn table() -> Table {
    let mut t = Table::new(
        "E19 — end-to-end integrity: corruption defense, scrubbing, \
         fail-slow hedging (2 volumes, 2 replicas, k=3)",
        &["leg", "detected", "repaired", "served corrupt", "dropped"],
    );
    let c = run_corruption();
    t.row(vec![
        "corruption (defenses off)".into(),
        "0".into(),
        "0".into(),
        c.undefended_corrupt_served.to_string(),
        "0".into(),
    ]);
    t.row(vec![
        "corruption (verify+scrub)".into(),
        (c.read_repairs + c.scrub_repaired).to_string(),
        (c.read_repairs + c.scrub_repaired).to_string(),
        c.defended_corrupt_served.to_string(),
        c.defended_dropped.to_string(),
    ]);
    t.note(format!(
        "corruption: {} flips armed; defended run repaired {} on the read \
         path and {} by scrub ({} extents scrubbed, {} of them on read \
         credit), member {}",
        c.corrupted,
        c.read_repairs,
        c.scrub_repaired,
        c.scrubbed,
        c.credited,
        if c.converged_clean {
            "fsck-clean"
        } else {
            "STILL DIRTY"
        }
    ));
    let f = run_fail_slow();
    t.note(format!(
        "fail-slow {}x: hedged {} ({} wins, {} quarantines) dropped {} with \
         {} violations vs healthy {}; bare run {} violations",
        SLOW_FACTOR,
        f.hedged.hedges,
        f.hedged.hedge_wins,
        f.hedged.quarantines,
        f.hedged.replicated_dropped(),
        f.hedged.sim.total_violations(),
        f.healthy.sim.total_violations(),
        f.bare.sim.total_violations(),
    ));
    for a in f.monitor.alerts() {
        t.note(format!(
            "ALERT {} ({}) at window {}: {:.0} hedges breached {:.0}",
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
    let p = run_perturbation();
    t.note(format!(
        "scrub perturbation: {} extents scrubbed, healthy per-stream \
         timing {}",
        p.scrubbed,
        if p.identical {
            "identical to scrub-off"
        } else {
            "PERTURBED"
        }
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defended_run_serves_zero_corrupt_and_repairs_everything() {
        let c = run_corruption();
        assert!(
            c.undefended_corrupt_served > 0,
            "with defenses off the flips must reach the audience"
        );
        assert_eq!(c.defended_corrupt_served, 0);
        assert_eq!(c.defended_dropped, 0, "repair must not cost playback");
        assert_eq!(
            c.read_repairs + c.scrub_repaired,
            c.corrupted,
            "every flip repaired"
        );
        assert_eq!(c.invalidated, 0, "in-place repair must suffice");
        assert!(c.scrubbed > 0, "the scrubber must make progress");
        assert!(c.converged_clean);
    }

    #[test]
    fn hedging_holds_the_healthy_baseline_and_bare_collapses() {
        let f = run_fail_slow();
        assert!(f.hedged.hedges > 0, "slow primaries must fire hedges");
        assert!(f.hedged.hedge_wins > 0, "the healthy replica must win");
        assert!(f.hedged.quarantines >= 1, "the slow member must sit out");
        assert_eq!(f.hedged.replicated_dropped(), 0);
        assert!(
            f.hedged.sim.total_violations() <= f.healthy.sim.total_violations(),
            "hedged ({}) must hold the healthy baseline ({})",
            f.hedged.sim.total_violations(),
            f.healthy.sim.total_violations()
        );
        assert!(
            f.bare.sim.total_violations() > f.hedged.sim.total_violations(),
            "non-hedged must miss more deadlines ({} vs {})",
            f.bare.sim.total_violations(),
            f.hedged.sim.total_violations()
        );
    }

    #[test]
    fn fail_slow_raises_volume_slow_alert_with_dump() {
        let f = run_fail_slow();
        let alert = f
            .monitor
            .alerts()
            .iter()
            .find(|a| a.rule == "volume-slow")
            .copied()
            .expect("the 10x member must trip the volume-slow rule");
        assert_eq!(alert.kind, "volume_slow");
        let dumps = f.monitor.dumps();
        assert_eq!(dumps.len(), 1);
        assert_eq!(dumps[0].alert.rule, "volume-slow");
        assert!(!dumps[0].events.is_empty());
    }

    #[test]
    fn scrub_is_invisible_to_healthy_streams() {
        let p = run_perturbation();
        assert!(p.scrubbed > 0, "the scrub-on run must actually scrub");
        assert!(p.identical, "scrub must ride strictly inside paid slack");
    }

    #[test]
    fn section_json_is_balanced_and_deterministic() {
        let json = section_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(!json.contains("NaN"));
        for key in [
            "\"corruption\":",
            "\"fail_slow\":",
            "\"scrub_perturbation\":",
            "\"defended_corrupt_served\":0,",
            "\"fsck\":\"clean\"",
            "\"hedged_violations\":0,",
            "\"healthy_streams_perturbed\":\"no\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(json, section_json(), "same seed must give same bytes");
    }
}

//! **E6 — §3.4 transient analysis**: admitting request `n+1` by growing
//! `k` in steps of 1 (Eq. 18) versus jumping straight to the new `k`.
//!
//! The paper's argument: Eq. 15 guarantees continuity only in steady
//! state. During a transition the server transfers `k_new` blocks per
//! request while the displays hold only `k_old` blocks of slack, so a
//! jump can starve them; solving Eq. 18 instead budgets every round for
//! `k+1` transfers, making +1 steps transparent.
//!
//! The experiment replays both policies against the simulated disk:
//! `n` streams in steady state, one more arriving mid-playback.

use crate::table::Table;
use strandfs_core::admission::{Aggregates, ServiceEnv};
use strandfs_core::msm::MsmConfig;
use strandfs_core::rope::edit::MediaSel;
use strandfs_disk::{DiskGeometry, GapBounds, SeekModel};
use strandfs_sim::playback::{simulate_with_arrivals, Arrival};
use strandfs_sim::{volume_on, ClipSpec, SimReport};

/// The complete admission policy being simulated.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TransitionPolicy {
    /// The naive policy: size rounds by the steady-state Eq. 16 `k`
    /// (sufficient in steady state) and jump to the new `k` in the
    /// arrival round.
    Jump,
    /// The paper's policy: size rounds by the transient-safe Eq. 18 `k`
    /// and grow it by one per round across the transition.
    StepWise,
}

/// Outcome of one transition run.
pub struct Outcome {
    /// The policy simulated.
    pub policy: TransitionPolicy,
    /// Round size before / after the arrival.
    pub k_before: u64,
    /// Round size after the transition completes.
    pub k_after: u64,
    /// Continuity violations across the pre-existing streams.
    pub violations_existing: u64,
    /// Violations on the newly admitted stream.
    pub violations_new: u64,
    /// The full report.
    pub report: SimReport,
}

/// Streams recorded per run; the arrival is stream `n`. The projected
/// disk's capacity is 9, so 8 base streams put the transition right at
/// the regime where round sizes diverge (Fig. 4's asymptote).
pub const BASE_STREAMS: usize = 8;
/// The round at whose start the extra stream arrives (the naive policy)
/// or begins its step-wise transition (the paper's policy).
pub const ARRIVAL_ROUND: u64 = 4;
const CLIP_SECONDS: f64 = 12.0;

fn build_volume() -> strandfs_sim::Volume {
    // The projected-future disk supports ~9 NTSC streams, leaving head
    // room for BASE_STREAMS + 1.
    volume_on(
        DiskGeometry::projected_fast(),
        SeekModel::projected_fast(),
        MsmConfig::constrained(
            GapBounds {
                min_sectors: 0,
                max_sectors: 120_000,
            },
            3,
        ),
        &vec![ClipSpec::video_seconds(CLIP_SECONDS); BASE_STREAMS + 1],
    )
    .expect("build volume")
}

/// Run one policy.
pub fn run(policy: TransitionPolicy) -> Outcome {
    run_with_obs(policy, strandfs_obs::ObsSink::noop())
}

/// [`run`] with an observability sink attached to the whole stack, so a
/// transition's continuity violations can be attributed to the specific
/// rounds and disk operations that caused them.
pub fn run_with_obs(policy: TransitionPolicy, obs: strandfs_obs::ObsSink) -> Outcome {
    let (mut mrs, ropes) = build_volume();
    mrs.set_obs(obs);
    let schedules: Vec<_> = ropes
        .iter()
        .map(|r| mrs.schedule(*r, MediaSel::Both).unwrap())
        .collect();

    let env: ServiceEnv = *mrs.msm().admission_ref().env();
    let spec = crate::experiments::standard_video_spec();
    let agg_before = Aggregates::compute(&env, &[spec; BASE_STREAMS]).unwrap();
    let agg_after = Aggregates::compute(&env, &vec![spec; BASE_STREAMS + 1]).unwrap();
    let (k_before, k_after) = match policy {
        TransitionPolicy::Jump => (
            agg_before.k_steady(BASE_STREAMS).expect("feasible"),
            agg_after.k_steady(BASE_STREAMS + 1).expect("feasible"),
        ),
        TransitionPolicy::StepWise => (
            agg_before.k_transient(BASE_STREAMS).expect("feasible"),
            agg_after
                .k_transient(BASE_STREAMS + 1)
                .expect("arrival within n_max"),
        ),
    };

    let base: Vec<_> = schedules[..BASE_STREAMS].to_vec();
    // The paper's protocol: grow k in steps of 1 across rounds that
    // serve only the existing n streams; the new request enters service
    // when k reaches its target. The naive policy starts the new stream
    // immediately with the jumped k.
    let arrival_round = match policy {
        TransitionPolicy::Jump => ARRIVAL_ROUND,
        TransitionPolicy::StepWise => ARRIVAL_ROUND + k_after.saturating_sub(k_before),
    };
    let arrival = Arrival {
        at_round: arrival_round,
        schedule: schedules[BASE_STREAMS].clone(),
    };
    let report = simulate_with_arrivals(
        &mut mrs,
        base,
        vec![arrival],
        |k| k,
        move |round, _n| {
            if round < ARRIVAL_ROUND {
                k_before
            } else {
                match policy {
                    TransitionPolicy::Jump => k_after,
                    TransitionPolicy::StepWise => {
                        (k_before + 1 + (round - ARRIVAL_ROUND)).min(k_after)
                    }
                }
            }
        },
    )
    .expect("simulate");
    let violations_existing = report.streams[..BASE_STREAMS]
        .iter()
        .map(|s| s.violations)
        .sum();
    let violations_new = report.streams[BASE_STREAMS].violations;
    Outcome {
        policy,
        k_before,
        k_after,
        violations_existing,
        violations_new,
        report,
    }
}

/// Render both policies.
pub fn table() -> Table {
    let mut t = Table::new(
        "E6 / §3.4 — transient admission: step-wise k growth (Eq. 18) vs. naive jump",
        &[
            "policy",
            "k before",
            "k after",
            "violations (existing streams)",
            "violations (new stream)",
        ],
    );
    for policy in [TransitionPolicy::StepWise, TransitionPolicy::Jump] {
        let o = run(policy);
        let label = match policy {
            TransitionPolicy::StepWise => "Eq.18 + step-wise (paper)",
            TransitionPolicy::Jump => "Eq.16 + jump (naive)",
        };
        t.row(vec![
            label.to_string(),
            o.k_before.to_string(),
            o.k_after.to_string(),
            o.violations_existing.to_string(),
            o.violations_new.to_string(),
        ]);
    }
    t.note(format!(
        "{BASE_STREAMS} streams in steady state; one more arrives at round {ARRIVAL_ROUND}"
    ));
    t.note("the paper's guarantee: step-wise transitions keep existing streams continuous");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stepwise_keeps_existing_streams_continuous() {
        let o = run(TransitionPolicy::StepWise);
        assert_eq!(
            o.violations_existing, 0,
            "Eq. 18 + step-wise must protect existing streams"
        );
    }

    #[test]
    fn stepwise_never_worse_than_jump() {
        let step = run(TransitionPolicy::StepWise);
        let jump = run(TransitionPolicy::Jump);
        assert!(step.violations_existing <= jump.violations_existing);
        // Eq. 18's k dominates Eq. 16's for the same n.
        assert!(step.k_after >= jump.k_after);
        assert!(step.k_before <= step.k_after);
        assert!(jump.k_before <= jump.k_after);
    }

    #[test]
    fn naive_jump_glitches_existing_streams() {
        // The deterministic scenario reproduces the paper's motivating
        // failure: a jump transition starves streams that were admitted
        // under the steady-state k.
        let jump = run(TransitionPolicy::Jump);
        assert!(
            jump.violations_existing > 0,
            "expected the naive transition to break continuity"
        );
    }
}

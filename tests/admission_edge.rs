//! Edge-case unit tests for the admission-control formulas (Eqs. 15–18):
//! behaviour exactly at the capacity boundary `n = n_max`, rejection at
//! `n_max + 1`, and the transient-safety of step-wise round-size growth.
//!
//! The fixture is the paper's vintage service environment: a 28.8 Mbit/s
//! disk, 40 ms worst-case seek, 15 ms average inter-block latency, and
//! 100 ms video blocks (3 NTSC frames of 96 kbit), giving
//! `α = 50 ms`, `β = 25 ms`, `γ = 100 ms` and hence `n_max = 3`.

use strandfs::core::admission::{AdmissionController, Aggregates, RequestSpec};
use strandfs::core::model::DiskParams;
use strandfs::core::{FsError, RequestId};
use strandfs::units::{BitRate, Bits, Seconds};

fn env() -> DiskParams {
    DiskParams {
        r_dt: BitRate::mbit_per_sec(28.8),
        l_seek_max: Seconds::from_millis(40.0),
        l_ds_avg: Seconds::from_millis(15.0),
    }
}

fn spec() -> RequestSpec {
    RequestSpec {
        q: 3,
        unit_bits: Bits::new(96_000),
        unit_rate: 30.0,
    }
}

fn aggregates(n: usize) -> Aggregates {
    Aggregates::compute(&env(), &vec![spec(); n]).unwrap()
}

#[test]
fn fixture_matches_hand_computed_aggregates() {
    let agg = aggregates(1);
    // One 300-kbit block over 28.8 Mbit/s is 10.4166̄ ms of transfer.
    let transfer_ms = 3.0 * 96_000.0 / 28.8e6 * 1_000.0;
    assert!((agg.alpha.get() * 1_000.0 - (40.0 + transfer_ms)).abs() < 1e-9);
    assert!((agg.beta.get() * 1_000.0 - (15.0 + transfer_ms)).abs() < 1e-9);
    assert!((agg.gamma.get() - 0.1).abs() < 1e-12);
    assert_eq!(agg.n_max(), 3);
}

// ---------- Eq. 17: the n = n_max boundary ----------

#[test]
fn n_max_itself_is_schedulable() {
    let agg = aggregates(1);
    let n_max = agg.n_max();
    // Both round-size formulas are defined at the boundary...
    let ks = agg.k_steady(n_max).expect("Eq. 16 defined at n_max");
    let kt = agg.k_transient(n_max).expect("Eq. 18 defined at n_max");
    assert!(kt >= ks, "transient round size dominates steady");
    // ...and their k actually satisfies their own inequality.
    assert!(agg.steady_feasible(n_max, ks));
    assert!(agg.transient_feasible(n_max, kt));
    // Eq. 15 spelled out: round time within playback budget.
    assert!(agg.round_time(n_max, ks) <= agg.playback_budget(ks));
}

#[test]
fn round_size_formulas_return_minimal_k() {
    let agg = aggregates(1);
    for n in 1..=agg.n_max() {
        let ks = agg.k_steady(n).unwrap();
        let kt = agg.k_transient(n).unwrap();
        if ks > 1 {
            assert!(
                !agg.steady_feasible(n, ks - 1),
                "n = {n}: k = {} not minimal for Eq. 15",
                ks
            );
        }
        if kt > 1 {
            assert!(
                !agg.transient_feasible(n, kt - 1),
                "n = {n}: k = {} not minimal for Eq. 18",
                kt
            );
        }
    }
}

// ---------- Eq. 17: n_max + 1 must be rejected ----------

#[test]
fn n_max_plus_one_has_no_round_size() {
    let agg = aggregates(1);
    let over = agg.n_max() + 1;
    // γ ≤ n·β: both formulas' denominators vanish or go negative.
    assert_eq!(agg.k_steady(over), None);
    assert_eq!(agg.k_transient(over), None);
    // And no finite k rescues it — Eq. 15 fails for any round size.
    for k in 1..=1_000 {
        assert!(
            !agg.steady_feasible(over, k),
            "n_max + 1 became feasible at k = {k}"
        );
    }
}

#[test]
fn controller_rejects_the_request_after_n_max() {
    let mut ctl = AdmissionController::new(env());
    let n_max = aggregates(1).n_max();
    for i in 0..n_max {
        ctl.try_admit(RequestId::from_raw(i as u64 + 1), spec())
            .unwrap_or_else(|e| panic!("request {} of {n_max} rejected: {e:?}", i + 1));
    }
    assert_eq!(ctl.active(), n_max);
    let over = ctl.try_admit(RequestId::from_raw(99), spec());
    assert!(matches!(over, Err(FsError::AdmissionRejected { .. })));
    // The failed admission must not have perturbed the controller.
    assert_eq!(ctl.active(), n_max);
    // Releasing one slot re-opens admission.
    ctl.release(RequestId::from_raw(1)).unwrap();
    ctl.try_admit(RequestId::from_raw(99), spec()).unwrap();
}

// ---------- Eq. 18: step-wise k growth is transient-safe ----------

#[test]
fn stepwise_growth_never_violates_existing_streams() {
    let mut ctl = AdmissionController::new(env());
    let n_max = aggregates(1).n_max();
    let mut k_prev = 0u64;
    for n in 1..=n_max {
        let admitted = ctl
            .try_admit(RequestId::from_raw(n as u64), spec())
            .unwrap();
        assert_eq!(admitted.k_old, k_prev);
        assert!(admitted.k_new >= admitted.k_old, "k must not shrink");
        assert_eq!(ctl.k(), admitted.k_new);

        let agg = aggregates(n);
        // The new round size is Eq. 18's, and it satisfies both bounds.
        assert_eq!(admitted.k_new, agg.k_transient(n).unwrap());
        assert!(agg.transient_feasible(n, admitted.k_new));
        assert!(agg.steady_feasible(n, admitted.k_new));

        // Every intermediate round size in the transition keeps the
        // n − 1 already-playing streams continuous (Eq. 15 with the old
        // request set holds at every +1 step — the point of Eq. 18).
        if n > 1 {
            let old = aggregates(n - 1);
            for step in admitted.k_old..=admitted.k_new {
                let k = step.max(1);
                assert!(
                    old.steady_feasible(n - 1, k),
                    "step k = {k} of {} → {} starves an existing stream",
                    admitted.k_old,
                    admitted.k_new
                );
            }
        }

        // The published transition schedule is exactly the +1 staircase.
        let want: Vec<u64> = (admitted.k_old + 1..=admitted.k_new).collect();
        assert_eq!(admitted.transition, want);
        k_prev = admitted.k_new;
    }
}

#[test]
fn transient_k_covers_one_extra_transfer() {
    // Eq. 18 unrolled: with k = k_transient, a round that transfers one
    // block more than is buffered still fits the budget of k blocks.
    let agg = aggregates(1);
    for n in 1..=agg.n_max() {
        let kt = agg.k_transient(n).unwrap();
        let k_plus_one_round = agg.round_time(n, kt + 1);
        assert!(
            k_plus_one_round <= agg.playback_budget(kt),
            "n = {n}: transition round of k+1 = {} transfers overruns \
             the k = {kt} buffer budget",
            kt + 1
        );
    }
}

//! Admission control for multiple concurrent requests (§3.4).
//!
//! The file server services `n` active requests in **rounds**,
//! transferring `k` consecutive blocks per request per round. With
//!
//! * `α = l_seek_max + q̄·s̄/R_dt` — worst-case cost of switching to a
//!   request and transferring its first block (Eqs. 7, 12),
//! * `β = l_ds_avg + q̄·s̄/R_dt` — average cost of each subsequent block
//!   (Eqs. 8, 13),
//! * `γ = min_i (q_i / R_r,i)` — the smallest block playback duration
//!   among the requests (Eq. 14),
//!
//! steady-state continuity requires `n·α + n·(k−1)·β ≤ k·γ` (Eq. 15),
//! giving `k = ⌈n(α−β) / (γ−n·β)⌉` (Eq. 16), meaningful iff `γ > n·β`;
//! hence the capacity bound `n_max = ⌈γ/β⌉ − 1` (Eq. 17).
//!
//! Admitting a request grows `k`, and during the transition the server
//! transfers `k_new` blocks while only `k_old` are buffered — Eq. 15
//! alone does not protect that round. The paper's fix (Eq. 18) solves
//! `n·α + n·k·β ≤ k·γ`, i.e. budgets for `k+1` transfers against `k`
//! buffered blocks, so that growing `k` in **steps of 1** is continuous
//! at every step. [`AdmissionController`] implements exactly that
//! protocol.
//!
//! [`Aggregates`] is the one statement of Eqs. 15–18: the round time
//! ([`Aggregates::round_time`]), the Eq. 18 headroom
//! ([`Aggregates::slack`], Eq. 15 with one block more) and the
//! per-block margin `γ − n·β` ([`Aggregates::margin`]). The disk side
//! of α and β is [`DiskParams`].
//!
//! ```
//! use strandfs_core::admission::{Aggregates, RequestSpec};
//! use strandfs_core::model::DiskParams;
//! use strandfs_units::{BitRate, Bits, Seconds};
//!
//! let env = DiskParams {
//!     r_dt: BitRate::mbit_per_sec(28.8),
//!     l_seek_max: Seconds::from_millis(40.0),
//!     l_ds_avg: Seconds::from_millis(15.0),
//! };
//! // 100 ms video blocks: 3 NTSC frames of 96 kbit.
//! let spec = RequestSpec { q: 3, unit_bits: Bits::new(96_000), unit_rate: 30.0 };
//! let agg = Aggregates::compute(&env, &[spec, spec]).unwrap();
//! let k = agg.k_transient(2).expect("two streams fit");
//! assert!(agg.steady_feasible(2, k));
//! assert_eq!(agg.n_max(), 3);
//! ```

use crate::error::FsError;
use crate::model::DiskParams;
use crate::types::RequestId;
use std::collections::BTreeMap;
use strandfs_obs::{Event, ObsSink};
use strandfs_units::{Bits, Nanos, Seconds};

/// Per-request stream parameters as admission control sees them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RequestSpec {
    /// Granularity: media units (frames/samples) per block.
    pub q: u64,
    /// Unit size in bits (`s_vf` or `s_as`).
    pub unit_bits: Bits,
    /// Recording rate in units per second (`R_vr` or `R_ar`).
    pub unit_rate: f64,
}

impl RequestSpec {
    /// Playback duration of one block: `q / R_r`.
    pub fn block_playback(&self) -> Seconds {
        Seconds::new(self.q as f64 / self.unit_rate)
    }

    /// Bits per block: `q · s`.
    pub fn block_bits(&self) -> Bits {
        Bits::new(self.q * self.unit_bits.get())
    }

    /// True if all parameters are positive and finite.
    pub fn is_valid(&self) -> bool {
        self.q > 0 && self.unit_bits.get() > 0 && self.unit_rate.is_finite() && self.unit_rate > 0.0
    }
}

/// The `α`, `β`, `γ` aggregates over a request set.
#[derive(Clone, Copy, Debug)]
pub struct Aggregates {
    /// Worst-case first-block service time (Eq. 12).
    pub alpha: Seconds,
    /// Average subsequent-block service time (Eq. 13).
    pub beta: Seconds,
    /// Minimum block playback duration (Eq. 14).
    pub gamma: Seconds,
}

impl Aggregates {
    /// Compute the aggregates for `requests` on `disk`. Returns `None`
    /// for an empty set (no round to schedule).
    pub fn compute(disk: &DiskParams, requests: &[RequestSpec]) -> Option<Aggregates> {
        if requests.is_empty() {
            return None;
        }
        let mean_block_bits: f64 = requests
            .iter()
            .map(|r| r.block_bits().as_f64())
            .sum::<f64>()
            / requests.len() as f64;
        let mean_transfer = Seconds::new(mean_block_bits / disk.r_dt.get());
        let gamma = requests
            .iter()
            .map(|r| r.block_playback())
            .fold(Seconds::new(f64::INFINITY), Seconds::min);
        Some(Aggregates {
            alpha: disk.l_seek_max + mean_transfer,
            beta: disk.l_ds_avg + mean_transfer,
            gamma,
        })
    }

    /// Eq. 17: the largest request count with `γ > n·β`, i.e.
    /// `n_max = ⌈γ/β⌉ − 1`.
    pub fn n_max(&self) -> usize {
        let ratio = self.gamma.get() / self.beta.get();
        (ceil_eps(ratio) as usize).saturating_sub(1)
    }

    /// The steady-state per-block margin `γ − n·β`: the denominator of
    /// Eqs. 16 and 18, and the `k → ∞` limit of the Eq. 18 headroom per
    /// block. No round size exists unless it is positive.
    pub fn margin(&self, n: usize) -> Seconds {
        Seconds::new(self.gamma.get() - n as f64 * self.beta.get())
    }

    /// Eq. 16: steady-state round size for `n` requests,
    /// `k = ⌈n(α−β)/(γ−n·β)⌉` (at least 1). `None` iff `γ ≤ n·β`.
    pub fn k_steady(&self, n: usize) -> Option<u64> {
        self.round_size(n, self.alpha.get() - self.beta.get())
    }

    /// Eq. 18: transient-safe round size, `k = ⌈n·α/(γ−n·β)⌉` (at least
    /// 1). Using this `k`, every +1 step of the round size keeps the
    /// transition round within the playback duration of the previous
    /// round's buffers. `None` iff `γ ≤ n·β`.
    pub fn k_transient(&self, n: usize) -> Option<u64> {
        self.round_size(n, self.alpha.get())
    }

    /// `⌈n·per_request / (γ−n·β)⌉`, at least 1; `None` iff `γ ≤ n·β`.
    fn round_size(&self, n: usize, per_request: f64) -> Option<u64> {
        let denom = self.margin(n).get();
        if denom <= 0.0 {
            return None;
        }
        let k = ceil_eps(n as f64 * per_request / denom);
        Some((k as u64).max(1))
    }

    /// Left-hand side of Eq. 15: worst-case duration of one full round
    /// servicing `n` requests with `k` blocks each.
    pub fn round_time(&self, n: usize, k: u64) -> Seconds {
        assert!(k >= 1, "round size must be at least 1");
        self.alpha * n as f64 + self.beta * (n as f64 * (k - 1) as f64)
    }

    /// Right-hand side of Eq. 15: the playback duration of `k` blocks of
    /// the fastest-consuming request.
    pub fn playback_budget(&self, k: u64) -> Seconds {
        self.gamma * k as f64
    }

    /// Eq. 18 headroom at `(n, k)`: `k·γ − (n·α + n·k·β)`, the playback
    /// budget of `k` buffered blocks less a round that transfers `k + 1`
    /// (Eq. 15 with one block more). Negative when Eq. 18 fails.
    pub fn slack(&self, n: usize, k: u64) -> Seconds {
        self.playback_budget(k) - self.round_time(n, k + 1)
    }

    /// Eq. 15 holds: a round of size `k` over `n` requests is continuous
    /// in steady state.
    pub fn steady_feasible(&self, n: usize, k: u64) -> bool {
        self.round_time(n, k) <= self.playback_budget(k)
    }

    /// Eq. 18 holds: even a round transferring `k+1` blocks completes
    /// within the playback budget of `k` buffered blocks.
    pub fn transient_feasible(&self, n: usize, k: u64) -> bool {
        self.slack(n, k) >= Seconds::ZERO
    }
}

/// Ceiling with a *relative* tolerance: ratios that miss an integer by a
/// few ulps of accumulated rounding (e.g. `3.0000000000000004`) must not
/// round up a whole service round, but ratios genuinely above an integer
/// — even by as little as 1e-10 — must.
///
/// The previous implementation subtracted a blanket absolute epsilon
/// (`(x - 1e-9).ceil()`), which also pulled *legitimately* above-integer
/// ratios down, yielding a `k` (or `n_max`) one too small right at the
/// Eq. 16/18 feasibility boundary. Snapping only within a few ulps of
/// the nearest integer keeps the rounding-noise forgiveness without
/// eating real slack.
fn ceil_eps(x: f64) -> f64 {
    let nearest = x.round();
    if (x - nearest).abs() <= 4.0 * f64::EPSILON * nearest.abs().max(1.0) {
        nearest
    } else {
        x.ceil()
    }
}

/// Outcome of a successful admission.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Admitted {
    /// The round size before admission (0 when idle).
    pub k_old: u64,
    /// The round size after admission.
    pub k_new: u64,
    /// The step-wise transition schedule: the round sizes to run, one
    /// round each, before the new request enters service (empty when
    /// `k_new ≤ k_old`).
    pub transition: Vec<u64>,
}

/// The round-based admission controller.
///
/// Owns the active request set and the current round size `k`; its
/// invariant is that `(n, k)` always satisfies Eq. 18, so any in-flight
/// transition (which only steps `k` by 1) is continuous.
#[derive(Debug)]
pub struct AdmissionController {
    env: DiskParams,
    requests: BTreeMap<RequestId, RequestSpec>,
    k: u64,
    obs: ObsSink,
    /// The aggregates of the active set (`None` when idle), set by every
    /// admit and release from the set they just computed, so the
    /// per-round slack query never walks the request set.
    agg: Option<Aggregates>,
}

impl AdmissionController {
    /// A controller with no active requests.
    pub fn new(env: DiskParams) -> Self {
        AdmissionController {
            env,
            requests: BTreeMap::new(),
            k: 0,
            obs: ObsSink::noop(),
            agg: None,
        }
    }

    /// Route admit/reject/release decisions into `obs`.
    pub fn set_obs(&mut self, obs: ObsSink) {
        self.obs = obs;
    }

    /// The disk parameters α and β are computed from.
    pub fn env(&self) -> &DiskParams {
        &self.env
    }

    /// Number of requests in service.
    pub fn active(&self) -> usize {
        self.requests.len()
    }

    /// The current round size (0 when idle).
    pub fn k(&self) -> u64 {
        self.k
    }

    /// The specs currently in service, in admission (id) order.
    pub fn specs(&self) -> Vec<RequestSpec> {
        self.requests.values().copied().collect()
    }

    /// The aggregates for the current request set (`None` when idle).
    pub fn aggregates(&self) -> Option<Aggregates> {
        self.agg
    }

    /// Live Eq. 18 round slack for the current active set
    /// ([`Aggregates::slack`] at the accepted `(n, k)`), zero when Eq. 18
    /// is met with nothing to spare. `None` when the server is idle.
    ///
    /// This is the continuity budget the resilient read path divides
    /// among the `n` active streams: a stream may spend at most its
    /// share on fault retries before another stream's deadlines would
    /// be at risk. O(1): it reads the aggregates the last admit or
    /// release cached.
    pub fn eq18_slack(&self) -> Option<Nanos> {
        self.agg
            .map(|agg| agg.slack(self.requests.len(), self.k).to_nanos())
    }

    /// Try to admit `spec` under id `id` (Eq. 18 test). On success the
    /// controller's `k` is updated and the step-wise transition schedule
    /// is returned; on failure nothing changes.
    pub fn try_admit(&mut self, id: RequestId, spec: RequestSpec) -> Result<Admitted, FsError> {
        assert!(spec.is_valid(), "invalid request spec: {spec:?}");
        assert!(
            !self.requests.contains_key(&id),
            "request id {id} already active"
        );
        let mut specs = self.specs();
        specs.push(spec);
        let n = specs.len();
        let agg = Aggregates::compute(&self.env, &specs).expect("non-empty");
        let k_new = match agg.k_transient(n) {
            Some(k) => k,
            None => {
                let n_max = agg.n_max();
                self.obs.emit(|| Event::Reject {
                    request: id.raw(),
                    active: self.requests.len(),
                    n_max,
                });
                return Err(FsError::AdmissionRejected {
                    active: self.requests.len(),
                    n_max,
                });
            }
        };
        let k_old = self.k;
        // The transition schedule: one round at each intermediate size.
        // k may also shrink (admitting a request with a *larger* block
        // playback can lower k) — shrinking needs no transition rounds.
        let transition: Vec<u64> = if k_new > k_old {
            (k_old + 1..=k_new).collect()
        } else {
            Vec::new()
        };
        self.requests.insert(id, spec);
        self.k = k_new;
        self.agg = Some(agg);
        self.obs.emit(|| Event::Admit {
            request: id.raw(),
            n,
            k_old,
            k_new,
            slack: agg.slack(n, k_new).to_nanos(),
        });
        Ok(Admitted {
            k_old,
            k_new,
            transition,
        })
    }

    /// Remove a request from service, recomputing `k` for the remaining
    /// set (0 when the server goes idle).
    pub fn release(&mut self, id: RequestId) -> Result<(), FsError> {
        if self.requests.remove(&id).is_none() {
            return Err(FsError::UnknownRequest(id));
        }
        let n = self.requests.len();
        self.agg = Aggregates::compute(&self.env, &self.specs());
        self.k = self.agg.map_or(0, |agg| {
            agg.k_transient(n)
                .expect("shrinking the set keeps feasibility")
        });
        self.obs.emit(|| Event::Release {
            request: id.raw(),
            n,
            k: self.k,
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use strandfs_units::BitRate;

    fn env() -> DiskParams {
        DiskParams {
            r_dt: BitRate::bits_per_sec(28.8e6),
            l_seek_max: Seconds::from_millis(40.0),
            l_ds_avg: Seconds::from_millis(15.0),
        }
    }

    /// 100 ms blocks (3 NTSC frames of 96 kbit): transfer 10 ms.
    fn spec() -> RequestSpec {
        RequestSpec {
            q: 3,
            unit_bits: Bits::new(96_000),
            unit_rate: 30.0,
        }
    }

    #[test]
    fn aggregates_hand_computed() {
        let agg = Aggregates::compute(&env(), &[spec(), spec()]).unwrap();
        // mean transfer = 288000/28.8e6 = 10 ms.
        assert!((agg.alpha.get() - 0.050).abs() < 1e-9);
        assert!((agg.beta.get() - 0.025).abs() < 1e-9);
        assert!((agg.gamma.get() - 0.100).abs() < 1e-9);
        // n_max = ceil(100/25) - 1 = 3.
        assert_eq!(agg.n_max(), 3);
        assert!(Aggregates::compute(&env(), &[]).is_none());
    }

    #[test]
    fn k_formulas_hand_computed() {
        let agg = Aggregates::compute(&env(), &[spec()]).unwrap();
        // n=1: gamma - beta = 75 ms.
        // k_steady = ceil(1 * 25 / 75) = 1.
        assert_eq!(agg.k_steady(1), Some(1));
        // k_transient = ceil(50/75) = 1.
        assert_eq!(agg.k_transient(1), Some(1));
        // n=3: denom = 100 - 75 = 25 ms.
        // k_steady = ceil(3*25/25) = 3; k_transient = ceil(3*50/25) = 6.
        assert_eq!(agg.k_steady(3), Some(3));
        assert_eq!(agg.k_transient(3), Some(6));
        // n=4 = n_max+1: infeasible.
        assert_eq!(agg.k_steady(4), None);
        assert_eq!(agg.k_transient(4), None);
    }

    #[test]
    fn k_monotone_in_n() {
        let agg = Aggregates::compute(&env(), &[spec()]).unwrap();
        let mut prev = 0;
        for n in 1..=agg.n_max() {
            let k = agg.k_steady(n).unwrap();
            assert!(k >= prev, "k not monotone at n={n}");
            prev = k;
        }
    }

    #[test]
    fn transient_k_dominates_steady_k() {
        let agg = Aggregates::compute(&env(), &[spec()]).unwrap();
        for n in 1..=agg.n_max() {
            assert!(agg.k_transient(n).unwrap() >= agg.k_steady(n).unwrap());
        }
    }

    #[test]
    fn eq15_feasibility_matches_k_steady() {
        let agg = Aggregates::compute(&env(), &[spec(); 3]).unwrap();
        let k = agg.k_steady(3).unwrap();
        assert!(agg.steady_feasible(3, k));
        if k > 1 {
            assert!(!agg.steady_feasible(3, k - 1));
        }
    }

    #[test]
    fn eq18_protects_plus_one_round() {
        // The Eq. 18 k guarantees even a (k+1)-block transfer round fits
        // in k blocks' playback — the property that makes step-wise
        // transitions continuous.
        let agg = Aggregates::compute(&env(), &[spec(); 3]).unwrap();
        let k = agg.k_transient(3).unwrap();
        assert!(agg.transient_feasible(3, k));
        assert!(agg.round_time(3, k + 1) <= agg.playback_budget(k + 1));
    }

    #[test]
    fn controller_admits_up_to_n_max() {
        let mut ac = AdmissionController::new(env());
        let mut admitted = 0;
        for i in 0..10 {
            match ac.try_admit(RequestId::from_raw(i), spec()) {
                Ok(_) => admitted += 1,
                Err(FsError::AdmissionRejected { active, n_max }) => {
                    assert_eq!(active, 3);
                    assert_eq!(n_max, 3);
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert_eq!(admitted, 3);
        assert_eq!(ac.active(), 3);
        assert_eq!(ac.k(), 6); // k_transient(3) from the hand computation
    }

    #[test]
    fn transition_schedule_steps_by_one() {
        let mut ac = AdmissionController::new(env());
        let a1 = ac.try_admit(RequestId::from_raw(1), spec()).unwrap();
        assert_eq!(a1.k_old, 0);
        assert_eq!(a1.k_new, 1);
        assert_eq!(a1.transition, vec![1]);
        let a2 = ac.try_admit(RequestId::from_raw(2), spec()).unwrap();
        // n=2: denom = 100-50=50; k_transient = ceil(2*50/50) = 2.
        assert_eq!(a2.k_new, 2);
        assert_eq!(a2.transition, vec![2]);
        let a3 = ac.try_admit(RequestId::from_raw(3), spec()).unwrap();
        assert_eq!(a3.k_new, 6);
        assert_eq!(a3.transition, vec![3, 4, 5, 6]);
    }

    #[test]
    fn release_shrinks_k_and_frees_capacity() {
        let mut ac = AdmissionController::new(env());
        for i in 0..3 {
            ac.try_admit(RequestId::from_raw(i), spec()).unwrap();
        }
        assert!(ac.try_admit(RequestId::from_raw(9), spec()).is_err());
        ac.release(RequestId::from_raw(0)).unwrap();
        assert_eq!(ac.active(), 2);
        assert_eq!(ac.k(), 2);
        // Capacity is available again.
        assert!(ac.try_admit(RequestId::from_raw(9), spec()).is_ok());
        // Releasing everything idles the server.
        for id in [1, 2, 9] {
            ac.release(RequestId::from_raw(id)).unwrap();
        }
        assert_eq!(ac.k(), 0);
        assert_eq!(
            ac.release(RequestId::from_raw(5)),
            Err(FsError::UnknownRequest(RequestId::from_raw(5)))
        );
    }

    #[test]
    fn heterogeneous_mix_uses_minimum_playback() {
        // An audio request with a 50 ms block tightens gamma.
        let audio = RequestSpec {
            q: 400,
            unit_bits: Bits::new(8),
            unit_rate: 8_000.0,
        };
        let agg = Aggregates::compute(&env(), &[spec(), audio]).unwrap();
        assert!((agg.gamma.get() - 0.050).abs() < 1e-9);
        // Mean block bits = (288000 + 3200)/2; beta reflects it.
        let mean_transfer = (288_000.0 + 3_200.0) / 2.0 / 28.8e6;
        assert!((agg.beta.get() - (0.015 + mean_transfer)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "already active")]
    fn duplicate_id_panics() {
        let mut ac = AdmissionController::new(env());
        ac.try_admit(RequestId::from_raw(1), spec()).unwrap();
        let _ = ac.try_admit(RequestId::from_raw(1), spec());
    }

    #[test]
    fn ceil_eps_exact_integers_stay_put() {
        for v in [0.0, 1.0, 2.0, 3.0, 7.0, 100.0, 4096.0] {
            assert_eq!(ceil_eps(v), v, "exact integer {v} must not round up");
        }
    }

    #[test]
    fn ceil_eps_forgives_ulp_noise_only() {
        // A few ulps of accumulated rounding above an integer snap down…
        let noisy = 3.000_000_000_000_000_4; // 3.0 + 1 ulp
        assert_eq!(ceil_eps(noisy), 3.0);
        assert_eq!(ceil_eps(2.0 + 2.0 * f64::EPSILON), 2.0);
        // …and the same noise *below* an integer snaps up to it, not
        // past it.
        assert_eq!(ceil_eps(3.0 - f64::EPSILON), 3.0);
    }

    #[test]
    fn ceil_eps_respects_genuinely_above_integer_ratios() {
        // The old blanket 1e-9 epsilon under-rounded these: a ratio a
        // real 1e-10 above an integer needs the next whole round.
        assert_eq!(ceil_eps(3.0 + 1e-10), 4.0);
        assert_eq!(ceil_eps(3.0 + 1e-12), 4.0);
        assert_eq!(ceil_eps(1.0 + 1e-13), 2.0);
        // Plain fractional ratios are ordinary ceilings.
        assert_eq!(ceil_eps(2.5), 3.0);
        assert_eq!(ceil_eps(0.001), 1.0);
    }

    #[test]
    fn ceil_eps_boundary_shifts_k_transient() {
        // Construct aggregates where n·α/(γ−n·β) is genuinely just above
        // an integer: α=50.000001 ms, β=25 ms, γ=100 ms, n=3 gives
        // 150.000003/25 = 6.00000012 — the old epsilon returned k=6,
        // hiding an infeasible round; the fix demands k=7.
        let agg = Aggregates {
            alpha: Seconds::new(0.050_000_001),
            beta: Seconds::new(0.025),
            gamma: Seconds::new(0.100),
        };
        let k = agg.k_transient(3).unwrap();
        assert_eq!(k, 7);
        assert!(agg.transient_feasible(3, k));
        assert!(!agg.transient_feasible(3, k - 1), "k−1 must be infeasible");
    }

    #[test]
    fn cached_slack_follows_every_admit_and_release() {
        // Across admit/release churn of a heterogeneous mix the cached
        // slack must equal Eq. 18's headroom over the live request set,
        // computed afresh, and every admit must report that same slack.
        let fresh = |ac: &AdmissionController| -> Option<Nanos> {
            let agg = Aggregates::compute(ac.env(), &ac.specs())?;
            Some(agg.slack(ac.active(), ac.k()).to_nanos())
        };
        let menu = [
            spec(),
            RequestSpec {
                q: 400,
                unit_bits: Bits::new(8),
                unit_rate: 8_000.0,
            },
            RequestSpec {
                q: 2,
                unit_bits: Bits::new(96_000),
                unit_rate: 30.0,
            },
        ];
        let (sink, recorder) = ObsSink::ring(4);
        let mut prng = strandfs_units::Prng::seed_from_u64(0x051a_ce18);
        let mut ac = AdmissionController::new(env());
        ac.set_obs(sink);
        let mut live: Vec<RequestId> = Vec::new();
        for i in 0..200u64 {
            let admit = live.is_empty() || prng.gen_bool(0.6);
            if admit {
                let spec = *prng.choose(&menu).unwrap();
                let id = RequestId::from_raw(i);
                if ac.try_admit(id, spec).is_ok() {
                    live.push(id);
                    let last = recorder.borrow().events().last().copied();
                    match last {
                        Some(Event::Admit { slack, .. }) => {
                            assert_eq!(Some(slack), ac.eq18_slack(), "admit {i}")
                        }
                        other => panic!("admit {i} emitted {other:?}"),
                    }
                }
            } else {
                let pick = prng.bounded_u64(live.len() as u64) as usize;
                ac.release(live.swap_remove(pick)).unwrap();
            }
            assert_eq!(
                ac.eq18_slack(),
                fresh(&ac),
                "cached slack diverged after step {i} (n={}, k={})",
                ac.active(),
                ac.k()
            );
        }
        // Drain to idle: the cache must fall back to None.
        for id in live {
            ac.release(id).unwrap();
        }
        assert_eq!(ac.eq18_slack(), None);
    }

    #[test]
    fn admission_events_mirror_decisions() {
        let (sink, recorder) = ObsSink::ring(32);
        let mut ac = AdmissionController::new(env());
        ac.set_obs(sink);
        for i in 0..4 {
            let _ = ac.try_admit(RequestId::from_raw(i), spec());
        }
        ac.release(RequestId::from_raw(0)).unwrap();
        let r = recorder.borrow();
        let m = r.metrics();
        assert_eq!(
            (m.tally.admits, m.tally.rejects, m.tally.releases),
            (3, 1, 1)
        );
        assert_eq!(m.k_peak, 6);
        assert_eq!(m.k_growths, 3);
        // Every admit carried non-negative Eq. 18 slack; the n=3 admit
        // at k=6 is exactly tight (round time = playback budget).
        assert_eq!(m.admit_slack.summary().min, strandfs_units::Nanos::ZERO);
        let kinds: Vec<_> = r.events().map(|e| e.kind()).collect();
        assert_eq!(kinds, vec!["admit", "admit", "admit", "reject", "release"]);
    }
}

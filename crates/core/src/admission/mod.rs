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
//! ```
//! use strandfs_core::admission::{Aggregates, RequestSpec, ServiceEnv};
//! use strandfs_units::{BitRate, Bits, Seconds};
//!
//! let env = ServiceEnv {
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
use crate::types::RequestId;
use std::collections::BTreeMap;
use strandfs_obs::{Event, ObsSink};
use strandfs_units::{BitRate, Bits, Seconds};

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

/// Server-side constants of the admission equations.
#[derive(Clone, Copy, Debug)]
pub struct ServiceEnv {
    /// Disk transfer rate `R_dt`.
    pub r_dt: BitRate,
    /// Worst-case positioning between any two blocks (`l_seek_max`,
    /// seek + rotational latency).
    pub l_seek_max: Seconds,
    /// Average positioning between successive blocks of one strand under
    /// the scattering bound (`l_ds_avg`).
    pub l_ds_avg: Seconds,
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
    /// Compute the aggregates for `requests` under `env`. Returns `None`
    /// for an empty set (no round to schedule).
    pub fn compute(env: &ServiceEnv, requests: &[RequestSpec]) -> Option<Aggregates> {
        if requests.is_empty() {
            return None;
        }
        let mean_block_bits: f64 = requests
            .iter()
            .map(|r| r.block_bits().as_f64())
            .sum::<f64>()
            / requests.len() as f64;
        let mean_transfer = Seconds::new(mean_block_bits / env.r_dt.get());
        let gamma = requests
            .iter()
            .map(|r| r.block_playback())
            .fold(Seconds::new(f64::INFINITY), Seconds::min);
        Some(Aggregates {
            alpha: env.l_seek_max + mean_transfer,
            beta: env.l_ds_avg + mean_transfer,
            gamma,
        })
    }

    /// Eq. 17: the largest request count with `γ > n·β`, i.e.
    /// `n_max = ⌈γ/β⌉ − 1`.
    pub fn n_max(&self) -> usize {
        let ratio = self.gamma.get() / self.beta.get();
        (ceil_eps(ratio) as usize).saturating_sub(1)
    }

    /// Eq. 16: steady-state round size for `n` requests,
    /// `k = ⌈n(α−β)/(γ−n·β)⌉` (at least 1). `None` iff `γ ≤ n·β`.
    pub fn k_steady(&self, n: usize) -> Option<u64> {
        let denom = self.gamma.get() - n as f64 * self.beta.get();
        if denom <= 0.0 {
            return None;
        }
        let k = ceil_eps(n as f64 * (self.alpha.get() - self.beta.get()) / denom);
        Some((k as u64).max(1))
    }

    /// Eq. 18: transient-safe round size, `k = ⌈n·α/(γ−n·β)⌉` (at least
    /// 1). Using this `k`, every +1 step of the round size keeps the
    /// transition round within the playback duration of the previous
    /// round's buffers. `None` iff `γ ≤ n·β`.
    pub fn k_transient(&self, n: usize) -> Option<u64> {
        let denom = self.gamma.get() - n as f64 * self.beta.get();
        if denom <= 0.0 {
            return None;
        }
        let k = ceil_eps(n as f64 * self.alpha.get() / denom);
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

    /// Eq. 15 holds: a round of size `k` over `n` requests is continuous
    /// in steady state.
    pub fn steady_feasible(&self, n: usize, k: u64) -> bool {
        self.round_time(n, k) <= self.playback_budget(k)
    }

    /// Eq. 18 holds: even a round transferring `k+1` blocks completes
    /// within the playback budget of `k` buffered blocks.
    pub fn transient_feasible(&self, n: usize, k: u64) -> bool {
        self.alpha * n as f64 + self.beta * (n as f64 * k as f64) <= self.playback_budget(k)
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
    env: ServiceEnv,
    requests: BTreeMap<RequestId, RequestSpec>,
    k: u64,
    obs: ObsSink,
    /// Exact integer sum of `q·s` over the active set — the numerator of
    /// the mean block size that α and β share. Kept incrementally so the
    /// per-round slack query never walks the request set.
    sum_block_bits: u128,
    /// Multiset of block playback durations keyed by the IEEE-754 bit
    /// pattern (positive finite f64s order identically by bits and by
    /// value), so γ — the minimum — is the first key. Counted, because
    /// identical specs are common and releases must not lose the min.
    gamma_multiset: BTreeMap<u64, usize>,
    /// Cached Eq. 18 slack for the current `(set, k)`; refreshed on every
    /// admit/release, read in O(1) by [`Self::eq18_slack`].
    slack: Option<strandfs_units::Nanos>,
}

impl AdmissionController {
    /// A controller with no active requests.
    pub fn new(env: ServiceEnv) -> Self {
        AdmissionController {
            env,
            requests: BTreeMap::new(),
            k: 0,
            obs: ObsSink::noop(),
            sum_block_bits: 0,
            gamma_multiset: BTreeMap::new(),
            slack: None,
        }
    }

    /// Route admit/reject/release decisions into `obs`.
    pub fn set_obs(&mut self, obs: ObsSink) {
        self.obs = obs;
    }

    /// The server environment.
    pub fn env(&self) -> &ServiceEnv {
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

    /// The spec of one active request.
    pub fn spec(&self, id: RequestId) -> Option<&RequestSpec> {
        self.requests.get(&id)
    }

    /// The aggregates for the current request set (`None` when idle).
    pub fn aggregates(&self) -> Option<Aggregates> {
        Aggregates::compute(&self.env, &self.specs())
    }

    /// Capacity bound for the *current* mix plus a hypothetical request
    /// identical to the average — mainly informational; admission itself
    /// recomputes aggregates with the actual candidate.
    pub fn n_max(&self) -> usize {
        self.aggregates().map(|a| a.n_max()).unwrap_or(usize::MAX)
    }

    /// Live Eq. 18 round slack for the current active set:
    /// `k·γ − (n·α + n·k·β)` — the round-time headroom the admitted mix
    /// retains at its accepted `(n, k)`. `None` when the server is idle.
    ///
    /// This is the continuity budget the resilient read path divides
    /// among the `n` active streams: a stream may spend at most its
    /// share on fault retries before another stream's deadlines would
    /// be at risk.
    ///
    /// O(1): the value is maintained incrementally across admit/release
    /// (exact integer block-bit sum + γ multiset), not recomputed from
    /// the request set — the simulator queries it every round.
    pub fn eq18_slack(&self) -> Option<strandfs_units::Nanos> {
        self.slack
    }

    /// Recompute the cached Eq. 18 slack from the incremental aggregates.
    /// Arithmetic mirrors [`Aggregates::compute`] exactly: per-request
    /// block-bit values are whole numbers well below 2^53, so the seed's
    /// sequential f64 sum is exact and equals `sum_block_bits as f64`.
    fn refresh_slack(&mut self) {
        let n = self.requests.len();
        if n == 0 || self.k == 0 {
            self.slack = None;
            return;
        }
        let mean_block_bits = self.sum_block_bits as f64 / n as f64;
        let mean_transfer = Seconds::new(mean_block_bits / self.env.r_dt.get());
        let alpha = self.env.l_seek_max + mean_transfer;
        let beta = self.env.l_ds_avg + mean_transfer;
        let gamma_bits = *self
            .gamma_multiset
            .keys()
            .next()
            .expect("non-empty request set keeps a γ entry");
        let gamma = Seconds::new(f64::from_bits(gamma_bits));
        let slack = gamma * self.k as f64 - (alpha * n as f64 + beta * (n as f64 * self.k as f64));
        self.slack = Some(slack.max(Seconds::new(0.0)).to_nanos());
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
        self.sum_block_bits += spec.block_bits().get() as u128;
        *self
            .gamma_multiset
            .entry(spec.block_playback().get().to_bits())
            .or_insert(0) += 1;
        self.refresh_slack();
        self.obs.emit(|| Event::Admit {
            request: id.raw(),
            n,
            k_old,
            k_new,
            // Eq. 18 headroom at the accepted (n, k): k·γ − (n·α + n·k·β).
            slack: (agg.playback_budget(k_new)
                - (agg.alpha * n as f64 + agg.beta * (n as f64 * k_new as f64)))
                .to_nanos(),
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
        let spec = match self.requests.remove(&id) {
            Some(spec) => spec,
            None => return Err(FsError::UnknownRequest(id)),
        };
        self.sum_block_bits -= spec.block_bits().get() as u128;
        let gamma_key = spec.block_playback().get().to_bits();
        let count = self
            .gamma_multiset
            .get_mut(&gamma_key)
            .expect("released spec was counted");
        *count -= 1;
        if *count == 0 {
            self.gamma_multiset.remove(&gamma_key);
        }
        self.k = match self.aggregates() {
            Some(agg) => agg
                .k_transient(self.requests.len())
                .expect("shrinking the set keeps feasibility"),
            None => 0,
        };
        self.refresh_slack();
        self.obs.emit(|| Event::Release {
            request: id.raw(),
            n: self.requests.len(),
            k: self.k,
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> ServiceEnv {
        ServiceEnv {
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
    fn incremental_slack_matches_full_recompute() {
        // The cached slack is maintained across admit/release churn of a
        // heterogeneous mix; after every mutation it must equal the
        // from-scratch Eq. 18 computation over the live request set —
        // bit-for-bit, since the incremental mean uses the same exact
        // integer sum the sequential f64 sum produces.
        let full_recompute = |ac: &AdmissionController| -> Option<strandfs_units::Nanos> {
            let agg = ac.aggregates()?;
            let n = ac.active();
            if n == 0 || ac.k() == 0 {
                return None;
            }
            let slack = agg.playback_budget(ac.k())
                - (agg.alpha * n as f64 + agg.beta * (n as f64 * ac.k() as f64));
            Some(slack.max(Seconds::new(0.0)).to_nanos())
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
        let mut prng = strandfs_units::Prng::seed_from_u64(0x051a_ce18);
        let mut ac = AdmissionController::new(env());
        let mut live: Vec<RequestId> = Vec::new();
        for i in 0..200u64 {
            let admit = live.is_empty() || prng.gen_bool(0.6);
            if admit {
                let spec = *prng.choose(&menu).unwrap();
                let id = RequestId::from_raw(i);
                if ac.try_admit(id, spec).is_ok() {
                    live.push(id);
                }
            } else {
                let pick = prng.bounded_u64(live.len() as u64) as usize;
                ac.release(live.swap_remove(pick)).unwrap();
            }
            assert_eq!(
                ac.eq18_slack(),
                full_recompute(&ac),
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

//! A minimal property-testing harness.
//!
//! A [`Strategy`] pairs a generator over the seeded [`Prng`] with a
//! shrinker producing strictly-simpler candidate inputs. [`check`] runs a
//! property over `STRANDFS_TEST_CASES` generated inputs (default 256);
//! on failure it iteratively shrinks the input while the property keeps
//! failing, then panics with the minimal counterexample and the seed
//! needed to replay it:
//!
//! ```text
//! STRANDFS_TEST_SEED=42 cargo test -q failing_test_name
//! ```
//!
//! Strategies are deliberately plain: ranges (`0u64..100`,
//! `-1.0f64..=1.0`) are strategies, tuples of strategies are strategies,
//! and [`vec()`] builds collection strategies. Structured values are built
//! *inside the property body* from scalar inputs, which keeps shrinking
//! well-defined (every candidate a shrinker proposes is itself a value
//! the strategy could have generated).

use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};
use std::panic::{catch_unwind, AssertUnwindSafe};
use strandfs_units::prng::{mix_seed, Prng};

/// Default number of cases per property.
pub const DEFAULT_CASES: u32 = 256;

/// Default base seed (spells "strandfs" in hex-ish homage; any fixed
/// value works — determinism is the point).
pub const DEFAULT_SEED: u64 = 0x5374_7261_6e64_4653;

/// Why a single case did not pass.
#[derive(Clone, Debug)]
pub enum CaseError {
    /// The input violated a precondition; generate a replacement.
    Discard,
    /// The property failed with this message.
    Fail(String),
}

impl CaseError {
    /// A failure with a message.
    pub fn fail(msg: impl Into<String>) -> Self {
        CaseError::Fail(msg.into())
    }
}

/// Runner configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Cases to run per property.
    pub cases: u32,
    /// Base seed; every property and case derives its own stream.
    pub seed: u64,
    /// Upper bound on property evaluations spent shrinking.
    pub max_shrink_steps: u32,
}

impl Config {
    /// Read `STRANDFS_TEST_SEED` / `STRANDFS_TEST_CASES`, with defaults.
    pub fn from_env() -> Self {
        Config {
            cases: env_parse("STRANDFS_TEST_CASES", DEFAULT_CASES),
            seed: env_parse("STRANDFS_TEST_SEED", DEFAULT_SEED),
            max_shrink_steps: 2_000,
        }
    }

    /// Same seed handling, explicit case count (for expensive
    /// properties).
    pub fn with_cases(cases: u32) -> Self {
        Config {
            cases: env_parse("STRANDFS_TEST_CASES", cases).min(cases.max(1) * 8),
            ..Config::from_env()
        }
    }
}

fn env_parse<T: std::str::FromStr>(var: &str, default: T) -> T {
    std::env::var(var)
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(default)
}

/// A generator + shrinker over one value type.
pub trait Strategy {
    /// The generated input type.
    type Value: Clone + Debug;

    /// Draw one input.
    fn generate(&self, rng: &mut Prng) -> Self::Value;

    /// Strictly-simpler candidates for a failing input (each must be a
    /// value this strategy could itself generate). Empty = fully shrunk.
    fn shrink(&self, _v: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }
}

// ---------- scalar strategies ----------

macro_rules! int_strategy {
    ($($t:ty),* $(,)?) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut Prng) -> $t {
                rng.gen_range(self.clone())
            }

            fn shrink(&self, v: &$t) -> Vec<$t> {
                shrink_int(self.start, *v)
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut Prng) -> $t {
                rng.gen_range(self.clone())
            }

            fn shrink(&self, v: &$t) -> Vec<$t> {
                shrink_int(*self.start(), *v)
            }
        }
    )*};
}

int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Candidates between the range floor and the failing value: the floor
/// itself, the midpoint, and one step down — the classic bisecting walk.
fn shrink_int<T>(lo: T, v: T) -> Vec<T>
where
    T: Copy + PartialOrd + std::ops::Add<Output = T> + std::ops::Sub<Output = T> + HalfDiff,
{
    if v <= lo {
        return Vec::new();
    }
    let mut out = vec![lo];
    let mid = lo + HalfDiff::half_diff(lo, v);
    if mid > lo && mid < v {
        out.push(mid);
    }
    let down = v - T::one();
    if down > lo && !out.contains(&down) {
        out.push(down);
    }
    out
}

/// Helper for `shrink_int`: `(hi - lo) / 2` and the unit step without
/// assuming a signed/unsigned representation.
pub trait HalfDiff: Sized {
    /// `(hi - lo) / 2`.
    fn half_diff(lo: Self, hi: Self) -> Self;
    /// The unit step.
    fn one() -> Self;
}

macro_rules! half_diff {
    ($($t:ty),* $(,)?) => {$(
        impl HalfDiff for $t {
            fn half_diff(lo: $t, hi: $t) -> $t {
                (hi - lo) / 2
            }
            fn one() -> $t {
                1
            }
        }
    )*};
}

half_diff!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut Prng) -> f64 {
        rng.gen_range(self.clone())
    }

    fn shrink(&self, v: &f64) -> Vec<f64> {
        shrink_f64(self.start, *v)
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut Prng) -> f64 {
        rng.gen_range(self.clone())
    }

    fn shrink(&self, v: &f64) -> Vec<f64> {
        shrink_f64(*self.start(), *v)
    }
}

fn shrink_f64(lo: f64, v: f64) -> Vec<f64> {
    // NaN shrinks to nothing, so compare via partial_cmp, not `!(v > lo)`.
    if v.partial_cmp(&lo) != Some(std::cmp::Ordering::Greater) {
        return Vec::new();
    }
    let mut out = vec![lo];
    let mid = lo + (v - lo) / 2.0;
    if mid > lo && mid < v {
        out.push(mid);
    }
    out
}

/// The `bool` strategy (shrinks `true` → `false`).
#[derive(Clone, Copy, Debug)]
pub struct AnyBool;

/// A uniform `bool`.
pub fn any_bool() -> AnyBool {
    AnyBool
}

impl Strategy for AnyBool {
    type Value = bool;

    fn generate(&self, rng: &mut Prng) -> bool {
        rng.gen_bool(0.5)
    }

    fn shrink(&self, v: &bool) -> Vec<bool> {
        if *v {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

/// A constant strategy.
#[derive(Clone, Copy, Debug)]
pub struct Just<T>(pub T);

/// The strategy that always produces `value`.
pub fn just<T: Clone + Debug>(value: T) -> Just<T> {
    Just(value)
}

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut Prng) -> T {
        self.0.clone()
    }
}

// ---------- combinators ----------

/// Collection strategy built by [`vec()`].
#[derive(Clone, Debug)]
pub struct VecStrategy<S> {
    elem: S,
    len: Range<usize>,
}

/// A `Vec` of `elem` values with a length drawn from `len`.
pub fn vec<S: Strategy>(elem: S, len: Range<usize>) -> VecStrategy<S> {
    assert!(len.start < len.end, "empty length range");
    VecStrategy { elem, len }
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut Prng) -> Vec<S::Value> {
        let n = rng.gen_range(self.len.clone());
        (0..n).map(|_| self.elem.generate(rng)).collect()
    }

    fn shrink(&self, v: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
        let min = self.len.start;
        let mut out = Vec::new();
        // Structural shrinks first: delete a chunk at every offset,
        // halving the chunk from all that may go down to one element.
        let mut chunk = v.len().saturating_sub(min);
        while chunk > 0 {
            for at in (0..=v.len() - chunk).step_by(chunk) {
                out.push([&v[..at], &v[at + chunk..]].concat());
            }
            chunk /= 2;
        }
        // Then element-wise shrinks.
        for (i, e) in v.iter().enumerate().take(16) {
            for se in self.elem.shrink(e) {
                let mut w = v.clone();
                w[i] = se;
                out.push(w);
            }
        }
        out
    }
}

macro_rules! tuple_strategy {
    ($(($($S:ident/$idx:tt),+))*) => {$(
        impl<$($S: Strategy),+> Strategy for ($($S,)+) {
            type Value = ($($S::Value,)+);

            fn generate(&self, rng: &mut Prng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }

            fn shrink(&self, v: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for cand in self.$idx.shrink(&v.$idx) {
                        let mut w = v.clone();
                        w.$idx = cand;
                        out.push(w);
                    }
                )+
                out
            }
        }
    )*};
}

tuple_strategy! {
    (A/0)
    (A/0, B/1)
    (A/0, B/1, C/2)
    (A/0, B/1, C/2, D/3)
    (A/0, B/1, C/2, D/3, E/4)
    (A/0, B/1, C/2, D/3, E/4, F/5)
    (A/0, B/1, C/2, D/3, E/4, F/5, G/6)
}

// ---------- the runner ----------

/// Run `prop` over [`Config::from_env`]-many generated inputs.
///
/// `name` keys the per-property random stream, so adding or reordering
/// properties never perturbs another property's cases.
pub fn check<S, P>(name: &str, strategy: S, prop: P)
where
    S: Strategy,
    P: Fn(&S::Value) -> Result<(), CaseError>,
{
    check_with(&Config::from_env(), name, strategy, prop)
}

/// [`check`] with an explicit configuration.
pub fn check_with<S, P>(cfg: &Config, name: &str, strategy: S, prop: P)
where
    S: Strategy,
    P: Fn(&S::Value) -> Result<(), CaseError>,
{
    let stream = stream_key(name.as_bytes());
    let mut discards = 0u32;
    for case in 0..cfg.cases {
        // Each case gets its own decorrelated PRNG so a failure replays
        // from (seed, name, case) alone, independent of earlier cases.
        let mut value = None;
        for attempt in 0..100u64 {
            let case_seed = mix_seed(cfg.seed ^ stream, (case as u64) << 8 | attempt);
            let candidate = strategy.generate(&mut Prng::seed_from_u64(case_seed));
            match eval(&prop, &candidate) {
                Ok(()) => {
                    value = Some(Ok(()));
                    break;
                }
                Err(CaseError::Discard) => {
                    discards += 1;
                    continue;
                }
                Err(CaseError::Fail(msg)) => {
                    value = Some(Err((candidate, msg)));
                    break;
                }
            }
        }
        match value {
            Some(Ok(())) => {}
            Some(Err((input, msg))) => {
                let (min_input, min_msg) = shrink_loop(cfg, &strategy, &prop, input, msg);
                panic!(
                    "property '{name}' failed (case {case}/{cases}):\n  \
                     minimal input: {min_input:?}\n  \
                     error: {min_msg}\n  \
                     replay with: STRANDFS_TEST_SEED={seed} cargo test -q",
                    cases = cfg.cases,
                    seed = cfg.seed,
                );
            }
            None => {
                // 100 straight discards: assumptions too strict for this
                // case's stream; skip it rather than loop forever.
            }
        }
    }
    let budget = cfg.cases.saturating_mul(100);
    assert!(
        discards < budget,
        "property '{name}' discarded {discards} inputs (≥ {budget}): assumptions too strict"
    );
}

/// Evaluate the property, converting panics into failures.
fn eval<V, P>(prop: &P, v: &V) -> Result<(), CaseError>
where
    P: Fn(&V) -> Result<(), CaseError>,
{
    match catch_unwind(AssertUnwindSafe(|| prop(v))) {
        Ok(r) => r,
        Err(payload) => Err(CaseError::Fail(panic_message(payload))),
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic (non-string payload)".to_string()
    }
}

/// Greedily descend through shrink candidates while the property keeps
/// failing, bounded by `cfg.max_shrink_steps` evaluations: the one
/// shrinker, behind [`check_with`] and the fsx exerciser's op streams.
pub fn shrink_loop<S, P>(
    cfg: &Config,
    strategy: &S,
    prop: &P,
    mut input: S::Value,
    mut msg: String,
) -> (S::Value, String)
where
    S: Strategy,
    P: Fn(&S::Value) -> Result<(), CaseError>,
{
    let mut steps = 0u32;
    'outer: while steps < cfg.max_shrink_steps {
        for cand in strategy.shrink(&input) {
            steps += 1;
            if let Err(CaseError::Fail(m)) = eval(prop, &cand) {
                input = cand;
                msg = m;
                continue 'outer; // re-shrink from the simpler input
            }
            if steps >= cfg.max_shrink_steps {
                break 'outer;
            }
        }
        break; // no candidate still fails: minimal
    }
    (input, msg)
}

/// The key of a property's case stream. FNV-1a's shape but not its
/// multiplier (`0x1_0000_01b3`, where FNV-1a-64 multiplies by
/// `0x100_0000_01b3`), so it is not `strandfs_disk::fnv1a`: swapping
/// that in would re-key every property's cases.
fn stream_key(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

// ---------- assertion macros ----------

/// Fail the current property case unless the condition holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, stringify!($cond));
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::CaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Fail the current property case unless the two values are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, "{a:?} != {b:?}");
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, $($fmt)+);
    }};
}

/// Discard the current case when its precondition does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::CaseError::Discard);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let cfg = Config {
            cases: 64,
            seed: 1,
            max_shrink_steps: 100,
        };
        let mut seen = 0;
        // Interior mutability via Cell keeps the property Fn.
        let counter = std::cell::Cell::new(0u32);
        check_with(&cfg, "all_cases", 0u64..100, |_| {
            counter.set(counter.get() + 1);
            Ok(())
        });
        seen += counter.get();
        assert_eq!(seen, 64);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let cfg = Config {
            cases: 32,
            seed: 99,
            max_shrink_steps: 100,
        };
        let collect = |_: ()| {
            let vals = std::cell::RefCell::new(Vec::new());
            check_with(&cfg, "det", (0u64..1000, 0i32..10), |v| {
                vals.borrow_mut().push(*v);
                Ok(())
            });
            vals.into_inner()
        };
        assert_eq!(collect(()), collect(()));
    }

    #[test]
    fn failure_shrinks_to_minimal() {
        let cfg = Config {
            cases: 200,
            seed: 7,
            max_shrink_steps: 2_000,
        };
        // Property: v < 50. Minimal counterexample within 0..1000 is 50.
        let r = catch_unwind(AssertUnwindSafe(|| {
            check_with(&cfg, "shrinks", 0u64..1000, |v| {
                if *v >= 50 {
                    Err(CaseError::fail(format!("{v} too big")))
                } else {
                    Ok(())
                }
            });
        }));
        let msg = panic_message(r.expect_err("property must fail"));
        assert!(msg.contains("minimal input: 50"), "got: {msg}");
        assert!(msg.contains("STRANDFS_TEST_SEED=7"), "got: {msg}");
    }

    #[test]
    fn vec_shrinking_reduces_length_and_elements() {
        let cfg = Config {
            cases: 100,
            seed: 3,
            max_shrink_steps: 5_000,
        };
        // Fails whenever the vec contains any element ≥ 5; minimal
        // counterexample is the singleton [5].
        let r = catch_unwind(AssertUnwindSafe(|| {
            check_with(&cfg, "vec_shrink", vec(0u32..100, 1..20), |v| {
                if v.iter().any(|&x| x >= 5) {
                    Err(CaseError::fail("has big element"))
                } else {
                    Ok(())
                }
            });
        }));
        let msg = panic_message(r.expect_err("property must fail"));
        assert!(msg.contains("minimal input: [5]"), "got: {msg}");
    }

    #[test]
    fn chunk_deletion_finds_a_buried_pair() {
        // 200 elements; the failure needs both the 7 at index 57 and the
        // 9 at index 183, and nothing else. Deleting chunks at every
        // offset reaches the pair in 59 evaluations; dropping only single
        // elements among the first 8 takes 499, past this budget.
        let mut v: Vec<u32> = (100..300).collect();
        (v[57], v[183]) = (7, 9);
        let pair = |v: &Vec<u32>| {
            if v.contains(&7) && v.contains(&9) {
                Err(CaseError::fail("7 and 9"))
            } else {
                Ok(())
            }
        };
        let cfg = Config {
            cases: 1,
            seed: 0,
            max_shrink_steps: 100,
        };
        let (min, _) = shrink_loop(&cfg, &vec(0u32..1000, 0..300), &pair, v, String::new());
        assert_eq!(min, [7, 9]);
    }

    #[test]
    fn panics_are_caught_and_shrunk() {
        let cfg = Config {
            cases: 100,
            seed: 11,
            max_shrink_steps: 2_000,
        };
        let r = catch_unwind(AssertUnwindSafe(|| {
            check_with(&cfg, "panics", 0u64..100, |v| {
                assert!(*v < 10, "boom at {v}");
                Ok(())
            });
        }));
        let msg = panic_message(r.expect_err("property must fail"));
        assert!(msg.contains("minimal input: 10"), "got: {msg}");
        assert!(msg.contains("boom"), "got: {msg}");
    }

    #[test]
    fn assume_discards_without_failing() {
        let cfg = Config {
            cases: 50,
            seed: 5,
            max_shrink_steps: 100,
        };
        check_with(&cfg, "assume", (0u64..100, 0u64..100), |&(a, b)| {
            prop_assume!(a <= b);
            prop_assert!(b - a < 100);
            Ok(())
        });
    }

    #[test]
    fn tuple_shrinking_is_componentwise() {
        let cfg = Config {
            cases: 200,
            seed: 13,
            max_shrink_steps: 5_000,
        };
        let r = catch_unwind(AssertUnwindSafe(|| {
            check_with(&cfg, "tuple", (0u64..100, 0u64..100), |&(a, b)| {
                if a + b >= 20 {
                    Err(CaseError::fail("sum too big"))
                } else {
                    Ok(())
                }
            });
        }));
        let msg = panic_message(r.expect_err("property must fail"));
        // Minimal counterexamples have a + b == 20 with one component 0.
        assert!(
            msg.contains("(0, 20)") || msg.contains("(20, 0)"),
            "got: {msg}"
        );
    }
}

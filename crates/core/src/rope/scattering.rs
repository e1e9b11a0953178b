//! Maintenance of the scattering parameter across edit boundaries
//! (§4.2, Eqs. 19–20).
//!
//! Within a strand, the allocator keeps block separations inside
//! `[l_lower, l_upper]`, so continuity holds inside every interval of
//! every rope. At an *interval boundary* produced by editing, the gap
//! between the last block of one interval and the first block of the
//! next is unconstrained — up to a full-stroke seek — and playback can
//! glitch there.
//!
//! The paper's fix: copy the first `C_b` blocks of the right-hand
//! interval (or the last `C_a` of the left-hand one, whichever is
//! cheaper) into freshly-allocated blocks that ramp the separation back
//! into bounds, where
//!
//! * sparse disk: `C_b = ⌈ l_seek_max / (2·l_lower) ⌉`  (Eq. 19)
//! * dense disk:  `C_b = ⌈ l_seek_max / l_lower ⌉`      (Eq. 20)
//!
//! Copied blocks form a **new immutable strand** (immutability is never
//! violated, and GC stays simple); the edited rope references
//! `[new strand][remainder of old interval]`.
//!
//! This module computes the bounds and the copy plan; the MSM performs
//! the physical copy (see [`crate::msm`]).

use crate::rope::StrandRef;
use strandfs_units::Seconds;

/// How full the disk is, which determines how much freedom the allocator
/// has when redistributing boundary blocks.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Occupancy {
    /// Plenty of free space: redistribution can halve the gap each block
    /// (Eq. 19).
    Sparse,
    /// Nearly full: redistribution advances one lower-bound step per
    /// block (Eq. 20).
    Dense,
}

/// Eq. 19: blocks to copy on a sparsely-occupied disk,
/// `⌈l_seek_max / (2·l_lower)⌉`.
pub fn copy_bound_sparse(l_seek_max: Seconds, l_lower: Seconds) -> u64 {
    assert!(
        l_lower.get() > 0.0,
        "scattering lower bound must be positive"
    );
    (l_seek_max.get() / (2.0 * l_lower.get())).ceil() as u64
}

/// Eq. 20: blocks to copy on a densely-occupied disk,
/// `⌈l_seek_max / l_lower⌉`.
pub fn copy_bound_dense(l_seek_max: Seconds, l_lower: Seconds) -> u64 {
    assert!(
        l_lower.get() > 0.0,
        "scattering lower bound must be positive"
    );
    (l_seek_max.get() / l_lower.get()).ceil() as u64
}

/// The copy bound for the given occupancy.
pub fn copy_bound(l_seek_max: Seconds, l_lower: Seconds, occupancy: Occupancy) -> u64 {
    match occupancy {
        Occupancy::Sparse => copy_bound_sparse(l_seek_max, l_lower),
        Occupancy::Dense => copy_bound_dense(l_seek_max, l_lower),
    }
}

/// Which side of a boundary to copy from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CopySide {
    /// Copy the last `count` blocks of the left interval.
    Left,
    /// Copy the first `count` blocks of the right interval.
    Right,
}

/// A plan for healing one edit boundary.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CopyPlan {
    /// Which interval loses blocks to the new bridging strand.
    pub side: CopySide,
    /// Number of media blocks to copy.
    pub count: u64,
}

impl CopyPlan {
    /// The first block the plan copies out of `src`, the interval on its
    /// side of the boundary: the right interval's first block, or the
    /// left interval's `count`-th block from its end.
    pub fn first_block(&self, src: &StrandRef) -> u64 {
        match self.side {
            CopySide::Right => src.start_block(),
            CopySide::Left => src.end_block() + 1 - self.count,
        }
    }
}

/// Decide the cheaper healing plan for the boundary between `left` and
/// `right`: the paper copies `min(C_a, C_b)` blocks, from whichever side
/// needs fewer. `C_a`/`C_b` are capped at each interval's own block
/// count (copying the whole interval always suffices).
pub fn plan_boundary(
    left: &StrandRef,
    right: &StrandRef,
    l_seek_max: Seconds,
    l_lower: Seconds,
    occupancy: Occupancy,
) -> CopyPlan {
    let bound = copy_bound(l_seek_max, l_lower, occupancy);
    let left_blocks = block_span(left);
    let right_blocks = block_span(right);
    let c_a = bound.min(left_blocks);
    let c_b = bound.min(right_blocks);
    if c_a < c_b {
        CopyPlan {
            side: CopySide::Left,
            count: c_a,
        }
    } else {
        CopyPlan {
            side: CopySide::Right,
            count: c_b,
        }
    }
}

/// Number of strand blocks an interval touches.
pub fn block_span(r: &StrandRef) -> u64 {
    if r.len_units == 0 {
        0
    } else {
        r.end_block() - r.start_block() + 1
    }
}

/// The target gap (in seconds of positioning time) for the `i`-th copied
/// block out of `count`, ramping from `start_gap` down to the strand's
/// steady gap `l_lower`-to-`l_upper` midpoint.
///
/// The redistribution of §4.2 places copied blocks so the oversized
/// boundary gap is amortized linearly across them; this helper gives the
/// per-step gap the allocator should aim for.
pub fn ramp_gap(start_gap: Seconds, steady_gap: Seconds, i: u64, count: u64) -> Seconds {
    assert!(count > 0 && i < count, "ramp index out of range");
    let f = (i + 1) as f64 / count as f64;
    Seconds::new(start_gap.get() + (steady_gap.get() - start_gap.get()) * f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::StrandId;

    fn r(len_units: u64) -> StrandRef {
        StrandRef {
            strand: StrandId::from_raw(1),
            start_unit: 0,
            len_units,
            unit_rate: 30.0,
            granularity: 3,
        }
    }

    #[test]
    fn copy_bounds_hand_computed() {
        // l_seek_max = 40 ms, l_lower = 5 ms.
        let seek = Seconds::from_millis(40.0);
        let lower = Seconds::from_millis(5.0);
        assert_eq!(copy_bound_sparse(seek, lower), 4);
        assert_eq!(copy_bound_dense(seek, lower), 8);
        assert_eq!(copy_bound(seek, lower, Occupancy::Sparse), 4);
        assert_eq!(copy_bound(seek, lower, Occupancy::Dense), 8);
    }

    #[test]
    fn dense_doubles_sparse() {
        for (seek_ms, lower_ms) in [(40.0, 5.0), (33.0, 7.0), (100.0, 1.0)] {
            let s = copy_bound_sparse(
                Seconds::from_millis(seek_ms),
                Seconds::from_millis(lower_ms),
            );
            let d = copy_bound_dense(
                Seconds::from_millis(seek_ms),
                Seconds::from_millis(lower_ms),
            );
            assert!(d >= s && d <= 2 * s, "sparse {s} dense {d}");
        }
    }

    #[test]
    fn plan_prefers_smaller_side() {
        let seek = Seconds::from_millis(40.0);
        let lower = Seconds::from_millis(5.0);
        // Bound is 4 blocks; left has 2 blocks (6 units / q=3), right has
        // plenty: copy the left side (2 < 4).
        let plan = plan_boundary(&r(6), &r(300), seek, lower, Occupancy::Sparse);
        assert_eq!(plan.side, CopySide::Left);
        assert_eq!(plan.count, 2);
        // Symmetric: small right side.
        let plan = plan_boundary(&r(300), &r(3), seek, lower, Occupancy::Sparse);
        assert_eq!(plan.side, CopySide::Right);
        assert_eq!(plan.count, 1);
        // Both large: bound wins, right by convention (C_a == C_b).
        let plan = plan_boundary(&r(300), &r(300), seek, lower, Occupancy::Sparse);
        assert_eq!(plan.side, CopySide::Right);
        assert_eq!(plan.count, 4);
    }

    #[test]
    fn block_span_counts() {
        assert_eq!(block_span(&r(1)), 1);
        assert_eq!(block_span(&r(3)), 1);
        assert_eq!(block_span(&r(4)), 2);
        assert_eq!(block_span(&r(300)), 100);
        let mid = StrandRef {
            start_unit: 2,
            len_units: 2,
            ..r(0)
        };
        assert_eq!(block_span(&mid), 2); // units 2..4 touch blocks 0 and 1
        assert_eq!(block_span(&r(0)), 0);
    }

    #[test]
    fn ramp_gap_interpolates() {
        let start = Seconds::from_millis(40.0);
        let steady = Seconds::from_millis(10.0);
        let g0 = ramp_gap(start, steady, 0, 3);
        let g1 = ramp_gap(start, steady, 1, 3);
        let g2 = ramp_gap(start, steady, 2, 3);
        assert!(g0 > g1 && g1 > g2);
        assert!((g2.get() - 0.010).abs() < 1e-12);
        assert!((g0.get() - 0.030).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "lower bound must be positive")]
    fn zero_lower_bound_rejected() {
        copy_bound_sparse(Seconds::from_millis(40.0), Seconds::ZERO);
    }

    #[test]
    fn copy_bounds_at_ceiling_boundaries() {
        // Exact multiples sit on the ceil cliff: one ulp under stays,
        // anything over rounds up — the regime where an off-by-one
        // either under-heals a boundary (glitch) or copies a block too
        // many (wasted bandwidth).
        let lower = Seconds::from_millis(5.0);
        // 40 / (2·5) = 4 exactly; 40.0001 → 5.
        assert_eq!(copy_bound_sparse(Seconds::from_millis(40.0), lower), 4);
        assert_eq!(copy_bound_sparse(Seconds::from_millis(40.001), lower), 5);
        // 40 / 5 = 8 exactly; 39.999 → 8 still (ceil), 40.001 → 9.
        assert_eq!(copy_bound_dense(Seconds::from_millis(40.0), lower), 8);
        assert_eq!(copy_bound_dense(Seconds::from_millis(39.999), lower), 8);
        assert_eq!(copy_bound_dense(Seconds::from_millis(40.001), lower), 9);
    }

    #[test]
    fn copy_bounds_degenerate_regimes() {
        let lower = Seconds::from_millis(5.0);
        // Zero worst-case seek: the boundary is already in bounds, no
        // copies needed under either occupancy.
        assert_eq!(copy_bound_sparse(Seconds::ZERO, lower), 0);
        assert_eq!(copy_bound_dense(Seconds::ZERO, lower), 0);
        // Seek below one lower-bound step: a single copied block always
        // suffices, sparse or dense.
        let tiny = Seconds::from_millis(1.0);
        assert_eq!(copy_bound_sparse(tiny, lower), 1);
        assert_eq!(copy_bound_dense(tiny, lower), 1);
        // Seek exactly one step: dense needs the full step, sparse
        // halves it.
        assert_eq!(copy_bound_sparse(lower, lower), 1);
        assert_eq!(copy_bound_dense(lower, lower), 1);
    }

    #[test]
    fn copy_bounds_monotone_in_seek_and_lower() {
        // More worst-case seek never needs fewer copies; a tighter
        // lower bound never needs fewer either.
        let lower = Seconds::from_millis(5.0);
        let mut prev = 0;
        for ms in 1..=100 {
            let b = copy_bound_dense(Seconds::from_millis(ms as f64), lower);
            assert!(b >= prev, "dense bound not monotone at {ms} ms");
            prev = b;
        }
        let seek = Seconds::from_millis(40.0);
        let loose = copy_bound_sparse(seek, Seconds::from_millis(10.0));
        let tight = copy_bound_sparse(seek, Seconds::from_millis(2.0));
        assert!(tight >= loose);
    }

    #[test]
    fn ramp_gap_boundary_indices() {
        let start = Seconds::from_millis(40.0);
        let steady = Seconds::from_millis(10.0);
        // A one-block ramp lands directly on the steady gap.
        let only = ramp_gap(start, steady, 0, 1);
        assert!((only.get() - steady.get()).abs() < 1e-12);
        // The last block of any ramp ends at the steady gap; every
        // interior step stays inside (steady, start).
        for count in 2..8u64 {
            let last = ramp_gap(start, steady, count - 1, count);
            assert!((last.get() - steady.get()).abs() < 1e-12);
            for i in 0..count - 1 {
                let g = ramp_gap(start, steady, i, count);
                assert!(g.get() < start.get() && g.get() > steady.get());
            }
        }
        // Degenerate ramp: start already at steady — flat line.
        for i in 0..4 {
            let g = ramp_gap(steady, steady, i, 4);
            assert!((g.get() - steady.get()).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "ramp index out of range")]
    fn ramp_gap_index_past_count_rejected() {
        ramp_gap(Seconds::from_millis(40.0), Seconds::from_millis(10.0), 3, 3);
    }
}

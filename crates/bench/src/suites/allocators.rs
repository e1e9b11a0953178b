//! E9: the allocation-policy comparison (record + play 8 streams under
//! each policy).

use crate::experiments::e9_allocators;
use std::hint::black_box;
use strandfs_disk::{AllocPolicy, Allocator, Extent, GapBounds};
use strandfs_testkit::bench::Runner;

/// Register the suite's benchmarks.
pub fn register(c: &mut Runner) {
    // Micro: raw allocation throughput per policy.
    for (label, policy) in [
        (
            "constrained",
            AllocPolicy::Constrained {
                bounds: GapBounds {
                    min_sectors: 16,
                    max_sectors: 4_096,
                },
            },
        ),
        ("contiguous", AllocPolicy::Contiguous),
        ("random", AllocPolicy::Random),
    ] {
        c.bench_function(&format!("allocators/allocate_1000_{label}"), |b| {
            b.iter(|| {
                let mut a = Allocator::new(1 << 22, policy.clone(), 7);
                let mut prev: Option<Extent> = None;
                for _ in 0..1_000 {
                    let e = match prev {
                        Some(p) => a.allocate_after(p, 24).unwrap(),
                        None => a.allocate_first(24).unwrap(),
                    };
                    prev = Some(e);
                }
                black_box(prev)
            })
        });
    }

    // Macro: the full experiment.
    let mut g = c.benchmark_group("allocators");
    g.sample_size(10);
    g.bench_function("full_policy_comparison", |b| {
        b.iter(|| black_box(e9_allocators::run().len()))
    });
    g.finish();
}

//! **E3 — Eqs. 1–3 / Figs. 1–3**: the three retrieval architectures
//! compared.
//!
//! For each architecture, the admissible scattering bound at each
//! granularity, the maximum sustainable frame rate at a fixed
//! scattering, and the §3.3.2 buffer counts.

use crate::table::{ms, Table};
use strandfs_core::model::continuity::{
    max_frame_rate_concurrent, max_frame_rate_pipelined, max_frame_rate_sequential,
    max_scattering_concurrent, max_scattering_pipelined, max_scattering_sequential,
};
use strandfs_core::model::VideoStream;
use strandfs_media::RetrievalArchitecture;
use strandfs_units::{BitRate, Seconds};

/// Scattering bound per architecture at granularity `q`.
pub struct BoundRow {
    /// Granularity (frames/block).
    pub q: u64,
    /// Eq. 1 bound (None = infeasible).
    pub sequential: Option<Seconds>,
    /// Eq. 2 bound.
    pub pipelined: Option<Seconds>,
    /// Eq. 3 bound at p = 4.
    pub concurrent4: Option<Seconds>,
}

/// Sweep granularities for the scattering bounds.
pub fn scattering_bounds(base: &VideoStream, r_dt: BitRate) -> Vec<BoundRow> {
    (1..=8)
        .map(|q| {
            let v = VideoStream { q, ..*base };
            BoundRow {
                q,
                sequential: max_scattering_sequential(&v, r_dt),
                pipelined: max_scattering_pipelined(&v, r_dt),
                concurrent4: max_scattering_concurrent(&v, r_dt, 4),
            }
        })
        .collect()
}

/// Maximum sustainable frame rate per architecture at a fixed
/// scattering.
pub struct RateRow {
    /// The architecture label.
    pub arch: &'static str,
    /// Max frames/s.
    pub max_fps: f64,
    /// Strict-continuity buffers (§3.3.2).
    pub buffers: u32,
}

/// Compare sustainable rates at 20 ms scattering.
pub fn max_rates(v: &VideoStream, r_dt: BitRate) -> Vec<RateRow> {
    let l = Seconds::from_millis(20.0);
    vec![
        RateRow {
            arch: "sequential",
            max_fps: max_frame_rate_sequential(v, r_dt, l).unwrap_or(0.0),
            buffers: RetrievalArchitecture::Sequential.strict_buffers(),
        },
        RateRow {
            arch: "pipelined",
            max_fps: max_frame_rate_pipelined(v, r_dt, l).unwrap_or(0.0),
            buffers: RetrievalArchitecture::Pipelined.strict_buffers(),
        },
        RateRow {
            arch: "concurrent p=2",
            max_fps: max_frame_rate_concurrent(v, r_dt, l, 2).unwrap_or(0.0),
            buffers: RetrievalArchitecture::Concurrent { p: 2 }.strict_buffers(),
        },
        RateRow {
            arch: "concurrent p=4",
            max_fps: max_frame_rate_concurrent(v, r_dt, l, 4).unwrap_or(0.0),
            buffers: RetrievalArchitecture::Concurrent { p: 4 }.strict_buffers(),
        },
    ]
}

/// Render both sweeps.
pub fn tables(v: &VideoStream, r_dt: BitRate) -> (Table, Table) {
    let mut t1 = Table::new(
        "E3a / Eqs. 1-3 — admissible scattering bound (ms) vs. granularity q",
        &[
            "q (frames/blk)",
            "sequential (Eq.1)",
            "pipelined (Eq.2)",
            "concurrent p=4 (Eq.3)",
        ],
    );
    for r in scattering_bounds(v, r_dt) {
        let fmt = |b: Option<Seconds>| {
            b.map(|s| ms(s.get()))
                .unwrap_or_else(|| "infeasible".into())
        };
        t1.row(vec![
            r.q.to_string(),
            fmt(r.sequential),
            fmt(r.pipelined),
            fmt(r.concurrent4),
        ]);
    }
    t1.note("bounds widen with q and with architecture concurrency: seq < pipe < conc");

    let mut t2 = Table::new(
        "E3b — max sustainable frame rate at 20 ms scattering, with strict buffer counts",
        &["architecture", "max fps", "buffers (strict)"],
    );
    for r in max_rates(v, r_dt) {
        t2.row(vec![
            r.arch.to_string(),
            format!("{:.1}", r.max_fps),
            r.buffers.to_string(),
        ]);
    }
    t2.note("buffer cost of the speedup: 1 / 2 / p (paper §3.3.2)");
    (t1, t2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{standard_video_stream, vintage_env};

    #[test]
    fn architecture_ordering_holds() {
        let v = standard_video_stream();
        let r_dt = vintage_env().r_dt;
        for row in scattering_bounds(&v, r_dt) {
            if let (Some(s), Some(p), Some(c)) = (row.sequential, row.pipelined, row.concurrent4) {
                assert!(s <= p, "q={}", row.q);
                assert!(p <= c, "q={}", row.q);
            }
        }
        let rates = max_rates(&v, r_dt);
        assert!(rates[0].max_fps <= rates[1].max_fps);
        assert!(rates[1].max_fps <= rates[2].max_fps);
        assert!(rates[2].max_fps <= rates[3].max_fps);
    }

    #[test]
    fn bounds_widen_with_granularity() {
        let v = standard_video_stream();
        let r_dt = vintage_env().r_dt;
        let rows = scattering_bounds(&v, r_dt);
        let firsts: Vec<_> = rows.iter().filter_map(|r| r.pipelined).collect();
        for w in firsts.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }
}

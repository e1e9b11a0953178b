//! **E11 — §6.2 future work**: variable-rate compression and its effect
//! on scattering bounds and capacity.
//!
//! The paper anticipates that compression-aware bounds beat worst-case
//! (intra-frame) budgeting. The experiment measures the VBR codec's
//! burstiness, compares the deterministic (max-size) and statistical
//! (mean-size) scattering bounds and capacities, and then *plays* VBR
//! streams admitted under the statistical budget to confirm that the
//! averaged-continuity machinery absorbs the excursions.

use crate::table::{ms, Table};
use strandfs_core::admission::{Aggregates, RequestSpec};
use strandfs_core::model::continuity::max_scattering_pipelined;
use strandfs_core::model::vbr::VbrParams;
use strandfs_core::msm::MsmConfig;
use strandfs_core::rope::edit::MediaSel;
use strandfs_disk::{DiskGeometry, GapBounds, SeekModel};
use strandfs_media::VideoCodec;
use strandfs_sim::playback::{simulate_playback, PlaybackConfig};
use strandfs_sim::{volume_on, ClipSpec};
use strandfs_units::{BitRate, Bits};

/// Analytic comparison at one granularity.
pub struct Analytic {
    /// Measured peak-to-mean frame-size ratio.
    pub burstiness: f64,
    /// Pipelined scattering bound budgeting `s_max` (ms); `None` if
    /// infeasible.
    pub bound_deterministic_ms: Option<f64>,
    /// Pipelined scattering bound budgeting `s_mean` (ms).
    pub bound_statistical_ms: Option<f64>,
    /// Capacity budgeting `s_max`.
    pub n_max_deterministic: usize,
    /// Capacity budgeting `s_mean`.
    pub n_max_statistical: usize,
}

/// Compute the analytic comparison on the projected-future disk.
pub fn analytic() -> Analytic {
    let env = crate::experiments::projected_env();
    let r_dt = env.r_dt;
    let p = VbrParams::from_codec(
        &VideoCodec::uvc_ntsc_vbr(7),
        1_800,
        BitRate::mbit_per_sec(138.24),
        3,
    );
    let det = p.deterministic_stream();
    let stat = p.statistical_stream(1.0);
    let cap = |s: Bits| -> usize {
        let spec = RequestSpec {
            q: 3,
            unit_bits: s,
            unit_rate: 30.0,
        };
        Aggregates::compute(&env, &[spec])
            .map(|a| a.n_max())
            .unwrap_or(0)
    };
    Analytic {
        burstiness: p.burstiness(),
        bound_deterministic_ms: max_scattering_pipelined(&det, r_dt).map(|s| s.get() * 1e3),
        bound_statistical_ms: max_scattering_pipelined(&stat, r_dt).map(|s| s.get() * 1e3),
        n_max_deterministic: cap(det.s),
        n_max_statistical: cap(stat.s),
    }
}

/// Measured playback: VBR streams admitted under the statistical
/// budget.
pub struct Played {
    /// Streams played.
    pub n: usize,
    /// Round size used (statistical Eq. 18).
    pub k: u64,
    /// Total continuity violations.
    pub violations: u64,
    /// Largest buffer backlog.
    pub max_buffered: u64,
}

/// Play `n` VBR streams at the statistical k.
pub fn play_statistical(n: usize) -> Played {
    let clips: Vec<ClipSpec> = (0..n)
        .map(|i| ClipSpec {
            vbr: true,
            ..ClipSpec::video_seconds(8.0).with_seed(400 + i as u64)
        })
        .collect();
    let (mut mrs, ropes) = volume_on(
        DiskGeometry::projected_fast(),
        SeekModel::projected_fast(),
        MsmConfig::constrained(
            GapBounds {
                min_sectors: 0,
                max_sectors: 120_000,
            },
            4,
        ),
        &clips,
    )
    .expect("build volume");
    let env = *mrs.msm().admission_ref().env();
    let p = VbrParams::from_codec(
        &VideoCodec::uvc_ntsc_vbr(7),
        1_800,
        BitRate::mbit_per_sec(138.24),
        3,
    );
    let spec = RequestSpec {
        q: 3,
        unit_bits: p.statistical_stream(1.1).s,
        unit_rate: 30.0,
    };
    let agg = Aggregates::compute(&env, &vec![spec; n]).expect("non-empty");
    let k = agg.k_transient(n).expect("statistically admissible");
    let schedules: Vec<_> = ropes
        .iter()
        .map(|r| mrs.schedule(*r, MediaSel::Both).unwrap())
        .collect();
    let report =
        simulate_playback(&mut mrs, schedules, PlaybackConfig::with_k(k)).expect("simulate");
    Played {
        n,
        k,
        violations: report.total_violations(),
        max_buffered: report.max_buffered(),
    }
}

/// Render the experiment.
pub fn table() -> Table {
    let a = analytic();
    let mut t = Table::new(
        "E11 / §6.2 — variable-rate compression: deterministic vs. statistical budgeting",
        &["quantity", "deterministic (s_max)", "statistical (s_mean)"],
    );
    let fmt = |b: Option<f64>| {
        b.map(|v| ms(v / 1e3))
            .unwrap_or_else(|| "infeasible".into())
    };
    t.row(vec![
        "scattering bound (ms, pipelined, q=3)".into(),
        fmt(a.bound_deterministic_ms),
        fmt(a.bound_statistical_ms),
    ]);
    t.row(vec![
        "capacity n_max".into(),
        a.n_max_deterministic.to_string(),
        a.n_max_statistical.to_string(),
    ]);
    t.note(format!(
        "VBR burstiness (peak/mean frame size): {:.2}x",
        a.burstiness
    ));
    let played = play_statistical(a.n_max_deterministic + 1);
    t.note(format!(
        "measured: {} VBR streams (1 beyond the deterministic capacity) at statistical k={} -> {} violations, max buffer {} blocks",
        played.n, played.k, played.violations, played.max_buffered
    ));
    t.note("compression-aware (statistical) budgeting recovers the capacity worst-case budgeting wastes");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statistical_budget_beats_deterministic() {
        let a = analytic();
        assert!(a.burstiness > 1.5);
        assert!(a.n_max_statistical > a.n_max_deterministic);
        match (a.bound_deterministic_ms, a.bound_statistical_ms) {
            (Some(d), Some(s)) => assert!(s > d),
            (None, Some(_)) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn vbr_streams_play_clean_at_statistical_k() {
        let a = analytic();
        // One more stream than deterministic budgeting would admit.
        let played = play_statistical(a.n_max_deterministic + 1);
        assert_eq!(
            played.violations, 0,
            "statistical budgeting must hold on the real VBR workload"
        );
    }
}

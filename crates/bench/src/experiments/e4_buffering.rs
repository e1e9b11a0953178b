//! **E4 — §3.3.2**: buffering, read-ahead, anti-jitter delay and the
//! task-switch bound `h`.

use crate::table::{ms, Table};
use strandfs_core::model::buffering::{
    anti_jitter_delay, averaged_plan, fast_forward_buffer_multiplier, fast_forward_scattering,
    task_switch_read_ahead,
};
use strandfs_core::model::{DiskParams, VideoStream};
use strandfs_media::RetrievalArchitecture;

/// One row of the averaged-continuity sweep.
pub struct Row {
    /// Averaging window (blocks).
    pub k: u32,
    /// Sequential plan: (read-ahead, buffers).
    pub sequential: (u32, u32),
    /// Pipelined plan.
    pub pipelined: (u32, u32),
    /// Concurrent (p=4) plan.
    pub concurrent4: (u32, u32),
    /// Anti-jitter startup delay for the pipelined plan.
    pub startup_ms: f64,
}

/// Sweep the averaging window `k`.
pub fn run(v: &VideoStream, disk: &DiskParams) -> Vec<Row> {
    (1..=8u32)
        .map(|k| {
            let s = averaged_plan(RetrievalArchitecture::Sequential, k);
            let p = averaged_plan(RetrievalArchitecture::Pipelined, k);
            let c = averaged_plan(RetrievalArchitecture::Concurrent { p: 4 }, k);
            Row {
                k,
                sequential: (s.read_ahead_blocks, s.buffers),
                pipelined: (p.read_ahead_blocks, p.buffers),
                concurrent4: (c.read_ahead_blocks, c.buffers),
                startup_ms: anti_jitter_delay(&p, v, disk).get() * 1e3,
            }
        })
        .collect()
}

/// Render the buffering sweep plus the special-mode bounds.
pub fn tables(v: &VideoStream, disk: &DiskParams) -> (Table, Table) {
    let mut t1 = Table::new(
        "E4a / §3.3.2 — read-ahead and buffers vs. averaging window k",
        &[
            "k",
            "seq RA/buf",
            "pipe RA/buf",
            "conc4 RA/buf",
            "pipe startup (ms)",
        ],
    );
    for r in run(v, disk) {
        t1.row(vec![
            r.k.to_string(),
            format!("{}/{}", r.sequential.0, r.sequential.1),
            format!("{}/{}", r.pipelined.0, r.pipelined.1),
            format!("{}/{}", r.concurrent4.0, r.concurrent4.1),
            format!("{:.1}", r.startup_ms),
        ]);
    }
    t1.note("paper: k / 2k / pk buffers; startup = anti-jitter read-ahead time");
    t1.note(format!(
        "task-switch read-ahead h = {} blocks (l_seek_max = {} over {} blocks)",
        task_switch_read_ahead(v, disk),
        ms(disk.l_seek_max.get()),
        ms(v.block_playback().get()),
    ));

    let mut t2 = Table::new(
        "E4b — fast-forward: scattering bound (ms) and buffer multiplier vs. speed",
        &[
            "speed",
            "skip: bound",
            "skip: buf x",
            "no-skip: bound",
            "no-skip: buf x",
        ],
    );
    for speed in [1.0, 2.0, 4.0, 8.0] {
        let skip = fast_forward_scattering(v, disk, speed, true);
        let noskip = fast_forward_scattering(v, disk, speed, false);
        let fmt = |b: Option<strandfs_units::Seconds>| {
            b.map(|s| ms(s.get()))
                .unwrap_or_else(|| "infeasible".into())
        };
        t2.row(vec![
            format!("{speed}x"),
            fmt(skip),
            format!("{:.0}", fast_forward_buffer_multiplier(speed, true)),
            fmt(noskip),
            format!("{:.0}", fast_forward_buffer_multiplier(speed, false)),
        ]);
    }
    t2.note("paper: skipping raises only the continuity requirement; no-skip raises buffering too");
    (t1, t2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{standard_video_stream, vintage_env};

    #[test]
    fn plans_scale_linearly_in_k() {
        let rows = run(&standard_video_stream(), &vintage_env());
        for r in &rows {
            assert_eq!(r.sequential, (r.k, r.k));
            assert_eq!(r.pipelined, (r.k, 2 * r.k));
            assert_eq!(r.concurrent4, (4 * r.k, 4 * r.k));
        }
        // Startup grows with k.
        for w in rows.windows(2) {
            assert!(w[1].startup_ms > w[0].startup_ms);
        }
    }

    #[test]
    fn fast_forward_no_skip_is_tighter() {
        let v = standard_video_stream();
        let d = vintage_env();
        for speed in [2.0, 4.0] {
            let skip = fast_forward_scattering(&v, &d, speed, true);
            let noskip = fast_forward_scattering(&v, &d, speed, false);
            match (skip, noskip) {
                (Some(s), Some(n)) => assert!(n <= s),
                (Some(_), None) => {}
                other => panic!("unexpected {other:?}"),
            }
        }
    }
}

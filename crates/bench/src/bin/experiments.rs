//! Regenerate every table and figure of the paper.
//!
//! ```text
//! cargo run -p strandfs-bench --release --bin experiments
//! ```
//!
//! Output is the text form of `EXPERIMENTS.md`'s measured columns.

use strandfs_bench::experiments::*;
use strandfs_cluster::standard_spec;

fn main() {
    println!("strandfs experiment harness — Rangan & Vin, SOSP '91");
    println!("====================================================\n");

    let env = vintage_env();
    let spec = standard_spec();
    let stream = standard_video_stream();

    println!("{}", e1_fig4::table(&env, spec));
    // The same curve on the projected-future disk stretches the
    // asymptote out to n_max = 9, showing the full hyperbolic shape.
    println!("{}", e1_fig4::table(&projected_env(), spec));

    println!("{}", e2_unconstrained::table());

    let (t3a, t3b) = e3_architectures::tables(&stream, env.r_dt);
    println!("{t3a}");
    println!("{t3b}");

    let (t4a, t4b) = e4_buffering::tables(&stream, &env);
    println!("{t4a}");
    println!("{t4b}");

    for t in e5_capacity::tables(&env, spec) {
        println!("{t}");
    }
    {
        // The same sweeps on the projected-future disk, for contrast.
        let mut t = strandfs_bench::Table::new(
            "E5d — capacity on the projected-future disk",
            &["disk", "n_max (NTSC/UVC streams)"],
        );
        t.row(vec![
            "vintage 1991".into(),
            e5_capacity::n_max_at(&env, spec).to_string(),
        ]);
        t.row(vec![
            "projected fast".into(),
            e5_capacity::n_max_at(&projected_env(), spec).to_string(),
        ]);
        println!("{t}");
    }

    println!("{}", e6_transient::table());

    let (t7a, t7b) = e7_edit_copy::tables(env.l_seek_max);
    println!("{t7a}");
    println!("{t7b}");

    let (t8a, t8b) = e8_silence::tables();
    println!("{t8a}");
    println!("{t8b}");

    println!("{}", e9_allocators::table());

    println!("{}", e10_index::table());

    println!("{}", e11_vbr::table());

    println!("{}", e12_scan::table());

    println!("{}", e13_faults::table());

    println!("{}", e14_crash::table());

    println!("{}", e16_scale::table());

    println!("{}", e17_monitor::table());

    println!("{}", e18_cluster::table());

    println!("{}", e19_integrity::table());
}

//! The virtual-time sections of `BENCH_core.json`: one registry, read
//! by everything that produces or checks them.
//!
//! Each entry renders one `sections/<label>` document from a
//! deterministic simulation — no wall-clock leaf anywhere — so the
//! committed copy is write-once data: `bench` writes the registry out,
//! and `bench --check` and the tier-1 golden test
//! (`crates/bench/tests/golden.rs`) both call [`check`], which holds
//! every leaf to equality. After an intended model change, regenerate
//! with `bench` and commit the diff.

use strandfs_testkit::json::Json;

use crate::check::{compare_section, CheckOutcome};
use crate::experiments::{
    e13_faults, e14_crash, e15_fsx, e16_scale, e17_monitor, e18_cluster, e19_integrity,
};
use crate::obs_capture::capture_full;

/// Renders one section afresh, as JSON text.
pub type Render = fn() -> String;

/// Every section, in document order, as `(label, fresh renderer)`.
pub const SECTIONS: &[(&str, Render)] = &[
    ("obs", || capture_full().obs_json),
    ("slo", || capture_full().slo_json),
    ("faults", e13_faults::section_json),
    ("crash", e14_crash::section_json),
    ("fsx", e15_fsx::section_json),
    ("scale", e16_scale::section_json),
    ("monitor", e17_monitor::section_json),
    ("cluster", e18_cluster::section_json),
    ("integrity", e19_integrity::section_json),
];

/// Render each section named in `wanted` (all of them when empty)
/// afresh and compare it with `doc`'s committed copy; a section the
/// document lacks compares as empty, so every fresh leaf is reported.
pub fn check(doc: &Json, wanted: &[String]) -> CheckOutcome {
    let empty = Json::Obj(Default::default());
    let mut outcome = CheckOutcome::default();
    for (label, fresh) in SECTIONS {
        if !wanted.is_empty() && !wanted.iter().any(|w| w == label) {
            continue;
        }
        let fresh = Json::parse(&fresh())
            .unwrap_or_else(|e| panic!("fresh {label} section is valid JSON: {e}"));
        let committed = doc.path(&format!("sections/{label}")).unwrap_or(&empty);
        let out = compare_section(label, committed, &fresh);
        outcome.compared += out.compared;
        outcome.mismatched.extend(out.mismatched);
    }
    outcome
}

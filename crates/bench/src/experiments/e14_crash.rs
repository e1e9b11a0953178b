//! **E14 — crash-point sweep**: exhaustive crash-consistency metrics.
//!
//! The recorder journals its intent before touching the index, so any
//! power failure mid-recording must leave a volume that remounts to a
//! verified *prefix* of what was being recorded. E14 runs the shared
//! [`strandfs_testkit::crash`] harness: one deterministic scenario —
//! two finished strands (one with silence holes), a journaled deletion,
//! an unjournaled text file — crashed at **every** device-write index,
//! power-cycled, remounted through journal recovery, and verified
//! block-by-block. The section reports the aggregate recovery counters
//! plus a fingerprint folding every post-recovery device image hash, so
//! the regression gate pins the byte-level outcome of the whole sweep,
//! not just its totals.
//!
//! Everything runs in virtual time on a seeded fault plan: same seed,
//! same numbers, same fingerprint.

use std::fmt::Write as _;

use crate::table::Table;
use strandfs_testkit::crash::{sweep, SweepSummary};

/// Fault seed — the whole sweep is deterministic under it.
pub const SEED: u64 = 41;

/// Run the full crash-point sweep at the committed seed.
pub fn run_sweep() -> SweepSummary {
    sweep(SEED)
}

/// The `sections/crash` JSON merged into `BENCH_core.json`: aggregate
/// recovery counters plus the image-hash fingerprint (hex string,
/// compared for exact equality by the gate).
pub fn section_json() -> String {
    let s = run_sweep();
    let mut out = String::new();
    let _ = write!(
        out,
        concat!(
            "{{\"writes\":{},\"blocks_recovered\":{},\"blocks_rolled_back\":{},",
            "\"completed_strands\":{},\"durable_strands\":{},\"deleted_strands\":{},",
            "\"recovery_ns_total\":{},\"fingerprint\":\"{:016x}\"}}"
        ),
        s.writes,
        s.blocks_recovered,
        s.blocks_rolled_back,
        s.completed_strands,
        s.durable_strands,
        s.deleted_strands,
        s.recovery_ns_total,
        s.fingerprint,
    );
    out
}

/// Render the sweep summary and a coarse crash-phase breakdown.
pub fn table() -> Table {
    let s = run_sweep();
    let mut t = Table::new(
        "E14 — crash-point sweep (journaled volume, crash at every \
         device write, remount + verify)",
        &["metric", "value"],
    );
    let rows: [(&str, u64); 7] = [
        ("crash points swept", s.writes),
        ("blocks recovered", s.blocks_recovered),
        ("blocks rolled back", s.blocks_rolled_back),
        ("in-flight strands completed", s.completed_strands),
        ("durable strands seen", s.durable_strands),
        ("deletions re-applied", s.deleted_strands),
        ("total recovery time (virtual ns)", s.recovery_ns_total),
    ];
    for (name, v) in rows {
        t.row(vec![name.to_string(), v.to_string()]);
    }
    t.note(format!("image fingerprint {:016x}", s.fingerprint));
    t.note(
        "every crash point remounts to a checksum-verified prefix of the \
         intent, fsck-clean and writable",
    );
    t.note("committed work (finish + checkpoint before the crash) survives in full");
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use strandfs_testkit::json::validate;

    #[test]
    fn sweep_totals_match_their_outcomes() {
        let s = run_sweep();
        assert_eq!(s.outcomes.len() as u64, s.writes);
        assert_eq!(
            s.blocks_recovered,
            s.outcomes.iter().map(|o| o.blocks_recovered).sum::<u64>()
        );
        assert_eq!(
            s.blocks_rolled_back,
            s.outcomes.iter().map(|o| o.blocks_rolled_back).sum::<u64>()
        );
        // The sweep exercises both directions of recovery: some crash
        // points keep journaled work, others roll it back.
        assert!(s.blocks_recovered > 0);
        assert!(s.blocks_rolled_back > 0);
        assert!(s.completed_strands > 0);
        assert!(s.deleted_strands > 0);
    }

    #[test]
    fn section_json_is_balanced_and_deterministic() {
        let json = section_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(!json.contains("NaN"));
        assert_eq!(json, section_json(), "same seed must give same bytes");
        let doc = validate(&json);
        assert_eq!(
            doc.get("fingerprint")
                .and_then(|f| f.as_str())
                .map(str::len),
            Some(16),
            "fingerprint is a fixed-width hex string"
        );
    }
}

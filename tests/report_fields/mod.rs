//! The bytes a report pin hashes: every counter of a report and of each
//! stream's outcome as a little-endian `u64` (an `i64` as its two's
//! complement, an `Option` as a presence flag and its value or 0, a
//! `Vec` as its length and its elements), in declaration order; the
//! rejoin reports and per-volume stats as their `Debug` text. Each
//! report is taken apart by an exhaustive pattern, so a field added to
//! one fails to compile here until the pins decide how it is hashed.

use std::fmt::Debug;
use strandfs::cluster::ClusterReport;
use strandfs::sim::{SimReport, StreamOutcome};

/// A report whose fields a pin hashes.
pub trait ReportFields {
    /// Append the fields to `out`.
    fn put_fields(&self, out: &mut Vec<u8>);
}

fn put(out: &mut Vec<u8>, words: &[u64]) {
    for w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

impl ReportFields for StreamOutcome {
    fn put_fields(&self, out: &mut Vec<u8>) {
        let StreamOutcome {
            blocks,
            fetched,
            violations,
            lateness,
            start_latency,
            max_buffered,
            worst_margin_ns,
            p99_margin_ns,
            miss_burst,
            first_violation,
            dropped_blocks,
            retries,
            revokes,
            recovery_time,
        } = self;
        put(
            out,
            &[
                *blocks,
                *fetched,
                *violations,
                lateness.count,
                lateness.min.as_nanos(),
                lateness.max.as_nanos(),
                lateness.mean.as_nanos(),
                start_latency.as_nanos(),
                *max_buffered,
                *worst_margin_ns as u64,
                *p99_margin_ns as u64,
                *miss_burst,
                first_violation.is_some() as u64,
                first_violation.map_or(0, |n| n.as_nanos()),
                *dropped_blocks,
                *retries,
                *revokes,
                recovery_time.as_nanos(),
            ],
        );
    }
}

impl ReportFields for SimReport {
    fn put_fields(&self, out: &mut Vec<u8>) {
        let SimReport {
            streams,
            disk_busy,
            rounds,
        } = self;
        put(out, &[streams.len() as u64]);
        for s in streams {
            s.put_fields(out);
        }
        put(out, &[disk_busy.as_nanos(), *rounds]);
    }
}

impl ReportFields for ClusterReport {
    fn put_fields(&self, out: &mut Vec<u8>) {
        let ClusterReport {
            sim,
            replicated,
            failovers,
            rejoins,
            restored_blocks,
            restored_replicas,
            scrubbed_blocks,
            scrub_credited,
            scrub_corrupt,
            scrub_repaired,
            scrub_invalidated,
            read_repairs,
            corrupt_served,
            hedges,
            hedge_wins,
            quarantines,
            quarantine_readmits,
            volumes,
        } = self;
        sim.put_fields(out);
        put(out, &[replicated.len() as u64]);
        for &r in replicated {
            put(out, &[r as u64]);
        }
        put(out, &[*failovers]);
        out.extend_from_slice(format!("{rejoins:?}").as_bytes());
        put(
            out,
            &[
                *restored_blocks,
                *restored_replicas,
                *scrubbed_blocks,
                *scrub_credited,
                *scrub_corrupt,
                *scrub_repaired,
                *scrub_invalidated,
                *read_repairs,
                *corrupt_served,
                *hedges,
                *hedge_wins,
                *quarantines,
                *quarantine_readmits,
            ],
        );
        out.extend_from_slice(format!("{volumes:?}").as_bytes());
    }
}

/// A run that failed hashes its error's `Debug` text.
impl<R: ReportFields, E: Debug> ReportFields for Result<R, E> {
    fn put_fields(&self, out: &mut Vec<u8>) {
        match self {
            Ok(report) => report.put_fields(out),
            Err(e) => out.extend_from_slice(format!("{e:?}").as_bytes()),
        }
    }
}

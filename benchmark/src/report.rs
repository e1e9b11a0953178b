//! Files the benchmark writes: the traced run's span file and the
//! suite's result document.

use std::path::Path;

use crate::outcome::{json_num, Outcome};
use crate::tracer::Tracer;

fn write(path: &Path, body: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, body).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Write `<out_dir>/<workload>.trace.json`: the run's metrics, the self
/// time of every span name, and every span.
pub fn write_trace(out_dir: &Path, outcome: &Outcome, tr: &Tracer) -> Result<(), String> {
    let self_times: Vec<String> = tr
        .self_times()
        .iter()
        .map(|(name, spans, total, own)| {
            format!(
                "{{\"name\": \"{name}\", \"spans\": {spans}, \"total_us\": {}, \"self_us\": {}}}",
                json_num(*total as f64 / 1e3),
                json_num(*own as f64 / 1e3)
            )
        })
        .collect();
    let body = format!(
        "{{\"run\": {},\n\"self_time\": [\n{}\n],\n\"spans\": {}}}\n",
        outcome.document_json(),
        self_times.join(",\n"),
        tr.spans_json()
    );
    write(
        &out_dir.join(format!("{}.trace.json", outcome.workload.name())),
        &body,
    )
}

/// Write one run's document where the suite asked for it.
pub fn write_document(path: &Path, outcome: &Outcome) -> Result<(), String> {
    write(path, &format!("{}\n", outcome.document_json()))
}

/// Write the suite's result document: every run of every workload.
pub fn write_result(path: &Path, nproc: usize, runs: &[String]) -> Result<(), String> {
    write(
        path,
        &format!(
            "{{\"nproc\": {nproc}, \"runs\": [\n{}\n]}}\n",
            runs.join(",\n")
        ),
    )
}

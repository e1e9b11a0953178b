//! The driver's contract: `BENCHMARK.json` agrees with the harness, the
//! result line has exactly the agreed keys, a failed check prints no
//! result, and the whole smoke path runs from the one entry command.

use std::path::PathBuf;
use std::process::Command;

use strandfs_benchmark::json::{self, Json};
use strandfs_benchmark::spec::{WorkloadId, END_TO_END, PER_LAYER};

const BIN: &str = env!("CARGO_BIN_EXE_strandfs-benchmark");

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

fn keys(j: &Json) -> Vec<&str> {
    j.fields().iter().map(|(k, _)| k.as_str()).collect()
}

fn str_of<'a>(j: &'a Json, key: &str) -> &'a str {
    j.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} missing"))
}

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.chars().next().unwrap().is_ascii_alphanumeric()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn benchmark_json_agrees_with_the_harness() {
    let doc = benchmark_json();
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let command: Vec<&str> = doc
        .get("command")
        .unwrap()
        .as_arr()
        .iter()
        .map(|c| c.as_str().unwrap())
        .collect();
    assert_eq!(command, ["bash", "benchmark/run.sh"]);
    let paths = doc.get("paths").unwrap().as_arr();
    assert_eq!(paths.len(), 1);
    assert_eq!(paths[0].as_str(), Some("benchmark"));
    let seconds = doc.get("run_seconds").unwrap().as_f64().unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);

    let workloads = doc.get("workloads").unwrap().as_arr();
    let names: Vec<&str> = workloads.iter().map(|w| str_of(w, "name")).collect();
    let ours: Vec<&str> = WorkloadId::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
    for w in workloads {
        assert_eq!(keys(w), ["name", "why"]);
        let why = str_of(w, "why");
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
    }

    let e2e = doc.get("end_to_end").unwrap().as_arr();
    assert_eq!(e2e.len(), END_TO_END.len());
    for (j, m) in e2e.iter().zip(&END_TO_END) {
        assert_eq!(keys(j), ["name", "unit", "better", "bound"]);
        assert_eq!(str_of(j, "name"), m.name);
        assert_eq!(str_of(j, "unit"), m.unit);
        assert_eq!(str_of(j, "better"), m.better);
        assert_eq!(
            j.get("bound").unwrap().as_f64(),
            Some(m.bound),
            "{}",
            m.name
        );
        assert!(m.bound > 0.0 && m.bound <= 0.25);
        assert!(name_ok(m.name) && unit_ok(m.unit));
    }
    let setup = &END_TO_END[0];
    assert_eq!(
        (setup.name, setup.unit, setup.better),
        ("setup_s", "s", "lower")
    );
    assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));

    let layers = doc.get("per_layer").unwrap().as_arr();
    assert_eq!(layers.len(), PER_LAYER.len());
    assert!(layers.len() <= 128);
    for (j, m) in layers.iter().zip(&PER_LAYER) {
        assert_eq!(keys(j), ["name", "unit", "better"]);
        assert_eq!(
            (str_of(j, "name"), str_of(j, "unit"), str_of(j, "better")),
            *m
        );
        assert!(name_ok(m.0) && unit_ok(m.1), "{}", m.0);
    }

    // Every name in the file is used once.
    let mut all: Vec<&str> = ours.clone();
    all.extend(END_TO_END.iter().map(|m| m.name));
    all.extend(PER_LAYER.iter().map(|m| m.0));
    let total = all.len();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), total, "a name is used twice");
}

fn run_bin(args: &[&str], out: &PathBuf) -> (bool, String) {
    let output = Command::new(BIN)
        .arg("--out")
        .arg(out)
        .args(args)
        .output()
        .expect("spawn benchmark");
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
    )
}

fn tmp(test: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test)
}

#[test]
fn the_result_line_is_last_and_has_exactly_the_agreed_keys() {
    for (trace, expected) in [
        (
            "0",
            END_TO_END
                .iter()
                .map(|m| (m.name, m.unit))
                .collect::<Vec<_>>(),
        ),
        (
            "1",
            PER_LAYER.iter().map(|m| (m.0, m.1)).collect::<Vec<_>>(),
        ),
    ] {
        let (ok, stdout) = run_bin(
            &[
                "--workload",
                "vod_bare",
                "--seed",
                "3",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--smoke",
            ],
            &tmp("line"),
        );
        assert!(ok);
        let line = json::parse(stdout.lines().last().expect("output")).expect("result line");
        assert_eq!(keys(&line), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert!(line.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
        assert_eq!(line.get("failed").unwrap().as_f64(), Some(0.0));
        let metrics = line.get("metrics").unwrap();
        assert_eq!(
            keys(metrics),
            expected.iter().map(|m| m.0).collect::<Vec<_>>()
        );
        for (name, unit) in &expected {
            let m = metrics.get(name).unwrap();
            assert_eq!(keys(m), ["value", "unit"]);
            assert_eq!(str_of(m, "unit"), *unit);
            assert!(m.get("value").unwrap().as_f64().unwrap().is_finite());
        }
    }
}

/// Finding 1 of the README: a two-block round cannot ride out the
/// fail-slow member's first fetch. The check is fatal and the workload
/// prints no metrics.
#[test]
fn a_failed_check_prints_no_result() {
    let (ok, stdout) = run_bin(
        &[
            "--workload",
            "failover_storm",
            "--seed",
            "3",
            "--trace",
            "0",
            "--smoke",
            "--storm-k",
            "2",
        ],
        &tmp("failed"),
    );
    assert!(!ok);
    assert!(!stdout.contains("\"metrics\""), "{stdout}");
    assert!(!stdout.contains("viewers_per_s"), "{stdout}");
}

/// The whole path from the entry command: four workloads, untraced and
/// traced, each in its own process, then `compare` on the document.
#[test]
fn the_smoke_suite_runs_end_to_end_and_compares_clean() {
    let out = tmp("suite");
    let begin = std::time::Instant::now();
    let (ok, stdout) = run_bin(&["--smoke", "--trace", "--seed", "5"], &out);
    let took = begin.elapsed();
    assert!(ok, "{stdout}");
    // The 15 s budget is for the optimized build `run.sh` makes.
    #[cfg(not(debug_assertions))]
    assert!(took.as_secs_f64() < 15.0, "smoke suite took {took:?}");
    let _ = took;
    for w in WorkloadId::ALL {
        assert!(
            stdout.contains(&format!("{} viewers_per_s ", w.name())),
            "{stdout}"
        );
        assert!(
            stdout.contains(&format!("{} obs.overhead_ratio ", w.name())),
            "{stdout}"
        );
        assert!(out.join(format!("{}.trace.json", w.name())).exists());
    }
    let result = out.join("result.json");
    let doc = json::parse(&std::fs::read_to_string(&result).unwrap()).unwrap();
    assert_eq!(doc.get("runs").unwrap().as_arr().len(), 8);

    let (ok, table) = run_bin(
        &[
            "compare",
            result.to_str().unwrap(),
            result.to_str().unwrap(),
        ],
        &out,
    );
    assert!(ok, "{table}");
    assert_eq!(table.matches("identical").count(), 4, "{table}");
    assert!(!table.contains("regressed"), "{table}");
    // 4 workloads × 8 end-to-end metrics, one row each.
    assert_eq!(
        table.matches(" pass").count() + table.matches(" unresolved").count(),
        32,
        "{table}"
    );
}

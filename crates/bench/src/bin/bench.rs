//! The aggregate bench runner: registers every suite, prints a report,
//! and writes `BENCH_core.json` in the current directory — or, with
//! `--check`, compares the fresh run against the committed baseline and
//! exits nonzero on regression.
//!
//! Usage:
//!
//! ```text
//! cargo run -p strandfs-bench --release --bin bench [--check] [--quick]
//!     [--baseline PATH] [suite ...]
//! ```
//!
//! With no suite arguments every suite runs; otherwise only the named
//! ones (e.g. `bench fig4 allocators`), which write only to an explicit
//! `--baseline PATH` (without one the run exits 2 rather than overwrite
//! the committed baseline with a fragment). Sample counts and durations
//! follow `STRANDFS_BENCH_SAMPLES` / `STRANDFS_BENCH_WARMUP_MS` /
//! `STRANDFS_BENCH_SAMPLE_MS`; `--quick` lowers their defaults for a
//! smoke-level run (explicit variables still win).
//!
//! In `--check` mode the suite is compared benchmark-by-benchmark
//! against the baseline (default `BENCH_core.json`) with the
//! data-driven tolerances of `strandfs_bench::check`. Suites with a
//! flagged benchmark are re-run once before the verdict, so a single
//! noisy scheduling event does not fail the gate; the virtual-time
//! sections are re-rendered and compared leaf by leaf for equality;
//! and the observability capture is cross-checked against the
//! simulator's own bookkeeping. Nothing is written in `--check` mode.

use strandfs_bench::suites::SUITES;
use strandfs_bench::{check, sections};
use strandfs_testkit::bench::Runner;

/// The committed baseline: what `--check` reads and a full run writes.
const BASELINE: &str = "BENCH_core.json";

struct Cli {
    check: bool,
    quick: bool,
    baseline: Option<String>,
    suites: Vec<String>,
}

/// A usage or baseline error: exit code 2, distinct from a regression.
fn fail(msg: String) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

fn parse_args() -> Cli {
    let mut cli = Cli {
        check: false,
        quick: false,
        baseline: None,
        suites: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => cli.check = true,
            "--quick" => cli.quick = true,
            "--baseline" => match args.next() {
                Some(path) => cli.baseline = Some(path),
                None => fail("--baseline needs a path".into()),
            },
            flag if flag.starts_with("--") => fail(format!("unknown flag `{flag}`")),
            suite => cli.suites.push(suite.to_string()),
        }
    }
    for w in &cli.suites {
        if !SUITES.iter().any(|(name, _)| name == w) {
            eprintln!("unknown suite `{w}`; available:");
            for (name, _) in SUITES {
                eprintln!("  {name}");
            }
            std::process::exit(2);
        }
    }
    cli
}

/// Run the selected suites into a fresh runner.
fn run_suites(wanted: &[String], quiet: bool) -> Runner {
    let mut c = Runner::new("core");
    if quiet {
        c = c.quiet();
    }
    for (name, register) in SUITES {
        if wanted.is_empty() || wanted.iter().any(|w| w == name) {
            register(&mut c);
        }
    }
    c
}

/// Where a measuring run writes: an explicit `--baseline PATH`, or
/// [`BASELINE`] when every suite runs. A suite-filtered run would
/// otherwise overwrite the committed baseline with that suite alone.
fn output_path(cli: &Cli) -> Result<&str, String> {
    match (&cli.baseline, cli.suites.is_empty()) {
        (Some(path), _) => Ok(path),
        (None, true) => Ok(BASELINE),
        (None, false) => Err(format!(
            "a run of `{}` alone would overwrite {BASELINE}: name the output with --baseline PATH",
            cli.suites.join(" ")
        )),
    }
}

fn run_check(cli: &Cli) -> ! {
    let path = cli.baseline.as_deref().unwrap_or(BASELINE);
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(format!("cannot read baseline {path}: {e}")));
    let doc = strandfs_testkit::json::Json::parse(&text)
        .unwrap_or_else(|e| fail(format!("baseline {path} is not valid JSON: {e}")));
    let baseline = check::parse_baseline(&doc)
        .map(|b| check::filter_suites(b, &cli.suites))
        .unwrap_or_else(|e| fail(format!("baseline {path}: {e}")));
    if baseline.is_empty() {
        fail(format!(
            "baseline {path} has no entries for the selected suites"
        ));
    }

    let runner = run_suites(&cli.suites, false);
    let mut outcome = check::compare(&baseline, runner.results());

    // One retry for flagged suites: re-measure and keep a regression
    // only if it reproduces.
    if !outcome.regressions.is_empty() {
        let mut flagged: Vec<String> = outcome
            .regressions
            .iter()
            .map(|r| r.name.split('/').next().unwrap_or(&r.name).to_string())
            .collect();
        flagged.sort();
        flagged.dedup();
        eprintln!(
            "\nretrying {} flagged suite(s): {}",
            flagged.len(),
            flagged.join(", ")
        );
        let retry = run_suites(&flagged, true);
        let retry_baseline: Vec<_> = baseline
            .iter()
            .filter(|b| outcome.regressions.iter().any(|r| r.name == b.name))
            .cloned()
            .collect();
        let confirmed = check::compare(&retry_baseline, retry.results());
        outcome.regressions = confirmed.regressions;
    }

    // Cross-check the observability fold against the simulator's own
    // accounting for the instrumented reference run.
    let invariants = check::obs_invariants(&strandfs_bench::obs_capture::capture_full());

    // The sections are virtual-time deterministic: every leaf of the
    // selected ones (all of them without a suite filter) must equal
    // its committed value.
    let sections = sections::check(&doc, &cli.suites);
    outcome.mismatched = sections.mismatched;

    println!(
        "\nbench check: {} benchmark(s) + {} section leaves compared against {path}",
        outcome.compared, sections.compared
    );
    if !outcome.passed() {
        println!("\n{}", outcome.table());
    }
    for problem in &invariants {
        println!("obs invariant violated — {problem}");
    }
    if outcome.passed() && invariants.is_empty() {
        println!("bench check OK");
        std::process::exit(0);
    }
    std::process::exit(1);
}

fn main() {
    let cli = parse_args();
    if cli.quick {
        // Smoke-level measurement; explicit env settings still win.
        for (var, val) in [
            ("STRANDFS_BENCH_SAMPLES", "5"),
            ("STRANDFS_BENCH_WARMUP_MS", "5"),
            ("STRANDFS_BENCH_SAMPLE_MS", "2"),
        ] {
            if std::env::var(var).is_err() {
                std::env::set_var(var, val);
            }
        }
    }

    if cli.check {
        run_check(&cli);
    }
    let path = output_path(&cli).unwrap_or_else(|e| fail(e));

    let mut c = run_suites(&cli.suites, false);
    // The virtual-time sections ride along under "sections" (the
    // instrumented reference run's capture and SLO view, then E13–E19),
    // whatever the suite filter.
    for (label, fresh) in sections::SECTIONS {
        c.add_section(label, fresh());
    }
    c.report();

    match c.write_json(path) {
        Ok(()) => eprintln!("wrote {path} ({} results)", c.results().len()),
        Err(e) => {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(baseline: Option<&str>, suites: &[&str]) -> Cli {
        Cli {
            check: false,
            quick: false,
            baseline: baseline.map(str::to_string),
            suites: suites.iter().map(|s| s.to_string()).collect(),
        }
    }

    #[test]
    fn only_a_full_run_or_an_explicit_baseline_is_written() {
        assert_eq!(output_path(&cli(None, &[])), Ok(BASELINE));
        assert_eq!(output_path(&cli(Some("out.json"), &[])), Ok("out.json"));
        assert_eq!(
            output_path(&cli(Some("fsx.json"), &["fsx"])),
            Ok("fsx.json")
        );
        let err = output_path(&cli(None, &["fsx"])).expect_err("a filtered run is refused");
        assert!(err.contains("--baseline PATH"), "{err}");
    }
}

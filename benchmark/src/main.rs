//! Command line of the strandfs benchmark. `run.sh` builds and calls
//! this; see `README.md` for the modes.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use strandfs_benchmark::compare::compare;
use strandfs_benchmark::driver::{run, RunArgs, StormOverrides};
use strandfs_benchmark::json;
use strandfs_benchmark::report;
use strandfs_benchmark::spec::WorkloadId;

const USAGE: &str = "\
usage: run.sh [--workload W] [--seed S] [--seconds N] [--trace [0|1]] [--smoke] [--runs N]
       run.sh compare A.json B.json

  --workload W   run one workload in this process and print the driver's
                 result line last: vod_defended | vod_bare |
                 volume_overload | failover_storm.
                 Without it, every workload runs in a process of its own
                 and the result document is written to out/result.json.
  --seed S       seed of every generated input (default 1)
  --seconds N    length of the timed phase (default 15)
  --trace [0|1]  traced run: per-layer metrics and out/<W>.trace.json
                 (suite mode: run traced after untraced)
  --smoke        small scale, fixed two repetitions per phase
  --runs N       suite mode: repeat the untraced suite N times
  --storm-k K, --storm-restore B, --storm-quarantine-after R,
  --storm-slow-factor F
                 failover_storm only: override the committed script
                 (reproducers for the findings in README.md)";

struct Cli {
    workload: Option<WorkloadId>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    runs: usize,
    out: PathBuf,
    doc: Option<PathBuf>,
    storm: StormOverrides,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
        smoke: false,
        runs: 1,
        out: PathBuf::from("benchmark/out"),
        doc: None,
        storm: StormOverrides::default(),
        compare: None,
    };
    let mut it = args.iter().peekable();
    fn number<T: std::str::FromStr>(flag: &str, v: Option<&String>) -> Result<T, String> {
        v.and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("{flag} needs a number"))
    }
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "compare" => {
                let a = it.next().ok_or("compare needs two documents")?;
                let b = it.next().ok_or("compare needs two documents")?;
                cli.compare = Some((PathBuf::from(a), PathBuf::from(b)));
            }
            "--workload" => {
                let name = it.next().ok_or("--workload needs a name")?;
                cli.workload = Some(
                    WorkloadId::parse(name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => cli.seed = number(arg, it.next())?,
            "--seconds" => cli.seconds = number(arg, it.next())?,
            "--runs" => cli.runs = number(arg, it.next())?,
            "--trace" => {
                cli.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => cli.smoke = true,
            "--out" => cli.out = PathBuf::from(it.next().ok_or("--out needs a directory")?),
            "--doc" => cli.doc = Some(PathBuf::from(it.next().ok_or("--doc needs a path")?)),
            "--storm-k" => cli.storm.k = Some(number(arg, it.next())?),
            "--storm-restore" => cli.storm.restore = Some(number(arg, it.next())?),
            "--storm-quarantine-after" => {
                cli.storm.quarantine_after = Some(number(arg, it.next())?)
            }
            "--storm-slow-factor" => cli.storm.slow_factor = Some(number(arg, it.next())?),
            "-h" | "--help" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    if cli.runs == 0 {
        return Err("--runs must be at least 1".into());
    }
    Ok(cli)
}

fn single(cli: &Cli, workload: WorkloadId) -> Result<(), String> {
    let outcome = run(&RunArgs {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        smoke: cli.smoke,
        out_dir: cli.out.clone(),
        storm: cli.storm,
    })?;
    if let Some(doc) = &cli.doc {
        report::write_document(doc, &outcome)?;
    }
    print!("{}", outcome.lines());
    print!("{}", outcome.share_lines());
    println!(
        "# {} seed {} fingerprint {:016x}: {} set-ups, {} timed repetitions, virtual-time metrics from repetition {}",
        workload.name(),
        outcome.seed,
        outcome.fingerprint,
        outcome.setups,
        outcome.reps,
        outcome.virtual_rep
    );
    println!("{}", outcome.driver_json());
    Ok(())
}

/// Every workload in a process of its own, so `peak_rss_mb` is its own.
fn suite(cli: &Cli) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut docs = Vec::new();
    let mut modes = vec![false; cli.runs];
    if cli.trace {
        modes.push(true);
    }
    for traced in modes {
        for w in WorkloadId::ALL {
            let doc = cli.out.join(format!(
                "{}.{}.json",
                w.name(),
                if traced { "traced" } else { "untraced" }
            ));
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name()])
                .args(["--seed", &cli.seed.to_string()])
                .args(["--seconds", &cli.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--out")
                .arg(&cli.out)
                .arg("--doc")
                .arg(&doc)
                .stdout(Stdio::piped());
            if cli.smoke {
                cmd.arg("--smoke");
            }
            let output = cmd
                .output()
                .map_err(|e| format!("spawn {}: {e}", w.name()))?;
            if !output.status.success() {
                return Err(format!("{} failed its checks; no metrics", w.name()));
            }
            // Pass the metric lines through; the result line is for the
            // driver, not for a reader.
            for line in String::from_utf8_lossy(&output.stdout).lines() {
                if !line.starts_with('{') {
                    println!("{line}");
                }
            }
            docs.push(
                std::fs::read_to_string(&doc)
                    .map_err(|e| format!("read {}: {e}", doc.display()))?
                    .trim_end()
                    .to_string(),
            );
        }
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let result = cli.out.join("result.json");
    report::write_result(&result, nproc, &docs)?;
    println!("# result document: {}", result.display());
    Ok(())
}

fn compare_documents(a: &Path, b: &Path) -> Result<(), String> {
    let read = |p: &Path| -> Result<json::Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("read {}: {e}", p.display()))?;
        json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (table, regressed) = compare(&read(a)?, &read(b)?);
    print!("{table}");
    if regressed {
        return Err("at least one metric regressed".into());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let result = if let Some((a, b)) = &cli.compare {
        compare_documents(a, b)
    } else if let Some(w) = cli.workload {
        single(&cli, w)
    } else {
        suite(&cli)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(1)
        }
    }
}

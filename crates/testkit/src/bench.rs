//! A minimal benchmark runner.
//!
//! Mirrors the slice of `criterion` the bench suites use: a [`Runner`]
//! with [`Runner::bench_function`] and [`Runner::benchmark_group`], and a
//! [`Bencher`] whose [`Bencher::iter`] times a closure. Each benchmark
//! runs a warmup phase (which also sizes the per-sample batch), then a
//! fixed number of timed samples; the report carries mean / median / p95
//! / min per-iteration nanoseconds, and [`Runner::write_json`] emits the
//! whole suite as a `BENCH_*.json` document.
//!
//! Environment knobs (all optional):
//!
//! * `STRANDFS_BENCH_SAMPLES` — samples per benchmark (default 20);
//! * `STRANDFS_BENCH_WARMUP_MS` — warmup budget (default 20 ms);
//! * `STRANDFS_BENCH_SAMPLE_MS` — target duration of one sample
//!   (default 5 ms).

use std::hint::black_box;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Measurement knobs shared by a suite.
#[derive(Clone, Copy, Debug)]
pub struct BenchConfig {
    /// Timed samples per benchmark.
    pub samples: usize,
    /// Warmup budget per benchmark.
    pub warmup: Duration,
    /// Target wall-clock duration of one sample batch.
    pub sample_target: Duration,
}

impl BenchConfig {
    /// Defaults overridden by the `STRANDFS_BENCH_*` variables.
    pub fn from_env() -> Self {
        let ms = |var: &str, default: u64| {
            Duration::from_millis(
                std::env::var(var)
                    .ok()
                    .and_then(|s| s.trim().parse().ok())
                    .unwrap_or(default),
            )
        };
        BenchConfig {
            samples: std::env::var("STRANDFS_BENCH_SAMPLES")
                .ok()
                .and_then(|s| s.trim().parse().ok())
                .unwrap_or(20)
                .max(2),
            warmup: ms("STRANDFS_BENCH_WARMUP_MS", 20),
            sample_target: ms("STRANDFS_BENCH_SAMPLE_MS", 5),
        }
    }
}

/// One benchmark's measured statistics (per-iteration nanoseconds).
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Benchmark name, e.g. `"fig4/full_curve"`.
    pub name: String,
    /// Timed samples taken.
    pub samples: usize,
    /// Iterations per sample batch.
    pub iters_per_sample: u64,
    /// Mean ns/iter across samples.
    pub mean_ns: f64,
    /// Median ns/iter.
    pub median_ns: f64,
    /// 95th-percentile ns/iter.
    pub p95_ns: f64,
    /// Fastest sample's ns/iter.
    pub min_ns: f64,
}

/// Times one benchmark body.
pub struct Bencher {
    cfg: BenchConfig,
    result: Option<(u64, Vec<f64>)>,
}

impl Bencher {
    /// Time `f`: warm up, pick a batch size so one sample lasts roughly
    /// [`BenchConfig::sample_target`], then record the configured number
    /// of samples. The closure's result is passed through
    /// [`black_box`] so the optimizer cannot delete the work.
    pub fn iter<R, F: FnMut() -> R>(&mut self, f: F) {
        self.iter_units(1, f)
    }

    /// [`Bencher::iter`] for a closure that does `units` units of work
    /// per call (a pass over a buffer of `units` blocks): the report is
    /// nanoseconds per unit, while the batch — and so the tolerance tier
    /// `bench --check` picks — still counts calls.
    pub fn iter_units<R, F: FnMut() -> R>(&mut self, units: u64, mut f: F) {
        // Warmup, measuring a running iteration-time estimate.
        let warmup_start = Instant::now();
        let mut warm_iters = 0u64;
        while warmup_start.elapsed() < self.cfg.warmup || warm_iters == 0 {
            black_box(f());
            warm_iters += 1;
            if warm_iters >= 1_000_000 {
                break;
            }
        }
        let est_per_iter = warmup_start.elapsed().as_secs_f64() / warm_iters as f64;
        let batch = ((self.cfg.sample_target.as_secs_f64() / est_per_iter.max(1e-9)) as u64)
            .clamp(1, 10_000_000);

        let mut samples = Vec::with_capacity(self.cfg.samples);
        for _ in 0..self.cfg.samples {
            let t0 = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            samples.push(t0.elapsed().as_nanos() as f64 / (batch * units) as f64);
        }
        self.result = Some((batch, samples));
    }
}

/// A named sub-scope of a suite with its own sample count (the
/// `criterion` `benchmark_group` shape).
pub struct Group<'a> {
    runner: &'a mut Runner,
    prefix: String,
    cfg: BenchConfig,
}

impl Group<'_> {
    /// Samples per benchmark within this group (expensive macro-benches
    /// use fewer).
    pub fn sample_size(&mut self, samples: usize) -> &mut Self {
        self.cfg.samples = samples.max(2);
        self
    }

    /// Register and run one benchmark; its name is prefixed with the
    /// group name.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        let full = format!("{}/{}", self.prefix, name);
        self.runner.run_one(&full, self.cfg, f);
        self
    }

    /// End the group (results were recorded as benchmarks ran).
    pub fn finish(&mut self) {}
}

/// Collects and reports a suite of benchmarks.
pub struct Runner {
    suite: String,
    cfg: BenchConfig,
    results: Vec<BenchResult>,
    /// Named pre-rendered JSON blobs appended to the report (e.g. the
    /// observability capture of an instrumented run).
    sections: Vec<(String, String)>,
    quiet: bool,
}

impl Runner {
    /// A runner for the named suite, configured from the environment.
    pub fn new(suite: &str) -> Self {
        Runner {
            suite: suite.to_string(),
            cfg: BenchConfig::from_env(),
            results: Vec::new(),
            sections: Vec::new(),
            quiet: false,
        }
    }

    /// Suppress per-benchmark progress lines (used by aggregate runs).
    pub fn quiet(mut self) -> Self {
        self.quiet = true;
        self
    }

    /// The suite name.
    pub fn suite(&self) -> &str {
        &self.suite
    }

    /// Register and run one benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        let cfg = self.cfg;
        self.run_one(name, cfg, f);
        self
    }

    /// Open a named group with independently-tunable sampling.
    pub fn benchmark_group(&mut self, name: &str) -> Group<'_> {
        let cfg = self.cfg;
        Group {
            runner: self,
            prefix: name.to_string(),
            cfg,
        }
    }

    fn run_one<F: FnMut(&mut Bencher)>(&mut self, name: &str, cfg: BenchConfig, mut f: F) {
        let mut b = Bencher { cfg, result: None };
        f(&mut b);
        let (batch, mut samples) = b
            .result
            .unwrap_or_else(|| panic!("benchmark '{name}' never called Bencher::iter"));
        samples.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let result = BenchResult {
            name: name.to_string(),
            samples: samples.len(),
            iters_per_sample: batch,
            mean_ns: mean,
            median_ns: percentile(&samples, 50.0),
            p95_ns: percentile(&samples, 95.0),
            min_ns: samples[0],
        };
        if !self.quiet {
            println!(
                "{:<44} median {:>12}  p95 {:>12}  ({} samples × {} iters)",
                result.name,
                fmt_ns(result.median_ns),
                fmt_ns(result.p95_ns),
                result.samples,
                result.iters_per_sample,
            );
        }
        self.results.push(result);
    }

    /// All results recorded so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Absorb another runner's results (used to aggregate suites).
    pub fn absorb(&mut self, other: Runner) {
        self.results.extend(other.results);
        self.sections.extend(other.sections);
    }

    /// Attach a named, already-rendered JSON value to the report. It is
    /// emitted verbatim under `"sections"` in [`Runner::to_json`], so
    /// callers can merge arbitrary structured data (e.g. an
    /// observability capture) into the `BENCH_*.json` document. The
    /// caller is responsible for `json` being well-formed; a later
    /// section replaces an earlier one of the same name.
    pub fn add_section(&mut self, name: &str, json: impl Into<String>) {
        self.sections.retain(|(n, _)| n != name);
        self.sections.push((name.to_string(), json.into()));
    }

    /// Print a closing summary line.
    pub fn report(&self) {
        println!(
            "\nsuite '{}': {} benchmarks complete",
            self.suite,
            self.results.len()
        );
    }

    /// The suite as a JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"suite\": \"{}\",\n  \"harness\": \"strandfs-testkit\",\n  \"unit\": \"ns_per_iter\",\n  \"results\": [\n",
            escape(&self.suite)
        ));
        for (i, r) in self.results.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"samples\": {}, \"iters_per_sample\": {}, \
                 \"mean_ns\": {:.1}, \"median_ns\": {:.1}, \"p95_ns\": {:.1}, \"min_ns\": {:.1}}}{}\n",
                escape(&r.name),
                r.samples,
                r.iters_per_sample,
                r.mean_ns,
                r.median_ns,
                r.p95_ns,
                r.min_ns,
                if i + 1 == self.results.len() { "" } else { "," },
            ));
        }
        out.push_str("  ]");
        if !self.sections.is_empty() {
            out.push_str(",\n  \"sections\": {\n");
            for (i, (name, json)) in self.sections.iter().enumerate() {
                out.push_str(&format!(
                    "    \"{}\": {}{}\n",
                    escape(name),
                    json.trim(),
                    if i + 1 == self.sections.len() {
                        ""
                    } else {
                        ","
                    },
                ));
            }
            out.push_str("  }");
        }
        out.push_str("\n}\n");
        out
    }

    /// Write [`Runner::to_json`] to `path`.
    pub fn write_json(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_json().as_bytes())
    }
}

/// Linear-interpolated percentile over pre-sorted samples.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty());
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> BenchConfig {
        BenchConfig {
            samples: 5,
            warmup: Duration::from_millis(1),
            sample_target: Duration::from_micros(200),
        }
    }

    fn tiny_runner(suite: &str) -> Runner {
        Runner {
            suite: suite.to_string(),
            cfg: tiny_cfg(),
            results: Vec::new(),
            sections: Vec::new(),
            quiet: true,
        }
    }

    #[test]
    fn runs_and_records() {
        let mut r = tiny_runner("t");
        r.bench_function("sum", |b| b.iter(|| (0..100u64).sum::<u64>()));
        assert_eq!(r.results().len(), 1);
        let res = &r.results()[0];
        assert_eq!(res.name, "sum");
        assert_eq!(res.samples, 5);
        assert!(res.iters_per_sample >= 1);
        assert!(res.median_ns > 0.0);
        assert!(res.p95_ns >= res.median_ns);
        assert!(res.min_ns <= res.median_ns);
    }

    #[test]
    fn groups_prefix_names_and_override_samples() {
        let mut r = tiny_runner("t");
        {
            let mut g = r.benchmark_group("grp");
            g.sample_size(3);
            g.bench_function("work", |b| b.iter(|| black_box(2 + 2)));
            g.finish();
        }
        assert_eq!(r.results()[0].name, "grp/work");
        assert_eq!(r.results()[0].samples, 3);
    }

    #[test]
    fn json_is_well_formed() {
        let mut r = tiny_runner("core");
        r.bench_function("a/b", |b| b.iter(|| black_box(1)));
        r.bench_function("quote\"d", |b| b.iter(|| black_box(1)));
        let json = r.to_json();
        // Structural sanity without a JSON parser: balanced braces and
        // brackets, escaped quote, both names present.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"a/b\""));
        assert!(json.contains("quote\\\"d"));
        assert!(json.contains("\"suite\": \"core\""));
        assert!(!json.contains("NaN"));
    }

    #[test]
    fn sections_merge_into_json() {
        let mut r = tiny_runner("core");
        r.bench_function("a", |b| b.iter(|| black_box(1)));
        r.add_section("obs", "{\"metrics\": {\"disk\": 3}}\n");
        r.add_section("obs", "{\"metrics\": {\"disk\": 4}}"); // replaces
        r.add_section("extra", "[1, 2]");
        let json = r.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"sections\": {"));
        assert!(json.contains("\"obs\": {\"metrics\": {\"disk\": 4}},"));
        assert!(json.contains("\"extra\": [1, 2]"));
        assert!(!json.contains("\"disk\": 3"));
    }

    #[test]
    fn percentile_interpolates() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 4.0);
        assert_eq!(percentile(&s, 50.0), 2.5);
    }

    #[test]
    #[should_panic(expected = "never called Bencher::iter")]
    fn missing_iter_is_an_error() {
        let mut r = tiny_runner("t");
        r.bench_function("broken", |_b| {});
    }
}

//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <batch_report|serve_zipf|evolve_under_load>
//!           --seed <n> --seconds <s> --trace <0|1> --work-dir <dir> [--smoke]
//! ```
//!
//! Each run generates its inputs from `--seed`, measures for about
//! `--seconds`, checks the program's outputs, and prints one JSON object
//! as its last stdout line: `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`). A failed output check, a failed request or
//! a metric that is not a finite number still prints the result, with
//! `correct: false`, and exits 1. `--smoke` shrinks every
//! workload to a tiny world. See `perfbench/README.md` for what each
//! workload and metric means.

mod batch;
mod calib;
mod evolve;
mod http;
mod load;
mod replay;
mod serve;
mod spec;
mod trace;

use std::path::PathBuf;
use webdep_webgen::WorldConfig;

/// Everything a workload needs from the command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub work_dir: PathBuf,
    pub smoke: bool,
}

impl Args {
    /// The world every workload measures: the `small` scale (150
    /// countries × 1,000 toplist sites), or a tiny world for smoke runs,
    /// under the run's seed for `k = 0` and under the `k`-th seed derived
    /// from it otherwise (batch_report measures one world per cycle).
    pub fn world_config(&self, k: u64) -> WorldConfig {
        let base = if self.smoke {
            WorldConfig::tiny()
        } else {
            WorldConfig::small()
        };
        WorldConfig {
            seed: self.seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ..base
        }
    }

    /// Thread count for the program's own pools and for the load
    /// generator: the machine's available parallelism.
    pub fn threads(&self) -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// One run's result: metrics plus operation and output-check accounting.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    /// Operations attempted (sites, requests, publishes, checks).
    pub attempted: u64,
    /// Operations that failed, output checks included.
    pub failed: u64,
    problems: Vec<String>,
}

impl Report {
    /// Records a metric; the unit must match `spec.rs`.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        self.metrics.retain(|(n, _, _)| *n != name);
        self.metrics.push((name, value, unit));
    }

    /// Records an output check. A failing check counts as a failed
    /// operation and makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problem(what);
        }
    }

    /// Makes the run incorrect without counting an operation (the failed
    /// operations behind it are counted where they happened).
    pub fn problem(&mut self, what: impl Into<String>) {
        let what = what.into();
        eprintln!("perfbench: output check failed: {what}");
        self.problems.push(what);
    }

    fn has(&self, name: &str) -> bool {
        self.metrics.iter().any(|(n, _, _)| n == name)
    }

    fn to_json(&self, names: &[(String, String)]) -> String {
        let mut metrics = String::new();
        for (i, (name, unit)) in names.iter().enumerate() {
            let (value, recorded_unit) = self
                .metrics
                .iter()
                .find(|(n, _, _)| n == name)
                .map(|m| (m.1, m.2))
                .unwrap_or((0.0, unit.as_str()));
            if recorded_unit != unit {
                eprintln!("perfbench: {name} recorded in {recorded_unit}, reported in {unit}");
            }
            // JSON has no infinity; `main` has already failed the run.
            let value = if value.is_finite() {
                value.to_string()
            } else {
                "null".to_string()
            };
            if i > 0 {
                metrics.push_str(", ");
            }
            metrics.push_str(&format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.problems.is_empty(),
            self.attempted.max(1),
            self.failed
        )
    }
}

/// `VmHWM` of this process in MiB, if the platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line["VmHWM:".len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// The median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `q` quantile of an ascending slice (nearest rank).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[idx.clamp(1, sorted.len()) - 1]
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> --work-dir <dir> [--smoke]",
        spec::get().workloads.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work_dir = None;
    let mut smoke = false;
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--smoke" {
            smoke = true;
            i += 1;
            continue;
        }
        let Some(value) = argv.get(i + 1) else {
            usage()
        };
        match flag {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            _ => usage(),
        }
        i += 2;
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace), Some(work_dir)) =
        (workload, seed, seconds, trace, work_dir)
    else {
        usage()
    };
    if !spec::get().workloads.contains(&workload) {
        usage();
    }
    Args {
        workload,
        seed,
        seconds,
        trace,
        work_dir,
        smoke,
    }
}

fn main() {
    let args = parse_args();
    if args.trace {
        trace::enable();
    }
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: cannot create {:?}: {e}", args.work_dir);
        std::process::exit(2);
    }
    let mut report = Report::default();
    match args.workload.as_str() {
        "batch_report" => batch::run(&args, &mut report),
        "serve_zipf" => serve::run(&args, &mut report),
        _ => evolve::run(&args, &mut report),
    }
    if !report.has("peak_rss_mb") {
        if let Some(mb) = peak_rss_mb() {
            report.metric("peak_rss_mb", mb, "MiB");
        }
    }

    let names = if args.trace {
        let path = args
            .work_dir
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = trace::write_jsonl(&path) {
            eprintln!("perfbench: cannot write spans to {path:?}: {e}");
        }
        &spec::get().per_layer
    } else {
        &spec::get().end_to_end
    };
    for (name, _) in &spec::get().end_to_end {
        if !args.trace && !report.has(name) {
            report.problem(format!("{} produced no {name}", args.workload));
        }
    }
    // An infinite latency means failed requests; a NaN, an empty sample.
    let bad: Vec<String> = report
        .metrics
        .iter()
        .filter(|(_, v, _)| !v.is_finite())
        .map(|(n, _, _)| n.clone())
        .collect();
    for name in bad {
        report.problem(format!("{name} is not a finite number"));
    }
    println!("{}", report.to_json(names));
    if !report.problems.is_empty() {
        std::process::exit(1);
    }
}

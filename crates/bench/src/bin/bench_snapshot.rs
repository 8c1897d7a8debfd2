//! Writes the repo-root benchmark snapshots.
//!
//! `BENCH_pipeline.json`: throughput and wire-query accounting for the
//! measurement pipeline (inline rack responders, shared work queue,
//! shared delegation/answer cache, referral caching).
//!
//! `BENCH_analysis.json`: the analysis engine — dependence-cube build
//! time, full `ExperimentSuite` wall over the cube-backed context, and
//! affinity-propagation sweep throughput serial vs parallel.
//!
//! The committed `BENCH_pipeline.json` and `BENCH_analysis.json` hold the
//! last before/after comparisons against the retired baseline paths
//! (thread-per-rack serving, static shards, private caches, query-driven
//! resolution; the tally-on-demand analysis context; untiled affinity
//! sweeps). Re-running these snapshots overwrites them with live-path
//! numbers only.
//!
//! `BENCH_faults.json`: the fault-injection sweep — per-layer coverage,
//! failure taxonomy, and hosting-score drift (with bootstrap CIs) under
//! three intensities each of whole-server outages, flaky SERVFAIL, and
//! flaky drop, plus the zero-fault byte-identity check.
//!
//! `BENCH_resilience.json`: the supervision layer — journaling overhead,
//! time-to-complete and observation loss under N injected worker deaths,
//! and the crash-resume cycle's wall cost and byte-identity.
//!
//! `BENCH_scale.json`: the dataset path at scale — the streaming chunk
//! store vs the resident observation vector at paper (~588K sites) and
//! beyond-paper (~5M sites) scale, with per-phase peak RSS measured in
//! dedicated subprocesses and the streaming path certified identical to
//! the resident path at a dual-feasible size.
//!
//! `BENCH_serve.json`: the resident query service — a cold sweep of the
//! full query catalog at concurrency 1, warm-cache closed-loop levels at
//! 4/16/64 clients, the cold-vs-cached single-query pair, and an epoch
//! swap published under load with zero failed and zero mixed-epoch
//! responses.
//!
//! `BENCH_evolve.json`: continuous measurement — per-epoch incremental
//! re-measurement (`measure_delta`) and snapshot publish
//! (`CubeSnapshot::from_delta`) vs their from-scratch comparators across
//! a churn sweep, every epoch certified byte-identical.
//!
//! `BENCH_overload.json`: the self-healing machinery under seeded chaos —
//! slow-loris floods, burst storms at 2–10× capacity, mid-serve chunk
//! corruption healed by `fsck --repair`, and poisoned publishes rejected
//! by pre-swap validation with the prior epoch still serving.
//!
//! Every full (non-smoke) snapshot run also appends a one-line summary to
//! `BENCH_history.csv`, so the overwritten JSON files leave a trend line.
//!
//! Run with `cargo run --release -p webdep-bench --bin bench-snapshot`
//! (optionally `-- pipeline`, `-- analysis`, `-- faults`,
//! `-- resilience`, `-- scale [--smoke]`, `-- serve [--smoke]`,
//! `-- evolve [--smoke]`, or `-- overload [--smoke]` for just one
//! snapshot).

use serde::Serialize;
use std::path::Path;
use webdep_bench::gate;
use webdep_pipeline::{measure_with_stats, PipelineConfig};
use webdep_webgen::{DeployConfig, DeployedWorld, World, WorldConfig};

const WORKERS: usize = 8;

#[derive(Serialize)]
struct Snapshot {
    sites: u64,
    workers: u64,
    wall_ms: u64,
    sites_per_sec: f64,
    wire_queries: u64,
    local_cache_hits: u64,
    shared_cache_hits: u64,
    peak_idle_fraction: f64,
    peak_rss_bytes: Option<u64>,
}

fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

/// Renders an optional ratio as `1.234` or `n/a`.
fn fmt_ratio(r: Option<f64>) -> String {
    match r {
        Some(v) => format!("{v:.3}"),
        None => "n/a".to_string(),
    }
}

fn repo_root_path(name: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../")
        .join(name)
}

/// Full runs anchor their headline numbers in `BENCH_baselines.json`;
/// a regression past the stored threshold alerts without failing the run
/// (the deterministic `gate` subcommand is what fails CI).
fn record_headline(bench: &str, metrics: &[gate::Metric]) {
    gate::record_headline(&repo_root_path(""), bench, metrics);
}

fn permille(x: f64) -> u64 {
    (x * 1000.0).round().max(0.0) as u64
}

/// A headline ratio (speedup, reduction): lower is a regression.
fn down_bad(name: &'static str, value: u64, tol_pct: u64) -> gate::Metric {
    gate::Metric {
        name,
        value,
        tol_pct,
        direction: gate::Direction::DownBad,
    }
}

/// A headline cost (latency, RSS ratio): higher is a regression.
fn up_bad(name: &'static str, value: u64, tol_pct: u64) -> gate::Metric {
    gate::Metric {
        name,
        value,
        tol_pct,
        direction: gate::Direction::UpBad,
    }
}

/// Appends one `unix_ts,bench,summary` line to `BENCH_history.csv` so
/// successive snapshot runs leave a greppable trend line next to the
/// JSON files they overwrite. Commas in the summary are sanitized to
/// `;` (see [`webdep_bench::append_history_line`]).
fn append_history(name: &str, summary: &str) {
    let path = repo_root_path("BENCH_history.csv");
    if let Err(e) = webdep_bench::append_history_line(&path, name, summary) {
        eprintln!("warning: could not append {}: {e}", path.display());
    }
}

/// Points clustered in the affinity timing — above the parallel
/// threshold, so the sweep actually fans out.
const AFFINITY_POINTS: usize = 512;

fn analysis_snapshot() {
    // Small scale: the suite's fixed costs (the worked-example figures,
    // calibration curves) are world-size independent, so tiny-scale runs
    // understate how much of the wall the tallying actually is.
    eprintln!("analysis: measuring a small world, then timing the cube build and suite...");
    let snapshot =
        webdep_bench::analysis::analysis_snapshot("small", WorldConfig::small(), AFFINITY_POINTS);
    let json = serde_json::to_string_pretty(&snapshot).expect("snapshot serializes");
    let out = repo_root_path("BENCH_analysis.json");
    std::fs::write(&out, json + "\n").expect("write BENCH_analysis.json");
    eprintln!(
        "wrote {} (cube build {:.1} ms, suite {:.0} ms, affinity {:.1} ms serial / {:.1} ms parallel @ {} pts)",
        out.display(),
        snapshot.cube_build_ms,
        snapshot.suite.end_to_end_ms(),
        snapshot.affinity.serial_ms,
        snapshot.affinity.parallel_ms,
        snapshot.affinity.points,
    );
    append_history(
        "analysis",
        &format!(
            "suite {:.0}ms cube build {:.1}ms",
            snapshot.suite.end_to_end_ms(),
            snapshot.cube_build_ms
        ),
    );
}

fn pipeline_snapshot() {
    let world = World::generate(WorldConfig::tiny());
    let dep = DeployedWorld::deploy(&world, DeployConfig::default());
    let config = PipelineConfig {
        workers: WORKERS,
        ..Default::default()
    };
    eprintln!("pipeline: warming up (one untimed run)...");
    let _ = measure_with_stats(&world, &dep, &config);
    eprintln!("pipeline: timed run...");
    let stats = measure_with_stats(&world, &dep, &config).1;

    let snapshot = Snapshot {
        sites: world.sites.len() as u64,
        workers: WORKERS as u64,
        wall_ms: stats.wall.as_millis() as u64,
        sites_per_sec: round3(stats.sites_per_sec),
        wire_queries: stats.wire_queries,
        local_cache_hits: stats.local_cache_hits,
        shared_cache_hits: stats.shared_cache_hits,
        peak_idle_fraction: round3(stats.peak_idle_fraction),
        peak_rss_bytes: webdep_bench::peak_rss_bytes(),
    };

    let json = serde_json::to_string_pretty(&snapshot).expect("snapshot serializes");
    let out = repo_root_path("BENCH_pipeline.json");
    std::fs::write(&out, json + "\n").expect("write BENCH_pipeline.json");
    eprintln!(
        "wrote {} ({:.0} sites/s, {} wire queries)",
        out.display(),
        snapshot.sites_per_sec,
        snapshot.wire_queries
    );
    append_history(
        "pipeline",
        &format!(
            "{:.0} sites/s {} wire queries",
            snapshot.sites_per_sec, snapshot.wire_queries
        ),
    );
}

fn faults_snapshot() {
    eprintln!("faults: sweeping outage / servfail / drop plans over a reduced world...");
    let snapshot = webdep_bench::faults::faults_snapshot(WORKERS, |line| eprintln!("  {line}"));
    assert!(
        snapshot.zero_fault_identical,
        "a FaultPlan::none() run diverged from the no-plan baseline"
    );
    let json = serde_json::to_string_pretty(&snapshot).expect("snapshot serializes");
    let out = repo_root_path("BENCH_faults.json");
    std::fs::write(&out, json + "\n").expect("write BENCH_faults.json");
    eprintln!(
        "wrote {} ({} runs over {} sites, zero-fault identical: {})",
        out.display(),
        snapshot.runs.len(),
        snapshot.sites,
        snapshot.zero_fault_identical
    );
    append_history(
        "faults",
        &format!(
            "{} runs over {} sites zero-fault identical {}",
            snapshot.runs.len(),
            snapshot.sites,
            snapshot.zero_fault_identical
        ),
    );
}

fn resilience_snapshot() {
    eprintln!("resilience: clean vs journaled runs, chaos worker deaths, crash-resume...");
    let snapshot =
        webdep_bench::resilience::resilience_snapshot(WORKERS, |line| eprintln!("  {line}"));
    for run in &snapshot.deaths {
        assert!(
            run.byte_identical && run.observations_lost == 0,
            "worker deaths lost observations (deaths={})",
            run.deaths_injected
        );
    }
    assert!(
        snapshot.resume.byte_identical,
        "crash-resume diverged from the uninterrupted run"
    );
    let json = serde_json::to_string_pretty(&snapshot).expect("snapshot serializes");
    let out = repo_root_path("BENCH_resilience.json");
    std::fs::write(&out, json + "\n").expect("write BENCH_resilience.json");
    eprintln!(
        "wrote {} (journal overhead {:+.1}%, max death slowdown x{:.2}, resume {:.0}% of clean)",
        out.display(),
        snapshot.baseline.journal_overhead * 100.0,
        snapshot
            .deaths
            .iter()
            .map(|r| r.slowdown)
            .fold(0.0f64, f64::max),
        snapshot.resume.overhead_vs_clean * 100.0
    );
    append_history(
        "resilience",
        &format!(
            "journal overhead {:+.1}% resume {:.0}% of clean",
            snapshot.baseline.journal_overhead * 100.0,
            snapshot.resume.overhead_vs_clean * 100.0
        ),
    );
}

fn scale_snapshot(smoke: bool) {
    eprintln!(
        "scale: streaming vs resident dataset path ({})...",
        if smoke {
            "smoke sizes"
        } else {
            "paper and beyond-paper sizes"
        }
    );
    let exe = std::env::current_exe().expect("current exe");
    let snapshot = webdep_bench::scale::scale_snapshot(&exe, smoke, |line| eprintln!("  {line}"));
    if smoke {
        // The smoke gate certifies equivalence and exercises every phase,
        // but its timings are meaningless — leave the full-run snapshot
        // file alone.
        eprintln!(
            "scale smoke OK (identical over {} sites, rss ratio {})",
            snapshot.equivalence.sites,
            fmt_ratio(snapshot.rss_ratio_streaming_vs_scaled_resident)
        );
        return;
    }
    let json = serde_json::to_string_pretty(&snapshot).expect("snapshot serializes");
    let out = repo_root_path("BENCH_scale.json");
    std::fs::write(&out, json + "\n").expect("write BENCH_scale.json");
    let big = snapshot.rows.last().expect("rows");
    eprintln!(
        "wrote {} ({} sites streamed at {:.0} sites/s, peak RSS {} MB, rss ratio {})",
        out.display(),
        big.sites,
        big.sites_per_sec,
        webdep_bench::fmt_rss_mb(big.peak_rss_bytes),
        fmt_ratio(snapshot.rss_ratio_streaming_vs_scaled_resident)
    );
    append_history(
        "scale",
        &format!(
            "{} sites at {:.0} sites/s rss ratio {}",
            big.sites,
            big.sites_per_sec,
            fmt_ratio(snapshot.rss_ratio_streaming_vs_scaled_resident)
        ),
    );
    let mut headline = vec![down_bad(
        "stream_sites_per_sec",
        big.sites_per_sec.round().max(0.0) as u64,
        40,
    )];
    if let Some(ratio) = snapshot.rss_ratio_streaming_vs_scaled_resident {
        headline.push(up_bad("rss_ratio_permille", permille(ratio), 50));
    }
    record_headline("scale", &headline);
}

fn serve_snapshot(smoke: bool) {
    eprintln!(
        "serve: closed-loop load against the resident query service ({})...",
        if smoke { "smoke sizes" } else { "full sizes" }
    );
    let snapshot = webdep_bench::serve::serve_snapshot(smoke, |line| eprintln!("  {line}"));
    if smoke {
        // Same convention as the scale gate: smoke certifies every phase
        // and invariant but its timings are meaningless on a loaded CI
        // box — leave the full-run snapshot file alone.
        eprintln!(
            "serve smoke OK ({} queries, swap over epochs {:?}, cached speedup {:.1}x)",
            snapshot.distinct_queries,
            snapshot.swap.epochs_observed,
            snapshot.cold_vs_cached.speedup
        );
        return;
    }
    let json = serde_json::to_string_pretty(&snapshot).expect("snapshot serializes");
    let out = repo_root_path("BENCH_serve.json");
    std::fs::write(&out, json + "\n").expect("write BENCH_serve.json");
    let top = snapshot.levels.last().expect("levels");
    eprintln!(
        "wrote {} (cold p50 {} µs, c={} p99 {} µs, {} rps warm, cached speedup {:.1}x)",
        out.display(),
        snapshot.levels[0].p50_us,
        top.concurrency,
        top.p99_us,
        top.rps,
        snapshot.cold_vs_cached.speedup
    );
    append_history(
        "serve",
        &format!(
            "c={} p99 {}us {} rps cached x{:.1}",
            top.concurrency, top.p99_us, top.rps, snapshot.cold_vs_cached.speedup
        ),
    );
    record_headline(
        "serve",
        &[
            up_bad("top_p99_us", top.p99_us, 50),
            down_bad("warm_rps", top.rps.round().max(0.0) as u64, 40),
            down_bad(
                "cached_speedup_permille",
                permille(snapshot.cold_vs_cached.speedup),
                40,
            ),
        ],
    );
}

fn evolve_snapshot(smoke: bool) {
    eprintln!(
        "evolve: incremental epochs vs from-scratch re-measurement ({})...",
        if smoke {
            "smoke sizes"
        } else {
            "full churn sweep"
        }
    );
    let snapshot = webdep_bench::evolve::evolve_snapshot(smoke, |line| eprintln!("  {line}"));
    if smoke {
        // Same convention as the scale/serve gates: the smoke run
        // certifies byte-identity, taxonomy equality, and clean-chunk
        // adoption at every epoch, but its timings are meaningless —
        // leave the full-run snapshot file alone.
        let sweep = &snapshot.sweeps[0];
        eprintln!(
            "evolve smoke OK ({} sites, {} epochs at {:.0}% churn, all certified identical)",
            snapshot.sites_base,
            sweep.epochs.len(),
            sweep.churn * 100.0
        );
        return;
    }
    // The headline claim: at ~10% churn, both the re-measurement and the
    // cube publish must be at least 5x cheaper than from scratch.
    let gated = snapshot
        .sweeps
        .iter()
        .find(|s| (s.churn - 0.10).abs() < 1e-9)
        .expect("full sweep includes 10% churn");
    assert!(
        gated.mean_measure_speedup >= 5.0,
        "10% churn delta re-measure only x{:.2} vs full",
        gated.mean_measure_speedup
    );
    assert!(
        gated.mean_cube_speedup >= 5.0,
        "10% churn cube delta-apply only x{:.2} vs rebuild",
        gated.mean_cube_speedup
    );
    let json = serde_json::to_string_pretty(&snapshot).expect("snapshot serializes");
    let out = repo_root_path("BENCH_evolve.json");
    std::fs::write(&out, json + "\n").expect("write BENCH_evolve.json");
    eprintln!(
        "wrote {} ({} base sites, 10% churn: measure x{:.1}, cube apply x{:.1}, peak RSS {} MB)",
        out.display(),
        snapshot.sites_base,
        gated.mean_measure_speedup,
        gated.mean_cube_speedup,
        webdep_bench::fmt_rss_mb(snapshot.peak_rss_bytes)
    );
    append_history(
        "evolve",
        &format!(
            "10% churn measure x{:.1} cube x{:.1} over {} base sites",
            gated.mean_measure_speedup, gated.mean_cube_speedup, snapshot.sites_base
        ),
    );
    record_headline(
        "evolve",
        &[
            down_bad(
                "measure_speedup_permille",
                permille(gated.mean_measure_speedup),
                30,
            ),
            down_bad(
                "cube_speedup_permille",
                permille(gated.mean_cube_speedup),
                30,
            ),
        ],
    );
}

fn overload_snapshot(smoke: bool) {
    eprintln!(
        "overload: seeded chaos against the self-healing service ({})...",
        if smoke {
            "smoke sizes"
        } else {
            "full storm durations"
        }
    );
    let snapshot = webdep_bench::overload::overload_snapshot(smoke, |line| eprintln!("  {line}"));
    if smoke {
        // Same convention as the scale/serve/evolve gates: the smoke run
        // certifies every invariant (zero mixed-epoch, Retry-After on
        // sheds, byte-identical fsck heal, all poisoned publishes
        // rejected) but its throughput numbers are meaningless — leave
        // the full-run snapshot file alone.
        eprintln!(
            "overload smoke OK (sheds {}+{}, fsck healed {}, {} poisoned publishes rejected)",
            snapshot.counters.shed_queue,
            snapshot.counters.shed_load,
            snapshot.corruption.healed,
            snapshot.counters.publish_rejected
        );
        return;
    }
    let json = serde_json::to_string_pretty(&snapshot).expect("snapshot serializes");
    let out = repo_root_path("BENCH_overload.json");
    std::fs::write(&out, json + "\n").expect("write BENCH_overload.json");
    let four_x = snapshot
        .bursts
        .iter()
        .find(|b| b.multiplier == 4)
        .expect("4x burst");
    let top = snapshot.bursts.last().expect("bursts");
    eprintln!(
        "wrote {} (4x burst goodput {}x unloaded, {}x shed rate {}, fsck byte-identical {}, {} poisons rejected)",
        out.display(),
        four_x.goodput_ratio,
        top.multiplier,
        top.shed_rate,
        snapshot.corruption.byte_identical,
        snapshot.poison.rejected
    );
    append_history(
        "overload",
        &format!(
            "4x goodput {}x {}x shed rate {} fsck identical {} poisons {}/{}",
            four_x.goodput_ratio,
            top.multiplier,
            top.shed_rate,
            snapshot.corruption.byte_identical,
            snapshot.poison.rejected,
            snapshot.poison.attempts
        ),
    );
    record_headline(
        "overload",
        &[down_bad(
            "burst4_goodput_permille",
            permille(four_x.goodput_ratio),
            40,
        )],
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let which = args.get(1).map(String::as_str).unwrap_or("all");
    match which {
        "pipeline" => pipeline_snapshot(),
        "analysis" => analysis_snapshot(),
        "faults" => faults_snapshot(),
        "resilience" => resilience_snapshot(),
        "scale" => scale_snapshot(args.get(2).map(String::as_str) == Some("--smoke")),
        "serve" => serve_snapshot(args.get(2).map(String::as_str) == Some("--smoke")),
        "evolve" => evolve_snapshot(args.get(2).map(String::as_str) == Some("--smoke")),
        "overload" => overload_snapshot(args.get(2).map(String::as_str) == Some("--smoke")),
        // The CI perf-regression gate: deterministic workloads vs
        // BENCH_baselines.json. `--update` re-records after an accepted
        // change; exits 1 (and appends to BENCH_alerts.log) on breach.
        "gate" => {
            let smoke = args.iter().any(|a| a == "--smoke");
            let update = args.iter().any(|a| a == "--update");
            let ok = gate::run_gate(&repo_root_path(""), smoke, update, |l| eprintln!("{l}"));
            if !ok {
                std::process::exit(1);
            }
        }
        // Hidden: one scale phase in a child process, so each phase's
        // VmHWM is its own (see webdep_bench::scale).
        "scale-phase" => {
            let phase = args.get(2).expect("scale-phase <phase> <spc>");
            let spc: u32 = args
                .get(3)
                .and_then(|s| s.parse().ok())
                .expect("scale-phase <phase> <spc>");
            println!("{}", webdep_bench::scale::run_phase(phase, spc));
        }
        "all" => {
            pipeline_snapshot();
            analysis_snapshot();
            faults_snapshot();
            resilience_snapshot();
            scale_snapshot(false);
            serve_snapshot(false);
            evolve_snapshot(false);
            overload_snapshot(false);
        }
        other => {
            eprintln!(
                "unknown snapshot {other:?} (pipeline | analysis | faults | resilience | scale [--smoke] | serve [--smoke] | evolve [--smoke] | overload [--smoke] | gate [--smoke] [--update] | all)"
            );
            std::process::exit(2);
        }
    }
}

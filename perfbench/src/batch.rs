//! `batch_report`: the paper's own use. On a seeded `small` world, measure
//! every site into a chunk store (`measure_streamed`), load the dataset
//! back, build the analysis cube and run the full `ExperimentSuite` — what
//! `webdep experiments small` reports. `serve` does no work here.

use crate::calib::Host;
use crate::replay::Replayer;
use crate::trace::{self, span, timed};
use crate::{median, quantile, Args, Report};
use std::hint::black_box as bb;
use std::time::Instant;
use webdep_analysis::breakdown::{ca_breakdown, provider_breakdown, tld_breakdown};
use webdep_analysis::cases::{afghan_persian_case, dependence_on, foreign_dependence_cases};
use webdep_analysis::centralization::layer_table;
use webdep_analysis::classes::classify;
use webdep_analysis::correlations::{
    class_correlations, hosting_vs_tld_insularity, layer_score_correlation,
};
use webdep_analysis::figures::{
    fig12_histograms, fig1_topn_shortcoming, fig2_emd_example, fig3_example_curves,
    fig4_usage_endemicity,
};
use webdep_analysis::insularity::insularity_table;
use webdep_analysis::regional::{continent_matrix, subregion_summary, Attribution};
use webdep_analysis::tld_appendix::{external_cc_adoption, external_cc_vs_centralization};
use webdep_analysis::{coverage_model, AnalysisCtx, ExperimentSuite};
use webdep_pipeline::{measure_streamed, ChunkStore, FailureCause, MeasureStats, PipelineConfig};
use webdep_stats::BootstrapScratch;
use webdep_webgen::{DeployConfig, DeployedWorld, Layer, World, COUNTRIES};

/// A run makes one cycle per this many seconds of `--seconds`, and at
/// least `MIN_CYCLES`: a fixed amount of work for given arguments. Each
/// cycle sets up, measures and reports its own world (see `Args::world`).
const CYCLE_S: f64 = 2.3;
const MIN_CYCLES: usize = 4;
/// Replayed sites per world: untimed warm-up, then timed windows of
/// `REPLAY_WINDOW` sites.
const REPLAY_WARM: usize = 1_000;
const REPLAY_WINDOWS: usize = 3;
const REPLAY_WINDOW: usize = 2_000;

/// Generates and deploys world `k` (the untimed preparation).
pub fn setup(args: &Args, k: u64) -> (World, DeployedWorld) {
    let world = timed("webgen.generate", 0, k, || {
        World::generate(args.world_config(k))
    });
    let dep = timed("webgen.deploy", 0, 0, || {
        DeployedWorld::deploy(&world, DeployConfig::default())
    });
    (world, dep)
}

/// Sites whose observation carries a non-`Skipped` layer error.
fn failed_sites(ds: &webdep_pipeline::MeasuredDataset) -> u64 {
    let failed = |e: &Option<webdep_pipeline::LayerError>| {
        e.as_ref().is_some_and(|e| e.cause != FailureCause::Skipped)
    };
    ds.observations
        .iter()
        .filter(|o| failed(&o.hosting_error) || failed(&o.dns_error) || failed(&o.ca_error))
        .count() as u64
}

struct Cycle {
    sites: f64,
    wall_s: f64,
    /// Datagrams sent and dropped on the simulated network while measuring.
    datagrams: u64,
    dropped: u64,
    measure: MeasureStats,
    load_s: f64,
    cube_s: f64,
    suite_s: f64,
    store_bytes: u64,
}

/// One deployed world → finished report cycle, with its output checks.
fn cycle(args: &Args, world: &World, dep: &DeployedWorld, k: usize, report: &mut Report) -> Cycle {
    let config = PipelineConfig {
        workers: args.threads(),
        ..PipelineConfig::default()
    };
    let dir = args.work_dir.join(format!("batch-store-{k}"));
    let _ = std::fs::remove_dir_all(&dir);
    let net_before = dep.network.stats();
    let root = span("batch.cycle", 0, k as u64);
    let t0 = Instant::now();
    let measure = timed("pipeline.measure_streamed", root.id(), k as u64, || {
        measure_streamed(world, dep, &config, &dir, None)
    })
    .expect("measure_streamed into the work directory");
    let t1 = Instant::now();
    let net_after = dep.network.stats();
    let ds = timed("pipeline.load_dataset", root.id(), k as u64, || {
        ChunkStore::open(&dir).and_then(|s| s.load_dataset(world))
    })
    .expect("load the store back");
    let t2 = Instant::now();
    let ctx = timed("analysis.cube", root.id(), k as u64, || {
        AnalysisCtx::new(world, &ds)
    });
    let t3 = Instant::now();
    let suite = timed("analysis.suite", root.id(), k as u64, || {
        ExperimentSuite::run(&ctx, None, None)
    });
    let t4 = Instant::now();
    drop(root);
    let wall_s = (t4 - t0).as_secs_f64();

    report.attempted += ds.observations.len() as u64;
    report.failed += failed_sites(&ds);
    report.check(
        suite.passed() == suite.total(),
        format!("suite passed {}/{}", suite.passed(), suite.total()),
    );
    match ChunkStore::fsck(&dir, None, false) {
        Ok(fsck) => report.check(fsck.clean(), format!("fsck: {}", fsck.to_value())),
        Err(e) => report.check(false, format!("fsck: {e}")),
    }
    let store_bytes = std::fs::read_dir(&dir)
        .map(|d| {
            d.filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    let _ = std::fs::remove_dir_all(&dir);
    eprintln!(
        "perfbench: cycle {k}: {wall_s:.3} s (measure {:.3} s, load {:.3} s, cube {:.3} s, suite {:.3} s)",
        measure.wall.as_secs_f64(),
        (t2 - t1).as_secs_f64(),
        (t3 - t2).as_secs_f64(),
        (t4 - t3).as_secs_f64()
    );
    Cycle {
        sites: world.sites.len() as f64,
        wall_s,
        datagrams: net_after.sent - net_before.sent,
        dropped: net_after.dropped - net_before.dropped,
        measure,
        load_s: (t2 - t1).as_secs_f64(),
        cube_s: (t3 - t2).as_secs_f64(),
        suite_s: (t4 - t3).as_secs_f64(),
        store_bytes,
    }
}

pub fn run(args: &Args, report: &mut Report) {
    let mut host = Host::new(args.threads());
    // Each cycle takes its own world, derived from the seed: the suite's
    // cost depends on the data (affinity propagation converges in more or
    // fewer rounds), so one world per run would make the spread between
    // runs the spread between worlds. Per world: set-up, one cycle, then
    // replay windows, with the host probed after each (see `calib`). In a
    // traced run every other cycle runs span-free, to price the tracing.
    // `peak_rss_mb` is read after the first cycle: set-up and one report,
    // as a user running the report once sees it. Later cycles only add the
    // allocator's fragmentation, which varies from run to run.
    let n_cycles = ((args.seconds / CYCLE_S).round() as usize).max(MIN_CYCLES);
    let windows = if args.smoke { 1 } else { REPLAY_WINDOWS };
    let replay_dir = args.work_dir.join("batch-replay");
    let mut setup_s: Vec<f64> = Vec::new();
    let mut cycles: Vec<(Cycle, bool)> = Vec::new();
    let mut site_ms: Vec<f64> = Vec::new();
    let (mut replay_wire, mut replay_hits, mut replayed) = (0u64, 0u64, 0usize);
    let mut last = None;
    for k in 0..n_cycles {
        let t = Instant::now();
        let (world, dep) = setup(args, k as u64);
        setup_s.push(t.elapsed().as_secs_f64());
        host.probe();

        let traced = k.is_multiple_of(2);
        trace::set_active(traced);
        let c = cycle(args, &world, &dep, k, report);
        trace::set_active(true);
        cycles.push((c, traced));
        host.probe();
        if k == 0 {
            if let Some(mb) = crate::peak_rss_mb() {
                report.metric("peak_rss_mb", mb, "MiB");
            }
        }

        let _ = std::fs::remove_dir_all(&replay_dir);
        let mut replayer = Replayer::new(
            &world,
            &dep,
            args.seed ^ k as u64,
            REPLAY_WARM,
            windows * REPLAY_WINDOW,
            &replay_dir,
        )
        .expect("replay into the work directory");
        while replayer.remaining() > 0 {
            site_ms.extend(replayer.window(REPLAY_WINDOW).expect("replay window"));
            host.probe();
        }
        let stats = replayer.resolver_stats();
        replay_wire += stats.wire_queries;
        replay_hits += stats.local_cache_hits + stats.shared_cache_hits;
        replayed += replayer.replayed();
        drop(replayer);
        let _ = std::fs::remove_dir_all(&replay_dir);
        if k + 1 == n_cycles {
            last = Some((world, dep));
        }
    }
    let (world, dep) = last.expect("at least one cycle");
    let replayed = replayed as f64;

    // Every time is a median over the run's cycles, in reference units (raw
    // over the host's slowness, see `calib`).
    let walls: Vec<f64> = cycles.iter().map(|(c, _)| c.wall_s).collect();
    let measure_s: Vec<f64> = cycles
        .iter()
        .map(|(c, _)| c.measure.wall.as_secs_f64())
        .collect();
    eprintln!(
        "perfbench: medians: set-up {:.3} s, cycle {:.3} s, measure {:.3} s; host slowness {:.3}",
        median(&setup_s),
        median(&walls),
        median(&measure_s),
        host.slowness()
    );
    report.metric("setup_s", host.to_ref(median(&setup_s)), "s");
    report.metric("wall_s", host.to_ref(median(&walls)), "s");
    let rates: Vec<f64> = cycles
        .iter()
        .map(|(c, _)| c.sites / c.measure.wall.as_secs_f64())
        .collect();
    report.metric("sites_per_s", median(&rates) * host.slowness(), "sites/s");
    report.metric("host.slowness", host.slowness(), "ratio");

    if !trace::enabled() {
        return;
    }
    let n = cycles.len() as f64;
    let mean = |f: &dyn Fn(&Cycle) -> f64| cycles.iter().map(|(c, _)| f(c)).sum::<f64>() / n;
    let summary = trace::summarize();
    let stat = |name: &str| summary.get(name).copied().unwrap_or_default();
    report.metric(
        "webgen.generate_ms",
        stat("webgen.generate").mean_us() / 1e3,
        "ms",
    );
    report.metric(
        "webgen.deploy_ms",
        stat("webgen.deploy").mean_us() / 1e3,
        "ms",
    );
    report.metric(
        "netsim.datagrams_per_site",
        mean(&|c| c.datagrams as f64 / c.sites),
        "count",
    );
    report.metric("netsim.dropped", mean(&|c| c.dropped as f64), "count");
    measure_metrics(report, &cycles[0].0.measure);
    report.metric(
        "dns.wire_queries_per_site",
        replay_wire as f64 / replayed,
        "count",
    );
    report.metric(
        "dns.cache_hit_ratio",
        replay_hits as f64 / (replay_hits + replay_wire) as f64,
        "ratio",
    );
    site_ms.sort_by(f64::total_cmp);
    report.metric("replay.p50_ms", quantile(&site_ms, 0.50), "ms");
    report.metric("replay.p99_ms", quantile(&site_ms, 0.99), "ms");
    report.metric("dns.resolve_a_us", stat("dns.resolve_a").self_us(), "us");
    report.metric("dns.resolve_ns_us", stat("dns.resolve_ns").self_us(), "us");
    report.metric("tls.scan_us", stat("tls.scan").self_us(), "us");
    let per_site = |name: &str| stat(name).self_ns as f64 / 1e3 / replayed;
    report.metric("geodb.enrich_us", per_site("geodb.enrich"), "us");
    report.metric(
        "pipeline.chunk_commit_us",
        per_site("pipeline.chunk_commit"),
        "us",
    );
    let replay_child_us = per_site("dns.parse")
        + per_site("dns.resolve_a")
        + per_site("dns.resolve_ns")
        + per_site("tls.scan")
        + per_site("geodb.enrich")
        + per_site("pipeline.chunk_commit");
    let measure_ms = median(&measure_s) * 1e3;
    report.metric("pipeline.measure_ms", measure_ms, "ms");
    report.metric(
        "pipeline.self_us_per_site",
        measure_ms * 1e3 * args.threads() as f64 / mean(&|c| c.sites) - replay_child_us,
        "us",
    );
    report.metric(
        "pipeline.store_bytes_per_site",
        mean(&|c| c.store_bytes as f64 / c.sites),
        "bytes",
    );
    report.metric("pipeline.load_ms", mean(&|c| c.load_s) * 1e3, "ms");
    report.metric("analysis.cube_ms", mean(&|c| c.cube_s) * 1e3, "ms");
    report.metric("analysis.suite_ms", mean(&|c| c.suite_s) * 1e3, "ms");
    let stages: u64 = [
        "pipeline.measure_streamed",
        "pipeline.load_dataset",
        "analysis.cube",
        "analysis.suite",
    ]
    .iter()
    .map(|s| stat(s).total_ns)
    .sum();
    report.metric(
        "trace.stage_coverage",
        stages as f64 / stat("batch.cycle").total_ns as f64,
        "ratio",
    );

    // The suite's entry points, timed once each outside the suite on the
    // last cycle's world, with the suite's own arguments and call counts.
    let dir = args.work_dir.join("batch-rows");
    let _ = std::fs::remove_dir_all(&dir);
    let config = PipelineConfig {
        workers: args.threads(),
        ..PipelineConfig::default()
    };
    measure_streamed(&world, &dep, &config, &dir, None).expect("measure for the row timings");
    let ds = ChunkStore::open(&dir)
        .and_then(|s| s.load_dataset(&world))
        .expect("load for the row timings");
    let _ = std::fs::remove_dir_all(&dir);
    let ctx = AnalysisCtx::new(&world, &ds);
    for (name, ms) in suite_rows(&ctx) {
        report.metric(format!("analysis.row.{name}_ms"), ms, "ms");
    }

    let walls_where = |traced: bool| -> Vec<f64> {
        cycles
            .iter()
            .filter(|(_, t)| *t == traced)
            .map(|(c, _)| c.wall_s)
            .collect()
    };
    report.metric(
        "trace.overhead_ratio",
        median(&walls_where(true)) / median(&walls_where(false)),
        "ratio",
    );
}

/// Times each public entry point `ExperimentSuite::run` calls, once,
/// with the arguments and multiplicity the suite uses.
fn suite_rows(ctx: &AnalysisCtx<'_>) -> Vec<(&'static str, f64)> {
    let mut rows = Vec::new();
    let mut time = |name: &'static str, f: &mut dyn FnMut()| {
        let t = Instant::now();
        timed("analysis.row", 0, 0, &mut *f);
        rows.push((name, t.elapsed().as_secs_f64() * 1e3));
    };
    time("fig2_emd_example", &mut || {
        bb(fig2_emd_example());
    });
    time("fig3_example_curves", &mut || {
        bb(fig3_example_curves(10_000));
    });
    time("fig1_topn_shortcoming", &mut || {
        bb(fig1_topn_shortcoming(ctx));
    });
    time("layer_table", &mut || {
        for l in Layer::ALL {
            bb(layer_table(ctx, l));
        }
    });
    time("coverage_model", &mut || {
        bb(coverage_model(ctx));
    });
    time("failure_taxonomy", &mut || {
        bb(ctx.ds.failure_taxonomy());
    });
    time("score_ci_scratch", &mut || {
        let mut scratch = BootstrapScratch::new();
        for ci in 0..COUNTRIES.len() {
            bb(ctx.score_ci_scratch(ci, Layer::Hosting, 500, 0.95, 42, &mut scratch));
        }
        for code in ["TH", "IR"] {
            let ci = World::country_index(code).expect("paper country");
            bb(ctx.score_ci_scratch(ci, Layer::Hosting, 500, 0.95, 42, &mut scratch));
        }
    });
    let hosting = classify(ctx, Layer::Hosting);
    let dns = classify(ctx, Layer::Dns);
    let ca = classify(ctx, Layer::Ca);
    time("classify", &mut || {
        for l in [Layer::Hosting, Layer::Dns, Layer::Ca] {
            bb(classify(ctx, l));
        }
    });
    time("provider_breakdown", &mut || {
        bb(provider_breakdown(ctx, Layer::Hosting, &hosting));
        bb(provider_breakdown(ctx, Layer::Dns, &dns));
    });
    time("ca_breakdown", &mut || {
        bb(ca_breakdown(ctx, &ca));
    });
    time("tld_breakdown", &mut || {
        bb(tld_breakdown(ctx));
    });
    time("class_correlations", &mut || {
        bb(class_correlations(ctx, Layer::Hosting, &hosting));
    });
    time("layer_score_correlation", &mut || {
        bb(layer_score_correlation(ctx, Layer::Hosting, Layer::Dns));
    });
    time("hosting_vs_tld_insularity", &mut || {
        bb(hosting_vs_tld_insularity(ctx));
    });
    time("insularity_table", &mut || {
        for l in [Layer::Hosting, Layer::Ca, Layer::Tld] {
            bb(insularity_table(ctx, l));
        }
    });
    time("continent_matrix", &mut || {
        for a in [
            Attribution::HostingHq,
            Attribution::IpGeo,
            Attribution::NsGeo,
        ] {
            bb(continent_matrix(ctx, a));
        }
    });
    time("subregion_summary", &mut || {
        bb(subregion_summary(ctx));
    });
    time("fig4_usage_endemicity", &mut || {
        bb(fig4_usage_endemicity(ctx, "Cloudflare", "Beget"));
    });
    time("fig12_histograms", &mut || {
        bb(fig12_histograms(ctx));
    });
    time("foreign_dependence_cases", &mut || {
        bb(foreign_dependence_cases(ctx, Layer::Hosting, 0.10));
    });
    time("dependence_on", &mut || {
        for (c, on) in [
            ("TM", "RU"),
            ("TM", "RU"),
            ("RE", "FR"),
            ("BF", "FR"),
            ("RE", "FR"),
            ("SK", "CZ"),
            ("SK", "CZ"),
        ] {
            bb(dependence_on(ctx, c, on, Layer::Hosting));
        }
    });
    time("afghan_persian_case", &mut || {
        bb(afghan_persian_case(ctx));
    });
    time("external_cc_adoption", &mut || {
        bb(external_cc_adoption(ctx, "RU", 0.05));
        bb(external_cc_adoption(ctx, "FR", 0.05));
    });
    time("external_cc_vs_centralization", &mut || {
        bb(external_cc_vs_centralization(ctx));
    });
    rows
}

/// Per-layer figures of one `measure_streamed` run, from its `MeasureStats`.
fn measure_metrics(report: &mut Report, m: &MeasureStats) {
    report.metric("pipeline.idle_fraction", m.peak_idle_fraction, "ratio");
    report.metric(
        "pipeline.requeued",
        (m.supervision.batches_requeued + m.supervision.workers_respawned) as f64,
        "count",
    );
    report.metric(
        "dns.malformed",
        (m.malformed_datagrams + m.mismatched_ids) as f64,
        "count",
    );
    report.metric("tls.malformed_flights", m.malformed_flights as f64, "count");
}

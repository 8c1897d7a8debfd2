//! `evolve_under_load`: the continuous operator's loop. A base store is
//! served; then `EvolutionPlan::continuous(n, 0.10, seed)` epochs each run
//! `measure_delta` → `CubeSnapshot::from_delta` →
//! `ServerHandle::publish_validated` while the `serve_zipf` mix keeps
//! arriving open-loop at a fixed low rate.

use crate::calib::Host;
use crate::load::{open_loop, Outcome};
use crate::serve::{account, first_setup};
use crate::trace::{self, span, timed};
use crate::{median, quantile, Args, Report};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use webdep_pipeline::{measure_delta, DeltaStats, PipelineConfig};
use webdep_serve::CubeSnapshot;
use webdep_webgen::{DeployedWorld, EvolutionPlan};

/// The open loop's rate while epochs publish, requests per second: half
/// the serve reference rate, since the epochs' own work takes the cores,
/// and still about 1,700 requests per epoch on the `small` world.
pub const RATE: f64 = 1_000.0;
/// The load runs at least this long (smoke runs have quick epochs).
const MIN_LOAD_S: f64 = 3.0;
/// Per-epoch toplist churn.
const CHURN: f64 = 0.10;
/// Host probes just before the load starts and just after it stops, one
/// per `PROBE_GAP`, so that each end of the load averages over about a
/// second of the host's second-to-second swings.
const PROBES: usize = 20;
const PROBE_GAP: Duration = Duration::from_millis(50);

struct Epoch {
    wall_s: f64,
    evolve_s: f64,
    deploy_s: f64,
    dirty: usize,
    stats: DeltaStats,
    delta_s: f64,
    from_delta_s: f64,
    validate_s: f64,
    publish_s: f64,
    purged: u64,
    traced: bool,
}

/// Epochs per run: three for every five seconds of `--seconds` (an epoch
/// with its evolution and redeploy takes about 2 s on the `small` world).
fn epochs(args: &Args) -> usize {
    if args.smoke {
        2
    } else {
        ((0.6 * args.seconds).round() as usize).clamp(3, 24)
    }
}

pub fn run(args: &Args, report: &mut Report) {
    let threads = args.threads();
    let mut host = Host::new(threads);
    let (served, setups) = first_setup(args, "evolve", &mut host, report);
    let config = PipelineConfig {
        workers: threads,
        ..PipelineConfig::default()
    };
    let n = epochs(args);
    let plan = EvolutionPlan::continuous(n, CHURN, args.seed);
    let mut mix_rng = crate::load::Rng::new(args.seed, "evolve.requests");
    let targets = served.mix.sequence(&mut mix_rng, 50_000);

    let stop = AtomicBool::new(false);
    let mut rows: Vec<Epoch> = Vec::new();
    let mut rejected = 0u64;
    let mut world = Arc::clone(&served.world);
    let mut snapshot = Arc::clone(&served.snapshot);
    let mut prev_dir = served.store.clone();
    // The host is probed only while no load runs (see `calib`): a probe
    // beside the load would slow with the program's own serving work and
    // hide it.
    for _ in 0..PROBES {
        host.probe();
        std::thread::sleep(PROBE_GAP);
    }
    let load_started = Instant::now();
    let load: Outcome = std::thread::scope(|s| {
        let load = s.spawn(|| {
            open_loop(
                served.handle.addr(),
                &targets,
                RATE,
                Duration::from_secs(3600),
                threads,
                args.seed,
                &stop,
            )
        });
        for e in 0..n {
            // In a traced run, epochs 0 and 3 of every four run with spans
            // and 1 and 2 without, so both sides see the growing world
            // alike; their walls price the tracing overhead.
            let traced = !trace::enabled() || e % 4 == 0 || e % 4 == 3;
            trace::set_active(traced);
            let root = span("evolve.epoch", 0, e as u64);
            let t = Instant::now();
            let (next, delta) = timed("webgen.evolve", root.id(), e as u64, || {
                plan.evolve_epoch(&world, e)
            });
            let evolve_s = t.elapsed().as_secs_f64();
            if let Err(why) = delta.certify_unchanged(&world, &next) {
                report.check(
                    false,
                    format!("epoch {}: unchanged-site certificate: {why}", e + 1),
                );
            }
            let next = Arc::new(next);
            let t = Instant::now();
            let dep = timed("webgen.deploy", root.id(), e as u64, || {
                DeployedWorld::deploy(&next, served.pinned.clone())
            });
            let deploy_s = t.elapsed().as_secs_f64();
            let dir = args.work_dir.join(format!("evolve-epoch-{:04}", e + 1));
            let _ = std::fs::remove_dir_all(&dir);

            // Timed: delta in hand → validated publish returned.
            let t0 = Instant::now();
            let stats = timed("pipeline.measure_delta", root.id(), e as u64, || {
                measure_delta(&next, &dep, &config, &delta, &prev_dir, &dir, None)
            })
            .expect("measure_delta into the work directory");
            let t1 = Instant::now();
            let cand = Arc::new(
                timed("serve.from_delta", root.id(), e as u64, || {
                    CubeSnapshot::from_delta(
                        snapshot.epoch + 1,
                        Arc::clone(&next),
                        &snapshot,
                        &delta,
                        &dir,
                    )
                })
                .expect("snapshot from the delta"),
            );
            let t2 = Instant::now();
            let purged_before = served.handle.cache_stats().stale_purged;
            let published = timed("serve.publish_validated", root.id(), e as u64, || {
                served
                    .handle
                    .publish_validated(Arc::clone(&cand), Some(&delta))
            });
            let t3 = Instant::now();
            drop(root);
            drop(dep);
            let purged = served.handle.cache_stats().stale_purged - purged_before;
            report.attempted += 1;
            if let Err(why) = &published {
                rejected += 1;
                report.failed += 1;
                report.check(false, format!("epoch {}: publish rejected: {why}", e + 1));
            }
            // The validation alone, re-run outside the timed path, splits
            // publish_validated into validate and swap.
            let validate_s = if trace::enabled() {
                let t = Instant::now();
                let _ = timed("serve.validate", 0, e as u64, || {
                    cand.validate(None, Some(&delta))
                });
                t.elapsed().as_secs_f64()
            } else {
                0.0
            };
            eprintln!(
                "perfbench: epoch {}: {:.3} s (measure_delta {:.3} s, from_delta {:.3} s, publish {:.3} s), {} dirty of {} sites",
                e + 1,
                (t3 - t0).as_secs_f64(),
                (t1 - t0).as_secs_f64(),
                (t2 - t1).as_secs_f64(),
                (t3 - t2).as_secs_f64(),
                delta.dirty_count(),
                next.sites.len()
            );
            rows.push(Epoch {
                wall_s: (t3 - t0).as_secs_f64(),
                evolve_s,
                deploy_s,
                dirty: delta.dirty_count(),
                stats,
                delta_s: (t1 - t0).as_secs_f64(),
                from_delta_s: (t2 - t1).as_secs_f64(),
                validate_s,
                publish_s: (t3 - t2).as_secs_f64(),
                purged,
                traced,
            });
            if published.is_ok() {
                let _ = std::fs::remove_dir_all(&prev_dir);
                prev_dir = dir;
                world = next;
                snapshot = cand;
            }
        }
        trace::set_active(true);
        while load_started.elapsed().as_secs_f64() < MIN_LOAD_S {
            std::thread::sleep(Duration::from_millis(20));
        }
        stop.store(true, Ordering::Relaxed);
        load.join().expect("open-loop load panicked")
    });
    for _ in 0..PROBES {
        std::thread::sleep(PROBE_GAP);
        host.probe();
    }
    account(report, &load);
    report.check(
        load.mixed_epoch == 0 && load.regressions == 0,
        format!(
            "{} mixed-epoch and {} regressed responses",
            load.mixed_epoch, load.regressions
        ),
    );

    // The last delta-built snapshot must equal a from-store rebuild.
    match CubeSnapshot::from_store(snapshot.epoch, Arc::clone(&world), &prev_dir) {
        Ok(rebuilt) => report.check(
            rebuilt.taxonomy == snapshot.taxonomy,
            "delta-built taxonomy differs from a from_store rebuild",
        ),
        Err(e) => report.check(false, format!("from_store rebuild: {e}")),
    }
    let _ = std::fs::remove_dir_all(&prev_dir);
    drop(snapshot);
    served.handle.shutdown();
    // Read before the repeated set-ups, as on serve_zipf.
    if let Some(mb) = crate::peak_rss_mb() {
        report.metric("peak_rss_mb", mb, "MiB");
    }
    setups.finish(args, "evolve", &mut host, report);

    let timed_rows: Vec<&Epoch> = rows
        .iter()
        .filter(|r| r.traced || !trace::enabled())
        .collect();
    let walls: Vec<f64> = timed_rows.iter().map(|r| r.wall_s).collect();
    // `wall_s` in reference seconds (see `calib`); the query latency is
    // per-layer, raw, pooled over the epoch phase.
    let latency = load.sorted_latency();
    eprintln!(
        "perfbench: queries: p50 {:.4} ms, p99 {:.4} ms over {} requests; epoch median {:.4} s; host slowness {:.3}",
        quantile(&latency, 0.50),
        quantile(&latency, 0.99),
        latency.len(),
        median(&walls),
        host.slowness()
    );
    report.metric("wall_s", host.to_ref(median(&walls)), "s");
    report.metric("host.slowness", host.slowness(), "ratio");

    if !trace::enabled() {
        return;
    }
    let summary = trace::summarize();
    let stat = |name: &str| summary.get(name).copied().unwrap_or_default();
    let k = rows.len() as f64;
    let mean = |f: &dyn Fn(&Epoch) -> f64| rows.iter().map(f).sum::<f64>() / k;
    let sum = |f: &dyn Fn(&Epoch) -> usize| rows.iter().map(f).sum::<usize>() as f64;
    report.metric(
        "webgen.generate_ms",
        stat("webgen.generate").mean_us() / 1e3,
        "ms",
    );
    report.metric("webgen.deploy_ms", mean(&|r| r.deploy_s) * 1e3, "ms");
    report.metric("webgen.evolve_ms", mean(&|r| r.evolve_s) * 1e3, "ms");
    report.metric("webgen.dirty_sites", mean(&|r| r.dirty as f64), "count");
    report.metric(
        "serve.snapshot_build_ms",
        stat("serve.snapshot_build").mean_us() / 1e3,
        "ms",
    );
    report.metric(
        "pipeline.delta_measure_ms",
        mean(&|r| r.delta_s) * 1e3,
        "ms",
    );
    report.metric(
        "pipeline.remeasured_ratio",
        sum(&|r| r.stats.sites_remeasured) / sum(&|r| r.stats.sites_total),
        "ratio",
    );
    report.metric(
        "pipeline.adopted_ratio",
        sum(&|r| r.stats.chunks_adopted) / sum(&|r| r.stats.chunks_total),
        "ratio",
    );
    report.metric("serve.from_delta_ms", mean(&|r| r.from_delta_s) * 1e3, "ms");
    report.metric("serve.validate_ms", mean(&|r| r.validate_s) * 1e3, "ms");
    report.metric(
        "serve.publish_us",
        mean(&|r| (r.publish_s - r.validate_s).max(0.0)) * 1e6,
        "us",
    );
    report.metric("serve.stale_purged", mean(&|r| r.purged as f64), "count");
    report.metric("serve.publish_rejected", rejected as f64, "count");
    report.metric("load.p50_ms", quantile(&latency, 0.50), "ms");
    report.metric("load.p99_ms", quantile(&latency, 0.99), "ms");
    report.metric("load.late_ms", quantile(&load.sorted_late(), 0.99), "ms");
    report.metric("load.samples", latency.len() as f64, "count");
    let traced: Vec<f64> = rows.iter().filter(|r| r.traced).map(|r| r.wall_s).collect();
    let untraced: Vec<f64> = rows
        .iter()
        .filter(|r| !r.traced)
        .map(|r| r.wall_s)
        .collect();
    if !untraced.is_empty() {
        report.metric(
            "trace.overhead_ratio",
            median(&traced) / median(&untraced),
            "ratio",
        );
    }
}

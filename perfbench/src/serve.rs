//! `serve_zipf`: an open-loop, Zipf-skewed query mix against `webdep
//! serve` over a `CubeSnapshot::from_store` snapshot of the seeded world.
//! Measurement and the store run only in set-up; the timed work is HTTP,
//! the worker queue, the response cache, per-request `AnalysisCtx`s and
//! bootstrap CIs.

use crate::calib::Host;
use crate::load::{closed_loop, open_loop, Mix, Outcome, Rng};
use crate::trace::{self, span, timed};
use crate::{median, quantile, Args, Report};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use webdep_analysis::AnalysisCtx;
use webdep_core::centralization_score;
use webdep_pipeline::{measure_streamed, ChunkStore, PipelineConfig};
use webdep_serve::http::{parse_head, render_response, Limits, ParseOutcome};
use webdep_serve::routes::{self, Budget, DEFAULT_REPLICATES};
use webdep_serve::{start, CubeSnapshot, ResponseCache, ServeConfig, ServerHandle};
use webdep_webgen::{provider_site_counts, DeployConfig, DeployedWorld, Layer, World, COUNTRIES};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Requests sent closed-loop at the end of set-up to fill the cache.
const WARM_REQUESTS: usize = 12_000;
/// The reference rate of the open loop, requests per second: about a
/// tenth of the closed-loop capacity on 2 vCPUs (16,000–22,000 req/s), so
/// it measures latency rather than queueing.
const REF_RATE: f64 = 2_000.0;
/// Rounds of (reference-rate open loop, closed-loop batches) per run; at
/// 16 s an open-loop round holds about 1,900 requests.
const ROUNDS: usize = 10;
/// Requests per closed-loop batch (`wall_s`, the median over the run's
/// batches of about 0.1 s each).
const BATCH_REQUESTS: usize = 2_000;
/// Ratio between the steps of the rate ladder above the reference rate
/// (traced runs), and the number of steps.
const LADDER_RATIO: f64 = 1.5;
const LADDER_STEPS: i32 = 8;
/// The ladder's latency limit on p99, ms.
const LADDER_P99_LIMIT_MS: f64 = 20.0;
/// A step where the generator's own p99 lateness exceeds this is invalid.
const LADDER_LATE_LIMIT_MS: f64 = 2.0;

/// A measured world served over HTTP.
pub struct Served {
    pub world: Arc<World>,
    pub snapshot: Arc<CubeSnapshot>,
    pub handle: ServerHandle,
    /// The deployment config with the base world's provider census pinned,
    /// so later epochs' unchanged sites keep their serving IPs.
    pub pinned: DeployConfig,
    /// Wall of the base `measure_streamed`, seconds.
    pub measure_s: f64,
    pub store: PathBuf,
    pub mix: Mix,
    /// The request stream; phases draw from it in turn.
    pub rng: Rng,
    pub warm: Vec<String>,
}

impl Served {
    pub fn stop(self) {
        self.handle.shutdown();
        let _ = std::fs::remove_dir_all(&self.store);
    }
}

/// Generate, deploy, measure into a store, build the snapshot, start the
/// server and warm its cache: the serve workloads' untimed preparation.
pub fn setup(args: &Args, tag: &str, report: &mut Report) -> Served {
    let world = timed("webgen.generate", 0, 0, || {
        World::generate(args.world_config(0))
    });
    let pinned = DeployConfig {
        pool_sites: Some(Arc::new(provider_site_counts(&world))),
        ..DeployConfig::default()
    };
    let dep = timed("webgen.deploy", 0, 0, || {
        DeployedWorld::deploy(&world, pinned.clone())
    });
    let store = args.work_dir.join(format!("{tag}-epoch-0000"));
    let _ = std::fs::remove_dir_all(&store);
    let config = PipelineConfig {
        workers: args.threads(),
        ..PipelineConfig::default()
    };
    let measure_s = timed("pipeline.measure_streamed", 0, 0, || {
        measure_streamed(&world, &dep, &config, &store, None)
    })
    .expect("measure_streamed into the work directory")
    .wall
    .as_secs_f64();
    drop(dep);
    let world = Arc::new(world);
    let snapshot = Arc::new(
        timed("serve.snapshot_build", 0, 0, || {
            CubeSnapshot::from_store(1, Arc::clone(&world), &store)
        })
        .expect("snapshot from the store"),
    );
    let handle = start(
        ServeConfig {
            workers: args.threads(),
            ..ServeConfig::default()
        },
        Arc::clone(&snapshot),
    )
    .expect("bind 127.0.0.1:0");
    let mix = Mix::new(args.seed);
    let mut rng = Rng::new(args.seed, "serve.requests");
    let warm = mix.sequence(&mut rng, if args.smoke { 1_000 } else { WARM_REQUESTS });
    let out = closed_loop(handle.addr(), &warm, args.threads());
    account(report, &out);
    Served {
        world,
        snapshot,
        handle,
        pinned,
        measure_s,
        store,
        mix,
        rng,
        warm,
    }
}

/// Set-up timings. The first set-up is the one a run keeps; the others
/// run at the end of the run and are stopped at once, so the median
/// samples both ends of the run rather than one stretch of it.
pub struct Setups {
    setup_s: Vec<f64>,
    measure_s: Vec<f64>,
    sites: usize,
}

/// The run's own set-up, timed; the host is probed after it.
pub fn first_setup(
    args: &Args,
    tag: &str,
    host: &mut Host,
    report: &mut Report,
) -> (Served, Setups) {
    let t = Instant::now();
    let served = setup(args, tag, report);
    host.probe();
    let setups = Setups {
        setup_s: vec![t.elapsed().as_secs_f64()],
        measure_s: vec![served.measure_s],
        sites: served.world.sites.len(),
    };
    (served, setups)
}

impl Setups {
    /// Runs the remaining set-ups, probing the host after each, and
    /// reports `setup_s` (their median) and the base measurement's
    /// `sites_per_s` (from the median of the set-ups' measurements), both in
    /// reference units.
    pub fn finish(mut self, args: &Args, tag: &str, host: &mut Host, report: &mut Report) {
        while self.setup_s.len() < SETUPS {
            let t = Instant::now();
            let served = setup(args, &format!("{tag}-again"), report);
            self.setup_s.push(t.elapsed().as_secs_f64());
            self.measure_s.push(served.measure_s);
            served.stop();
            host.probe();
        }
        report.metric("setup_s", host.to_ref(median(&self.setup_s)), "s");
        report.metric(
            "sites_per_s",
            self.sites as f64 / host.to_ref(median(&self.measure_s)),
            "sites/s",
        );
    }
}

/// Folds a load phase's accounting into the report. The workloads send
/// no more than the server can take, so any failed request fails the run.
pub fn account(report: &mut Report, out: &Outcome) {
    report.attempted += out.attempted;
    report.failed += out.failed;
    if out.failed > 0 {
        report.problem(format!(
            "{} of {} requests failed ({} mixed-epoch, {} regressed)",
            out.failed, out.attempted, out.mixed_epoch, out.regressions
        ));
    }
}

/// Accounting for a rate-ladder step, which may push the server past its
/// capacity on purpose: a refused or shed request there ends the ladder
/// (see `load.max_rps`) rather than failing the run, but a response that
/// mixes or regresses epochs is still wrong output.
fn account_ladder(report: &mut Report, out: &Outcome) {
    report.attempted += out.attempted;
    let wrong = out.mixed_epoch + out.regressions;
    report.failed += wrong;
    if wrong > 0 {
        report.problem(format!(
            "ladder: {} mixed-epoch and {} regressed responses",
            out.mixed_epoch, out.regressions
        ));
    }
}

/// Served `score` and `ci` answers must be bit-equal to a one-shot
/// `AnalysisCtx` over the dataset loaded back from the store.
fn spot_check(served: &Served, ctx: &AnalysisCtx<'_>, seed: u64, report: &mut Report) {
    let mut rng = Rng::new(seed, "serve.spot_check");
    let mut client = match crate::http::Client::connect(served.handle.addr()) {
        Ok(c) => c,
        Err(e) => return report.check(false, format!("spot check connect: {e}")),
    };
    let mut get = |target: &str| -> Option<serde_json::Value> {
        let resp = client.get(target).ok()?;
        if resp.status != 200 {
            return None;
        }
        serde_json::from_str(std::str::from_utf8(&resp.body).ok()?).ok()
    };
    for _ in 0..6 {
        let ci = (rng.next_u64() % COUNTRIES.len() as u64) as usize;
        let layer = Layer::ALL[(rng.next_u64() % 4) as usize];
        let cc = COUNTRIES[ci].code;
        let s = 1 + rng.next_u64() % 6;
        let want = ctx
            .country_dist(ci, layer)
            .map(|d| centralization_score(&d));
        let got = get(&format!(
            "/v1/score/{cc}?layer={}&replicates=0",
            layer.name()
        ))
        .and_then(|v| v["s"].as_f64());
        report.check(
            got.is_some() && got == want,
            format!(
                "score {cc}/{}: served {got:?}, one-shot {want:?}",
                layer.name()
            ),
        );
        let want = ctx.score_ci(ci, layer, DEFAULT_REPLICATES, 0.95, s);
        let got = get(&format!("/v1/ci/{cc}?layer={}&seed={s}", layer.name()));
        let same = match (&got, &want) {
            (Some(v), Some(w)) => {
                v["ci"]["point"].as_f64() == Some(w.point)
                    && v["ci"]["lo"].as_f64() == Some(w.lo)
                    && v["ci"]["hi"].as_f64() == Some(w.hi)
            }
            (Some(v), None) => matches!(v["ci"], serde_json::Value::Null),
            _ => false,
        };
        report.check(
            same,
            format!("ci {cc}/{} seed {s} differs from one-shot", layer.name()),
        );
    }
}

/// Samples the server's queue-depth and in-flight gauges until `stop`.
fn sample_gauges(handle: &ServerHandle, stop: &AtomicBool) -> (f64, f64) {
    let (mut depth, mut inflight) = (0.0f64, 0.0f64);
    while !stop.load(Ordering::Relaxed) {
        depth = depth.max(handle.metrics().queue_depth.get());
        inflight = inflight.max(handle.metrics().inflight.get());
        std::thread::sleep(Duration::from_millis(1));
    }
    (depth, inflight)
}

/// The open loop at `rate`, with the server's gauges sampled alongside.
fn open_phase(
    served: &Served,
    targets: &[String],
    rate: f64,
    secs: f64,
    threads: usize,
    seed: u64,
) -> (Outcome, (f64, f64)) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let sampler = trace::enabled().then(|| s.spawn(|| sample_gauges(&served.handle, &stop)));
        let out = open_loop(
            served.handle.addr(),
            targets,
            rate,
            Duration::from_secs_f64(secs),
            threads,
            seed,
            &AtomicBool::new(false),
        );
        stop.store(true, Ordering::Relaxed);
        let gauges = sampler
            .map(|h| h.join().expect("gauge sampler panicked"))
            .unwrap_or_default();
        (out, gauges)
    })
}

fn batch_size(args: &Args) -> usize {
    if args.smoke {
        1_000
    } else {
        BATCH_REQUESTS
    }
}

pub fn run(args: &Args, report: &mut Report) {
    let threads = args.threads();
    let mut host = Host::new(threads);
    let (mut served, setups) = first_setup(args, "serve", &mut host, report);

    let ds = ChunkStore::open(&served.store)
        .and_then(|s| s.load_dataset(&served.world))
        .expect("load the store for the one-shot checks");
    let one_shot = AnalysisCtx::new(&served.world, &ds);
    spot_check(&served, &one_shot, args.seed, report);

    // The reference-rate open loop (latency timed from each request's due
    // time) and the closed-loop capacity batches take turns, so both
    // sample the whole run.
    let round_secs = 0.6 * args.seconds / ROUNDS as f64;
    let batch = batch_size(args);
    let mut ref_out = Outcome::default();
    let mut ref_targets = Vec::new();
    let mut walls = Vec::new();
    let mut gauges = (0.0f64, 0.0f64);
    let cache_before = served.handle.cache_stats();
    for round in 0..ROUNDS {
        let targets = served
            .mix
            .sequence(&mut served.rng, (REF_RATE * round_secs * 1.5) as usize + 16);
        let seed = args.seed ^ (round as u64) << 32;
        let (out, g) = open_phase(&served, &targets, REF_RATE, round_secs, threads, seed);
        host.probe();
        account(report, &out);
        gauges = (gauges.0.max(g.0), gauges.1.max(g.1));
        ref_out.absorb(out);
        ref_targets.extend(targets);

        let started = Instant::now();
        while walls.len() <= round
            || started.elapsed().as_secs_f64() < 0.3 * args.seconds / ROUNDS as f64
        {
            let targets = served.mix.sequence(&mut served.rng, batch);
            let out = closed_loop(served.handle.addr(), &targets, threads);
            account(report, &out);
            walls.push(out.elapsed.as_secs_f64());
        }
        host.probe();
    }
    let cache_after = served.handle.cache_stats();
    // `peak_rss_mb` is read here: set-up, the one-shot checks' dataset and
    // the served load. The repeated set-ups at the end only add the
    // allocator's fragmentation, which varies from run to run.
    if let Some(mb) = crate::peak_rss_mb() {
        report.metric("peak_rss_mb", mb, "MiB");
    }
    report.check(
        ref_out.mixed_epoch == 0 && ref_out.regressions == 0,
        format!(
            "{} mixed-epoch and {} regressed responses",
            ref_out.mixed_epoch, ref_out.regressions
        ),
    );
    // `wall_s` in reference seconds (see `calib`); the open-loop latency
    // is per-layer, raw.
    let latency = ref_out.sorted_latency();
    eprintln!(
        "perfbench: reference rate: p50 {:.4} ms, p99 {:.4} ms over {} requests; batch median {:.4} s; host slowness {:.3}",
        quantile(&latency, 0.50),
        quantile(&latency, 0.99),
        latency.len(),
        median(&walls),
        host.slowness()
    );
    report.metric("wall_s", host.to_ref(median(&walls)), "s");

    spot_check(&served, &one_shot, args.seed ^ 1, report);
    drop(one_shot);
    drop(ds);

    if trace::enabled() {
        traced_metrics(
            args,
            &mut served,
            &ref_out,
            gauges,
            cache_before,
            cache_after,
            &ref_targets,
            report,
        );
    }
    served.stop();
    setups.finish(args, "serve", &mut host, report);
    report.metric("host.slowness", host.slowness(), "ratio");
}

#[allow(clippy::too_many_arguments)]
fn traced_metrics(
    args: &Args,
    served: &mut Served,
    ref_out: &Outcome,
    (depth, inflight): (f64, f64),
    before: webdep_serve::CacheStats,
    after: webdep_serve::CacheStats,
    ref_targets: &[String],
    report: &mut Report,
) {
    let threads = args.threads();
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
        "serve.snapshot_build_ms",
        stat("serve.snapshot_build").mean_us() / 1e3,
        "ms",
    );
    let lookups = (after.hits + after.misses) - (before.hits + before.misses);
    report.metric(
        "serve.cache_hit_ratio",
        (after.hits - before.hits) as f64 / lookups.max(1) as f64,
        "ratio",
    );
    report.metric(
        "serve.cache_evictions",
        (after.evictions - before.evictions) as f64,
        "count",
    );
    report.metric("serve.queue_depth_max", depth, "count");
    report.metric("serve.inflight_max", inflight, "count");
    let m = served.handle.metrics();
    report.metric(
        "serve.shed",
        (m.shed_queue.get() + m.shed_load.get() + m.deadline_aborts.get()) as f64,
        "count",
    );
    report.metric(
        "serve.publish_rejected",
        m.publish_rejected.get() as f64,
        "count",
    );
    let latency = ref_out.sorted_latency();
    report.metric("load.p50_ms", quantile(&latency, 0.50), "ms");
    report.metric("load.p99_ms", quantile(&latency, 0.99), "ms");
    report.metric("load.late_ms", quantile(&ref_out.sorted_late(), 0.99), "ms");
    report.metric("load.samples", latency.len() as f64, "count");

    // In-process replay of the same request sequence: parse → handle →
    // render, beside the TCP run, against a cache warmed the same way.
    let inproc = replay_inprocess(&served.snapshot, &served.warm, ref_targets);
    report.metric("serve.parse_us", median(&inproc.parse_us), "us");
    report.metric("serve.render_us", median(&inproc.render_us), "us");
    report.metric("serve.handle_hit_us", median(&inproc.hit_us), "us");
    report.metric("serve.handle_miss_us", median(&inproc.miss_us), "us");
    let client_p50 = quantile(&ref_out.sorted_latency(), 0.50) * 1e3;
    report.metric(
        "serve.outside_ratio",
        (client_p50 - median(&inproc.total_us)) / client_p50,
        "ratio",
    );
    report.metric("analysis.ctx_us", ctx_us(&served.snapshot), "us");
    report.metric(
        "stats.bootstrap_us",
        bootstrap_us(&served.snapshot, args.seed),
        "us",
    );

    // The rate ladder: the highest rate whose p99 stays within the limit
    // with nothing failed and no growing backlog. A step where the
    // generator itself fell behind is invalid and ends the ladder.
    let step_secs = if args.smoke { 0.5 } else { 1.5 };
    let mut max_rps = 0.0;
    for step in 1..=LADDER_STEPS {
        let rate = REF_RATE * LADDER_RATIO.powi(step);
        let targets = served
            .mix
            .sequence(&mut served.rng, (rate * step_secs * 1.5) as usize + 16);
        let (out, _) = open_phase(
            served,
            &targets,
            rate,
            step_secs,
            threads,
            args.seed ^ step as u64,
        );
        account_ladder(report, &out);
        let late = quantile(&out.sorted_late(), 0.99);
        if late > LADDER_LATE_LIMIT_MS {
            eprintln!(
                "perfbench: ladder step {rate:.0}/s invalid: generator p99 lateness {late:.2} ms"
            );
            break;
        }
        let p99 = quantile(&out.sorted_latency(), 0.99);
        let backlog = out.elapsed.as_secs_f64() > step_secs + 0.25;
        eprintln!("perfbench: ladder step {rate:.0}/s: p99 {p99:.2} ms, backlog {backlog}");
        if out.failed > 0 || p99 > LADDER_P99_LIMIT_MS || backlog {
            break;
        }
        max_rps = rate;
    }
    report.metric("load.max_rps", max_rps, "req/s");

    // Tracing overhead: closed-loop batches alternately traced and
    // span-free, each with fresh targets from the stream.
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    for k in 0..20 {
        let targets = served.mix.sequence(&mut served.rng, batch_size(args));
        trace::set_active(k % 2 == 0);
        let out = closed_loop(served.handle.addr(), &targets, threads);
        account(report, &out);
        let wall = out.elapsed.as_secs_f64();
        if k % 2 == 0 {
            traced.push(wall)
        } else {
            untraced.push(wall)
        }
    }
    trace::set_active(true);
    report.metric(
        "trace.overhead_ratio",
        median(&traced) / median(&untraced),
        "ratio",
    );
}

#[derive(Default)]
struct InProcess {
    parse_us: Vec<f64>,
    render_us: Vec<f64>,
    hit_us: Vec<f64>,
    miss_us: Vec<f64>,
    total_us: Vec<f64>,
}

/// Replays `targets` in-process through `http::parse_head` →
/// `routes::handle` → `http::render_response` after warming a fresh
/// response cache with `warm`.
fn replay_inprocess(snap: &CubeSnapshot, warm: &[String], targets: &[String]) -> InProcess {
    let cache = ResponseCache::new(ServeConfig::default().cache_capacity);
    let limits = Limits::default();
    let mut out = InProcess::default();
    for (k, target) in warm.iter().chain(targets).enumerate() {
        let timed_req = k >= warm.len();
        let head = format!("GET {target} HTTP/1.1\r\nHost: perfbench\r\n\r\n");
        let root = span("serve.inprocess", 0, k as u64);
        let t0 = Instant::now();
        let parsed = timed("serve.parse", root.id(), k as u64, || {
            parse_head(head.as_bytes(), &limits)
        });
        let t1 = Instant::now();
        let ParseOutcome::Complete { request, .. } = parsed else {
            continue;
        };
        let routed = timed("serve.handle", root.id(), k as u64, || {
            routes::handle(&request, snap, &cache, Budget::unlimited())
        });
        let t2 = Instant::now();
        let bytes = timed("serve.render", root.id(), k as u64, || {
            render_response(
                routed.status,
                &routed.body,
                Some(snap.epoch),
                request.keep_alive,
            )
        });
        let t3 = Instant::now();
        std::hint::black_box(bytes);
        if timed_req {
            let us = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e6;
            out.parse_us.push(us(t0, t1));
            if routed.cache_hit {
                out.hit_us.push(us(t1, t2));
            } else {
                out.miss_us.push(us(t1, t2));
            }
            out.render_us.push(us(t2, t3));
            out.total_us.push(us(t0, t3));
        }
    }
    out
}

/// Mean cost of the per-request `CubeSnapshot::ctx()`.
fn ctx_us(snap: &CubeSnapshot) -> f64 {
    const N: usize = 200;
    let t = Instant::now();
    for k in 0..N {
        let _g = span("analysis.ctx", 0, k as u64);
        std::hint::black_box(snap.ctx());
    }
    t.elapsed().as_secs_f64() * 1e6 / N as f64
}

/// Mean cost of `AnalysisCtx::score_ci` at the server's default replicate
/// count, which the mix's CI-bearing requests use.
fn bootstrap_us(snap: &CubeSnapshot, seed: u64) -> f64 {
    let ctx = snap.ctx();
    let mut rng = Rng::new(seed, "stats.bootstrap");
    const N: usize = 200;
    let t = Instant::now();
    for k in 0..N {
        let ci = (rng.next_u64() % COUNTRIES.len() as u64) as usize;
        let layer = Layer::ALL[k % 4];
        let _g = span("stats.bootstrap", 0, k as u64);
        std::hint::black_box(ctx.score_ci(ci, layer, DEFAULT_REPLICATES, 0.95, 1 + k as u64 % 6));
    }
    t.elapsed().as_secs_f64() * 1e6 / N as f64
}

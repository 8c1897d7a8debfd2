//! The `serve` snapshot: closed-loop load against the resident query
//! service.
//!
//! Level 1 is the *cold sweep*: every distinct query in the catalog, once,
//! against an empty cache — so its percentiles price the actual analysis
//! work (the catalog is majority CI-bearing queries, so the median cold
//! request is a bootstrap run). Higher levels replay the same catalog
//! from N closed-loop keep-alive clients against the now-warm cache, so
//! they price the serving path itself: parse → snapshot load → cache hit
//! → write. Per-level cache hit rates are reported so the cold/warm
//! asymmetry is explicit rather than hidden.
//!
//! The swap phase publishes two fresh epochs mid-storm and certifies the
//! acceptance invariants: zero failed requests, zero responses whose body
//! epoch disagrees with their `X-Webdep-Epoch` header, and per-client
//! epoch monotonicity (stale cache entries are never served after a
//! swap).
//!
//! Everything runs single-box over loopback; on the 1-core bench host the
//! closed-loop p99 at concurrency N is queueing-dominated (Little's law),
//! which is exactly why the warm levels must stay an order of magnitude
//! under the cold median for the service to be worth running resident.

use crate::scale::{scale_config, synth_observation};
use serde::Serialize;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use webdep_analysis::AnalysisCtx;
use webdep_core::centralization_score;
use webdep_pipeline::MeasuredDataset;
use webdep_serve::snapshot::CubeSnapshot;
use webdep_serve::{start, ServeConfig, ServerHandle};
use webdep_webgen::{Layer, World, COUNTRIES};

/// One concurrency level's measurements.
#[derive(Serialize)]
pub struct LevelSnapshot {
    /// Closed-loop client count.
    pub concurrency: u64,
    /// Requests issued at this level.
    pub requests: u64,
    /// Median latency in microseconds.
    pub p50_us: u64,
    /// 90th-percentile latency in microseconds.
    pub p90_us: u64,
    /// 99th-percentile latency in microseconds.
    pub p99_us: u64,
    /// Aggregate requests per second.
    pub rps: f64,
    /// Response-cache hit rate over this level's lookups.
    pub cache_hit_rate: f64,
    /// Whether this level ran against an empty cache.
    pub cold: bool,
}

/// The cold-query-vs-cached-requery pair.
#[derive(Serialize)]
pub struct ColdCachedPair {
    /// First issue of a CI-bearing query (cache miss, bootstrap runs).
    pub cold_us: u64,
    /// Immediate re-issue (cache hit).
    pub cached_us: u64,
    /// cold / cached.
    pub speedup: f64,
}

/// The epoch-swap-under-load phase.
#[derive(Serialize)]
pub struct SwapSnapshot {
    /// Closed-loop clients during the storm.
    pub concurrency: u64,
    /// Requests completed during the storm.
    pub requests: u64,
    /// Distinct epochs observed by clients.
    pub epochs_observed: Vec<u64>,
    /// Responses with non-2xx status (must be 0).
    pub failed: u64,
    /// Responses whose body epoch disagreed with the header (must be 0).
    pub mixed_epoch: u64,
    /// Epoch-regression observations across any single client (must be 0).
    pub epoch_regressions: u64,
    /// Stale cache entries purged by the two publishes.
    pub stale_purged: u64,
}

/// The full `BENCH_serve.json` payload.
#[derive(Serialize)]
pub struct ServeSnapshot {
    /// Sites in the served world.
    pub sites: u64,
    /// Distinct queries in the catalog.
    pub distinct_queries: u64,
    /// Bootstrap replicates used by CI-bearing catalog queries.
    pub replicates: u64,
    /// Server worker threads.
    pub workers: u64,
    /// Wall time to build + publish the initial snapshot.
    pub snapshot_build_ms: u64,
    /// Served-vs-direct spot checks passed.
    pub consistency_ok: bool,
    /// Per-concurrency-level measurements (level 1 is the cold sweep).
    pub levels: Vec<LevelSnapshot>,
    /// Cold vs cached single-query pair.
    pub cold_vs_cached: ColdCachedPair,
    /// Epoch swap under load.
    pub swap: SwapSnapshot,
    /// p99 at the top level over p50 at concurrency 1 (acceptance: ≤ 10).
    pub p99_top_over_p50_c1: f64,
    /// `VmHWM` at the end of the run.
    pub peak_rss_bytes: Option<u64>,
}

// ------------------------------------------------------------ http client

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect to bench server");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("set read timeout");
    stream.set_nodelay(true).expect("set nodelay");
    stream
}

/// One response read off a keep-alive connection: status, epoch header,
/// body.
fn read_response(stream: &mut TcpStream) -> Option<(u16, Option<u64>, Vec<u8>)> {
    let mut head = Vec::with_capacity(256);
    let mut byte = [0u8; 1];
    loop {
        match stream.read(&mut byte) {
            Ok(0) | Err(_) => return None,
            Ok(_) => {
                head.push(byte[0]);
                if head.ends_with(b"\r\n\r\n") {
                    break;
                }
            }
        }
    }
    let text = std::str::from_utf8(&head).ok()?;
    let mut lines = text.split("\r\n");
    let status: u16 = lines.next()?.split(' ').nth(1)?.parse().ok()?;
    let mut content_length = 0usize;
    let mut epoch = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok()?;
            } else if name.eq_ignore_ascii_case("x-webdep-epoch") {
                epoch = value.trim().parse().ok();
            }
        }
    }
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body).ok()?;
    Some((status, epoch, body))
}

fn request(stream: &mut TcpStream, target: &str) -> Option<(u16, Option<u64>, Vec<u8>)> {
    write!(stream, "GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n").ok()?;
    read_response(stream)
}

fn get_value(addr: SocketAddr, target: &str) -> serde_json::Value {
    let mut stream = connect(addr);
    let (status, _, body) = request(&mut stream, target).expect("response");
    assert_eq!(status, 200, "{target}");
    serde_json::from_str(std::str::from_utf8(&body).expect("utf8")).expect("json")
}

// -------------------------------------------------------------- the bench

fn percentile(sorted_us: &[u64], q: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let idx = ((sorted_us.len() as f64 - 1.0) * q).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)]
}

fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

/// Deterministic Fisher–Yates (SplitMix64 driver) so the cold sweep
/// interleaves heavy and light queries identically across runs.
fn shuffle<T>(items: &mut [T], mut seed: u64) {
    let mut next = move || {
        seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// The query catalog: every per-country CI-bearing panel (score, ci,
/// badge — the "heavy" majority) plus every cheap per-country and global
/// route. Defaults are spelled out so catalog keys match the router's
/// canonical cache keys.
fn catalog(replicates: usize) -> Vec<String> {
    let mut queries = Vec::new();
    for c in COUNTRIES.iter() {
        for layer in ["hosting", "dns", "ca", "tld"] {
            queries.push(format!(
                "/v1/score/{}?layer={layer}&replicates={replicates}",
                c.code
            ));
            queries.push(format!(
                "/v1/ci/{}?layer={layer}&replicates={replicates}",
                c.code
            ));
            queries.push(format!("/v1/shares/{}?layer={layer}&top=10", c.code));
            queries.push(format!("/v1/insularity/{}?layer={layer}", c.code));
        }
        queries.push(format!("/v1/badge/{}?replicates={replicates}", c.code));
    }
    for layer in ["hosting", "dns", "ca", "tld"] {
        queries.push(format!("/v1/top?layer={layer}&n=10"));
    }
    queries.push("/v1/coverage".to_string());
    queries.push("/v1/taxonomy".to_string());
    queries.push("/v1/meta".to_string());
    queries.push("/v1/countries".to_string());
    shuffle(&mut queries, 0xC0FFEE);
    queries
}

/// Builds a hollow snapshot (cube + taxonomy, no resident observations)
/// from the shared synthetic dataset — serving never needs the
/// observation vector resident, and the bench should not pay three
/// resident copies just to have three epochs to publish.
fn hollow_snapshot(epoch: u64, world: &Arc<World>, ds: &MeasuredDataset) -> Arc<CubeSnapshot> {
    Arc::new(CubeSnapshot::from_observations(
        epoch,
        Arc::clone(world),
        &ds.label,
        &ds.observations,
    ))
}

/// Runs one closed-loop level: `concurrency` keep-alive clients splitting
/// the target list round-robin (offset per client), measuring per-request
/// latency client-side. Returns sorted latencies and the wall time.
fn run_level(
    addr: SocketAddr,
    targets: &Arc<Vec<String>>,
    concurrency: usize,
    total_requests: usize,
    errors: &Arc<AtomicU64>,
) -> (Vec<u64>, Duration) {
    let per_client = total_requests.div_ceil(concurrency);
    let t0 = Instant::now();
    let clients: Vec<_> = (0..concurrency)
        .map(|c| {
            let targets = Arc::clone(targets);
            let errors = Arc::clone(errors);
            std::thread::spawn(move || {
                let mut stream = connect(addr);
                let mut lat = Vec::with_capacity(per_client);
                for k in 0..per_client {
                    let target = &targets[(c * 7919 + k) % targets.len()];
                    let q0 = Instant::now();
                    match request(&mut stream, target) {
                        Some((200, _, _)) => lat.push(q0.elapsed().as_micros() as u64),
                        Some(_) | None => {
                            errors.fetch_add(1, Ordering::Relaxed);
                            // Reconnect and continue; failures are counted.
                            stream = connect(addr);
                        }
                    }
                }
                lat
            })
        })
        .collect();
    let mut all: Vec<u64> = clients
        .into_iter()
        .flat_map(|c| c.join().expect("level client"))
        .collect();
    let wall = t0.elapsed();
    all.sort_unstable();
    (all, wall)
}

fn level_snapshot(
    concurrency: usize,
    latencies: &[u64],
    wall: Duration,
    hit_delta: u64,
    lookup_delta: u64,
    cold: bool,
) -> LevelSnapshot {
    LevelSnapshot {
        concurrency: concurrency as u64,
        requests: latencies.len() as u64,
        p50_us: percentile(latencies, 0.50),
        p90_us: percentile(latencies, 0.90),
        p99_us: percentile(latencies, 0.99),
        rps: round3(latencies.len() as f64 / wall.as_secs_f64().max(1e-9)),
        cache_hit_rate: if lookup_delta == 0 {
            0.0
        } else {
            round3(hit_delta as f64 / lookup_delta as f64)
        },
        cold,
    }
}

/// Spot-checks that served numbers are identical to a directly-built
/// [`AnalysisCtx`] over the same data.
fn consistency_check(addr: SocketAddr, world: &World, ds: &MeasuredDataset) -> bool {
    let ctx = AnalysisCtx::new(world, ds);
    let mut ok = true;
    for code in ["US", "TH", "BR"] {
        let ci = World::country_index(code).expect("country");
        let body = get_value(addr, &format!("/v1/score/{code}?replicates=0"));
        let dist = ctx.country_dist(ci, Layer::Hosting).expect("dist");
        ok &= body["s"].as_f64() == Some(centralization_score(dist));
        let served_ci = get_value(addr, &format!("/v1/ci/{code}?replicates=64&seed=9"));
        let expect = ctx.score_ci(ci, Layer::Hosting, 64, 0.95, 9).expect("ci");
        ok &= served_ci["ci"]["point"].as_f64() == Some(expect.point)
            && served_ci["ci"]["lo"].as_f64() == Some(expect.lo)
            && served_ci["ci"]["hi"].as_f64() == Some(expect.hi);
    }
    let tax = ds.failure_taxonomy();
    let body = get_value(addr, "/v1/taxonomy");
    ok &= body["total"].as_u64() == Some(tax.total) && body["clean"].as_u64() == Some(tax.clean);
    ok
}

/// The swap storm: clients hammer cheap queries while two new epochs are
/// published; every response is checked for status, header/body epoch
/// agreement, and per-client epoch monotonicity.
fn swap_phase(
    handle: &ServerHandle,
    world: &Arc<World>,
    ds: &MeasuredDataset,
    concurrency: usize,
    log: &dyn Fn(String),
) -> SwapSnapshot {
    let addr = handle.addr();
    let targets: Vec<String> = vec![
        "/v1/score/US?replicates=0".into(),
        "/v1/insularity/TH".into(),
        "/v1/shares/DE?top=3".into(),
        "/v1/meta".into(),
    ];
    let targets = Arc::new(targets);
    let stop = Arc::new(AtomicBool::new(false));
    let failed = Arc::new(AtomicU64::new(0));
    let mixed = Arc::new(AtomicU64::new(0));
    let regressions = Arc::new(AtomicU64::new(0));
    let completed = Arc::new(AtomicU64::new(0));
    let epochs_seen = Arc::new(std::sync::Mutex::new(std::collections::BTreeSet::new()));

    let clients: Vec<_> = (0..concurrency)
        .map(|c| {
            let targets = Arc::clone(&targets);
            let stop = Arc::clone(&stop);
            let failed = Arc::clone(&failed);
            let mixed = Arc::clone(&mixed);
            let regressions = Arc::clone(&regressions);
            let completed = Arc::clone(&completed);
            let epochs_seen = Arc::clone(&epochs_seen);
            std::thread::spawn(move || {
                let mut stream = connect(addr);
                let mut last_epoch = 0u64;
                let mut k = c;
                while !stop.load(Ordering::Relaxed) {
                    let target = &targets[k % targets.len()];
                    k += 1;
                    match request(&mut stream, target) {
                        Some((200, Some(header_epoch), body)) => {
                            completed.fetch_add(1, Ordering::Relaxed);
                            let parsed: serde_json::Value =
                                serde_json::from_str(std::str::from_utf8(&body).unwrap_or("null"))
                                    .unwrap_or(serde_json::Value::Null);
                            if parsed["epoch"].as_u64() != Some(header_epoch) {
                                mixed.fetch_add(1, Ordering::Relaxed);
                            }
                            if header_epoch < last_epoch {
                                regressions.fetch_add(1, Ordering::Relaxed);
                            }
                            last_epoch = header_epoch;
                            epochs_seen.lock().expect("epoch set").insert(header_epoch);
                        }
                        Some(_) | None => {
                            failed.fetch_add(1, Ordering::Relaxed);
                            stream = connect(addr);
                        }
                    }
                }
            })
        })
        .collect();

    // Two publishes, spaced so the storm observes all three epochs.
    std::thread::sleep(Duration::from_millis(150));
    let b0 = Instant::now();
    let snap2 = hollow_snapshot(2, world, ds);
    log(format!(
        "  epoch 2 built in {} ms, publishing mid-storm",
        b0.elapsed().as_millis()
    ));
    handle.publish(snap2);
    std::thread::sleep(Duration::from_millis(150));
    let snap3 = hollow_snapshot(3, world, ds);
    handle.publish(snap3);
    std::thread::sleep(Duration::from_millis(150));
    stop.store(true, Ordering::Relaxed);
    for c in clients {
        c.join().expect("swap client");
    }

    let epochs_observed: Vec<u64> = epochs_seen
        .lock()
        .expect("epoch set")
        .iter()
        .copied()
        .collect();
    SwapSnapshot {
        concurrency: concurrency as u64,
        requests: completed.load(Ordering::Relaxed),
        epochs_observed,
        failed: failed.load(Ordering::Relaxed),
        mixed_epoch: mixed.load(Ordering::Relaxed),
        epoch_regressions: regressions.load(Ordering::Relaxed),
        stale_purged: handle.cache_stats().stale_purged,
    }
}

/// Builds the world, starts the service, and runs every phase. `smoke`
/// shrinks the world and replicate counts and skips nothing structural —
/// the CI gate runs the exact same code.
pub fn serve_snapshot(smoke: bool, log: impl Fn(String)) -> ServeSnapshot {
    let (spc, replicates, levels, warm_requests): (u32, usize, &[usize], usize) = if smoke {
        (100, 50, &[1, 4], 1200)
    } else {
        (2000, 300, &[1, 4, 16, 64], 8192)
    };
    let top_level = *levels.last().expect("levels");

    log(format!("generating world ({spc} sites/country)..."));
    let world = Arc::new(World::generate(scale_config(spc)));
    let ds = MeasuredDataset {
        observations: (0..world.sites.len())
            .map(|i| synth_observation(&world, i))
            .collect(),
        toplists: world.toplists.clone(),
        global_top: world.global_top.clone(),
        label: world.label.clone(),
    };

    let t0 = Instant::now();
    let snap1 = hollow_snapshot(1, &world, &ds);
    let snapshot_build_ms = t0.elapsed().as_millis() as u64;
    let config = ServeConfig {
        workers: top_level + 8,
        ..ServeConfig::default()
    };
    let workers = config.workers;
    let handle = start(config, snap1).expect("start server");
    let addr = handle.addr();
    log(format!(
        "serving {} sites on {addr} ({} workers, snapshot built in {snapshot_build_ms} ms)",
        world.sites.len(),
        workers
    ));

    let consistency_ok = consistency_check(addr, &world, &ds);
    log(format!("consistency spot-checks: {consistency_ok}"));
    // The spot checks warmed a few entries; drop them so the cold sweep
    // is actually cold.
    let baseline = handle.cache_stats();

    let targets = Arc::new(catalog(replicates));
    let errors = Arc::new(AtomicU64::new(0));
    let mut level_rows = Vec::new();
    let mut stats_before = baseline;
    for (li, &concurrency) in levels.iter().enumerate() {
        let cold = li == 0;
        let requests = if cold { targets.len() } else { warm_requests };
        let (lat, wall) = run_level(addr, &targets, concurrency, requests, &errors);
        let stats_after = handle.cache_stats();
        let hit_delta = stats_after.hits - stats_before.hits;
        let lookup_delta =
            (stats_after.hits + stats_after.misses) - (stats_before.hits + stats_before.misses);
        stats_before = stats_after;
        let row = level_snapshot(concurrency, &lat, wall, hit_delta, lookup_delta, cold);
        log(format!(
            "  c={:>2} {} requests: p50 {} µs, p90 {} µs, p99 {} µs, {} rps, hit rate {:.3}{}",
            concurrency,
            row.requests,
            row.p50_us,
            row.p90_us,
            row.p99_us,
            row.rps,
            row.cache_hit_rate,
            if cold { " (cold sweep)" } else { "" }
        ));
        level_rows.push(row);
    }

    // Cold vs cached: a CI query outside the catalog (distinct seed).
    let pair_target = format!("/v1/ci/US?replicates={replicates}&seed=777");
    let mut stream = connect(addr);
    let q0 = Instant::now();
    let cold_resp = request(&mut stream, &pair_target).expect("cold pair");
    let cold_us = q0.elapsed().as_micros() as u64;
    let q1 = Instant::now();
    let warm_resp = request(&mut stream, &pair_target).expect("cached pair");
    let cached_us = q1.elapsed().as_micros() as u64;
    assert_eq!(cold_resp.0, 200);
    assert_eq!(warm_resp.0, 200);
    assert_eq!(cold_resp.2, warm_resp.2, "cached body must be identical");
    let pair = ColdCachedPair {
        cold_us,
        cached_us,
        speedup: round3(cold_us as f64 / cached_us.max(1) as f64),
    };
    log(format!(
        "  cold {} µs vs cached {} µs ({}x)",
        pair.cold_us, pair.cached_us, pair.speedup
    ));

    log("swap storm: publishing 2 fresh epochs under load...".to_string());
    let swap = swap_phase(&handle, &world, &ds, 8, &log);
    log(format!(
        "  {} requests across epochs {:?}: failed {}, mixed-epoch {}, regressions {}",
        swap.requests, swap.epochs_observed, swap.failed, swap.mixed_epoch, swap.epoch_regressions
    ));

    let server_stats = handle.stats();
    handle.shutdown();

    let p50_c1 = level_rows.first().expect("levels").p50_us.max(1);
    let p99_top = level_rows.last().expect("levels").p99_us;
    let snapshot = ServeSnapshot {
        sites: world.sites.len() as u64,
        distinct_queries: targets.len() as u64,
        replicates: replicates as u64,
        workers: workers as u64,
        snapshot_build_ms,
        consistency_ok,
        levels: level_rows,
        cold_vs_cached: pair,
        swap,
        p99_top_over_p50_c1: round3(p99_top as f64 / p50_c1 as f64),
        peak_rss_bytes: crate::peak_rss_bytes(),
    };

    // Acceptance invariants, enforced in smoke and full runs alike.
    assert!(
        snapshot.consistency_ok,
        "served answers diverged from AnalysisCtx"
    );
    assert_eq!(
        errors.load(Ordering::Relaxed),
        0,
        "load levels saw non-200 responses"
    );
    assert_eq!(snapshot.swap.failed, 0, "swap storm saw failed requests");
    assert_eq!(
        snapshot.swap.mixed_epoch, 0,
        "a response mixed body and header epochs"
    );
    assert_eq!(
        snapshot.swap.epoch_regressions, 0,
        "a client observed an epoch regression (stale cache after swap)"
    );
    assert_eq!(server_stats.errors, 0, "server counted request errors");
    assert!(
        snapshot.cold_vs_cached.speedup > 3.0,
        "cached re-query not measurably faster than cold ({}x)",
        snapshot.cold_vs_cached.speedup
    );
    if !smoke {
        assert!(
            snapshot.p99_top_over_p50_c1 <= 10.0,
            "p99 at c={top_level} is {}x the cold c=1 median (limit 10x)",
            snapshot.p99_top_over_p50_c1
        );
        assert!(
            snapshot.swap.epochs_observed == vec![1, 2, 3],
            "storm did not observe all three epochs: {:?}",
            snapshot.swap.epochs_observed
        );
    }
    snapshot
}

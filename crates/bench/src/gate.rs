//! The CI perf-regression gate: deterministic smoke workloads compared
//! against `BENCH_baselines.json`.
//!
//! The full bench suite measures wall-clock, which no shared CI box can
//! gate on without flaking. The gate instead re-runs a *deterministic*
//! workload — a 1-worker pipeline measurement (fixed seed, fixed
//! scheduling order, so wire-query and cache-hit counts are exact
//! integers) plus a sequential sweep against the query service (so cache
//! hit/miss and status counts are exact) — and compares those counts
//! against recorded baselines. Latency readings ride along as
//! `info` metrics: recorded for trend-reading, never gated.
//!
//! Baseline entries carry their own tolerance and direction, so a human
//! can loosen a threshold in the JSON without touching code:
//!
//! ```json
//! { "value": 1234, "tol_pct": 0, "direction": "exact" }
//! ```
//!
//! Directions: `exact` (any deviation fails), `up_bad` (fail only above
//! `value * (1 + tol_pct/100)`), `down_bad` (fail only below), `info`
//! (never fails). Metrics present in a run but absent from the file are
//! recorded and pass — the first run bootstraps the baseline. Breaches
//! append one line each to `BENCH_alerts.log` and fail the gate.
//!
//! The full (non-smoke) snapshot runs also record their headline numbers
//! here via [`record_headline`], alerting (non-fatally) when a headline
//! regresses past its stored threshold.

use serde_json::Value;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use webdep_pipeline::{measure_streamed, ChunkStore, PipelineConfig};
use webdep_serve::snapshot::CubeSnapshot;
use webdep_serve::{start, OverloadConfig, ServeConfig};
use webdep_webgen::{DeployConfig, DeployedWorld, World, WorldConfig};

/// File the gate reads and bootstraps, next to the `BENCH_*.json`
/// snapshots at the repo root.
pub const BASELINES_FILE: &str = "BENCH_baselines.json";

/// One-line alert log appended on every breach (fatal or headline).
pub const ALERTS_FILE: &str = "BENCH_alerts.log";

/// How deviations from a baseline value are judged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Any deviation is a breach (deterministic counts).
    Exact,
    /// Only growth past the tolerance is a breach (costs: queries, RSS).
    UpBad,
    /// Only shrinkage past the tolerance is a breach (rates: speedups).
    DownBad,
    /// Recorded for trend-reading, never a breach (latencies in smoke).
    Info,
}

impl Direction {
    fn as_str(self) -> &'static str {
        match self {
            Direction::Exact => "exact",
            Direction::UpBad => "up_bad",
            Direction::DownBad => "down_bad",
            Direction::Info => "info",
        }
    }

    fn parse(s: &str) -> Option<Direction> {
        match s {
            "exact" => Some(Direction::Exact),
            "up_bad" => Some(Direction::UpBad),
            "down_bad" => Some(Direction::DownBad),
            "info" => Some(Direction::Info),
            _ => None,
        }
    }
}

/// One measured metric with the threshold it should be *recorded* with.
/// When an entry already exists in the baselines file, the stored
/// tolerance and direction win, so thresholds are tunable in the JSON.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric key inside its bench entry.
    pub name: &'static str,
    /// Measured value (integers only: counts, µs, permille).
    pub value: u64,
    /// Tolerance in percent (0 with `Exact` means byte-for-byte).
    pub tol_pct: u64,
    /// Judgement direction.
    pub direction: Direction,
}

impl Metric {
    /// An `exact`, zero-tolerance count.
    pub fn exact(name: &'static str, value: u64) -> Metric {
        Metric {
            name,
            value,
            tol_pct: 0,
            direction: Direction::Exact,
        }
    }

    /// An informational reading (recorded, never gated).
    pub fn info(name: &'static str, value: u64) -> Metric {
        Metric {
            name,
            value,
            tol_pct: 0,
            direction: Direction::Info,
        }
    }
}

/// One gate breach, already formatted for humans.
#[derive(Debug)]
pub struct Breach {
    /// `bench.metric` path.
    pub what: String,
    /// Human-readable sentence (also the alert-log line payload).
    pub line: String,
}

// ----------------------------------------------------------- file handling

fn obj_get_mut<'a>(entries: &'a mut [(String, Value)], key: &str) -> Option<&'a mut Value> {
    entries.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn load_baselines(path: &Path) -> Vec<(String, Value)> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let parsed: Value = match serde_json::from_str(&text) {
        Ok(v) => v,
        Err(e) => panic!(
            "{} is not valid JSON ({e}); fix or delete it",
            path.display()
        ),
    };
    match parsed.get("benches") {
        Some(Value::Object(benches)) => benches.clone(),
        _ => Vec::new(),
    }
}

fn write_baselines(path: &Path, benches: Vec<(String, Value)>) {
    let root = Value::Object(vec![
        ("version".to_string(), Value::U64(1)),
        ("benches".to_string(), Value::Object(benches)),
    ]);
    let json = serde_json::to_string_pretty(&root).expect("baselines serialize");
    std::fs::write(path, json + "\n").unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

fn metric_entry(m: &Metric) -> Value {
    Value::Object(vec![
        ("value".to_string(), Value::U64(m.value)),
        ("tol_pct".to_string(), Value::U64(m.tol_pct)),
        (
            "direction".to_string(),
            Value::String(m.direction.as_str().to_string()),
        ),
    ])
}

fn append_alert(root: &Path, line: &str) {
    use std::io::Write;
    let ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let path = root.join(ALERTS_FILE);
    let res = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| writeln!(f, "{ts} {line}"));
    if let Err(e) = res {
        eprintln!("warning: could not append {}: {e}", path.display());
    }
}

/// Judges `measured` against a stored entry. `None` means within bounds.
fn judge(bench: &str, measured: &Metric, stored: &Value) -> Option<Breach> {
    let baseline = stored.get("value").and_then(Value::as_u64)?;
    let tol_pct = stored
        .get("tol_pct")
        .and_then(Value::as_u64)
        .unwrap_or(measured.tol_pct);
    let direction = stored
        .get("direction")
        .and_then(Value::as_str)
        .and_then(Direction::parse)
        .unwrap_or(measured.direction);
    let v = measured.value;
    // Integer threshold math: no float rounding at the boundary.
    let breached = match direction {
        Direction::Info => false,
        Direction::Exact => v != baseline,
        Direction::UpBad => v * 100 > baseline * (100 + tol_pct),
        Direction::DownBad => v * 100 < baseline * 100u64.saturating_sub(tol_pct),
    };
    if !breached {
        return None;
    }
    let what = format!("{bench}.{}", measured.name);
    let line = format!(
        "{what} measured {v} vs baseline {baseline} ({}, tol {tol_pct}%)",
        direction.as_str()
    );
    Some(Breach { what, line })
}

/// Records `metrics` for `bench`, comparing each against the stored
/// baseline first. Returns the breaches; the stored values are
/// overwritten with the measured ones only when `overwrite` is true.
fn merge_bench(
    benches: &mut Vec<(String, Value)>,
    bench: &str,
    metrics: &[Metric],
    overwrite: bool,
) -> Vec<Breach> {
    if obj_get_mut(benches, bench).is_none() {
        benches.push((bench.to_string(), Value::Object(Vec::new())));
    }
    let Some(Value::Object(entries)) = obj_get_mut(benches, bench) else {
        panic!("bench entry {bench:?} in {BASELINES_FILE} is not an object");
    };
    let mut breaches = Vec::new();
    for m in metrics {
        match obj_get_mut(entries, m.name) {
            Some(stored) => {
                breaches.extend(judge(bench, m, stored));
                if overwrite {
                    *stored = metric_entry(m);
                }
            }
            None => entries.push((m.name.to_string(), metric_entry(m))),
        }
    }
    breaches
}

// -------------------------------------------------------------- http client

/// One sequential request on a fresh connection: returns (status, body).
fn fetch(addr: SocketAddr, target: &str) -> (u16, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect to gate server");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("set read timeout");
    write!(
        stream,
        "GET {target} HTTP/1.1\r\nHost: gate\r\nConnection: close\r\n\r\n"
    )
    .expect("write request");
    let mut head = Vec::with_capacity(256);
    let mut byte = [0u8; 1];
    loop {
        match stream.read(&mut byte) {
            Ok(0) | Err(_) => panic!("connection dropped mid-head for {target}"),
            Ok(_) => {
                head.push(byte[0]);
                if head.ends_with(b"\r\n\r\n") {
                    break;
                }
            }
        }
    }
    let text = std::str::from_utf8(&head).expect("ascii head");
    let mut lines = text.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let content_length = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(name, _)| name.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse().ok())
        .unwrap_or(0);
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body).expect("body");
    (status, body)
}

fn get(addr: SocketAddr, target: &str) -> u16 {
    fetch(addr, target).0
}

fn get_body(addr: SocketAddr, target: &str) -> String {
    let (status, body) = fetch(addr, target);
    assert_eq!(status, 200, "{target}");
    String::from_utf8(body).expect("utf8 body")
}

// --------------------------------------------------------- smoke workloads

/// Gate world: small enough that a 1-worker measurement takes about a
/// second, big enough that the resolver's shared cache and every layer
/// see real traffic.
fn gate_world_config(smoke: bool) -> WorldConfig {
    WorldConfig {
        seed: 7,
        sites_per_country: if smoke { 12 } else { 60 },
        global_pool_size: if smoke { 60 } else { 300 },
        tail_scale: 0.04,
        pool_target: if smoke { 24 } else { 60 },
    }
}

/// The deterministic pipeline phase: one worker, fixed seed — query and
/// cache-hit counts must reproduce exactly. Observations stream into the
/// chunk store at `store`, which the serve and overload phases fold.
fn pipeline_phase(smoke: bool, store: &Path) -> (Arc<World>, Vec<Metric>) {
    let world = World::generate(gate_world_config(smoke));
    let dep = DeployedWorld::deploy(&world, DeployConfig::default());
    let config = PipelineConfig {
        workers: 1,
        ..PipelineConfig::default()
    };
    let t0 = Instant::now();
    let stats =
        measure_streamed(&world, &dep, &config, store, None).expect("measure into the gate store");
    let wall_us = t0.elapsed().as_micros() as u64;
    let sites = ChunkStore::open(store).expect("open the gate store").sites;
    let metrics = vec![
        Metric::exact("sites", sites as u64),
        Metric::exact("wire_queries", stats.wire_queries),
        Metric::exact("local_cache_hits", stats.local_cache_hits),
        Metric::exact("shared_cache_hits", stats.shared_cache_hits),
        Metric::exact("malformed_datagrams", stats.malformed_datagrams),
        Metric::info("measure_wall_us", wall_us),
    ];
    (Arc::new(world), metrics)
}

/// The deterministic serve phase: a sequential client sweeps a fixed
/// query list twice against a 1-worker server, so every request, cache
/// hit, and cache miss count is exact. Warm latency rides along as info.
fn serve_phase(world: &Arc<World>, store: &Path) -> Vec<Metric> {
    let snap = Arc::new(
        CubeSnapshot::from_store(1, Arc::clone(world), store).expect("fold the gate store"),
    );
    let handle = start(
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        snap,
    )
    .expect("start gate server");
    let addr = handle.addr();

    let mut targets = vec!["/healthz".to_string(), "/v1/meta".to_string()];
    for code in ["US", "DE", "FR", "GB", "TH", "JP"] {
        for layer in ["dns", "hosting", "ca"] {
            targets.push(format!("/v1/score/{code}?layer={layer}&replicates=0"));
        }
        targets.push(format!("/v1/insularity/{code}"));
    }
    targets.push("/v1/coverage".to_string());
    for pass in 0..2 {
        for target in &targets {
            let status = get(addr, target);
            assert_eq!(status, 200, "pass {pass}: {target}");
        }
    }

    // Read the counters before the /metrics scrape below perturbs them.
    let stats = handle.stats();
    let cache = handle.cache_stats();
    let warm_p50_us = handle
        .metrics()
        .route_quantile("score", 0.5)
        .map(|s| (s * 1e6) as u64)
        .unwrap_or(0);

    // The exporter itself is part of the gated surface: losing a metric
    // family or series shows up as a series-count change.
    let body = get_body(addr, "/metrics");
    let series_lines = body
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .count() as u64;

    handle.shutdown();
    vec![
        Metric::exact("requests_ok", stats.ok),
        Metric::exact("requests_error", stats.errors),
        Metric::exact("cache_hits", cache.hits),
        Metric::exact("cache_misses", cache.misses),
        Metric::exact("metrics_series", series_lines),
        Metric::info("warm_score_p50_us", warm_p50_us),
    ]
}

/// The deterministic overload phase: three tiny servers driven by a
/// sequential client, each configured so the self-healing machinery
/// fires on *every* request — shed, deadline-abort, and publish-rejection
/// counts are exact integers, not load-dependent rates.
fn overload_phase(world: &Arc<World>, store: &Path) -> Vec<Metric> {
    let build = |epoch| {
        CubeSnapshot::from_store(epoch, Arc::clone(world), store).expect("fold the gate store")
    };
    let snap = || Arc::new(build(1));

    // Always-shed: a zero latency budget makes the EWMA comparison
    // (`>=`) true from the first request, so every /v1 dispatch sheds
    // while the exempt routes keep answering.
    let handle = start(
        ServeConfig {
            workers: 1,
            overload: OverloadConfig {
                p99_budget: Duration::ZERO,
                ..OverloadConfig::default()
            },
            ..ServeConfig::default()
        },
        snap(),
    )
    .expect("start always-shed server");
    let addr = handle.addr();
    let shed_targets = [
        "/v1/meta",
        "/v1/coverage",
        "/v1/score/US?replicates=0",
        "/v1/insularity/DE",
        "/v1/taxonomy",
        "/v1/countries",
    ];
    for target in shed_targets {
        assert_eq!(get(addr, target), 503, "{target} must shed");
    }
    let mut exempt_ok = 0u64;
    for target in ["/healthz", "/metrics"] {
        if get(addr, target) == 200 {
            exempt_ok += 1;
        }
    }
    let shed_load = handle.metrics().shed_load.get();
    let shed_queue = handle.metrics().shed_queue.get();
    handle.shutdown();

    // Deadline-abort: a zero route deadline expires at the first poll of
    // any bootstrap-bearing request, so every CI query aborts exactly
    // once and the worker survives to serve the next.
    let handle = start(
        ServeConfig {
            workers: 1,
            overload: OverloadConfig {
                route_deadline: Duration::ZERO,
                ..OverloadConfig::default()
            },
            ..ServeConfig::default()
        },
        snap(),
    )
    .expect("start deadline server");
    let addr = handle.addr();
    for code in ["US", "DE", "FR", "TH"] {
        assert_eq!(
            get(addr, &format!("/v1/ci/{code}?replicates=200")),
            503,
            "ci/{code} must abort at the deadline"
        );
    }
    assert_eq!(get(addr, "/healthz"), 200, "worker wedged after aborts");
    let deadline_aborts = handle.metrics().deadline_aborts.get();
    handle.shutdown();

    // Publish validation: three distinct poisons, all rejected pre-swap
    // with the serving epoch unchanged.
    let handle = start(ServeConfig::default(), snap()).expect("start publish server");
    let mut cand = build(2);
    cand.taxonomy.clean += 1;
    assert!(
        handle.publish_validated(Arc::new(cand), None).is_err(),
        "tampered taxonomy published"
    );
    let mut cand = build(2);
    cand.trajectory.points.last_mut().expect("point").label = "poisoned".into();
    assert!(
        handle.publish_validated(Arc::new(cand), None).is_err(),
        "tampered trajectory published"
    );
    let stale = build(1);
    assert!(
        handle.publish_validated(Arc::new(stale), None).is_err(),
        "non-advancing epoch published"
    );
    assert_eq!(handle.epoch(), 1, "serving epoch moved on a rejection");
    let publish_rejected = handle.metrics().publish_rejected.get();
    handle.shutdown();

    vec![
        Metric::exact("shed_load", shed_load),
        Metric::exact("shed_queue", shed_queue),
        Metric::exact("exempt_ok", exempt_ok),
        Metric::exact("deadline_aborts", deadline_aborts),
        Metric::exact("publish_rejected", publish_rejected),
    ]
}

// ----------------------------------------------------------- entry points

fn baselines_path(root: &Path) -> PathBuf {
    root.join(BASELINES_FILE)
}

/// Runs the gate workloads and compares them against
/// `BENCH_baselines.json` under `root`. Missing entries are recorded and
/// pass (first run bootstraps); `update` re-records every gated value.
/// Returns `false` — after appending one alert line per breach — when
/// any gated metric is out of bounds.
pub fn run_gate(root: &Path, smoke: bool, update: bool, log: impl Fn(&str)) -> bool {
    let mode = if smoke { "smoke" } else { "full" };
    log(&format!("gate ({mode}): 1-worker pipeline measurement..."));
    let store = std::env::temp_dir().join(format!("webdep-gate-{}", std::process::id()));
    let (world, pipeline_metrics) = pipeline_phase(smoke, &store);
    log(&format!(
        "  {} sites, {} wire queries, {} shared-cache hits",
        pipeline_metrics[0].value, pipeline_metrics[1].value, pipeline_metrics[3].value
    ));
    log("gate: sequential sweep against the query service...");
    let serve_metrics = serve_phase(&world, &store);
    log(&format!(
        "  {} ok responses, cache {} hits / {} misses, {} exported series",
        serve_metrics[0].value,
        serve_metrics[2].value,
        serve_metrics[3].value,
        serve_metrics[4].value
    ));
    log("gate: deterministic overload machinery (shed / deadline / publish-reject)...");
    let overload_metrics = overload_phase(&world, &store);
    let _ = std::fs::remove_dir_all(&store);
    log(&format!(
        "  {} sheds, {} deadline aborts, {} publishes rejected",
        overload_metrics[0].value, overload_metrics[3].value, overload_metrics[4].value
    ));

    let path = baselines_path(root);
    let mut benches = load_baselines(&path);
    let mut breaches = Vec::new();
    for (bench, metrics) in [
        (format!("gate_pipeline_{mode}"), pipeline_metrics),
        (format!("gate_serve_{mode}"), serve_metrics),
        (format!("gate_overload_{mode}"), overload_metrics),
    ] {
        breaches.extend(merge_bench(&mut benches, &bench, &metrics, update));
    }
    write_baselines(&path, benches);

    if update && !breaches.is_empty() {
        for b in &breaches {
            log(&format!("updated past old baseline: {}", b.line));
        }
        return true;
    }
    for b in &breaches {
        log(&format!("BREACH: {}", b.line));
        append_alert(root, &format!("gate {}", b.line));
    }
    if breaches.is_empty() {
        log(&format!("gate ({mode}): all metrics within baseline"));
        true
    } else {
        log(&format!(
            "gate ({mode}): {} metric(s) out of bounds (see {})",
            breaches.len(),
            ALERTS_FILE
        ));
        false
    }
}

/// Records a full bench run's headline metrics into the baselines file,
/// alerting — without failing the run — when one regresses past its
/// stored threshold. Values are always overwritten: the snapshot files
/// those runs write are the source of truth, the baseline entry is the
/// trend anchor the *next* run is judged against.
pub fn record_headline(root: &Path, bench: &str, metrics: &[Metric]) {
    let path = baselines_path(root);
    let mut benches = load_baselines(&path);
    let breaches = merge_bench(&mut benches, bench, metrics, true);
    write_baselines(&path, benches);
    for b in breaches {
        eprintln!("headline regression (non-fatal): {}", b.line);
        append_alert(root, &format!("headline {}", b.line));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("webdep-gate-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Threshold math, bootstrap, and alerting — against a scratch
    /// baselines file, no workload involved.
    #[test]
    fn judgement_and_bootstrap() {
        let root = tmp_root("judge");
        let path = baselines_path(&root);

        // First record bootstraps and passes.
        let mut benches = load_baselines(&path);
        let first = [Metric::exact("count", 100), Metric::info("wall_us", 5000)];
        assert!(merge_bench(&mut benches, "t", &first, false).is_empty());
        write_baselines(&path, benches);

        // Same values: pass. Info deviation: pass. Exact deviation: breach.
        let mut benches = load_baselines(&path);
        assert!(merge_bench(&mut benches, "t", &first, false).is_empty());
        let drifted = [Metric::exact("count", 101), Metric::info("wall_us", 9999)];
        let breaches = merge_bench(&mut benches, "t", &drifted, false);
        assert_eq!(breaches.len(), 1);
        assert_eq!(breaches[0].what, "t.count");

        // Directions honour tolerance from the stored entry.
        let mut benches = load_baselines(&path);
        if let Some(Value::Object(entries)) = obj_get_mut(&mut benches, "t") {
            *obj_get_mut(entries, "count").unwrap() = Value::Object(vec![
                ("value".into(), Value::U64(100)),
                ("tol_pct".into(), Value::U64(10)),
                ("direction".into(), Value::String("up_bad".into())),
            ]);
        }
        let within = [Metric::exact("count", 110)];
        assert!(merge_bench(&mut benches, "t", &within, false).is_empty());
        let above = [Metric::exact("count", 111)];
        assert_eq!(merge_bench(&mut benches, "t", &above, false).len(), 1);
        let below_is_fine = [Metric::exact("count", 1)];
        assert!(merge_bench(&mut benches, "t", &below_is_fine, false).is_empty());

        let _ = std::fs::remove_dir_all(&root);
    }

    /// The non-fatal headline path writes the alert line and still
    /// overwrites the stored value.
    #[test]
    fn headline_records_and_alerts() {
        let root = tmp_root("headline");
        record_headline(
            &root,
            "pipeline",
            &[Metric {
                name: "speedup_permille",
                value: 4000,
                tol_pct: 30,
                direction: Direction::DownBad,
            }],
        );
        // A collapse to a quarter of the recorded speedup breaches.
        record_headline(
            &root,
            "pipeline",
            &[Metric {
                name: "speedup_permille",
                value: 1000,
                tol_pct: 30,
                direction: Direction::DownBad,
            }],
        );
        let alerts = std::fs::read_to_string(root.join(ALERTS_FILE)).unwrap();
        assert!(alerts.contains("headline pipeline.speedup_permille measured 1000"));
        let baselines = std::fs::read_to_string(root.join(BASELINES_FILE)).unwrap();
        assert!(baselines.contains("\"value\": 1000"));
        let _ = std::fs::remove_dir_all(&root);
    }
}

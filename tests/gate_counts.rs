//! The exact-count gate: a deterministic pipeline → serve → overload run
//! whose integer counts must equal the `exact` entries under
//! `gate_{pipeline,serve,overload}_smoke` in `BENCH_baselines.json`.
//!
//! * pipeline — one worker, fixed seed, so the wire-query and cache-hit
//!   counts of the measurement are exact integers;
//! * serve — a sequential client sweeps a fixed query list twice against
//!   a one-worker server, so request, cache and exported-series counts are
//!   exact;
//! * overload — three servers configured so shedding, deadline aborts and
//!   publish rejections fire on every request.
//!
//! This binary holds one `#[test]` on purpose: `/metrics` renders the
//! process-global registry too, so the series count only holds when the
//! same work ran first in the same process, in this order.
//!
//! The baselines file is read, never written. `info` entries (latencies)
//! are ignored; a gated count without an entry, or an `exact` entry
//! without a gated count, fails. After an intended change to a count,
//! edit its `value` in the file by hand.

use serde_json::Value;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;
use webdep::pipeline::{measure_streamed, ChunkStore, PipelineConfig};
use webdep::serve::{start, CubeSnapshot, OverloadConfig, ServeConfig};
use webdep::webgen::{DeployConfig, DeployedWorld, World, WorldConfig};

/// One gated count: (baselines bench entry, metric name, measured value).
type Count = (&'static str, &'static str, u64);

/// One request on a fresh `Connection: close` connection.
fn fetch(addr: SocketAddr, target: &str) -> (u16, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    write!(
        stream,
        "GET {target} HTTP/1.1\r\nHost: gate\r\nConnection: close\r\n\r\n"
    )
    .expect("write request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .unwrap_or_else(|| panic!("{target}: no response head"));
    let head = std::str::from_utf8(&raw[..head_end]).expect("ascii head");
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("{target}: bad status line"));
    (status, raw[head_end + 4..].to_vec())
}

fn get(addr: SocketAddr, target: &str) -> u16 {
    fetch(addr, target).0
}

/// One worker and a fixed seed: every count below is reproducible.
fn pipeline_phase(store: &Path) -> (Arc<World>, Vec<Count>) {
    let world = World::generate(WorldConfig {
        seed: 7,
        sites_per_country: 12,
        global_pool_size: 60,
        tail_scale: 0.04,
        pool_target: 24,
    });
    let dep = DeployedWorld::deploy(&world, DeployConfig::default());
    let config = PipelineConfig {
        workers: 1,
        ..PipelineConfig::default()
    };
    let stats = measure_streamed(&world, &dep, &config, store, None).expect("measure");
    let sites = ChunkStore::open(store).expect("open store").sites as u64;
    let bench = "gate_pipeline_smoke";
    let counts = vec![
        (bench, "sites", sites),
        (bench, "wire_queries", stats.wire_queries),
        (bench, "local_cache_hits", stats.local_cache_hits),
        (bench, "shared_cache_hits", stats.shared_cache_hits),
        (bench, "malformed_datagrams", stats.malformed_datagrams),
    ];
    (Arc::new(world), counts)
}

/// A sequential client sweeps one query list twice against one worker:
/// the second pass is all cache hits.
fn serve_phase(world: &Arc<World>, store: &Path) -> Vec<Count> {
    let snap = CubeSnapshot::from_store(1, Arc::clone(world), store).expect("fold");
    let handle = start(
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        Arc::new(snap),
    )
    .expect("start");
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
            assert_eq!(get(addr, target), 200, "pass {pass}: {target}");
        }
    }
    // Read the counters before the scrape below adds to them.
    let stats = handle.stats();
    let cache = handle.cache_stats();
    let (status, body) = fetch(addr, "/metrics");
    assert_eq!(status, 200, "/metrics");
    let series = String::from_utf8(body)
        .expect("utf8 metrics")
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .count() as u64;
    handle.shutdown();
    let bench = "gate_serve_smoke";
    vec![
        (bench, "requests_ok", stats.ok),
        (bench, "requests_error", stats.errors),
        (bench, "cache_hits", cache.hits),
        (bench, "cache_misses", cache.misses),
        (bench, "metrics_series", series),
    ]
}

/// Three servers, each set so its self-healing path fires on every
/// request: a zero latency budget sheds, a zero route deadline aborts,
/// and three poisoned candidates are rejected before the swap.
fn overload_phase(world: &Arc<World>, store: &Path) -> Vec<Count> {
    let build = |epoch| CubeSnapshot::from_store(epoch, Arc::clone(world), store).expect("fold");
    let serve = |overload| {
        start(
            ServeConfig {
                workers: 1,
                overload,
                ..ServeConfig::default()
            },
            Arc::new(build(1)),
        )
        .expect("start")
    };

    let handle = serve(OverloadConfig {
        p99_budget: Duration::ZERO,
        ..OverloadConfig::default()
    });
    let addr = handle.addr();
    for target in [
        "/v1/meta",
        "/v1/coverage",
        "/v1/score/US?replicates=0",
        "/v1/insularity/DE",
        "/v1/taxonomy",
        "/v1/countries",
    ] {
        assert_eq!(get(addr, target), 503, "{target} must shed");
    }
    let exempt_ok = ["/healthz", "/metrics"]
        .iter()
        .filter(|t| get(addr, t) == 200)
        .count() as u64;
    let shed_load = handle.metrics().shed_load.get();
    let shed_queue = handle.metrics().shed_queue.get();
    handle.shutdown();

    let handle = serve(OverloadConfig {
        route_deadline: Duration::ZERO,
        ..OverloadConfig::default()
    });
    let addr = handle.addr();
    for code in ["US", "DE", "FR", "TH"] {
        let target = format!("/v1/ci/{code}?replicates=200");
        assert_eq!(get(addr, &target), 503, "{target} must abort");
    }
    assert_eq!(get(addr, "/healthz"), 200, "worker wedged after aborts");
    let deadline_aborts = handle.metrics().deadline_aborts.get();
    handle.shutdown();

    let handle = start(ServeConfig::default(), Arc::new(build(1))).expect("start");
    let mut cand = build(2);
    cand.taxonomy.clean += 1;
    assert!(handle.publish_validated(Arc::new(cand), None).is_err());
    let mut cand = build(2);
    cand.trajectory.points.last_mut().expect("point").label = "poisoned".into();
    assert!(handle.publish_validated(Arc::new(cand), None).is_err());
    assert!(handle.publish_validated(Arc::new(build(1)), None).is_err());
    assert_eq!(handle.epoch(), 1, "serving epoch moved on a rejection");
    let publish_rejected = handle.metrics().publish_rejected.get();
    handle.shutdown();

    let bench = "gate_overload_smoke";
    vec![
        (bench, "shed_load", shed_load),
        (bench, "shed_queue", shed_queue),
        (bench, "exempt_ok", exempt_ok),
        (bench, "deadline_aborts", deadline_aborts),
        (bench, "publish_rejected", publish_rejected),
    ]
}

/// Every disagreement between the measured counts and the baselines.
fn mismatches(baselines: &Value, measured: &[Count]) -> Vec<String> {
    let mut out = Vec::new();
    for &(bench, name, value) in measured {
        let entry = &baselines["benches"][bench][name];
        match (entry["direction"].as_str(), entry["value"].as_u64()) {
            (Some("exact"), Some(want)) if want == value => {}
            (Some("exact"), Some(want)) => {
                out.push(format!("{bench}.{name}: measured {value}, baseline {want}"))
            }
            _ => out.push(format!("{bench}.{name}: no exact baseline entry")),
        }
    }
    for bench in [
        "gate_pipeline_smoke",
        "gate_serve_smoke",
        "gate_overload_smoke",
    ] {
        let Some(Value::Object(entries)) = baselines["benches"].get(bench) else {
            out.push(format!("{bench}: missing from the baselines"));
            continue;
        };
        for (name, entry) in entries {
            let gated = measured.iter().any(|&(b, n, _)| b == bench && n == name);
            if entry["direction"].as_str() == Some("exact") && !gated {
                out.push(format!("{bench}.{name}: exact entry that nothing measures"));
            }
        }
    }
    out
}

#[test]
fn gate_counts_match_baselines() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_baselines.json");
    let text = std::fs::read_to_string(&path).expect("read BENCH_baselines.json");
    let baselines: Value = serde_json::from_str(&text).expect("baselines are JSON");

    let store = std::env::temp_dir().join(format!("webdep-gate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let (world, mut measured) = pipeline_phase(&store);
    measured.extend(serve_phase(&world, &store));
    measured.extend(overload_phase(&world, &store));
    let _ = std::fs::remove_dir_all(&store);

    let bad = mismatches(&baselines, &measured);
    assert!(bad.is_empty(), "gate counts off:\n{}", bad.join("\n"));
}

//! End-to-end service tests over a real socket: consistency with the
//! one-shot analysis, robustness against hostile clients, epoch swaps
//! under load, and graceful shutdown.

use std::io::{Read, Write};
use std::net::Ipv4Addr;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};
use webdep_analysis::insularity::{country_insularity, dependence_shares};
use webdep_analysis::{centralization::global_top_score, coverage_model, AnalysisCtx};
use webdep_core::{centralization_score, ConcentrationBand};
use webdep_pipeline::{
    ChunkStoreWriter, FailureCause, LayerError, MeasuredDataset, SiteObservation,
};
use webdep_serve::snapshot::CubeSnapshot;
use webdep_serve::{start, Limits, ServeConfig};
use webdep_webgen::{EvolutionPlan, Layer, World, WorldConfig, COUNTRIES};

// ---------------------------------------------------------------- fixture

/// A small world with deterministic synthetic observations (the same
/// failure strides as `tests/overload.rs`: every 97th site dead, every
/// 89th TLS-refused), so every layer and the taxonomy carry real data.
fn synth_observation(world: &World, i: usize) -> SiteObservation {
    let site = &world.sites[i];
    let mut o = SiteObservation::blank(&site.domain, &site.language);
    if i.is_multiple_of(97) {
        o.hosting_error = Some(LayerError::new(FailureCause::Timeout, "A: query timed out"));
        o.dns_error = Some(LayerError::new(
            FailureCause::Timeout,
            "NS: query timed out",
        ));
        o.ca_error = Some(LayerError::new(
            FailureCause::Skipped,
            "no serving IP to scan",
        ));
        o.derive_error_summary();
        return o;
    }
    let hosting = world.universe.provider(site.hosting);
    o.hosting_ip = Some(Ipv4Addr::from(0x0A00_0000u32 | (i as u32 & 0x00FF_FFFF)));
    o.hosting_asn = Some(hosting.asn);
    o.hosting_org = Some(site.hosting);
    o.hosting_org_country = Some(hosting.country.clone());
    o.hosting_ip_country = Some(hosting.country.clone());
    o.hosting_anycast = hosting.anycast;
    let dns = world.universe.provider(site.dns);
    o.ns_names = vec![format!("ns1.{}.net", dns.slug())];
    o.dns_ip = Some(Ipv4Addr::from(0xAC10_0000u32 | (i as u32 & 0x000F_FFFF)));
    o.dns_asn = Some(dns.asn);
    o.dns_org = Some(site.dns);
    o.dns_org_country = Some(dns.country.clone());
    o.dns_ip_country = Some(dns.country.clone());
    o.dns_anycast = dns.anycast;
    if i.is_multiple_of(89) {
        o.ca_error = Some(LayerError::new(
            FailureCause::Refused,
            "TLS: handshake refused",
        ));
    } else {
        let ca = world.universe.ca(site.ca);
        o.ca_owner = Some(site.ca);
        o.ca_owner_country = Some(ca.country.clone());
    }
    o.derive_error_summary();
    o
}

fn synth_dataset(world: &World) -> MeasuredDataset {
    MeasuredDataset {
        observations: (0..world.sites.len())
            .map(|i| synth_observation(world, i))
            .collect(),
        label: world.label.clone(),
    }
}

fn fixture() -> &'static (Arc<World>, MeasuredDataset) {
    static FIXTURE: OnceLock<(Arc<World>, MeasuredDataset)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let world = Arc::new(World::generate(WorldConfig {
            seed: 42,
            sites_per_country: 40,
            global_pool_size: 120,
            tail_scale: 0.04,
            pool_target: 40,
        }));
        let ds = synth_dataset(&world);
        (world, ds)
    })
}

/// The served fixture: the synthetic observations written to a fresh
/// chunk store and folded by `from_store`, the one way serving state is
/// built. Every served ≡ one-shot assertion below runs against it.
fn fixture_snapshot(epoch: u64) -> Arc<CubeSnapshot> {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let (world, _) = fixture();
    let dir = std::env::temp_dir().join(format!(
        "webdep-serve-fixture-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    write_synth_store(world, &dir, 1024);
    let snap = CubeSnapshot::from_store(epoch, Arc::clone(world), &dir).expect("from_store");
    let _ = std::fs::remove_dir_all(&dir);
    Arc::new(snap)
}

// ------------------------------------------------------------ http client

/// One response: status, `X-Webdep-Epoch` header (if present), body bytes.
struct Resp {
    status: u16,
    epoch: Option<u64>,
    body: Vec<u8>,
}

/// Reads exactly one response off a keep-alive connection.
fn read_response(stream: &mut TcpStream) -> Option<Resp> {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    // Read byte-at-a-time until CRLFCRLF; heads are tiny.
    loop {
        match stream.read(&mut byte) {
            Ok(0) => return None,
            Ok(_) => {
                head.push(byte[0]);
                if head.ends_with(b"\r\n\r\n") {
                    break;
                }
                if head.len() > 16 * 1024 {
                    return None;
                }
            }
            Err(_) => return None,
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
    Some(Resp {
        status,
        epoch,
        body,
    })
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
}

fn get(addr: SocketAddr, target: &str) -> Resp {
    let mut stream = connect(addr);
    write!(
        stream,
        "GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .expect("write request");
    read_response(&mut stream).expect("one response")
}

fn get_json(addr: SocketAddr, target: &str) -> serde_json::Value {
    let resp = get(addr, target);
    assert_eq!(resp.status, 200, "{target}: {:?}", text(&resp.body));
    json(&resp.body)
}

fn json(body: &[u8]) -> serde_json::Value {
    serde_json::from_str(std::str::from_utf8(body).expect("utf8 body")).expect("json body")
}

fn text(body: &[u8]) -> String {
    String::from_utf8_lossy(body).into_owned()
}

fn f64_of(v: &serde_json::Value) -> f64 {
    v.as_f64().expect("number")
}

// ------------------------------------------------------------ consistency

/// Every served number must be *identical* to the one computed directly
/// against an `AnalysisCtx` over the same data — serving must not fork the
/// analysis math. JSON round-trips f64 exactly (shortest-round-trip
/// rendering), so comparisons are `==`, not approximate.
#[test]
fn served_answers_match_one_shot_analysis() {
    let (world, ds) = fixture();
    let ctx = AnalysisCtx::new(world, ds);
    let handle = start(ServeConfig::default(), fixture_snapshot(1)).expect("start");
    let addr = handle.addr();

    // Per-country score panel, all layers, several countries.
    for code in ["US", "TH", "DE", "IR"] {
        let ci = World::country_index(code).unwrap();
        for layer in Layer::ALL {
            let body = get_json(
                addr,
                &format!(
                    "/v1/score/{code}?layer={}&replicates=100&seed=7",
                    layer.name()
                ),
            );
            let dist = ctx.country_dist(ci, layer).expect("measured");
            let s = centralization_score(dist);
            assert_eq!(f64_of(&body["s"]), s, "{code}/{layer:?}");
            assert_eq!(
                body["band"].as_str().unwrap(),
                ConcentrationBand::classify(s).label()
            );
            assert_eq!(
                body["num_providers"].as_u64().unwrap(),
                dist.num_providers() as u64
            );
            assert_eq!(f64_of(&body["top_share"]), dist.top_share());
            assert_eq!(
                body["providers_for_90pct"].as_u64().unwrap(),
                dist.providers_to_cover(0.90) as u64
            );
            assert_eq!(
                f64_of(&body["coverage"]),
                ctx.country_coverage(ci, layer),
                "{code}/{layer:?} coverage"
            );
            let expect_ci = ctx.score_ci(ci, layer, 100, 0.95, 7).expect("ci");
            assert_eq!(f64_of(&body["ci"]["point"]), expect_ci.point);
            assert_eq!(f64_of(&body["ci"]["lo"]), expect_ci.lo);
            assert_eq!(f64_of(&body["ci"]["hi"]), expect_ci.hi);
        }
    }

    // Dependence shares.
    let th = World::country_index("TH").unwrap();
    let body = get_json(addr, "/v1/shares/TH?layer=dns&top=5");
    let expect = dependence_shares(&ctx, th, Layer::Dns);
    assert_eq!(
        body["total_countries"].as_u64().unwrap(),
        expect.len() as u64
    );
    let served = body["shares"].as_array().unwrap();
    assert_eq!(served.len(), expect.len().min(5));
    for (row, (cc, share)) in served.iter().zip(&expect) {
        assert_eq!(row["country"].as_str().unwrap(), cc);
        assert_eq!(f64_of(&row["share"]), *share);
    }

    // Insularity.
    let de = World::country_index("DE").unwrap();
    let body = get_json(addr, "/v1/insularity/DE?layer=ca");
    assert_eq!(
        f64_of(&body["insularity"]),
        country_insularity(&ctx, de, Layer::Ca).unwrap()
    );

    // Global-top owners.
    let body = get_json(addr, "/v1/top?layer=hosting&n=5");
    let counts = ctx.global_counts(Layer::Hosting);
    let total: u64 = counts.iter().map(|&(_, c)| c).sum();
    assert_eq!(body["total"].as_u64().unwrap(), total);
    assert_eq!(
        f64_of(&body["global_s"]),
        global_top_score(&ctx, Layer::Hosting).unwrap()
    );
    for (row, &(owner, count)) in body["owners"].as_array().unwrap().iter().zip(counts.iter()) {
        assert_eq!(
            row["name"].as_str().unwrap(),
            ctx.owner_name(Layer::Hosting, owner)
        );
        assert_eq!(row["count"].as_u64().unwrap(), count);
        assert_eq!(f64_of(&row["share"]), count as f64 / total as f64);
    }

    // Coverage model.
    let body = get_json(addr, "/v1/coverage");
    let model = coverage_model(&ctx);
    for (served, lc) in body["layers"].as_array().unwrap().iter().zip(&model.layers) {
        assert_eq!(served["layer"].as_str().unwrap(), lc.layer_name);
        assert_eq!(served["observed"].as_u64().unwrap(), lc.observed);
        assert_eq!(served["expected"].as_u64().unwrap(), lc.expected);
        assert_eq!(f64_of(&served["fraction"]), lc.fraction());
    }

    // Failure taxonomy.
    let body = get_json(addr, "/v1/taxonomy");
    let tax = ds.failure_taxonomy();
    assert_eq!(body["total"].as_u64().unwrap(), tax.total);
    assert_eq!(body["clean"].as_u64().unwrap(), tax.clean);
    for (layer, causes) in &tax.counts {
        for (cause, n) in causes {
            assert_eq!(
                body["failures"][layer.as_str()][cause.as_str()]
                    .as_u64()
                    .unwrap(),
                *n,
                "{layer}/{cause}"
            );
        }
    }

    // Badge: per-layer panel consistent with direct computation.
    let us = World::country_index("US").unwrap();
    let body = get_json(addr, "/v1/badge/US");
    for (panel, layer) in body["layers"].as_array().unwrap().iter().zip(Layer::ALL) {
        assert_eq!(panel["layer"].as_str().unwrap(), layer.name());
        let dist = ctx.country_dist(us, layer).expect("measured");
        assert_eq!(f64_of(&panel["s"]), centralization_score(dist));
        assert_eq!(
            f64_of(&panel["insularity"]),
            country_insularity(&ctx, us, layer).unwrap()
        );
    }

    handle.shutdown();
}

// ------------------------------------------------------------- robustness

#[test]
fn hostile_requests_get_precise_errors_and_service_survives() {
    let handle = start(ServeConfig::default(), fixture_snapshot(1)).expect("start");
    let addr = handle.addr();

    // Malformed request line → 400.
    let mut s = connect(addr);
    s.write_all(b"lowercase /x HTTP/1.1\r\n\r\n").unwrap();
    assert_eq!(read_response(&mut s).unwrap().status, 400);

    // Raw binary garbage → 400 (NUL fast-fail).
    let mut s = connect(addr);
    s.write_all(&[0u8, 1, 2, 3, 255, 254]).unwrap();
    assert_eq!(read_response(&mut s).unwrap().status, 400);

    // POST → 405; request with a body → 413.
    let mut s = connect(addr);
    s.write_all(b"POST /v1/meta HTTP/1.1\r\n\r\n").unwrap();
    assert_eq!(read_response(&mut s).unwrap().status, 405);
    let mut s = connect(addr);
    s.write_all(b"GET /v1/meta HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello")
        .unwrap();
    assert_eq!(read_response(&mut s).unwrap().status, 413);

    // Oversized head → 413 as soon as the cap is crossed.
    let mut s = connect(addr);
    let huge = format!(
        "GET /v1/meta HTTP/1.1\r\nX-Filler: {}\r\n\r\n",
        "a".repeat(16 * 1024)
    );
    s.write_all(huge.as_bytes()).unwrap();
    assert_eq!(read_response(&mut s).unwrap().status, 413);

    // Unknown route and unknown country → 404; bad params → 400.
    assert_eq!(get(addr, "/nope").status, 404);
    assert_eq!(get(addr, "/v1/score/ZZ").status, 404);
    assert_eq!(get(addr, "/v1/score/US?layer=bogus").status, 400);
    assert_eq!(get(addr, "/v1/score/US?replicates=abc").status, 400);
    assert_eq!(get(addr, "/v1/score/US?level=7").status, 400);

    // The service is still healthy after all of that.
    assert_eq!(get(addr, "/healthz").status, 200);
    let stats = handle.stats();
    assert!(stats.errors >= 9, "{stats:?}");
    handle.shutdown();
}

/// A peer that trickles a head slower than the read deadline gets 408 and
/// its connection closed; it cannot pin a worker.
#[test]
fn slow_header_trickle_times_out_with_408() {
    let config = ServeConfig {
        limits: Limits {
            read_deadline: Duration::from_millis(400),
            idle_timeout: Duration::from_secs(5),
            ..Limits::default()
        },
        ..ServeConfig::default()
    };
    let handle = start(config, fixture_snapshot(1)).expect("start");
    let mut s = connect(handle.addr());
    s.write_all(b"GET /healthz HT").unwrap();
    let t0 = Instant::now();
    let resp = read_response(&mut s).expect("408 response");
    assert_eq!(resp.status, 408);
    assert!(
        t0.elapsed() >= Duration::from_millis(300),
        "timed out too early: {:?}",
        t0.elapsed()
    );
    assert_eq!(handle.stats().timeouts, 1);
    handle.shutdown();
}

/// An idle keep-alive connection is closed after the idle timeout without
/// any response bytes.
#[test]
fn idle_keepalive_is_reaped_silently() {
    let config = ServeConfig {
        limits: Limits {
            idle_timeout: Duration::from_millis(400),
            ..Limits::default()
        },
        ..ServeConfig::default()
    };
    let handle = start(config, fixture_snapshot(1)).expect("start");
    let mut s = connect(handle.addr());
    // Complete one request, then go idle.
    s.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
    assert_eq!(read_response(&mut s).unwrap().status, 200);
    // The next read should see EOF (clean close), not a response.
    let mut rest = Vec::new();
    let got = s.read_to_end(&mut rest);
    assert!(got.is_ok(), "expected clean EOF, got {got:?}");
    assert!(rest.is_empty(), "unexpected bytes: {:?}", text(&rest));
    handle.shutdown();
}

/// Pipelined requests on one connection are each answered, in order.
#[test]
fn pipelined_requests_all_answered() {
    let handle = start(ServeConfig::default(), fixture_snapshot(1)).expect("start");
    let mut s = connect(handle.addr());
    s.write_all(
        b"GET /healthz HTTP/1.1\r\n\r\nGET /v1/meta HTTP/1.1\r\n\r\nGET /v1/countries HTTP/1.1\r\nConnection: close\r\n\r\n",
    )
    .unwrap();
    let r1 = read_response(&mut s).expect("r1");
    let r2 = read_response(&mut s).expect("r2");
    let r3 = read_response(&mut s).expect("r3");
    assert_eq!(r1.status, 200);
    assert!(json(&r2.body).get("sites").is_some());
    assert!(json(&r3.body).get("countries").is_some());
    handle.shutdown();
}

// -------------------------------------------------------------- the cache

#[test]
fn repeat_queries_hit_the_cache_and_normalize_keys() {
    let handle = start(ServeConfig::default(), fixture_snapshot(1)).expect("start");
    let addr = handle.addr();
    let cold = get(addr, "/v1/score/US?layer=hosting");
    assert_eq!(handle.cache_stats().hits, 0);
    // Same canonical query, different spellings: defaults made explicit,
    // lowercase country code.
    let warm1 = get(addr, "/v1/score/us");
    let warm2 = get(addr, "/v1/score/US?replicates=200&seed=42&level=0.95");
    assert_eq!(handle.cache_stats().hits, 2);
    assert_eq!(cold.body, warm1.body);
    assert_eq!(cold.body, warm2.body);
    // Different parameters are different entries.
    let _ = get(addr, "/v1/score/US?seed=43");
    assert_eq!(handle.cache_stats().hits, 2);
    // Errors are not cached.
    let misses_before = handle.cache_stats().misses;
    let _ = get(addr, "/v1/score/ZZ");
    let _ = get(addr, "/v1/score/ZZ");
    assert_eq!(handle.cache_stats().misses, misses_before);
    handle.shutdown();
}

/// Served `/v1/ci` bodies for the dns, ca and tld layers, byte for byte.
/// The report's golden digest covers only Tab 5's hosting intervals; these
/// pin the bootstrap kernel's bits on the other layers. Summing the
/// squared shares in owner-id order instead of first-seen order moves a
/// last bit of `point`, `lo` or `hi` in every one of them.
#[test]
fn ci_bodies_are_pinned_on_every_layer() {
    const PINNED: [(&str, &str); 4] = [
        (
            "/v1/ci/US?layer=dns&seed=1",
            r#"{"epoch":1,"label":"2023-05","country":"US","layer":"dns","ci":{"point":0.13573407202216062,"lo":0.09833795013850413,"hi":0.25207756232686973,"replicates":200,"level":0.95,"seed":1}}"#,
        ),
        (
            "/v1/ci/DE?layer=ca&seed=3",
            r#"{"epoch":1,"label":"2023-05","country":"DE","layer":"ca","ci":{"point":0.21564760026298493,"lo":0.15121630506245892,"hi":0.3813280736357659,"replicates":200,"level":0.95,"seed":3}}"#,
        ),
        (
            "/v1/ci/DE?layer=tld&seed=2",
            r#"{"epoch":1,"label":"2023-05","country":"DE","layer":"tld","ci":{"point":0.29499999999999993,"lo":0.23125000000000004,"hi":0.42125,"replicates":200,"level":0.95,"seed":2}}"#,
        ),
        (
            "/v1/ci/BR?layer=tld&seed=4",
            r#"{"epoch":1,"label":"2023-05","country":"BR","layer":"tld","ci":{"point":0.36749999999999994,"lo":0.27874999999999994,"hi":0.5287499999999998,"replicates":200,"level":0.95,"seed":4}}"#,
        ),
    ];
    let handle = start(ServeConfig::default(), fixture_snapshot(1)).expect("start");
    let addr = handle.addr();
    for (path, body) in PINNED {
        let resp = get(addr, path);
        assert_eq!(resp.status, 200, "{path}");
        assert_eq!(text(&resp.body), body, "{path}");
    }
    handle.shutdown();
}

/// The whole query catalog answers: every country × layer × per-country
/// panel, every badge and top list, and the global routes, each a 200
/// with a JSON body, over one keep-alive connection.
#[test]
fn catalog_sweep_answers_every_query() {
    let mut targets = Vec::new();
    for c in COUNTRIES.iter() {
        for layer in ["hosting", "dns", "ca", "tld"] {
            for route in ["score", "ci", "shares", "insularity"] {
                targets.push(format!("/v1/{route}/{}?layer={layer}&replicates=0", c.code));
            }
        }
        targets.push(format!("/v1/badge/{}?replicates=0", c.code));
    }
    for layer in ["hosting", "dns", "ca", "tld"] {
        targets.push(format!("/v1/top?layer={layer}&n=10"));
    }
    for route in ["coverage", "taxonomy", "meta", "countries"] {
        targets.push(format!("/v1/{route}"));
    }
    assert_eq!(targets.len(), 150 * 4 * 4 + 150 + 4 + 4);

    let handle = start(ServeConfig::default(), fixture_snapshot(1)).expect("start");
    let mut stream = connect(handle.addr());
    for target in &targets {
        // One write per request: a head split across segments would wait
        // out a delayed ACK on every request of the keep-alive connection.
        let head = format!("GET {target} HTTP/1.1\r\nHost: t\r\n\r\n");
        stream.write_all(head.as_bytes()).expect("write request");
        let resp = read_response(&mut stream).unwrap_or_else(|| panic!("{target}: no response"));
        assert_eq!(resp.status, 200, "{target}: {}", text(&resp.body));
        let body = std::str::from_utf8(&resp.body).expect("utf8 body");
        assert!(
            serde_json::from_str::<serde_json::Value>(body).is_ok(),
            "{target}: body is not JSON: {body}"
        );
    }
    assert_eq!(handle.stats().errors, 0);
    handle.shutdown();
}

// ------------------------------------------------------- swap under load

/// Hammer the server from several client threads while publishing new
/// epochs mid-traffic. Asserts:
/// - zero failed requests (every response 200 and parseable);
/// - no torn or mixed-epoch responses: every body is byte-identical to
///   that epoch's canonical body, and the body's `epoch` field matches the
///   `X-Webdep-Epoch` header;
/// - per-client epoch monotonicity: once a client sees epoch `n`, it never
///   sees an older epoch (no stale cache after the swap);
/// - the old snapshot is dropped once drained (observed via `Weak`).
#[test]
fn snapshot_swap_under_load_is_atomic() {
    let handle = Arc::new(
        start(
            ServeConfig {
                workers: 8,
                ..ServeConfig::default()
            },
            fixture_snapshot(1),
        )
        .expect("start"),
    );
    let addr = handle.addr();

    // CI-free targets so the load loop is fast.
    let targets = [
        "/v1/score/US?replicates=0",
        "/v1/insularity/TH",
        "/v1/shares/DE?top=3",
        "/v1/meta",
    ];

    // Canonical bodies per epoch, captured with the server quiesced on
    // that epoch before/after the storm.
    let canon =
        |addr: SocketAddr| -> Vec<Vec<u8>> { targets.iter().map(|t| get(addr, t).body).collect() };
    let canon1 = canon(addr);

    let stop = Arc::new(AtomicBool::new(false));
    let observed_failure = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..4)
        .map(|_| {
            let stop = Arc::clone(&stop);
            let observed_failure = Arc::clone(&observed_failure);
            std::thread::spawn(move || {
                let mut last_epoch = 0u64;
                let mut bodies: Vec<(u64, usize, Vec<u8>)> = Vec::new();
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let ti = i % targets.len();
                    i += 1;
                    let resp = get(addr, targets[ti]);
                    if resp.status != 200 {
                        observed_failure.store(true, Ordering::Relaxed);
                        break;
                    }
                    let header_epoch = resp.epoch.expect("epoch header");
                    let body_epoch = json(&resp.body)["epoch"].as_u64();
                    // /v1/meta and the rest all carry "epoch".
                    if body_epoch != Some(header_epoch) || header_epoch < last_epoch {
                        observed_failure.store(true, Ordering::Relaxed);
                        break;
                    }
                    last_epoch = header_epoch;
                    bodies.push((header_epoch, ti, resp.body));
                }
                bodies
            })
        })
        .collect();

    // Let traffic build, then publish two new epochs mid-storm. Keep a
    // Weak on the old snapshots to observe the drain.
    std::thread::sleep(Duration::from_millis(150));
    let snap2 = fixture_snapshot(2);
    let weak2: Weak<CubeSnapshot> = Arc::downgrade(&snap2);
    assert_eq!(handle.publish(snap2), 2);
    std::thread::sleep(Duration::from_millis(150));
    let snap3 = fixture_snapshot(3);
    assert_eq!(handle.publish(snap3), 3);
    std::thread::sleep(Duration::from_millis(150));
    stop.store(true, Ordering::Relaxed);
    let all: Vec<(u64, usize, Vec<u8>)> = clients
        .into_iter()
        .flat_map(|c| c.join().expect("client thread"))
        .collect();
    assert!(
        !observed_failure.load(Ordering::Relaxed),
        "a client saw a failure, an epoch regression, or a header/body mismatch"
    );
    assert!(all.len() > 50, "storm too small: {}", all.len());

    // Canonical bodies for epochs 2 and 3: epoch 3 is live now; epoch 2
    // bodies differ from epoch 3 only in the stamped epoch, which we can
    // derive by re-stamping. Simplest check: every observed body for a
    // given (epoch, target) is identical — no torn variants — and epochs
    // observed are exactly {1, 2, 3}.
    let canon3 = canon(addr);
    let mut seen_epochs: Vec<u64> = all.iter().map(|(e, _, _)| *e).collect();
    seen_epochs.sort_unstable();
    seen_epochs.dedup();
    assert!(
        seen_epochs.iter().all(|e| [1, 2, 3].contains(e)),
        "unexpected epochs {seen_epochs:?}"
    );
    assert!(seen_epochs.contains(&1), "no pre-swap traffic observed");
    assert!(seen_epochs.contains(&3), "no post-swap traffic observed");
    use std::collections::HashMap;
    let mut variants: HashMap<(u64, usize), &Vec<u8>> = HashMap::new();
    for (epoch, ti, body) in &all {
        match variants.get(&(*epoch, *ti)) {
            Some(first) => assert_eq!(
                *first, body,
                "torn response: two different bodies for epoch {epoch} target {ti}"
            ),
            None => {
                variants.insert((*epoch, *ti), body);
            }
        }
    }
    // Epoch-1 and epoch-3 observations must equal the quiesced canon.
    for (ti, expected) in canon1.iter().enumerate() {
        if let Some(body) = variants.get(&(1, ti)) {
            assert_eq!(*body, expected, "epoch-1 body for target {ti}");
        }
    }
    for (ti, expected) in canon3.iter().enumerate() {
        if let Some(body) = variants.get(&(3, ti)) {
            assert_eq!(*body, expected, "epoch-3 body for target {ti}");
        }
    }

    // After the swap and drain, epoch 2's snapshot must be dropped: the
    // cell holds epoch 3, the cache holds only bodies (no snapshot refs),
    // and idle workers release their cached Arc within an idle tick.
    let t0 = Instant::now();
    while weak2.upgrade().is_some() {
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "old snapshot still alive after drain"
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    // Stale-epoch cache entries are purged on publish.
    assert!(handle.cache_stats().stale_purged > 0);

    Arc::try_unwrap(handle)
        .ok()
        .expect("sole handle ref")
        .shutdown();
}

// ------------------------------------------------------- delta publishing

/// Writes a full synthetic store for a world (the comparator for delta
/// paths; synthetic observations are a pure function of the site record,
/// so unchanged sites produce identical rows across epochs).
fn write_synth_store(world: &World, dir: &std::path::Path, chunk_sites: usize) {
    let _ = std::fs::remove_dir_all(dir);
    let mut writer = ChunkStoreWriter::create(dir, &world.label, world.sites.len(), chunk_sites)
        .expect("create");
    for i in 0..world.sites.len() {
        writer
            .commit(i, &synth_observation(world, i))
            .expect("commit");
    }
    writer.finish().expect("finish");
}

/// `from_delta` must be indistinguishable from `from_store` over the full
/// evolved store: identical taxonomy, identical served bodies — while
/// extending the trajectory instead of restarting it.
#[test]
fn delta_snapshot_equals_from_store() {
    let (world, _) = fixture();
    let tmp = std::env::temp_dir().join(format!("webdep-serve-delta-{}", std::process::id()));
    let store1 = tmp.join("e1");
    write_synth_store(world, &store1, 256);
    let snap1 =
        Arc::new(CubeSnapshot::from_store(1, Arc::clone(world), &store1).expect("from_store e1"));
    assert_eq!(snap1.trajectory.points.len(), 1);

    let (evolved, delta) = EvolutionPlan::continuous(1, 0.10, 5).evolve_epoch(world, 0);
    delta.certify_unchanged(world, &evolved).unwrap();
    let evolved = Arc::new(evolved);
    let store2 = tmp.join("e2");
    write_synth_store(&evolved, &store2, 256);

    let via_delta = Arc::new(
        CubeSnapshot::from_delta(2, Arc::clone(&evolved), &snap1, &delta, &store2)
            .expect("from_delta"),
    );
    let via_store = Arc::new(
        CubeSnapshot::from_store(2, Arc::clone(&evolved), &store2).expect("from_store e2"),
    );

    // The incrementally adjusted taxonomy is structurally identical to the
    // fresh fold (zeroed cells removed, same clean count).
    assert_eq!(via_delta.taxonomy, via_store.taxonomy);

    // The trajectory extends epoch 1's rather than restarting.
    assert_eq!(via_delta.trajectory.points.len(), 2);
    assert_eq!(via_delta.trajectory.points[0], snap1.trajectory.points[0]);
    assert_eq!(via_delta.trajectory.points[1].label, evolved.label);
    assert_eq!(via_store.trajectory.points.len(), 1);

    // Every served body is byte-identical (trajectory excluded: carrying
    // history is exactly the delta path's difference).
    let a = start(ServeConfig::default(), via_delta).expect("start delta");
    let b = start(ServeConfig::default(), via_store).expect("start store");
    for target in [
        "/v1/meta",
        "/v1/score/US?replicates=50&seed=3",
        "/v1/score/TH?layer=tld&replicates=0",
        "/v1/shares/DE?layer=dns",
        "/v1/insularity/FR?layer=hosting",
        "/v1/top?layer=ca&n=8",
        "/v1/coverage",
        "/v1/taxonomy",
        "/v1/badge/JP",
    ] {
        let ra = get(a.addr(), target);
        let rb = get(b.addr(), target);
        assert_eq!(ra.status, 200, "{target}");
        assert_eq!(ra.body, rb.body, "{target}");
    }

    // The trajectory route serves the carried history, epoch-stamped.
    let body = get_json(a.addr(), "/v1/trajectory");
    assert_eq!(body["epoch"].as_u64(), Some(2));
    assert_eq!(body["epochs"].as_u64(), Some(2));
    let points = body["points"].as_array().unwrap();
    assert_eq!(points.len(), 2);
    assert_eq!(points[0]["epoch"].as_u64(), Some(0));
    assert_eq!(points[1]["label"].as_str(), Some(evolved.label.as_str()));

    a.shutdown();
    b.shutdown();
    let _ = std::fs::remove_dir_all(&tmp);
}

/// `from_delta` refuses a mismatched previous snapshot or world.
#[test]
fn delta_snapshot_guards_lineage() {
    let (world, _) = fixture();
    let tmp = std::env::temp_dir().join(format!("webdep-serve-deltaguard-{}", std::process::id()));
    let store1 = tmp.join("e1");
    write_synth_store(world, &store1, 256);
    let snap1 =
        Arc::new(CubeSnapshot::from_store(1, Arc::clone(world), &store1).expect("from_store"));
    let (evolved, delta) = EvolutionPlan::continuous(1, 0.05, 9).evolve_epoch(world, 0);
    let evolved = Arc::new(evolved);
    // The target world must be the evolved one, not the base.
    assert!(
        CubeSnapshot::from_delta(2, Arc::clone(world), &snap1, &delta, &store1).is_err(),
        "wrong target world accepted"
    );
    // The previous snapshot must be the delta's source epoch.
    let store2 = tmp.join("e2");
    write_synth_store(&evolved, &store2, 256);
    let snap2 = Arc::new(
        CubeSnapshot::from_store(2, Arc::clone(&evolved), &store2).expect("from_store e2"),
    );
    assert!(
        CubeSnapshot::from_delta(3, Arc::clone(&evolved), &snap2, &delta, &store2).is_err(),
        "wrong source snapshot accepted"
    );
    let _ = std::fs::remove_dir_all(&tmp);
}

/// The swap-under-load storm, with the mid-traffic epochs built by
/// `from_delta` off the live chain: zero failed requests, zero mixed-epoch
/// responses, no torn bodies — delta-published snapshots behave exactly
/// like full rebuilds under concurrency.
#[test]
fn delta_published_epochs_swap_atomically_under_load() {
    let (world, _) = fixture();
    let tmp = std::env::temp_dir().join(format!("webdep-serve-deltastorm-{}", std::process::id()));
    write_synth_store(world, &tmp.join("e1"), 512);
    let snap1 =
        Arc::new(CubeSnapshot::from_store(1, Arc::clone(world), &tmp.join("e1")).expect("e1"));

    // Two delta epochs chained off one base world.
    let plan = EvolutionPlan::continuous(2, 0.10, 5);
    let (w2, d1) = plan.evolve_epoch(world, 0);
    let (w3, d2) = plan.evolve_epoch(&w2, 1);
    let (w2, w3) = (Arc::new(w2), Arc::new(w3));
    write_synth_store(&w2, &tmp.join("e2"), 512);
    write_synth_store(&w3, &tmp.join("e3"), 512);
    let snap2 = Arc::new(
        CubeSnapshot::from_delta(2, Arc::clone(&w2), &snap1, &d1, &tmp.join("e2")).expect("e2"),
    );
    let snap3 = Arc::new(
        CubeSnapshot::from_delta(3, Arc::clone(&w3), &snap2, &d2, &tmp.join("e3")).expect("e3"),
    );
    assert_eq!(snap3.trajectory.points.len(), 3);

    let handle = Arc::new(
        start(
            ServeConfig {
                workers: 8,
                ..ServeConfig::default()
            },
            snap1,
        )
        .expect("start"),
    );
    let addr = handle.addr();
    let targets = [
        "/v1/score/US?replicates=0",
        "/v1/insularity/TH",
        "/v1/trajectory",
        "/v1/meta",
    ];

    let stop = Arc::new(AtomicBool::new(false));
    let failure: Arc<std::sync::Mutex<Option<String>>> = Arc::new(std::sync::Mutex::new(None));
    let clients: Vec<_> = (0..4)
        .map(|_| {
            let stop = Arc::clone(&stop);
            let failure = Arc::clone(&failure);
            std::thread::spawn(move || {
                let mut last_epoch = 0u64;
                let mut bodies: Vec<(u64, usize, Vec<u8>)> = Vec::new();
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let ti = i % targets.len();
                    i += 1;
                    let resp = get(addr, targets[ti]);
                    if resp.status != 200 {
                        *failure.lock().unwrap() =
                            Some(format!("{}: status {}", targets[ti], resp.status));
                        break;
                    }
                    let header_epoch = resp.epoch.expect("epoch header");
                    let body_epoch = json(&resp.body)["epoch"].as_u64();
                    if body_epoch != Some(header_epoch) {
                        *failure.lock().unwrap() = Some(format!(
                            "{}: mixed epochs (header {header_epoch}, body {body_epoch:?})",
                            targets[ti]
                        ));
                        break;
                    }
                    if header_epoch < last_epoch {
                        *failure.lock().unwrap() = Some(format!(
                            "{}: epoch regressed {last_epoch} -> {header_epoch}",
                            targets[ti]
                        ));
                        break;
                    }
                    last_epoch = header_epoch;
                    bodies.push((header_epoch, ti, resp.body));
                }
                bodies
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(120));
    assert_eq!(handle.publish(snap2), 2);
    std::thread::sleep(Duration::from_millis(120));
    assert_eq!(handle.publish(snap3), 3);
    std::thread::sleep(Duration::from_millis(120));
    stop.store(true, Ordering::Relaxed);
    let all: Vec<(u64, usize, Vec<u8>)> = clients
        .into_iter()
        .flat_map(|c| c.join().expect("client thread"))
        .collect();
    assert_eq!(*failure.lock().unwrap(), None);
    assert!(all.len() > 50, "storm too small: {}", all.len());

    // No torn variants: one body per (epoch, target); and the trajectory
    // length matches the epoch it was served under.
    use std::collections::HashMap;
    let mut variants: HashMap<(u64, usize), &Vec<u8>> = HashMap::new();
    for (epoch, ti, body) in &all {
        match variants.get(&(*epoch, *ti)) {
            Some(first) => assert_eq!(*first, body, "torn response: epoch {epoch} target {ti}"),
            None => {
                variants.insert((*epoch, *ti), body);
            }
        }
        if *ti == 2 {
            assert_eq!(
                json(body)["epochs"].as_u64(),
                Some(*epoch),
                "trajectory length must match its serving epoch"
            );
        }
    }
    let mut seen: Vec<u64> = all.iter().map(|(e, _, _)| *e).collect();
    seen.sort_unstable();
    seen.dedup();
    assert!(
        seen.contains(&1) && seen.contains(&3),
        "epochs seen: {seen:?}"
    );

    Arc::try_unwrap(handle)
        .ok()
        .expect("sole handle ref")
        .shutdown();
    let _ = std::fs::remove_dir_all(&tmp);
}

// --------------------------------------------------------------- shutdown

/// Graceful shutdown drains: a request in flight is answered, the idle
/// keep-alive connection closes, and `shutdown()` returns promptly.
#[test]
fn shutdown_drains_and_joins_promptly() {
    let config = ServeConfig {
        limits: Limits {
            idle_timeout: Duration::from_secs(30),
            ..Limits::default()
        },
        workers: 2,
        ..ServeConfig::default()
    };
    let handle = start(config, fixture_snapshot(1)).expect("start");
    let addr = handle.addr();

    // Hold an idle keep-alive connection (worker 1 pinned).
    let mut idle = connect(addr);
    idle.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
    assert_eq!(read_response(&mut idle).unwrap().status, 200);

    // Fire a request exactly as shutdown begins on another thread.
    let t0 = Instant::now();
    let racer = std::thread::spawn(move || -> Option<Resp> {
        let mut stream = TcpStream::connect(addr).ok()?;
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .ok()?;
        write!(
            stream,
            "GET /v1/meta HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        )
        .ok()?;
        read_response(&mut stream)
    });
    handle.request_shutdown();
    // The racing request either completed (200) or was refused cleanly
    // (the acceptor was already gone); it must not hang or be torn.
    if let Some(resp) = racer.join().expect("racer") {
        assert_eq!(resp.status, 200);
        assert!(json(&resp.body).get("sites").is_some());
    }
    handle.shutdown();
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "shutdown took {:?}",
        t0.elapsed()
    );
    // The held idle connection is closed (EOF), not left dangling.
    let mut rest = Vec::new();
    let _ = idle.read_to_end(&mut rest);
    assert!(rest.is_empty());
}

//! End-to-end tests for the `GET /metrics` exporter over a real socket:
//! the body is well-formed Prometheus text, counters are monotone across
//! scrapes, and a snapshot publish under live load is reflected in the
//! epoch gauge and the cache purge counters.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::Ipv4Addr;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;
use webdep_pipeline::{ChunkStoreWriter, FailureCause, LayerError, SiteObservation};
use webdep_serve::snapshot::CubeSnapshot;
use webdep_serve::{start, ServeConfig};
use webdep_webgen::{World, WorldConfig};

// ---------------------------------------------------------------- fixture

fn synth_observation(world: &World, i: usize) -> SiteObservation {
    let site = &world.sites[i];
    let mut o = SiteObservation::blank(&site.domain, &site.language);
    if i.is_multiple_of(97) {
        o.hosting_error = Some(LayerError::new(FailureCause::Timeout, "A: query timed out"));
        o.derive_error_summary();
        return o;
    }
    let hosting = world.universe.provider(site.hosting);
    o.hosting_ip = Some(Ipv4Addr::from(0x0A00_0000u32 | (i as u32 & 0x00FF_FFFF)));
    o.hosting_asn = Some(hosting.asn);
    o.hosting_org = Some(site.hosting);
    o.hosting_org_country = Some(hosting.country.clone());
    o.hosting_ip_country = Some(hosting.country.clone());
    let dns = world.universe.provider(site.dns);
    o.ns_names = vec![format!("ns1.{}.net", dns.slug())];
    o.dns_asn = Some(dns.asn);
    o.dns_org = Some(site.dns);
    o.dns_org_country = Some(dns.country.clone());
    o.dns_ip_country = Some(dns.country.clone());
    let ca = world.universe.ca(site.ca);
    o.ca_owner = Some(site.ca);
    o.ca_owner_country = Some(ca.country.clone());
    o.derive_error_summary();
    o
}

fn fixture() -> &'static Arc<World> {
    static FIXTURE: OnceLock<Arc<World>> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        Arc::new(World::generate(WorldConfig {
            seed: 7,
            sites_per_country: 12,
            global_pool_size: 60,
            tail_scale: 0.04,
            pool_target: 24,
        }))
    })
}

/// The served fixture: the synthetic observations written to a fresh
/// chunk store and folded by `from_store`.
fn fixture_snapshot(epoch: u64) -> Arc<CubeSnapshot> {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let world = fixture();
    let dir = std::env::temp_dir().join(format!(
        "webdep-metrics-fixture-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    write_synth_store(world, &dir, 1024);
    let snap = CubeSnapshot::from_store(epoch, Arc::clone(world), &dir).expect("from_store");
    let _ = std::fs::remove_dir_all(&dir);
    Arc::new(snap)
}

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

// ------------------------------------------------------------ http client

struct Resp {
    status: u16,
    content_type: String,
    body: Vec<u8>,
}

fn get(addr: SocketAddr, target: &str) -> Resp {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(
        stream,
        "GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .expect("write request");
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match stream.read(&mut byte) {
            Ok(0) => panic!("eof before head"),
            Ok(_) => {
                head.push(byte[0]);
                if head.ends_with(b"\r\n\r\n") {
                    break;
                }
                assert!(head.len() <= 16 * 1024, "oversized head");
            }
            Err(e) => panic!("read head: {e}"),
        }
    }
    let text = std::str::from_utf8(&head).expect("ascii head");
    let mut lines = text.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let mut content_length = 0usize;
    let mut content_type = String::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().expect("content-length");
            } else if name.eq_ignore_ascii_case("content-type") {
                content_type = value.trim().to_string();
            }
        }
    }
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body).expect("body");
    Resp {
        status,
        content_type,
        body,
    }
}

// --------------------------------------------------- prometheus-text model

/// A scraped exposition: every sample keyed by its full series name
/// (including the label set), plus the `# TYPE` declared for each family.
struct Scrape {
    samples: HashMap<String, f64>,
    types: HashMap<String, String>,
}

/// Parses and *structurally validates* one exposition body: every
/// non-comment line is `name{labels} value`, every sample's family has a
/// preceding `# TYPE`, and histogram `_bucket` series are cumulative in
/// `le` with `_count` equal to the `+Inf` bucket.
fn scrape(addr: SocketAddr) -> Scrape {
    let resp = get(addr, "/metrics");
    assert_eq!(resp.status, 200);
    assert!(
        resp.content_type.starts_with("text/plain; version=0.0.4"),
        "wrong content type: {}",
        resp.content_type
    );
    let body = String::from_utf8(resp.body).expect("utf8 exposition");
    assert!(body.ends_with('\n'), "exposition must end with a newline");

    let mut samples = HashMap::new();
    let mut types = HashMap::new();
    for line in body.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (family, kind) = rest.split_once(' ').expect("TYPE line");
            assert!(
                ["counter", "gauge", "histogram"].contains(&kind),
                "unknown TYPE {kind}"
            );
            types.insert(family.to_string(), kind.to_string());
            continue;
        }
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("sample line");
        let value: f64 = value.parse().unwrap_or_else(|_| {
            panic!("unparseable value in line {line:?}");
        });
        let family = series.split('{').next().unwrap();
        let family = family
            .strip_suffix("_bucket")
            .or_else(|| family.strip_suffix("_sum"))
            .or_else(|| family.strip_suffix("_count"))
            .filter(|f| types.contains_key(*f))
            .unwrap_or(family);
        assert!(
            types.contains_key(family),
            "sample {series} has no preceding # TYPE"
        );
        let prior = samples.insert(series.to_string(), value);
        assert!(prior.is_none(), "duplicate series {series}");
    }

    // Histogram structure: buckets cumulative, +Inf equals _count.
    for (family, kind) in &types {
        if kind != "histogram" {
            continue;
        }
        let by_series: Vec<(&str, f64)> = samples
            .iter()
            .filter(|(k, _)| k.starts_with(&format!("{family}_bucket")))
            .map(|(k, v)| (k.as_str(), *v))
            .collect();
        // Group buckets by their non-`le` label set (route label here).
        let mut groups: HashMap<String, Vec<(f64, f64)>> = HashMap::new();
        for (series, value) in by_series {
            let labels = series
                .strip_prefix(&format!("{family}_bucket{{"))
                .and_then(|s| s.strip_suffix('}'))
                .expect("bucket labels");
            let mut le = f64::INFINITY;
            let mut rest = Vec::new();
            for part in labels.split(',') {
                if let Some(v) = part.strip_prefix("le=\"") {
                    let v = v.trim_end_matches('"');
                    le = if v == "+Inf" {
                        f64::INFINITY
                    } else {
                        v.parse().expect("le bound")
                    };
                } else {
                    rest.push(part);
                }
            }
            groups.entry(rest.join(",")).or_default().push((le, value));
        }
        for (labels, mut buckets) in groups {
            buckets.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            for pair in buckets.windows(2) {
                assert!(
                    pair[0].1 <= pair[1].1,
                    "{family}{{{labels}}}: buckets not cumulative"
                );
            }
            let inf = buckets.last().expect("at least +Inf").1;
            let count_series = if labels.is_empty() {
                format!("{family}_count")
            } else {
                format!("{family}_count{{{labels}}}")
            };
            assert_eq!(
                samples.get(&count_series).copied(),
                Some(inf),
                "{family}: _count != +Inf bucket"
            );
        }
    }
    Scrape { samples, types }
}

impl Scrape {
    fn get(&self, series: &str) -> f64 {
        *self
            .samples
            .get(series)
            .unwrap_or_else(|| panic!("missing series {series}"))
    }
}

// -------------------------------------------------------------------- tests

#[test]
fn metrics_body_is_well_formed_and_counters_are_monotone() {
    let handle = start(ServeConfig::default(), fixture_snapshot(1)).expect("start");
    let addr = handle.addr();

    // Traffic across several routes, including a 404.
    for _ in 0..3 {
        assert_eq!(get(addr, "/healthz").status, 200);
    }
    assert_eq!(get(addr, "/v1/meta").status, 200);
    assert_eq!(get(addr, "/v1/score/US?layer=dns").status, 200);
    assert_eq!(get(addr, "/no/such/route").status, 404);

    let first = scrape(addr);
    assert_eq!(
        first
            .types
            .get("webdep_serve_requests_total")
            .map(String::as_str),
        Some("counter")
    );
    assert_eq!(
        first
            .types
            .get("webdep_serve_request_seconds")
            .map(String::as_str),
        Some("histogram")
    );
    assert_eq!(
        first.get("webdep_serve_requests_total{route=\"healthz\"}"),
        3.0
    );
    assert_eq!(
        first.get("webdep_serve_requests_total{route=\"meta\"}"),
        1.0
    );
    assert_eq!(
        first.get("webdep_serve_requests_total{route=\"score\"}"),
        1.0
    );
    assert_eq!(
        first.get("webdep_serve_requests_total{route=\"other\"}"),
        1.0
    );
    // A scrape is counted after rendering its own body, so the first
    // exposition does not include itself.
    assert_eq!(
        first.get("webdep_serve_requests_total{route=\"metrics\"}"),
        0.0
    );
    assert_eq!(first.get("webdep_serve_snapshot_epoch"), 1.0);
    assert_eq!(first.get("webdep_serve_snapshot_publishes_total"), 1.0);
    assert_eq!(first.get("webdep_serve_responses_error_total"), 1.0);
    // Latency histograms carry the traffic.
    assert_eq!(
        first.get("webdep_serve_request_seconds_count{route=\"healthz\"}"),
        3.0
    );

    // More traffic, then re-scrape: every counter is monotone and the
    // touched ones strictly increased.
    assert_eq!(get(addr, "/healthz").status, 200);
    assert_eq!(get(addr, "/v1/score/US?layer=dns").status, 200);
    let second = scrape(addr);
    for (series, value) in &first.samples {
        let family = series.split('{').next().unwrap();
        let is_counter = first.types.get(family).map(String::as_str) == Some("counter")
            || family.ends_with("_bucket")
            || family.ends_with("_count")
            || family.ends_with("_sum");
        if is_counter {
            assert!(
                second.get(series) >= *value,
                "counter {series} went backwards: {} -> {}",
                value,
                second.get(series)
            );
        }
    }
    assert_eq!(
        second.get("webdep_serve_requests_total{route=\"healthz\"}"),
        4.0
    );
    assert_eq!(
        second.get("webdep_serve_requests_total{route=\"score\"}"),
        2.0
    );
    // The second identical score query hit the response cache.
    assert!(second.get("webdep_serve_cache_hits_total") >= 1.0);

    handle.shutdown();
}

#[test]
fn publish_under_load_moves_epoch_and_purges_cache() {
    let handle = start(ServeConfig::default(), fixture_snapshot(1)).expect("start");
    let addr = handle.addr();

    // Warm the cache against epoch 1.
    for code in ["US", "DE", "TH", "FR", "GB"] {
        assert_eq!(
            get(addr, &format!("/v1/score/{code}?layer=dns")).status,
            200
        );
    }
    let before = scrape(addr);
    assert!(before.get("webdep_serve_cache_entries") >= 5.0);
    assert_eq!(before.get("webdep_serve_cache_stale_purged_total"), 0.0);

    // Publish a new snapshot while clients are hammering the server.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let loaders: Vec<_> = (0..4)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let r = get(addr, "/v1/score/US?layer=dns");
                    assert_eq!(r.status, 200);
                }
            })
        })
        .collect();
    let epoch = handle.publish(fixture_snapshot(2));
    assert_eq!(epoch, 2);
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for t in loaders {
        t.join().expect("loader");
    }

    let after = scrape(addr);
    assert_eq!(after.get("webdep_serve_snapshot_epoch"), 2.0);
    assert_eq!(after.get("webdep_serve_snapshot_publishes_total"), 2.0);
    assert!(
        after.get("webdep_serve_cache_stale_purged_total") >= 5.0,
        "epoch-1 entries must be purged on publish: {}",
        after.get("webdep_serve_cache_stale_purged_total")
    );
    // stats() and /metrics are the same counters.
    let stats = handle.stats();
    let final_scrape = scrape(addr);
    assert!(final_scrape.get("webdep_serve_responses_ok_total") >= stats.ok as f64);

    handle.shutdown();
}

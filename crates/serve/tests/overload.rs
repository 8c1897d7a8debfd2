//! Self-healing behavior over a real socket: slow-loris floods versus the
//! parking worker pool, deterministic load shedding, admission-queue hard
//! caps, per-route deadlines, pre-publish snapshot validation with
//! rollback, bursts past capacity, and a store corrupted and healed while
//! a server is up.

use std::io::{Read, Write};
use std::net::Ipv4Addr;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;
use webdep_pipeline::{ChunkStore, ChunkStoreWriter, FailureCause, LayerError, SiteObservation};
use webdep_serve::snapshot::CubeSnapshot;
use webdep_serve::{start, OverloadConfig, ServeConfig};
use webdep_webgen::{EvolutionPlan, World, WorldConfig};

// ---------------------------------------------------------------- fixture

/// Same synthetic observation shape as `tests/service.rs`: deterministic
/// failure strides so the taxonomy and every layer carry real data.
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

fn fixture() -> &'static Arc<World> {
    static FIXTURE: OnceLock<Arc<World>> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        Arc::new(World::generate(WorldConfig {
            seed: 42,
            sites_per_country: 40,
            global_pool_size: 120,
            tail_scale: 0.04,
            pool_target: 40,
        }))
    })
}

/// The served fixture: the synthetic observations written to a fresh
/// chunk store and folded by `from_store`.
fn fixture_snapshot(epoch: u64) -> Arc<CubeSnapshot> {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let world = fixture();
    let dir = std::env::temp_dir().join(format!(
        "webdep-overload-fixture-{}-{}",
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

/// One response with the headers the overload tests care about.
struct Resp {
    status: u16,
    epoch: Option<u64>,
    retry_after: Option<u64>,
    body: Vec<u8>,
}

fn read_response(stream: &mut TcpStream) -> Option<Resp> {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
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
    let mut retry_after = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok()?;
            } else if name.eq_ignore_ascii_case("x-webdep-epoch") {
                epoch = value.trim().parse().ok();
            } else if name.eq_ignore_ascii_case("retry-after") {
                retry_after = value.trim().parse().ok();
            }
        }
    }
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body).ok()?;
    Some(Resp {
        status,
        epoch,
        retry_after,
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

/// Opens a slow-loris connection: a partial request head, then silence.
fn slow_loris(addr: SocketAddr) -> TcpStream {
    let mut stream = connect(addr);
    stream.write_all(b"GET /v1/meta HTT").expect("partial head");
    stream
}

// ------------------------------------------------------------------ tests

/// The satellite scenario: a 2-worker server saturated by slow-trickle
/// connections must keep answering fast queries. Parking multiplexes the
/// stalled connections across the pool, so the burst completes while every
/// loris is still connected.
#[test]
fn fast_queries_flow_past_slow_loris_flood() {
    let handle = start(
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        fixture_snapshot(1),
    )
    .expect("start");
    let addr = handle.addr();

    let lorises: Vec<TcpStream> = (0..12).map(|_| slow_loris(addr)).collect();
    // Let the pool absorb the flood (workers pick up, park, cycle).
    std::thread::sleep(Duration::from_millis(100));

    for _ in 0..4 {
        let resp = get(addr, "/healthz");
        assert_eq!(resp.status, 200, "/healthz must stay up mid-flood");
        for target in ["/v1/meta", "/v1/countries", "/v1/score/US", "/metrics"] {
            let resp = get(addr, target);
            assert_eq!(
                resp.status,
                200,
                "{target} starved by the flood: {}",
                String::from_utf8_lossy(&resp.body)
            );
        }
    }
    assert_eq!(
        handle.metrics().shed_load.get() + handle.metrics().shed_queue.get(),
        0,
        "nothing sheds below the thresholds"
    );
    drop(lorises);
    handle.shutdown();
}

/// `p99_budget: ZERO` is the deterministic always-shed mode: the EWMA
/// comparison is `>=`, so every non-exempt request sheds with
/// `503 + Retry-After` while `/healthz` and `/metrics` stay admitted.
#[test]
fn zero_budget_sheds_everything_but_health_and_metrics() {
    let handle = start(
        ServeConfig {
            workers: 2,
            overload: OverloadConfig {
                p99_budget: Duration::ZERO,
                retry_after_secs: 7,
                ..OverloadConfig::default()
            },
            ..ServeConfig::default()
        },
        fixture_snapshot(1),
    )
    .expect("start");
    let addr = handle.addr();

    for target in ["/v1/meta", "/v1/score/US", "/v1/taxonomy"] {
        let resp = get(addr, target);
        assert_eq!(resp.status, 503, "{target} must shed");
        assert_eq!(
            resp.retry_after,
            Some(7),
            "{target} shed without Retry-After"
        );
        assert_eq!(resp.epoch, Some(1));
    }
    for target in ["/healthz", "/metrics"] {
        let resp = get(addr, target);
        assert_eq!(resp.status, 200, "{target} is exempt from shedding");
        assert_eq!(resp.retry_after, None);
    }
    assert_eq!(handle.metrics().shed_load.get(), 3, "one shed per request");
    assert_eq!(handle.metrics().shed_queue.get(), 0);
    handle.shutdown();
}

/// Past the hard queue cap, over-capacity connections are answered with a
/// `503 + Retry-After` without their request ever being dispatched —
/// either blind at accept time or when a park overflows the refilled
/// queue. With one worker, `queue_depth: 1`, and three stalled
/// connections, exactly one connection can be held and one queued, so
/// exactly two must shed no matter how accepts and parks interleave.
#[test]
fn admission_queue_hard_cap_blind_sheds() {
    let handle = start(
        ServeConfig {
            workers: 1,
            overload: OverloadConfig {
                queue_depth: 1,
                // Keep dispatch-time shedding out of the picture: this
                // test is about the admission cap alone.
                shed_depth: 64,
                ..OverloadConfig::default()
            },
            ..ServeConfig::default()
        },
        fixture_snapshot(1),
    )
    .expect("start");
    let addr = handle.addr();

    // First loris is absorbed by the sole worker (queue drains to zero)…
    let mut streams = vec![slow_loris(addr)];
    std::thread::sleep(Duration::from_millis(150));
    // …then two more arrive back-to-back: one fills the queue slot, and
    // from then on the server is over capacity until two connections shed.
    streams.push(slow_loris(addr));
    streams.push(slow_loris(addr));

    let mut sheds = 0;
    for stream in &mut streams {
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        if let Some(resp) = read_response(stream) {
            assert_eq!(resp.status, 503);
            assert_eq!(resp.retry_after, Some(1), "shed without Retry-After");
            sheds += 1;
        }
    }
    assert_eq!(sheds, 2, "exactly two of three connections fit nowhere");
    assert_eq!(handle.metrics().shed_queue.get(), 2);
    assert_eq!(handle.metrics().shed_load.get(), 0);
    drop(streams);
    handle.shutdown();
}

/// `route_deadline: ZERO` makes every bootstrap-bearing request abort at
/// its first deadline poll: a deterministic stand-in for cube work that
/// would otherwise wedge a worker past its budget. The abort is a 503
/// with Retry-After, the worker survives, and cheap routes still answer.
#[test]
fn route_deadline_aborts_instead_of_wedging() {
    let handle = start(
        ServeConfig {
            workers: 1,
            overload: OverloadConfig {
                route_deadline: Duration::ZERO,
                ..OverloadConfig::default()
            },
            ..ServeConfig::default()
        },
        fixture_snapshot(1),
    )
    .expect("start");
    let addr = handle.addr();

    for _ in 0..3 {
        let resp = get(addr, "/v1/ci/US?replicates=500");
        assert_eq!(resp.status, 503, "{}", String::from_utf8_lossy(&resp.body));
        assert!(
            String::from_utf8_lossy(&resp.body).contains("deadline"),
            "the body names the deadline"
        );
        assert_eq!(resp.retry_after, Some(1));
    }
    assert_eq!(handle.metrics().deadline_aborts.get(), 3);
    // The sole worker was never wedged: cheap work still flows, and a
    // replicates=0 score (no bootstrap loop to abort) completes.
    assert_eq!(get(addr, "/healthz").status, 200);
    assert_eq!(get(addr, "/v1/meta").status, 200);
    assert_eq!(get(addr, "/v1/score/US?replicates=0").status, 200);
    handle.shutdown();
}

/// Pre-publish validation: honest snapshots (every constructor) pass, a
/// poisoned candidate is rejected with the prior epoch still serving, and
/// the rejection is visible in `publish_rejected` — rollback by never
/// rolling forward.
#[test]
fn validation_rejects_poisoned_snapshots_and_keeps_serving() {
    let world = fixture();
    let tmp = std::env::temp_dir().join(format!("webdep-overload-val-{}", std::process::id()));
    write_synth_store(world, &tmp, 64);

    // Every honest constructor validates.
    let snap1 = Arc::new(CubeSnapshot::from_store(1, Arc::clone(world), &tmp).expect("from_store"));
    snap1.validate(None, None).expect("from_store validates");
    CubeSnapshot::from_store_extending(2, Arc::clone(world), &tmp, &snap1)
        .expect("from_store_extending")
        .validate(Some(&snap1), None)
        .expect("from_store_extending validates");
    let (evolved, delta) = EvolutionPlan::continuous(1, 0.10, 5).evolve_epoch(world, 0);
    let evolved = Arc::new(evolved);
    let evolved_store = tmp.with_extension("evolved");
    write_synth_store(&evolved, &evolved_store, 64);
    CubeSnapshot::from_delta(2, evolved, &snap1, &delta, &evolved_store)
        .expect("from_delta")
        .validate(Some(&snap1), Some(&delta))
        .expect("from_delta validates");
    std::fs::remove_dir_all(&evolved_store).ok();

    let handle = start(ServeConfig::default(), Arc::clone(&snap1)).expect("start");
    let addr = handle.addr();

    // An honest successor extends the trajectory and publishes cleanly.
    let snap2 = Arc::new(
        CubeSnapshot::from_store_extending(2, Arc::clone(world), &tmp, &snap1)
            .expect("from_store_extending"),
    );
    assert_eq!(
        handle
            .publish_validated(Arc::clone(&snap2), None)
            .expect("honest publish"),
        2
    );
    assert_eq!(get(addr, "/healthz").epoch, Some(2));

    // Poisoned taxonomy: rejected, epoch 2 keeps serving.
    let mut poisoned =
        CubeSnapshot::from_store_extending(3, Arc::clone(world), &tmp, &snap2).expect("build");
    poisoned.taxonomy.clean += 1;
    let why = handle
        .publish_validated(Arc::new(poisoned), None)
        .expect_err("poisoned taxonomy must be rejected");
    assert!(why.contains("taxonomy"), "unexpected reason: {why}");

    // Poisoned trajectory label: rejected.
    let mut poisoned =
        CubeSnapshot::from_store_extending(3, Arc::clone(world), &tmp, &snap2).expect("build");
    poisoned.trajectory.points.last_mut().unwrap().label = "someone-else".into();
    assert!(handle.publish_validated(Arc::new(poisoned), None).is_err());

    // Non-advancing epoch: rejected by validation, never a publish panic.
    let stale =
        CubeSnapshot::from_store_extending(2, Arc::clone(world), &tmp, &snap2).expect("build");
    assert!(handle.publish_validated(Arc::new(stale), None).is_err());

    // A fresh-trajectory snapshot cannot silently truncate served history.
    let fresh = CubeSnapshot::from_store(3, Arc::clone(world), &tmp).expect("build");
    assert!(handle.publish_validated(Arc::new(fresh), None).is_err());

    assert_eq!(handle.metrics().publish_rejected.get(), 4);
    assert_eq!(
        get(addr, "/healthz").epoch,
        Some(2),
        "prior epoch still serving after every rejection"
    );

    // Serving recovers: the next honest epoch publishes.
    let snap3 = Arc::new(
        CubeSnapshot::from_store_extending(3, Arc::clone(world), &tmp, &snap2).expect("build"),
    );
    assert_eq!(handle.publish_validated(snap3, None).expect("recover"), 3);
    assert_eq!(get(addr, "/healthz").epoch, Some(3));

    handle.shutdown();
    std::fs::remove_dir_all(&tmp).ok();
}

/// A burst of 4× the worker count, every client on fresh connections:
/// each connection is answered — served (200) or shed with Retry-After
/// (503), never dropped — and the server is healthy afterwards.
#[test]
fn burst_is_served_or_shed_and_server_recovers() {
    let workers = 2;
    let handle = start(
        ServeConfig {
            workers,
            ..ServeConfig::default()
        },
        fixture_snapshot(1),
    )
    .expect("start");
    let addr = handle.addr();
    let clients: Vec<_> = (0..4 * workers)
        .map(|c| {
            std::thread::spawn(move || {
                let targets = ["/v1/meta", "/v1/score/US?replicates=0", "/v1/shares/DE"];
                (0..25)
                    .map(|k| {
                        let target = targets[(c + k) % targets.len()];
                        let resp = get(addr, target);
                        (target, resp.status, resp.retry_after)
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    for client in clients {
        for (target, status, retry_after) in client.join().expect("burst client") {
            match status {
                200 => {}
                503 => assert!(retry_after.is_some(), "{target} shed without Retry-After"),
                other => panic!("{target} answered {other} in the burst"),
            }
        }
    }
    assert_eq!(get(addr, "/healthz").status, 200, "wedged after the burst");
    assert_eq!(get(addr, "/v1/meta").status, 200, "wedged after the burst");
    handle.shutdown();
}

/// A chunk of the store a server was built from is garbled while it
/// serves. The server keeps answering off its resident cube; fsck finds
/// the one corrupt chunk and quarantines it; resuming the writer over the
/// store and committing that chunk's rows again heals it to the original
/// bytes; and the next epoch folds from the repaired store and passes
/// publish validation.
#[test]
fn mid_serve_corruption_is_healed_and_the_next_epoch_publishes() {
    let world = fixture();
    let tmp = std::env::temp_dir().join(format!("webdep-overload-heal-{}", std::process::id()));
    let store = tmp.join("chunks");
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).expect("tmp dir");
    let n = world.sites.len();
    let mut writer = ChunkStoreWriter::create(&store, &world.label, n, 512).expect("create store");
    for i in 0..n {
        writer
            .commit(i, &synth_observation(world, i))
            .expect("commit");
    }
    writer.finish().expect("finish store");

    let snap1 = Arc::new(CubeSnapshot::from_store(1, Arc::clone(world), &store).expect("fold"));
    let handle = start(ServeConfig::default(), Arc::clone(&snap1)).expect("start");
    let addr = handle.addr();

    let chunk = store.join("chunk-000003.col");
    let pristine = std::fs::read(&chunk).expect("read chunk");
    let mut garbled = pristine.clone();
    garbled[pristine.len() / 2] ^= 0x5A;
    std::fs::write(&chunk, &garbled).expect("garble chunk");
    for target in ["/healthz", "/v1/meta", "/v1/score/US?replicates=0"] {
        assert_eq!(
            get(addr, target).status,
            200,
            "{target} with the store corrupt"
        );
    }

    let report = ChunkStore::fsck(&store, None, false).expect("fsck");
    assert_eq!(report.corrupt.len(), 1, "{report:?}");
    assert_eq!(report.quarantined, 0, "report-only fsck moved a file");
    let repair = ChunkStore::fsck(&store, None, true).expect("fsck --repair");
    assert_eq!(
        (repair.quarantined, repair.corrupt.len()),
        (1, 1),
        "{repair:?}"
    );
    let mut writer =
        ChunkStoreWriter::resume(&store, &world.label, n, 512).expect("resume the store");
    let lost: Vec<usize> = (0..n).filter(|&i| !writer.site_durable(i)).collect();
    assert_eq!(
        lost,
        (3 * 512..4 * 512).collect::<Vec<_>>(),
        "only chunk 3 is lost"
    );
    for i in lost {
        writer
            .commit(i, &synth_observation(world, i))
            .expect("commit");
    }
    writer.finish().expect("finish the healed store");
    assert!(
        std::fs::read(&chunk).expect("healed chunk") == pristine,
        "the healed chunk differs from the original bytes"
    );
    assert!(ChunkStore::fsck(&store, None, false).expect("fsck").clean());

    let snap2 = CubeSnapshot::from_store_extending(2, Arc::clone(world), &store, &snap1)
        .expect("fold the repaired store");
    assert_eq!(handle.publish_validated(Arc::new(snap2), None), Ok(2));
    assert_eq!(get(addr, "/healthz").epoch, Some(2));
    handle.shutdown();
    std::fs::remove_dir_all(&tmp).ok();
}

//! The `overload` snapshot: a seeded chaos harness against the resident
//! query service's self-healing machinery.
//!
//! Four storms run against one server, in sequence, so the artifact reads
//! as a narrative: (1) an *unloaded* closed-loop baseline prices the
//! service at its configured capacity; (2) a *slow-loris flood* parks a
//! crowd of stalled connections across the worker pool while fast queries
//! must keep completing and `/healthz` must stay green; (3) *burst
//! storms* at 2–10× capacity drive the admission machinery — below the
//! shed threshold goodput must hold, above it the server trades goodput
//! for survival, shedding with `503 + Retry-After` instead of wedging;
//! (4) a *poisoned publish* phase feeds the server tampered snapshots,
//! all of which must be rejected pre-swap while the prior epoch keeps
//! serving with zero mixed-epoch responses.
//!
//! Between storms, the chunk store the served snapshots were built from
//! is corrupted in place (one seeded byte flip) and healed by
//! `ChunkStore::fsck --repair` from the measurement journal — the healed
//! chunk must be byte-identical to the pristine one, and the *next* epoch
//! must build from the repaired store and publish through validation.
//!
//! Everything is deterministic where the machinery allows: the world,
//! the query interleavings, and the corruption site are all seeded; only
//! wall-clock throughput varies run to run.

use crate::scale::{scale_config, synth_observation};
use serde::Serialize;
use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use webdep_pipeline::{ChunkStore, ChunkStoreWriter, JournalWriter};
use webdep_serve::snapshot::CubeSnapshot;
use webdep_serve::{start, OverloadConfig, ServeConfig, ServerHandle};
use webdep_webgen::World;

// ----------------------------------------------------------- JSON payload

/// One closed-loop storm's client-side tallies.
#[derive(Serialize)]
pub struct StormOutcome {
    /// Closed-loop clients.
    pub clients: u64,
    /// Responses with status 200.
    pub completed: u64,
    /// Responses with status 503 (shed at admission or dispatch).
    pub shed: u64,
    /// Shed responses that carried a `Retry-After` header.
    pub shed_with_retry_after: u64,
    /// Connections that died without a usable response.
    pub failed: u64,
    /// 200s whose body epoch disagreed with the `X-Webdep-Epoch` header.
    pub mixed_epoch: u64,
    /// Distinct epochs observed across all 200s.
    pub epochs_observed: Vec<u64>,
    /// Completed requests per second over the storm wall.
    pub goodput_rps: f64,
    /// Median completed-request latency in microseconds.
    pub p50_us: u64,
    /// 99th-percentile completed-request latency in microseconds.
    pub p99_us: u64,
}

/// The slow-loris phase: stalled connections plus a fast-query storm.
#[derive(Serialize)]
pub struct LorisPhase {
    /// Stalled connections held open (partial request heads).
    pub lorises: u64,
    /// The fast-query storm that ran through the flood.
    pub fast: StormOutcome,
    /// `/healthz` probes issued mid-flood.
    pub healthz_probes: u64,
    /// Probes that answered 200 (must equal `healthz_probes`).
    pub healthz_ok: u64,
}

/// One burst storm at a multiple of the baseline concurrency.
#[derive(Serialize)]
pub struct BurstPhase {
    /// Concurrency as a multiple of the unloaded baseline.
    pub multiplier: u64,
    /// The storm tallies.
    pub load: StormOutcome,
    /// Admitted goodput over the unloaded baseline (the 4× acceptance
    /// floor is 0.9).
    pub goodput_ratio: f64,
    /// Shed responses over total answered (shed + completed).
    pub shed_rate: f64,
    /// Whether the post-burst probes found a wedged server.
    pub wedged: bool,
}

/// The mid-serve store-corruption phase.
#[derive(Serialize)]
pub struct CorruptionPhase {
    /// Chunks in the store.
    pub chunks: u64,
    /// The seeded chunk index that was garbled.
    pub garbled_chunk: u64,
    /// Report-only fsck found exactly this many corrupt chunks.
    pub detected_corrupt: u64,
    /// Chunk files moved to `quarantine/` by the repair.
    pub quarantined: u64,
    /// Chunks re-encoded from the journal.
    pub healed: u64,
    /// Healed chunk file is byte-identical to the pristine one.
    pub byte_identical: bool,
    /// `/healthz` stayed 200 while the store was corrupt on disk.
    pub served_while_corrupt: bool,
    /// The next epoch built from the repaired store and published
    /// through validation.
    pub next_epoch_published: bool,
}

/// The poisoned-publish phase.
#[derive(Serialize)]
pub struct PoisonPhase {
    /// Tampered snapshots offered to the server.
    pub attempts: u64,
    /// Offers rejected by pre-publish validation (must equal attempts).
    pub rejected: u64,
    /// The storm that ran across the rejections and the recovery publish.
    pub load: StormOutcome,
    /// The serving epoch was unchanged after every rejection.
    pub epoch_held: bool,
    /// Epoch the honest recovery publish landed on.
    pub recovered_epoch: u64,
}

/// Server-side counter totals at the end of the run.
#[derive(Serialize)]
pub struct CounterTotals {
    /// Connections shed blind at the admission cap.
    pub shed_queue: u64,
    /// Requests shed at dispatch (depth or latency threshold).
    pub shed_load: u64,
    /// Requests aborted at their route deadline.
    pub deadline_aborts: u64,
    /// Snapshot publishes rejected by validation.
    pub publish_rejected: u64,
}

/// The full `BENCH_overload.json` payload.
#[derive(Serialize)]
pub struct OverloadSnapshot {
    /// Sites in the served world.
    pub sites: u64,
    /// Server worker threads.
    pub workers: u64,
    /// Dispatch-time shed threshold (queued connections).
    pub shed_depth: u64,
    /// Unloaded closed-loop baseline.
    pub unloaded: StormOutcome,
    /// Slow-loris flood.
    pub loris: LorisPhase,
    /// Burst storms, ascending multiplier.
    pub bursts: Vec<BurstPhase>,
    /// Store corruption and fsck repair.
    pub corruption: CorruptionPhase,
    /// Poisoned publishes and recovery.
    pub poison: PoisonPhase,
    /// Final server counters.
    pub counters: CounterTotals,
    /// `VmHWM` at the end of the run.
    pub peak_rss_bytes: Option<u64>,
}

// ------------------------------------------------------------ http client

struct Resp {
    status: u16,
    epoch: Option<u64>,
    retry_after: Option<u64>,
    body: Vec<u8>,
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect to bench server");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set read timeout");
    stream.set_nodelay(true).expect("set nodelay");
    stream
}

fn read_response(stream: &mut TcpStream) -> Option<Resp> {
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

fn request(stream: &mut TcpStream, target: &str) -> Option<Resp> {
    write!(stream, "GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n").ok()?;
    read_response(stream)
}

/// One-shot `Connection: close` probe on a fresh connection.
fn probe(addr: SocketAddr, target: &str) -> Option<Resp> {
    let mut stream = connect(addr);
    write!(
        stream,
        "GET {target} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
    )
    .ok()?;
    read_response(&mut stream)
}

/// A stalled connection: a partial request head, then silence.
fn slow_loris(addr: SocketAddr) -> TcpStream {
    let mut stream = connect(addr);
    stream.write_all(b"GET /v1/meta HTT").expect("partial head");
    stream
}

// --------------------------------------------------------------- the storm

/// Epoch-bearing cheap queries: every body carries `epoch`, so each
/// response can be checked for header/body epoch agreement.
fn storm_targets() -> Arc<Vec<String>> {
    Arc::new(vec![
        "/v1/meta".into(),
        "/v1/score/US?replicates=0".into(),
        "/v1/insularity/TH".into(),
        "/v1/shares/DE?top=3".into(),
    ])
}

#[derive(Default)]
struct Tally {
    latencies: Vec<u64>,
    shed: u64,
    shed_with_retry: u64,
    failed: u64,
    mixed: u64,
    epochs: BTreeSet<u64>,
}

/// A running storm: closed-loop keep-alive clients splitting the target
/// list round-robin, reconnecting after sheds (the server closes shed
/// connections by design).
struct Storm {
    stop: Arc<AtomicBool>,
    clients: Vec<std::thread::JoinHandle<Tally>>,
    t0: Instant,
}

fn storm_start(addr: SocketAddr, clients: usize) -> Storm {
    let targets = storm_targets();
    let stop = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let targets = Arc::clone(&targets);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut tally = Tally::default();
                let mut stream = connect(addr);
                let mut k = c * 7919;
                while !stop.load(Ordering::Relaxed) {
                    let target = &targets[k % targets.len()];
                    k += 1;
                    let q0 = Instant::now();
                    match request(&mut stream, target) {
                        Some(resp) if resp.status == 200 => {
                            tally.latencies.push(q0.elapsed().as_micros() as u64);
                            let parsed: serde_json::Value = serde_json::from_str(
                                std::str::from_utf8(&resp.body).unwrap_or("null"),
                            )
                            .unwrap_or(serde_json::Value::Null);
                            if parsed["epoch"].as_u64() != resp.epoch {
                                tally.mixed += 1;
                            }
                            if let Some(e) = resp.epoch {
                                tally.epochs.insert(e);
                            }
                        }
                        Some(resp) if resp.status == 503 => {
                            tally.shed += 1;
                            if resp.retry_after.is_some() {
                                tally.shed_with_retry += 1;
                            }
                            stream = connect(addr);
                        }
                        Some(_) => {
                            tally.failed += 1;
                            stream = connect(addr);
                        }
                        None => {
                            if stop.load(Ordering::Relaxed) {
                                break;
                            }
                            tally.failed += 1;
                            stream = connect(addr);
                        }
                    }
                }
                tally
            })
        })
        .collect();
    Storm {
        stop,
        clients: handles,
        t0: Instant::now(),
    }
}

impl Storm {
    fn finish(self) -> StormOutcome {
        self.stop.store(true, Ordering::Relaxed);
        let clients = self.clients.len() as u64;
        let mut all = Tally::default();
        for c in self.clients {
            let t = c.join().expect("storm client");
            all.latencies.extend(t.latencies);
            all.shed += t.shed;
            all.shed_with_retry += t.shed_with_retry;
            all.failed += t.failed;
            all.mixed += t.mixed;
            all.epochs.extend(t.epochs);
        }
        let wall = self.t0.elapsed();
        all.latencies.sort_unstable();
        StormOutcome {
            clients,
            completed: all.latencies.len() as u64,
            shed: all.shed,
            shed_with_retry_after: all.shed_with_retry,
            failed: all.failed,
            mixed_epoch: all.mixed,
            epochs_observed: all.epochs.iter().copied().collect(),
            goodput_rps: round3(all.latencies.len() as f64 / wall.as_secs_f64().max(1e-9)),
            p50_us: percentile(&all.latencies, 0.50),
            p99_us: percentile(&all.latencies, 0.99),
        }
    }

    fn run_for(self, d: Duration) -> StormOutcome {
        std::thread::sleep(d);
        self.finish()
    }
}

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

/// SplitMix64: the corruption site is seeded, not random.
fn splitmix(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *seed;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// --------------------------------------------------------------- the bench

/// A store plus the journal that can heal it, both from the same synth
/// observations the snapshots are built from.
fn write_store_and_journal(world: &World, dir: &Path, journal: &Path, chunk_sites: usize) {
    let _ = std::fs::remove_dir_all(dir);
    let mut writer = ChunkStoreWriter::create(dir, &world.label, world.sites.len(), chunk_sites)
        .expect("create store");
    let mut jw =
        JournalWriter::create(journal, &world.label, world.sites.len()).expect("create journal");
    for i in 0..world.sites.len() {
        let obs = synth_observation(world, i);
        writer.commit(i, &obs).expect("commit");
        jw.append(i, &obs).expect("journal append");
    }
    writer.finish().expect("finish store");
    jw.sync().expect("sync journal");
}

fn corruption_phase(
    handle: &ServerHandle,
    world: &Arc<World>,
    store_dir: &Path,
    journal: &Path,
    prev: &CubeSnapshot,
    seed: &mut u64,
    log: &dyn Fn(String),
) -> (CorruptionPhase, Arc<CubeSnapshot>) {
    let chunks = std::fs::read_dir(store_dir)
        .expect("read store dir")
        .filter_map(|e| e.ok())
        .filter(|e| {
            let name = e.file_name();
            let name = name.to_string_lossy();
            name.starts_with("chunk-") && name.ends_with(".col")
        })
        .count();
    let garbled_chunk = (splitmix(seed) % chunks as u64) as usize;
    let chunk_file = store_dir.join(format!("chunk-{garbled_chunk:06}.col"));
    let pristine = std::fs::read(&chunk_file).expect("read pristine chunk");
    let mut garbled = pristine.clone();
    let at = (splitmix(seed) % garbled.len() as u64) as usize;
    garbled[at] ^= 0x5A;
    std::fs::write(&chunk_file, &garbled).expect("garble chunk");
    log(format!(
        "garbled chunk {garbled_chunk}/{chunks} (byte {at} of {}), serving continues off the resident cube",
        pristine.len()
    ));

    // Serving never touches the store after the snapshot is built: the
    // corrupt store must not affect in-flight queries.
    let served_while_corrupt = probe(handle.addr(), "/healthz").map(|r| r.status) == Some(200);

    // Report-only pass sees the damage and touches nothing.
    let report = ChunkStore::fsck(store_dir, Some(journal), false).expect("fsck report");
    let detected_corrupt = report.corrupt.len() as u64;
    // Repair: quarantine the garbled file, re-encode from the journal.
    let repair = ChunkStore::fsck(store_dir, Some(journal), true).expect("fsck repair");
    let healed_bytes = std::fs::read(&chunk_file).unwrap_or_default();
    let byte_identical = healed_bytes == pristine;
    log(format!(
        "fsck: detected {detected_corrupt} corrupt, quarantined {}, healed {} (byte-identical: {byte_identical})",
        repair.quarantined, repair.healed
    ));

    // The self-heal is complete when the *next* epoch builds from the
    // repaired store and survives publish validation.
    let next =
        CubeSnapshot::from_store_extending(prev.epoch + 1, Arc::clone(world), store_dir, prev)
            .expect("rebuild from repaired store");
    let next = Arc::new(next);
    let next_epoch_published = handle.publish_validated(Arc::clone(&next), None).is_ok();

    (
        CorruptionPhase {
            chunks: chunks as u64,
            garbled_chunk: garbled_chunk as u64,
            detected_corrupt,
            quarantined: repair.quarantined as u64,
            healed: repair.healed as u64,
            byte_identical,
            served_while_corrupt,
            next_epoch_published,
        },
        next,
    )
}

fn poison_phase(
    handle: &ServerHandle,
    world: &Arc<World>,
    store_dir: &Path,
    prev: &Arc<CubeSnapshot>,
    storm_clients: usize,
    settle: Duration,
    log: &dyn Fn(String),
) -> PoisonPhase {
    let addr = handle.addr();
    let storm = storm_start(addr, storm_clients);
    std::thread::sleep(settle);

    let build = || {
        CubeSnapshot::from_store_extending(prev.epoch + 1, Arc::clone(world), store_dir, prev)
            .expect("build candidate")
    };
    let mut rejected = 0u64;
    // Poison 1: a tampered taxonomy (the cube no longer refolds to it).
    let mut cand = build();
    cand.taxonomy.clean += 1;
    if let Err(why) = handle.publish_validated(Arc::new(cand), None) {
        log(format!("poisoned taxonomy rejected: {why}"));
        rejected += 1;
    }
    // Poison 2: a trajectory point claiming a different world.
    let mut cand = build();
    cand.trajectory.points.last_mut().expect("point").label = "poisoned-world".into();
    if handle.publish_validated(Arc::new(cand), None).is_err() {
        rejected += 1;
    }
    // Poison 3: a non-advancing epoch (a stale republish).
    let stale = CubeSnapshot::from_store_extending(prev.epoch, Arc::clone(world), store_dir, prev)
        .expect("build stale");
    if handle.publish_validated(Arc::new(stale), None).is_err() {
        rejected += 1;
    }

    let epoch_held = handle.epoch() == prev.epoch;
    std::thread::sleep(settle);

    // Recovery: the honest candidate publishes mid-storm.
    let recovered_epoch = handle
        .publish_validated(Arc::new(build()), None)
        .expect("honest recovery publish");
    std::thread::sleep(settle);
    let load = storm.finish();
    log(format!(
        "{rejected}/3 poisoned publishes rejected, epoch held at {} then recovered to {recovered_epoch}",
        prev.epoch
    ));

    PoisonPhase {
        attempts: 3,
        rejected,
        load,
        epoch_held,
        recovered_epoch,
    }
}

/// Builds the world, starts one service, and runs every chaos phase
/// against it. `smoke` shrinks the world and the storm durations but
/// certifies the exact same invariants — the CI gate runs it on every
/// push.
pub fn overload_snapshot(smoke: bool, log: impl Fn(String)) -> OverloadSnapshot {
    let (spc, unloaded_ms, loris_ms, burst_ms, multipliers): (u32, u64, u64, u64, &[usize]) =
        if smoke {
            (60, 300, 400, 300, &[4])
        } else {
            (300, 2000, 1500, 1500, &[2, 4, 10])
        };
    let base_clients = 4usize;
    let workers = 4usize;
    let lorises = 10usize;
    let mut seed = 0xC0FFEE_u64;

    log(format!("generating world ({spc} sites/country)..."));
    let world = Arc::new(World::generate(scale_config(spc)));
    let tmp = std::env::temp_dir().join(format!("webdep-overload-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("tmp dir");
    let store_dir = tmp.join("chunks");
    let journal = tmp.join("run.journal");
    write_store_and_journal(&world, &store_dir, &journal, 512);

    let overload = OverloadConfig {
        shed_depth: 16,
        ..OverloadConfig::default()
    };
    let shed_depth = overload.shed_depth;
    let snap1 = Arc::new(
        CubeSnapshot::from_store(1, Arc::clone(&world), &store_dir).expect("snapshot from store"),
    );
    let handle = start(
        ServeConfig {
            workers,
            overload,
            ..ServeConfig::default()
        },
        Arc::clone(&snap1),
    )
    .expect("start server");
    let addr = handle.addr();
    log(format!(
        "serving {} sites on {addr} ({workers} workers, shed depth {shed_depth})",
        world.sites.len()
    ));

    // Phase 1: unloaded baseline at capacity concurrency.
    let unloaded = storm_start(addr, base_clients).run_for(Duration::from_millis(unloaded_ms));
    log(format!(
        "unloaded c={base_clients}: {} rps, p50 {} µs, p99 {} µs",
        unloaded.goodput_rps, unloaded.p50_us, unloaded.p99_us
    ));

    // Phase 2: slow-loris flood. The stalled crowd parks across the pool
    // while fast queries and health checks keep completing.
    let held: Vec<TcpStream> = (0..lorises).map(|_| slow_loris(addr)).collect();
    std::thread::sleep(Duration::from_millis(100));
    let storm = storm_start(addr, base_clients);
    let healthz_probes = 5u64;
    let healthz_ok = Mutex::new(0u64);
    let per_probe = Duration::from_millis(loris_ms / healthz_probes);
    for _ in 0..healthz_probes {
        std::thread::sleep(per_probe);
        if probe(addr, "/healthz").map(|r| r.status) == Some(200) {
            *healthz_ok.lock().expect("probe tally") += 1;
        }
    }
    let fast = storm.finish();
    drop(held);
    let loris = LorisPhase {
        lorises: lorises as u64,
        fast,
        healthz_probes,
        healthz_ok: *healthz_ok.lock().expect("probe tally"),
    };
    log(format!(
        "loris flood ({} stalled): fast storm {} rps, p99 {} µs, shed {}, failed {}, healthz {}/{}",
        loris.lorises,
        loris.fast.goodput_rps,
        loris.fast.p99_us,
        loris.fast.shed,
        loris.fast.failed,
        loris.healthz_ok,
        loris.healthz_probes
    ));

    // Phase 3: burst storms. Below the shed threshold the server absorbs
    // the burst at full goodput; above it, shedding is the survival mode.
    let mut bursts = Vec::new();
    for &m in multipliers {
        let load = storm_start(addr, base_clients * m).run_for(Duration::from_millis(burst_ms));
        let answered = load.completed + load.shed;
        let wedged = probe(addr, "/healthz").map(|r| r.status) != Some(200)
            || probe(addr, "/v1/meta").map(|r| r.status) != Some(200);
        let row = BurstPhase {
            multiplier: m as u64,
            goodput_ratio: round3(load.goodput_rps / unloaded.goodput_rps.max(1e-9)),
            shed_rate: round3(load.shed as f64 / (answered.max(1)) as f64),
            wedged,
            load,
        };
        log(format!(
            "burst {m}x (c={}): {} rps ({}x unloaded), shed rate {}, p99 {} µs, wedged {}",
            base_clients * m,
            row.load.goodput_rps,
            row.goodput_ratio,
            row.shed_rate,
            row.load.p99_us,
            row.wedged
        ));
        bursts.push(row);
    }

    // Phase 4: corrupt the store mid-serve, heal it, and build the next
    // epoch from the repaired files.
    let (corruption, snap2) = corruption_phase(
        &handle, &world, &store_dir, &journal, &snap1, &mut seed, &log,
    );

    // Phase 5: poisoned publishes under load, then honest recovery.
    let poison = poison_phase(
        &handle,
        &world,
        &store_dir,
        &snap2,
        base_clients,
        Duration::from_millis(if smoke { 150 } else { 400 }),
        &log,
    );

    let metrics = handle.metrics();
    let counters = CounterTotals {
        shed_queue: metrics.shed_queue.get(),
        shed_load: metrics.shed_load.get(),
        deadline_aborts: metrics.deadline_aborts.get(),
        publish_rejected: metrics.publish_rejected.get(),
    };
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&tmp);

    let snapshot = OverloadSnapshot {
        sites: world.sites.len() as u64,
        workers: workers as u64,
        shed_depth: shed_depth as u64,
        unloaded,
        loris,
        bursts,
        corruption,
        poison,
        counters,
        peak_rss_bytes: crate::peak_rss_bytes(),
    };

    // Acceptance invariants, enforced in smoke and full runs alike.
    assert_eq!(snapshot.unloaded.failed, 0, "unloaded storm saw failures");
    assert_eq!(snapshot.unloaded.shed, 0, "unloaded storm was shed");
    assert_eq!(
        snapshot.loris.fast.failed, 0,
        "fast queries failed behind the loris flood"
    );
    assert_eq!(
        snapshot.loris.fast.shed, 0,
        "fast queries shed below the threshold"
    );
    assert!(
        snapshot.loris.fast.completed > 0,
        "no fast query completed through the flood"
    );
    assert_eq!(
        snapshot.loris.healthz_ok, snapshot.loris.healthz_probes,
        "/healthz failed mid-flood"
    );
    let mut mixed = snapshot.unloaded.mixed_epoch + snapshot.loris.fast.mixed_epoch;
    for b in &snapshot.bursts {
        mixed += b.load.mixed_epoch;
        assert!(!b.wedged, "server wedged after the {}x burst", b.multiplier);
        assert_eq!(
            b.load.shed, b.load.shed_with_retry_after,
            "a shed response lacked Retry-After at {}x",
            b.multiplier
        );
    }
    mixed += snapshot.poison.load.mixed_epoch;
    assert_eq!(mixed, 0, "a response mixed body and header epochs");
    assert!(
        snapshot.corruption.byte_identical,
        "fsck repair did not restore the chunk byte-identically"
    );
    assert_eq!(snapshot.corruption.detected_corrupt, 1);
    assert_eq!(snapshot.corruption.quarantined, 1);
    assert_eq!(snapshot.corruption.healed, 1);
    assert!(snapshot.corruption.served_while_corrupt);
    assert!(snapshot.corruption.next_epoch_published);
    assert_eq!(
        snapshot.poison.rejected, snapshot.poison.attempts,
        "a poisoned publish slipped through validation"
    );
    assert!(
        snapshot.poison.epoch_held,
        "serving epoch moved on a rejection"
    );
    assert_eq!(snapshot.poison.recovered_epoch, 3);
    assert_eq!(
        snapshot.poison.load.epochs_observed,
        vec![2, 3],
        "poison storm observed epochs other than the held and recovered ones"
    );
    assert_eq!(snapshot.counters.publish_rejected, 3);
    if !smoke {
        let four_x = snapshot
            .bursts
            .iter()
            .find(|b| b.multiplier == 4)
            .expect("full run includes the 4x burst");
        assert!(
            four_x.goodput_ratio >= 0.9,
            "4x burst goodput fell to {}x of unloaded (floor 0.9)",
            four_x.goodput_ratio
        );
    }
    snapshot
}

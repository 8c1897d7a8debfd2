//! The measurement run: parallel resolve + scan + enrich, under
//! supervision.
//!
//! Workers pull small batches from a shared atomic cursor, so a worker
//! that lands on slow sites never leaves a pre-assigned shard idle. Each
//! worker resolves through its own resolver and private cache; the one
//! thing they share is a [`SharedDnsCache`] of the root's delegations (the
//! TLD cuts), so the root is asked about each TLD roughly once per run
//! instead of once per worker. Everything below a TLD (answers, deeper
//! cuts) is only ever reused by the worker that learned it, so it stays
//! private and costs no cross-worker writes. Neither changes the result:
//! [`measure_streamed`] writes a byte-identical store for any worker count.
//!
//! On top of the scheduler sits the supervision layer (see
//! [`crate::supervisor`]): every site is measured under `catch_unwind`
//! (a panic becomes a [`FailureCause::Internal`] row, never a process
//! abort), workers publish heartbeats and hand each completed site's row
//! to a shared sink immediately, and the supervisor
//! requeues a lost worker's in-flight batch and respawns replacements.
//! Because per-site measurement is deterministic, a requeued batch
//! re-measures to identical bytes — worker loss costs wall-clock, not
//! correctness. The same determinism is the crash story: the fsynced
//! chunks and the manifest are the only durable state, and
//! [`resume_streamed`] keeps every chunk that verifies and re-measures
//! the sites of the rest, so a crash costs at most the chunks in flight
//! and the finished store is byte-identical to an uninterrupted run's.
//!
//! A worker builds no owned observation: it fills a row whose strings
//! borrow from the world's site, the resolver's shared NS set and the
//! deployment's address databases (`store::SiteRow`), and the store copies
//! them into the chunk's arena.
//!
//! The sink lock guards bookkeeping, not I/O on the chunk store: a worker
//! copies its row into the sink under the lock, and when that
//! commit completes a chunk it comes back out holding the claim on the
//! chunk (`store::ClaimedChunk`). The worker encodes, writes and fsyncs
//! the chunk after releasing the lock — the other workers keep committing
//! meanwhile — and takes the lock again only to record the write.

use crate::dataset::FailureCause;
use crate::store::{
    ChunkStoreWriter, ClaimedChunk, Failure, Located, NsNames, SiteRow, StagedRow, WrittenChunk,
    DEFAULT_CHUNK_SITES,
};
use crate::supervisor::{
    Batch, ChaosPlan, SupervisionStats, SupervisorConfig, WorkQueue, WorkerSlot,
};
use std::any::Any;
use std::borrow::{Borrow, Cow};
use std::convert::Infallible;
use std::io;
use std::net::Ipv4Addr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use webdep_dns::resolver::{IterativeResolver, ResolveError, ResolverConfig};
use webdep_dns::shared_cache::SharedDnsCache;
use webdep_dns::Name;
use webdep_tls::scanner::{Scanner, ScannerConfig};
use webdep_webgen::{Continent, DeployedWorld, World};

/// Pipeline parameters.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Worker threads (each gets its own resolver cache and scanner).
    pub workers: usize,
    /// Vantage continent for the primary measurement (the paper measures
    /// from Stanford: North America).
    pub vantage: Continent,
    /// Resolver tuning.
    pub resolver: ResolverConfig,
    /// Scanner tuning.
    pub scanner: ScannerConfig,
    /// Supervision tuning: watchdog deadline, poison threshold, respawn
    /// budget.
    pub supervisor: SupervisorConfig,
    /// Seeded chaos schedule (worker kills / panics / hangs) for
    /// resilience tests; `None` injects nothing.
    pub chaos: Option<ChaosPlan>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            workers: 8,
            vantage: Continent::NorthAmerica,
            resolver: ResolverConfig::default(),
            scanner: ScannerConfig::default(),
            supervisor: SupervisorConfig::default(),
            chaos: None,
        }
    }
}

/// Sites per pull from the work queue: small enough to balance slow
/// sites across workers, large enough that the cursor is cold.
const QUEUE_BATCH: usize = 16;

/// Throughput and cache accounting for one measurement run
/// ([`measure_streamed`], [`resume_streamed`] or [`crate::measure_delta`]).
#[derive(Debug, Clone)]
pub struct MeasureStats {
    /// Wall-clock duration of the parallel section.
    pub wall: Duration,
    /// Sites this run measured (every site but the resumed ones) per
    /// wall-clock second; `None` when it measured none, as a resume of a
    /// complete store does.
    pub sites_per_sec: Option<f64>,
    /// DNS queries that actually hit the simulated wire (all workers).
    pub wire_queries: u64,
    /// Answers served from workers' private resolver caches.
    pub local_cache_hits: u64,
    /// Delegations (TLD cuts) served from the shared cache tier.
    pub shared_cache_hits: u64,
    /// Per-worker busy time (from spawn to last site finished), including
    /// workers that were lost mid-run.
    pub worker_busy: Vec<Duration>,
    /// Largest fraction of the wall clock any worker spent idle, i.e. done
    /// but waiting for stragglers. The shared work queue keeps it near
    /// zero.
    pub peak_idle_fraction: f64,
    /// DNS replies discarded as undecodable (truncated/corrupt datagrams),
    /// summed over all workers.
    pub malformed_datagrams: u64,
    /// DNS replies discarded for a transaction-id mismatch (garbled or
    /// stale datagrams), summed over all workers.
    pub mismatched_ids: u64,
    /// TLS server flights discarded as malformed, summed over all workers.
    pub malformed_flights: u64,
    /// Supervision accounting: panics isolated, workers lost/respawned,
    /// batches requeued, sites poisoned or resumed.
    pub supervision: SupervisionStats,
}

/// What one worker brings home (observations are handed to the shared
/// sink per site; only accounting comes back through the handle).
struct WorkerReport {
    busy: Duration,
    wire_queries: u64,
    local_cache_hits: u64,
    shared_cache_hits: u64,
    malformed_datagrams: u64,
    mismatched_ids: u64,
    malformed_flights: u64,
    panics_isolated: u64,
}

/// Where committed rows land: the chunked columnar store
/// ([`crate::store`]). Each row is copied into its chunk, so peak memory
/// is bounded by the scheduler's batch spread, not the world size, which
/// is what lets million-site runs fit in a laptop's RAM. Only a
/// done-bitmap stays resident.
pub(crate) struct Sink {
    done: Vec<bool>,
    store: ChunkStoreWriter,
    store_error: Option<io::Error>,
}

impl Sink {
    /// A sink over `store` in which the sites `done` marks need no
    /// measurement.
    pub(crate) fn new(done: Vec<bool>, store: ChunkStoreWriter) -> Self {
        Sink {
            done,
            store,
            store_error: None,
        }
    }

    /// Commits one site's row if the site is still unclaimed, copying it
    /// into the store writer. Duplicate commits (a requeued batch
    /// re-measuring a site its dead worker had already committed is
    /// impossible, but a worker declared hung while actually alive can
    /// race its replacement) are idempotent: first write wins, and
    /// determinism makes both writes byte-identical.
    ///
    /// Returns whether the site was committed and, when its commit
    /// completed a chunk, the claim on that chunk: the caller writes it
    /// after releasing the sink lock (see [`commit_shared`]).
    fn commit(&mut self, site: usize, row: &StagedRow) -> (bool, Option<ClaimedChunk>) {
        if self.done[site] {
            return (false, None);
        }
        self.done[site] = true;
        // Keep measuring past a store error: the run completes, the first
        // error surfaces.
        if self.store_error.is_some() {
            return (true, None);
        }
        (true, self.store.insert(site, row).1)
    }

    /// Records the outcome of writing a chunk [`Sink::commit`] claimed; a
    /// failed write is the run's store error.
    fn record(&mut self, written: io::Result<WrittenChunk>) {
        if let Err(e) = self.store.record(written) {
            self.store_error.get_or_insert(e);
        }
    }
}

fn lock(sink: &Mutex<Sink>) -> std::sync::MutexGuard<'_, Sink> {
    sink.lock().unwrap_or_else(|e| e.into_inner())
}

/// Encodes, writes and fsyncs a claimed chunk with the sink lock
/// released — the chunk's rows left the writer with the claim — and takes
/// the lock again only to record the outcome.
fn flush(sink: &Mutex<Sink>, chunk: ClaimedChunk) {
    let written = chunk.write();
    lock(sink).record(written);
}

/// Commits one site's staged row through the shared sink, flushing the
/// chunk it completes, if any, off the lock. Returns whether the site was
/// committed.
fn commit_shared(sink: &Mutex<Sink>, site: usize, row: &StagedRow) -> bool {
    let (committed, claimed) = lock(sink).commit(site, row);
    if let Some(chunk) = claimed {
        flush(sink, chunk);
    }
    committed
}

/// Measures every site of `world` against its deployment, streaming the
/// enriched observations into a chunked columnar store ([`crate::store`])
/// at `store_dir`, which is reset first: each completed site is committed
/// to its chunk and dropped, so peak RSS is bounded by the scheduler's
/// batch spread, not the world size. The store's bytes are the same for
/// any worker count. A caller that wants the dataset in memory loads it
/// back with [`crate::ChunkStore::load_dataset`]; a run that crashed is
/// finished by [`resume_streamed`].
///
/// `_retired` is always `None`: it was the path of the run journal, which
/// is gone. The benchmark (`perfbench/`) still passes the `None`; once it
/// stops, the parameter is deleted (ROADMAP.md item 1).
///
/// Only the active-measurement outputs come from the network; `language`
/// is copied from the site record (the LangDetect substitute) and toplist
/// membership from the CrUX stand-in.
pub fn measure_streamed(
    world: &World,
    dep: &DeployedWorld,
    config: &PipelineConfig,
    store_dir: &Path,
    _retired: Option<Infallible>,
) -> io::Result<MeasureStats> {
    let n = world.sites.len();
    let store = ChunkStoreWriter::create(store_dir, &world.label, n, DEFAULT_CHUNK_SITES)?;
    let (sink, stats) = run_supervised(world, || dep, config, Sink::new(vec![false; n], store));
    finish_streaming(world, sink, stats)
}

/// Finishes a [`measure_streamed`] run that crashed, or heals its store.
///
/// Every chunk of the store at `store_dir` that verifies is kept, and its
/// sites are not measured again. A corrupt chunk (a torn write, or damage
/// since) is moved to `quarantine/`, exactly as `fsck --repair` moves it.
/// The sites of every missing or quarantined chunk are re-measured.
/// Measurement is deterministic and chunk bytes are a pure function of
/// their rows, so the finished store is byte-identical to an
/// uninterrupted run's. The store must be for `world` (label and site
/// count), and it must have no patches: an epoch's store heals by
/// running its [`crate::measure_delta`] again.
pub fn resume_streamed(
    world: &World,
    dep: &DeployedWorld,
    config: &PipelineConfig,
    store_dir: &Path,
) -> io::Result<MeasureStats> {
    resume_streamed_with(world, || dep, config, store_dir)
}

/// [`resume_streamed`] that deploys the world only when a site is left to
/// measure: `deploy` is called once the store has been verified, and not
/// at all when every site is durable, so finishing a complete store
/// costs its verification only.
pub fn resume_streamed_with<D: Borrow<DeployedWorld>>(
    world: &World,
    deploy: impl FnOnce() -> D,
    config: &PipelineConfig,
    store_dir: &Path,
) -> io::Result<MeasureStats> {
    let n = world.sites.len();
    let store = ChunkStoreWriter::resume(store_dir, &world.label, n, DEFAULT_CHUNK_SITES)?;
    let done = (0..n).map(|i| store.site_durable(i)).collect();
    let (sink, stats) = run_supervised(world, deploy, config, Sink::new(done, store));
    finish_streaming(world, sink, stats)
}

/// Shared tail of every entry point: surface errors, fill any
/// never-measured site with a deterministic internal failure, and
/// finalize the store.
pub(crate) fn finish_streaming(
    world: &World,
    sink: Sink,
    stats: MeasureStats,
) -> io::Result<MeasureStats> {
    let Sink {
        done,
        mut store,
        store_error,
    } = sink;
    if let Some(e) = store_error {
        return Err(e);
    }
    for (i, was_done) in done.iter().enumerate() {
        if !was_done {
            let site = &world.sites[i];
            let row = SiteRow::internal_failure(
                &site.domain,
                &site.language,
                "internal: site never measured",
            );
            store.commit_row(i, &row)?;
        }
    }
    store.finish()?;
    Ok(stats)
}

/// The supervised run underneath every public entry point, measuring the
/// sites the sink does not mark done against the deployment `deploy`
/// returns.
///
/// The scope's main thread doubles as the supervisor: it scans worker
/// heartbeats and join handles every `tick`, requeues (or poisons) the
/// in-flight batch of a lost worker, respawns replacements up to the
/// budget, and fails leftover sites deterministically if the run would
/// otherwise deadlock with no workers left. A run with no site left to
/// measure calls no `deploy` and spawns no worker.
pub(crate) fn run_supervised<D: Borrow<DeployedWorld>>(
    world: &World,
    deploy: impl FnOnce() -> D,
    config: &PipelineConfig,
    sink: Sink,
) -> (Sink, MeasureStats) {
    let n = world.sites.len();
    let sup_cfg = config.supervisor.clone();
    let chaos = config.chaos.clone().unwrap_or_default();
    let deadline_ms = sup_cfg.site_deadline.as_millis() as u64;

    let done_at_start = sink.done.clone();
    let resumed = done_at_start.iter().filter(|&&done| done).count();
    let deployed = (resumed < n).then(deploy);
    let dep = deployed.as_ref().map(Borrow::borrow);
    let workers = match dep {
        Some(_) => config.workers.max(1),
        None => 0,
    };
    let completed = AtomicUsize::new(resumed);
    let sink = Mutex::new(sink);

    let shared = Arc::new(SharedDnsCache::new());
    let queue = WorkQueue::new(n, QUEUE_BATCH);

    let epoch = Instant::now();
    let mut sup_stats = SupervisionStats {
        sites_resumed: resumed as u64,
        ..SupervisionStats::default()
    };

    let reports: Vec<WorkerReport> = crossbeam::thread::scope(|scope| {
        let queue = &queue;
        let sink = &sink;
        let completed = &completed;
        let done_at_start: &[bool] = &done_at_start;
        let chaos = &chaos;

        let spawn_worker = |slot: Arc<WorkerSlot>| {
            let dep = dep.expect("workers are spawned only for sites to measure");
            let cfg = config.clone();
            let shared = shared.clone();
            scope.spawn(move |_| {
                worker_main(
                    world,
                    dep,
                    &cfg,
                    shared,
                    chaos,
                    queue,
                    sink,
                    completed,
                    done_at_start,
                    &slot,
                    epoch,
                    n,
                )
            })
        };

        let mut worker_slots: Vec<Arc<WorkerSlot>> = Vec::new();
        let mut handles = Vec::new();
        let mut lost: Vec<bool> = Vec::new();
        let mut reports: Vec<WorkerReport> = Vec::new();
        for _ in 0..workers {
            let slot = Arc::new(WorkerSlot::default());
            slot.heartbeat
                .store(epoch.elapsed().as_millis() as u64, Ordering::Relaxed);
            worker_slots.push(Arc::clone(&slot));
            lost.push(false);
            handles.push(Some(spawn_worker(slot)));
        }

        let mut respawns = 0usize;
        while completed.load(Ordering::Acquire) < n {
            let now_ms = epoch.elapsed().as_millis() as u64;
            let mut to_spawn = 0usize;
            for w in 0..handles.len() {
                if lost[w] {
                    continue;
                }
                let Some(handle) = &handles[w] else { continue };
                let slot = &worker_slots[w];
                let finished = handle.is_finished();
                let in_flight = *slot.in_flight.lock().unwrap_or_else(|e| e.into_inner());
                // A finished worker with nothing in flight exited cleanly;
                // an unfinished one with nothing in flight is between
                // batches. Neither is a loss.
                if in_flight.is_none() {
                    continue;
                }
                let stale =
                    now_ms.saturating_sub(slot.heartbeat.load(Ordering::Relaxed)) > deadline_ms;
                if !finished && !stale {
                    continue;
                }
                // Worker lost: thread died, or hung past the deadline.
                lost[w] = true;
                slot.canceled.store(true, Ordering::Relaxed);
                sup_stats.workers_lost += 1;
                let taken = slot
                    .in_flight
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .take();
                if let Some(b) = taken.filter(|b| !b.is_empty()) {
                    if b.poison + 1 >= sup_cfg.poison_threshold {
                        let detail = format!(
                            "internal: site batch abandoned after killing {} workers",
                            b.poison + 1
                        );
                        sup_stats.sites_poisoned +=
                            fail_batch(world, sink, completed, done_at_start, &b, &detail);
                    } else {
                        queue.requeue(Batch {
                            poison: b.poison + 1,
                            ..b
                        });
                        sup_stats.batches_requeued += 1;
                    }
                }
                if finished {
                    if let Ok(r) = handles[w].take().expect("checked above").join() {
                        reports.push(r);
                    }
                }
                to_spawn += 1;
            }
            for _ in 0..to_spawn {
                if respawns >= sup_cfg.max_respawns {
                    break;
                }
                respawns += 1;
                sup_stats.workers_respawned += 1;
                let slot = Arc::new(WorkerSlot::default());
                slot.heartbeat
                    .store(epoch.elapsed().as_millis() as u64, Ordering::Relaxed);
                worker_slots.push(Arc::clone(&slot));
                lost.push(false);
                handles.push(Some(spawn_worker(slot)));
            }
            // Deadlock guard: every worker is lost and the respawn budget
            // is spent, so nothing can drain the queue — fail the
            // remaining sites deterministically instead of spinning.
            let any_live = (0..handles.len())
                .any(|w| !lost[w] && handles[w].as_ref().is_some_and(|h| !h.is_finished()));
            if !any_live
                && respawns >= sup_cfg.max_respawns
                && completed.load(Ordering::Acquire) < n
            {
                for b in queue.drain() {
                    sup_stats.sites_poisoned += fail_batch(
                        world,
                        sink,
                        completed,
                        done_at_start,
                        &b,
                        "internal: no workers remaining",
                    );
                }
                break;
            }
            std::thread::sleep(sup_cfg.tick);
        }

        for slot in &worker_slots {
            slot.canceled.store(true, Ordering::Relaxed);
        }
        for handle in handles.iter_mut() {
            if let Some(h) = handle.take() {
                if let Ok(r) = h.join() {
                    reports.push(r);
                }
            }
        }
        reports
    })
    .unwrap_or_default();
    let wall = epoch.elapsed();

    let worker_busy: Vec<Duration> = reports.iter().map(|r| r.busy).collect();
    let wire_queries = reports.iter().map(|r| r.wire_queries).sum();
    let local_cache_hits = reports.iter().map(|r| r.local_cache_hits).sum();
    let shared_cache_hits = reports.iter().map(|r| r.shared_cache_hits).sum();
    let malformed_datagrams = reports.iter().map(|r| r.malformed_datagrams).sum();
    let mismatched_ids = reports.iter().map(|r| r.mismatched_ids).sum();
    let malformed_flights = reports.iter().map(|r| r.malformed_flights).sum();
    sup_stats.panics_isolated = reports.iter().map(|r| r.panics_isolated).sum();

    let peak_idle_fraction = worker_busy
        .iter()
        .map(|b| 1.0 - b.as_secs_f64() / wall.as_secs_f64().max(f64::MIN_POSITIVE))
        .fold(0.0f64, f64::max)
        .clamp(0.0, 1.0);
    let stats = MeasureStats {
        wall,
        sites_per_sec: (resumed < n)
            .then(|| (n - resumed) as f64 / wall.as_secs_f64().max(f64::MIN_POSITIVE)),
        wire_queries,
        local_cache_hits,
        shared_cache_hits,
        worker_busy,
        peak_idle_fraction,
        malformed_datagrams,
        mismatched_ids,
        malformed_flights,
        supervision: sup_stats,
    };
    // One fold into the process-wide telemetry per run — the hot loop
    // itself stays free of shared counters.
    crate::metrics::record_run(n, &stats);
    (sink.into_inner().unwrap_or_else(|e| e.into_inner()), stats)
}

/// Records every not-yet-done site of a batch as an internal failure
/// (poison policy / no-workers-left path). Returns how many sites this
/// actually failed (already-committed sites are left untouched).
fn fail_batch(
    world: &World,
    sink: &Mutex<Sink>,
    completed: &AtomicUsize,
    done_at_start: &[bool],
    batch: &Batch,
    detail: &str,
) -> u64 {
    let mut failed = 0;
    let mut claimed = Vec::new();
    let mut staged = StagedRow::default();
    let mut locked = lock(sink);
    for (i, &done) in done_at_start
        .iter()
        .enumerate()
        .take(batch.hi)
        .skip(batch.lo)
    {
        if done {
            continue;
        }
        let site = &world.sites[i];
        let row = SiteRow::internal_failure(&site.domain, &site.language, detail);
        let (committed, chunk) = locked.commit(i, staged.stage(&row));
        if committed {
            completed.fetch_add(1, Ordering::AcqRel);
            failed += 1;
        }
        claimed.extend(chunk);
    }
    drop(locked);
    for chunk in claimed {
        flush(sink, chunk);
    }
    failed
}

/// Renders a caught panic payload for the `Internal` failure detail.
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "opaque panic payload"
    }
}

/// One worker thread: claim batches, measure each site under
/// `catch_unwind`, commit per site, publish heartbeats.
///
/// A worker never exits while work could still appear: a requeued batch
/// from a lost sibling may arrive after the fresh cursor runs dry, so
/// idle workers poll until the run completes or they are canceled.
#[allow(clippy::too_many_arguments)]
fn worker_main(
    world: &World,
    dep: &DeployedWorld,
    cfg: &PipelineConfig,
    shared: Arc<SharedDnsCache>,
    chaos: &ChaosPlan,
    queue: &WorkQueue,
    sink: &Mutex<Sink>,
    completed: &AtomicUsize,
    done_at_start: &[bool],
    slot: &WorkerSlot,
    epoch: Instant,
    n: usize,
) -> WorkerReport {
    let worker_start = Instant::now();
    let resolver_ep = dep.vantage(cfg.vantage);
    let scanner_ep = dep.vantage(cfg.vantage);
    let mut resolver = IterativeResolver::with_shared_cache(
        resolver_ep,
        dep.roots.clone(),
        cfg.resolver.clone(),
        shared,
    );
    let mut scanner = Scanner::new(scanner_ep, cfg.scanner.clone());
    let mut panics_isolated = 0u64;
    // Each site's row is staged here, off the sink's lock.
    let mut staged = StagedRow::default();

    let report = |resolver: &IterativeResolver, scanner: &Scanner, panics: u64| {
        let rstats = resolver.stats();
        WorkerReport {
            busy: worker_start.elapsed(),
            wire_queries: rstats.wire_queries,
            local_cache_hits: rstats.local_cache_hits,
            shared_cache_hits: rstats.shared_cache_hits,
            malformed_datagrams: rstats.malformed_datagrams,
            mismatched_ids: rstats.mismatched_ids,
            malformed_flights: scanner.malformed_flights,
            panics_isolated: panics,
        }
    };

    'outer: loop {
        if slot.is_canceled() || completed.load(Ordering::Acquire) >= n {
            break;
        }
        let batch = queue.claim_requeued().or_else(|| queue.claim_fresh());
        let Some(batch) = batch else {
            // Nothing claimable right now, but a requeue may still arrive.
            std::thread::sleep(Duration::from_millis(1));
            continue;
        };
        if batch.is_empty() {
            continue;
        }
        slot.heartbeat
            .store(epoch.elapsed().as_millis() as u64, Ordering::Relaxed);
        *slot.in_flight.lock().unwrap_or_else(|e| e.into_inner()) = Some(batch);
        for (i, &done) in done_at_start
            .iter()
            .enumerate()
            .take(batch.hi)
            .skip(batch.lo)
        {
            // A clean site costs nothing: no heartbeat, cancel check or
            // in-flight update. A requeued remainder that still spans it
            // skips it again.
            if done {
                continue;
            }
            if slot.is_canceled() {
                break 'outer;
            }
            slot.heartbeat
                .store(epoch.elapsed().as_millis() as u64, Ordering::Relaxed);
            if chaos.kills(i, batch.poison) {
                // Simulated worker death: exit with the remainder of
                // the batch still in flight for the supervisor to find.
                return report(&resolver, &scanner, panics_isolated);
            }
            if chaos.hangs(i, batch.poison) {
                // Simulated hang: stop heartbeating until the watchdog
                // cancels us, then exit like a death.
                while !slot.is_canceled() {
                    std::thread::sleep(Duration::from_millis(1));
                }
                break 'outer;
            }
            let site = &world.sites[i];
            // The world's domains are canonical text: checked, not copied.
            let name = Name::new(&site.domain);
            let measured = catch_unwind(AssertUnwindSafe(|| {
                if chaos.panics(i) {
                    panic!("chaos: injected panic for site {i}");
                }
                let mut row = SiteRow::blank(&site.domain, &site.language);
                measure_one(&mut row, name, &mut resolver, &mut scanner, dep);
                row
            }));
            // Nothing keyed by the site's own name is asked for again.
            if let Some(name) = name {
                resolver.forget(name);
            }
            let detail;
            let row = match measured {
                Ok(row) => row,
                Err(payload) => {
                    panics_isolated += 1;
                    detail = format!("panic: {}", panic_message(payload.as_ref()));
                    SiteRow::internal_failure(&site.domain, &site.language, &detail)
                }
            };
            if commit_shared(sink, i, staged.stage(&row)) {
                completed.fetch_add(1, Ordering::AcqRel);
            }
            // Advance past the committed site so a later loss requeues
            // only the remainder.
            if let Some(b) = slot
                .in_flight
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .as_mut()
            {
                b.lo = i + 1;
            }
        }
        *slot.in_flight.lock().unwrap_or_else(|e| e.into_inner()) = None;
    }
    report(&resolver, &scanner, panics_isolated)
}

/// Maps a resolver error onto the normalized failure taxonomy; `prefix`
/// labels which lookup failed in the human-readable detail ("A", "NS").
fn resolve_failure(prefix: &str, e: &ResolveError) -> Failure<'static> {
    let cause = match e {
        ResolveError::Timeout => FailureCause::Timeout,
        ResolveError::Network(_) => FailureCause::Unreachable,
        ResolveError::NxDomain(_) => FailureCause::NxDomain,
        ResolveError::NoData(_) => FailureCause::NoRecords,
        ResolveError::DepthExceeded => FailureCause::Malformed,
        ResolveError::ServFail => FailureCause::Refused,
    };
    (cause, Cow::Owned(format!("{prefix}: {e}")))
}

/// Maps a TLS scan error onto the normalized failure taxonomy.
fn scan_failure(e: &webdep_tls::ScanError) -> Failure<'static> {
    use webdep_tls::ScanError;
    let cause = match e {
        ScanError::Timeout => FailureCause::Timeout,
        ScanError::Network(_) => FailureCause::Unreachable,
        ScanError::Alert(_) => FailureCause::Refused,
        ScanError::BadResponse => FailureCause::Malformed,
    };
    (cause, Cow::Owned(format!("TLS: {e}")))
}

/// A failure whose detail is fixed text.
fn failed(cause: FailureCause, detail: &'static str) -> Option<Failure<'static>> {
    Some((cause, Cow::Borrowed(detail)))
}

/// What the deployment's address databases say about `ip`: its AS
/// (pfx2as), the AS's organization and that organization's country
/// (AS-to-Org), the address's country and whether it is anycast.
fn locate(ip: Ipv4Addr, dep: &DeployedWorld) -> Located<&str> {
    let asn = dep.pfx2as.lookup(ip).map(|(&asn, _)| asn);
    let org = asn.and_then(|asn| dep.asorg.org_of_asn(asn));
    Located {
        ip: Some(ip),
        asn,
        org: org.map(|org| org.org_id),
        org_country: org.map(|org| org.country.as_str()),
        ip_country: dep.geodb.country_of(ip),
        anycast: dep.anycast.contains(ip),
    }
}

/// Runs the whole pipeline for a single site into its row; `name` is its
/// domain checked, `None` when it is not a name in canonical form.
///
/// Every layer runs to completion and records its *own* failure — a DNS
/// timeout no longer masks a TLS refusal the way the old first-error-wins
/// summary did. The CA layer is `Skipped` (not failed) when hosting left
/// no IP to scan. The row's error summary is derived when it is stored.
fn measure_one<'a>(
    row: &mut SiteRow<'a>,
    name: Option<Name<'_>>,
    resolver: &mut IterativeResolver,
    scanner: &mut Scanner,
    dep: &'a DeployedWorld,
) {
    let Some(name) = name else {
        row.hosting_error = failed(FailureCause::Malformed, "unparseable domain");
        row.dns_error = failed(FailureCause::Skipped, "domain unparseable");
        row.ca_error = failed(FailureCause::Skipped, "domain unparseable");
        return;
    };

    // Hosting: A record -> serving IP -> AS -> org; geo + anycast.
    match resolver.resolve_a(name) {
        Ok(addrs) if !addrs.is_empty() => row.hosting = locate(addrs[0], dep),
        Ok(_) => row.hosting_error = failed(FailureCause::NoRecords, "empty A answer"),
        Err(e) => row.hosting_error = Some(resolve_failure("A", &e)),
    }

    // DNS: NS names -> first NS address -> AS -> org.
    match resolver.resolve_ns(name) {
        Ok(ns_names) if !ns_names.is_empty() => {
            let mut resolved = None;
            for ns in ns_names.iter() {
                match resolver.resolve_a(ns) {
                    Ok(addrs) if !addrs.is_empty() => {
                        resolved = Some(addrs[0]);
                        break;
                    }
                    _ => continue,
                }
            }
            row.ns_names = NsNames::Shared(ns_names);
            match resolved {
                Some(ip) => row.dns = locate(ip, dep),
                None => row.dns_error = failed(FailureCause::NoRecords, "no nameserver address"),
            }
        }
        Ok(_) => row.dns_error = failed(FailureCause::NoRecords, "empty NS answer"),
        // A zone with no visible NS records is a data gap, not a failure.
        Err(ResolveError::NoData(_)) => {}
        Err(e) => row.dns_error = Some(resolve_failure("NS", &e)),
    }

    // TLS: leaf certificate -> issuer -> CA owner.
    row.ca_error = match row.hosting.ip {
        None => failed(FailureCause::Skipped, "no serving IP to scan"),
        Some(ip) => match scanner.scan(ip, row.domain) {
            Ok(chain) => match chain.leaf() {
                Some(leaf) => match dep.caodb.owner_of_issuer(leaf.issuer_id) {
                    Some(owner) => {
                        row.ca_owner = Some(owner.owner_id);
                        row.ca_owner_country = Some(&owner.country);
                        None
                    }
                    None => failed(FailureCause::UnknownIssuer, "unknown issuer"),
                },
                None => failed(FailureCause::Malformed, "empty certificate chain"),
            },
            Err(e) => Some(scan_failure(&e)),
        },
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{MeasuredDataset, SiteObservation};
    use crate::store::ChunkStore;
    use webdep_webgen::{DeployConfig, WorldConfig};

    /// `world` measured into the scratch store `name` and loaded back.
    fn measured(world: &World, config: &PipelineConfig, name: &str) -> MeasuredDataset {
        let dep = DeployedWorld::deploy(world, DeployConfig::default());
        let dir = std::env::temp_dir().join(format!("webdep-run-{name}-{}", std::process::id()));
        measure_streamed(world, &dep, config, &dir, None).expect("measure into a store");
        let ds = ChunkStore::open(&dir).and_then(|s| s.load_dataset(world));
        let _ = std::fs::remove_dir_all(&dir);
        ds.expect("load the store")
    }

    #[test]
    fn measures_tiny_world_accurately() {
        let world = World::generate(WorldConfig::tiny());
        let config = PipelineConfig {
            workers: 4,
            ..Default::default()
        };
        let ds = measured(&world, &config, "accurate");
        assert_eq!(ds.observations.len(), world.sites.len());
        let rate = ds.success_rate(&world);
        assert!(rate > 0.99, "success rate {rate}");

        // Measurement must agree with ground truth on org / CA / DNS ids.
        let mut checked = 0;
        for (i, site) in world.sites.iter().enumerate().step_by(53) {
            let obs = &ds.observations[i];
            assert_eq!(obs.hosting_org, Some(site.hosting), "{}", site.domain);
            assert_eq!(obs.dns_org, Some(site.dns), "{}", site.domain);
            assert_eq!(obs.ca_owner, Some(site.ca), "{}", site.domain);
            assert_eq!(
                obs.tld,
                world.universe.tld(site.tld).label,
                "{}",
                site.domain
            );
            checked += 1;
        }
        assert!(checked > 50);
    }

    #[test]
    fn anycast_flag_set_for_cloudflare_sites() {
        let world = World::generate(WorldConfig::tiny());
        let ds = measured(&world, &PipelineConfig::default(), "anycast");
        let cf = world.universe.provider_by_name("Cloudflare").unwrap();
        let cf_obs: Vec<&SiteObservation> = ds
            .observations
            .iter()
            .zip(&world.sites)
            .filter(|(_, s)| s.hosting == cf)
            .map(|(o, _)| o)
            .collect();
        assert!(!cf_obs.is_empty());
        assert!(cf_obs.iter().all(|o| o.hosting_anycast));
    }
}

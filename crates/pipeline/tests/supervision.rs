//! Supervision, chaos, and crash-resume: a panicking site must cost only
//! itself, a dying worker must cost only one retry of its in-flight
//! batch, a hung worker must be caught by the watchdog, and a run resumed
//! from what a crash left of its chunk store must heal to byte-identical
//! chunks.

use std::path::{Path, PathBuf};
use std::time::Duration;
use webdep_pipeline::{
    measure_streamed, resume_streamed, ChaosPlan, ChunkStore, ChunkStoreWriter, FailureCause,
    MeasureStats, MeasuredDataset, PipelineConfig, SupervisorConfig, DEFAULT_CHUNK_SITES,
};
use webdep_webgen::{DeployConfig, DeployedWorld, World, WorldConfig};

fn tiny_world() -> World {
    let mut cfg = WorldConfig::tiny();
    // Smaller still: these tests deploy and measure several times.
    cfg.sites_per_country = 100;
    cfg.global_pool_size = 300;
    World::generate(cfg)
}

fn config(chaos: Option<ChaosPlan>) -> PipelineConfig {
    PipelineConfig {
        workers: 4,
        chaos,
        ..Default::default()
    }
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("webdep-supervision-{name}-{}", std::process::id()))
}

/// `world` measured into the scratch store `name`, loaded back, with the
/// run's accounting.
fn measured(
    world: &World,
    dep: &DeployedWorld,
    cfg: &PipelineConfig,
    name: &str,
) -> (MeasuredDataset, MeasureStats) {
    let dir = tmp(name);
    let stats = measure_streamed(world, dep, cfg, &dir, None).expect("measure into a store");
    let ds = load_store(&dir, world);
    let _ = std::fs::remove_dir_all(&dir);
    (ds, stats)
}

/// Byte-level identity, not just `PartialEq`: the acceptance bar is the
/// serialized form of every observation.
fn assert_byte_identical(a: &MeasuredDataset, b: &MeasuredDataset, what: &str) {
    assert_eq!(a, b, "{what}: datasets differ structurally");
    for (x, y) in a.observations.iter().zip(&b.observations) {
        assert_eq!(
            serde_json::to_string(x).unwrap(),
            serde_json::to_string(y).unwrap(),
            "{what}: serialized observation differs for {}",
            x.domain
        );
    }
}

#[test]
fn injected_panic_is_isolated_to_its_site() {
    let world = tiny_world();
    let dep = DeployedWorld::deploy(&world, DeployConfig::default());
    let target = world.sites.len() / 2;

    let (clean, _) = measured(&world, &dep, &config(None), "panic");
    let chaos = config(Some(ChaosPlan::panic_at(&[target])));
    let (ds, stats) = measured(&world, &dep, &chaos, "panic");

    assert_eq!(stats.supervision.panics_isolated, 1);
    assert_eq!(
        stats.supervision.workers_lost, 0,
        "a panic must not kill its worker"
    );
    for (i, (want, got)) in clean.observations.iter().zip(&ds.observations).enumerate() {
        if i == target {
            let e = got
                .hosting_error
                .as_ref()
                .expect("panicked site records a failure");
            assert_eq!(e.cause, FailureCause::Internal);
            assert!(
                e.detail.starts_with("panic:"),
                "panic payload should surface in the detail: {}",
                e.detail
            );
        } else {
            assert_eq!(want, got, "site {i} was disturbed by a panic elsewhere");
        }
    }
}

#[test]
fn worker_death_costs_one_retry_and_zero_bytes() {
    let world = tiny_world();
    let dep = DeployedWorld::deploy(&world, DeployConfig::default());
    let target = world.sites.len() / 2;

    let (clean, _) = measured(&world, &dep, &config(None), "death");
    let chaos = config(Some(ChaosPlan::kill_at(&[target])));
    let (ds, stats) = measured(&world, &dep, &chaos, "death");

    // The kill fires on the first attempt only, so the requeued batch
    // re-measures cleanly: exactly one loss, one requeue, one respawn.
    assert_eq!(stats.supervision.workers_lost, 1);
    assert_eq!(stats.supervision.batches_requeued, 1);
    assert_eq!(stats.supervision.workers_respawned, 1);
    assert_eq!(stats.supervision.sites_poisoned, 0);
    assert_byte_identical(&clean, &ds, "worker death");
}

#[test]
fn poisoned_batch_is_failed_not_retried_forever() {
    let world = tiny_world();
    let dep = DeployedWorld::deploy(&world, DeployConfig::default());
    let n = world.sites.len();
    let target = n / 2;
    // Dynamic batches are 16-aligned; the poisoned site takes down the
    // rest of its batch (earlier sites were committed before the kill).
    let batch_hi = ((target / 16 + 1) * 16).min(n);

    let (clean, _) = measured(&world, &dep, &config(None), "poison");
    let chaos = config(Some(ChaosPlan::poison_at(&[target])));
    let (ds, stats) = measured(&world, &dep, &chaos, "poison");

    assert_eq!(
        stats.supervision.workers_lost, 2,
        "poison threshold is two kills"
    );
    assert_eq!(
        stats.supervision.batches_requeued, 1,
        "the second kill poisons, not requeues"
    );
    assert_eq!(stats.supervision.sites_poisoned, (batch_hi - target) as u64);
    for (i, (want, got)) in clean.observations.iter().zip(&ds.observations).enumerate() {
        if (target..batch_hi).contains(&i) {
            let e = got
                .hosting_error
                .as_ref()
                .expect("poisoned site records a failure");
            assert_eq!(e.cause, FailureCause::Internal, "site {i}");
            assert_eq!(
                got.error.as_deref(),
                Some("internal: site batch abandoned after killing 2 workers"),
                "site {i}"
            );
        } else {
            assert_eq!(
                want, got,
                "site {i} outside the poisoned batch was disturbed"
            );
        }
    }
}

#[test]
fn hung_worker_is_caught_by_the_watchdog() {
    let world = tiny_world();
    let dep = DeployedWorld::deploy(&world, DeployConfig::default());
    let target = world.sites.len() / 3;

    let (clean, _) = measured(&world, &dep, &config(None), "hang");
    let mut cfg = config(Some(ChaosPlan::hang_at(&[target])));
    // Short deadline so the stale-heartbeat path (not thread death)
    // triggers; healthy sites measure in well under this.
    cfg.supervisor = SupervisorConfig {
        site_deadline: Duration::from_millis(500),
        ..SupervisorConfig::default()
    };
    let (ds, stats) = measured(&world, &dep, &cfg, "hang");

    assert!(
        stats.supervision.workers_lost >= 1,
        "the watchdog never fired: {:?}",
        stats.supervision
    );
    assert!(stats.supervision.batches_requeued >= 1);
    assert_eq!(
        stats.supervision.sites_poisoned, 0,
        "the hang fires once; the retry succeeds"
    );
    assert_byte_identical(&clean, &ds, "hung worker");
}

/// The chunk store a run killed after its first `k` commits leaves
/// behind, when those were sites `0..k`: every chunk they completed, and
/// nothing of the partial one.
fn cut_store(full: &MeasuredDataset, label: &str, k: usize, dir: &Path) {
    let n = full.observations.len();
    let mut w = ChunkStoreWriter::create(dir, label, n, DEFAULT_CHUNK_SITES).unwrap();
    for (site, obs) in full.observations[..k].iter().enumerate() {
        w.commit(site, obs).unwrap();
    }
}

/// An uninterrupted streamed run of `world` into the store `name`, and
/// the dataset it holds.
fn full_run(
    world: &World,
    dep: &DeployedWorld,
    cfg: &PipelineConfig,
    name: &str,
) -> (PathBuf, MeasuredDataset) {
    let store = tmp(&format!("{name}-store"));
    measure_streamed(world, dep, cfg, &store, None).unwrap();
    let full = load_store(&store, world);
    (store, full)
}

fn load_store(dir: &Path, world: &World) -> MeasuredDataset {
    ChunkStore::open(dir).unwrap().load_dataset(world).unwrap()
}

/// Every file of store `b` is byte-identical to store `a`'s.
fn assert_same_store(a: &Path, b: &Path, what: &str) {
    let mut names: Vec<_> = std::fs::read_dir(a)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    names.sort();
    assert!(names.len() >= 2, "{what}: expected a manifest and chunks");
    for name in names {
        assert_eq!(
            std::fs::read(a.join(&name)).unwrap(),
            std::fs::read(b.join(&name)).unwrap(),
            "{what}: {name:?} differs from the uninterrupted run"
        );
    }
}

#[test]
fn resume_is_byte_identical_at_three_progress_points() {
    let world = tiny_world();
    let dep = DeployedWorld::deploy(&world, DeployConfig::default());
    let n = world.sites.len();

    let (full_store, clean) = full_run(&world, &dep, &config(None), "full");

    for (point, frac) in [(0, 0.08), (1, 0.5), (2, 0.92)] {
        let k = ((n as f64) * frac) as usize;
        let store = tmp(&format!("cut-{point}-store"));
        cut_store(&clean, &world.label, k, &store);

        // Only the completed chunks survive a crash: their sites are kept,
        // the rest measured again.
        let stats = resume_streamed(&world, &dep, &config(None), &store).unwrap();
        let durable = k / DEFAULT_CHUNK_SITES * DEFAULT_CHUNK_SITES;
        assert_eq!(stats.supervision.sites_resumed, durable as u64);
        assert_same_store(
            &full_store,
            &store,
            &format!("resume after {k}/{n} commits"),
        );
        assert_byte_identical(&clean, &load_store(&store, &world), "resumed store");

        // The store is complete: resuming again measures nothing.
        let stats2 = resume_streamed(&world, &dep, &config(None), &store).unwrap();
        assert_eq!(stats2.supervision.sites_resumed, n as u64);
        assert_same_store(&full_store, &store, "second resume (complete store)");
        let _ = std::fs::remove_dir_all(&store);
    }
    let _ = std::fs::remove_dir_all(&full_store);
}

/// The tier-1 chaos smoke: one worker death plus a kill-and-resume cycle
/// on the smallest world that still exercises batching.
#[test]
fn chaos_smoke_one_worker_death_and_resume() {
    let mut wc = WorldConfig::tiny();
    wc.sites_per_country = 30;
    wc.global_pool_size = 100;
    let world = World::generate(wc);
    let dep = DeployedWorld::deploy(&world, DeployConfig::default());
    let n = world.sites.len();
    let target = n / 2;

    let clean = tmp("smoke-clean-store");
    measure_streamed(&world, &dep, &config(None), &clean, None).unwrap();
    let chaos = config(Some(ChaosPlan::kill_at(&[target])));
    let (full_store, full) = full_run(&world, &dep, &chaos, "smoke");
    assert_same_store(&clean, &full_store, "chaos smoke (one death)");
    let _ = std::fs::remove_dir_all(&clean);

    let store = tmp("smoke-cut-store");
    cut_store(&full, &world.label, n / 2, &store);
    let rstats = resume_streamed(&world, &dep, &config(None), &store).unwrap();
    let durable = n / 2 / DEFAULT_CHUNK_SITES * DEFAULT_CHUNK_SITES;
    assert_eq!(rstats.supervision.sites_resumed, durable as u64);
    assert_same_store(&full_store, &store, "chaos smoke resume");
    let _ = std::fs::remove_dir_all(&store);
    let _ = std::fs::remove_dir_all(&full_store);
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

/// A streamed run killed mid-chunk: the crash scene keeps the durable
/// chunks, tears one chunk file mid-write and loses the final chunk
/// entirely. Resuming over the chunk store keeps the durable chunks
/// wholesale, quarantines the torn one and re-measures the sites of the
/// torn and the lost chunk, and reloads byte-identical to an
/// uninterrupted run.
#[test]
fn a_killed_streamed_run_heals_over_the_chunk_store() {
    let world = tiny_world();
    let dep = DeployedWorld::deploy(&world, DeployConfig::default());
    let n = world.sites.len();

    // The uninterrupted reference run.
    let (store_full, full) = full_run(&world, &dep, &config(None), "stream-full");

    // The crash scene.
    let store_cut = tmp("stream-cut-store");
    let _ = std::fs::remove_dir_all(&store_cut);
    copy_dir(&store_full, &store_cut);
    let mut chunks: Vec<PathBuf> = std::fs::read_dir(&store_cut)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "col"))
        .collect();
    chunks.sort();
    assert!(chunks.len() >= 3, "need ≥3 chunks, got {}", chunks.len());
    std::fs::remove_file(chunks.last().unwrap()).unwrap();
    let torn = std::fs::read(&chunks[0]).unwrap();
    std::fs::write(&chunks[0], &torn[..torn.len() - 7]).unwrap();

    let stats = resume_streamed(&world, &dep, &config(None), &store_cut).unwrap();
    let last = (chunks.len() - 1) * DEFAULT_CHUNK_SITES;
    let lost = DEFAULT_CHUNK_SITES + (n - last);
    assert_eq!(stats.supervision.sites_resumed, (n - lost) as u64);
    let healed = load_store(&store_cut, &world);
    assert_byte_identical(&full, &healed, "resume over a torn chunk store");
    let quarantined = store_cut
        .join("quarantine")
        .join(chunks[0].file_name().unwrap());
    assert_eq!(
        std::fs::read(quarantined).unwrap(),
        &torn[..torn.len() - 7],
        "the torn chunk is kept in quarantine"
    );

    // Every chunk file healed to the uninterrupted run's exact bytes.
    for chunk in &chunks {
        let name = chunk.file_name().unwrap();
        assert_eq!(
            std::fs::read(chunk).unwrap(),
            std::fs::read(store_full.join(name)).unwrap(),
            "chunk {name:?} differs from the uninterrupted run"
        );
    }

    // The store is complete now: a second resume re-measures nothing.
    let stats2 = resume_streamed(&world, &dep, &config(None), &store_cut).unwrap();
    assert_eq!(stats2.supervision.sites_resumed, n as u64);

    let _ = std::fs::remove_dir_all(&store_full);
    let _ = std::fs::remove_dir_all(&store_cut);
}

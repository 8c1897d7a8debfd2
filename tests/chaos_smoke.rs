//! Tier-1 chaos smoke (see DESIGN.md "Supervision, checkpointing & resume"):
//! the smallest end-to-end proof that supervision works. One injected worker
//! death must cost zero observations, and a checkpointed run killed halfway
//! through must resume from its chunk store and journal into byte-identical
//! chunks.
//!
//! The heavier matrix (panic isolation, poison, watchdog, three-point
//! resume, torn tails) lives in `crates/pipeline/tests/supervision.rs`.

use webdep::pipeline::journal;
use webdep::pipeline::{
    measure_streamed, resume_streamed, ChaosPlan, ChunkStore, ChunkStoreWriter, JournalWriter,
    PipelineConfig, DEFAULT_CHUNK_SITES,
};
use webdep::webgen::{DeployConfig, DeployedWorld, World, WorldConfig};

#[test]
fn chaos_smoke_worker_death_and_crash_resume() {
    let mut wc = WorldConfig::tiny();
    wc.sites_per_country = 30;
    wc.global_pool_size = 100;
    let world = World::generate(wc);
    let dep = DeployedWorld::deploy(&world, DeployConfig::default());
    let n = world.sites.len();

    let config = PipelineConfig {
        workers: 4,
        ..Default::default()
    };
    let tmp = |name: &str| {
        std::env::temp_dir().join(format!("webdep-chaos-smoke-{name}-{}", std::process::id()))
    };
    let clean = tmp("clean");
    measure_streamed(&world, &dep, &config, &clean, None).unwrap();

    // One worker killed mid-run: its in-flight batch is requeued and the
    // store comes out byte-identical to the undisturbed run.
    let chaos = PipelineConfig {
        chaos: Some(ChaosPlan::kill_at(&[n / 2])),
        ..config.clone()
    };
    let (store, path) = (tmp("store"), tmp("journal"));
    let stats = measure_streamed(&world, &dep, &chaos, &store, Some(&path)).unwrap();
    assert_eq!(stats.supervision.workers_lost, 1);
    assert_eq!(stats.supervision.batches_requeued, 1);
    let load = |dir| ChunkStore::open(dir).unwrap().load_dataset(&world).unwrap();
    assert_eq!(
        load(&clean),
        load(&store),
        "a worker death changed the dataset"
    );

    // Rebuild what a process killed after half its commits leaves behind:
    // the journal's first half, and the chunks those commits completed.
    let full = journal::load(&path).unwrap();
    let (cut_store, cut_path) = (tmp("cut-store"), tmp("cut-journal"));
    let mut sw = ChunkStoreWriter::create(&cut_store, &full.label, n, DEFAULT_CHUNK_SITES).unwrap();
    let mut jw = JournalWriter::create(&cut_path, &full.label, n).unwrap();
    for (site, obs) in &full.records[..n / 2] {
        sw.commit(*site, obs).unwrap();
        jw.append(*site, obs).unwrap();
    }
    drop((sw, jw));

    // Resume: only the missing half is re-measured, and every chunk heals
    // to the uninterrupted run's bytes.
    let rstats = resume_streamed(&world, &dep, &config, &cut_store, &cut_path).unwrap();
    assert_eq!(rstats.supervision.sites_resumed, (n / 2) as u64);
    let chunks = ChunkStore::open(&store).unwrap().num_chunks();
    for c in 0..chunks {
        let name = format!("chunk-{c:06}.col");
        assert_eq!(
            std::fs::read(store.join(&name)).unwrap(),
            std::fs::read(cut_store.join(&name)).unwrap(),
            "crash-resume changed {name}"
        );
    }
    for dir in [&clean, &store, &cut_store] {
        let _ = std::fs::remove_dir_all(dir);
    }
    for file in [&path, &cut_path] {
        let _ = std::fs::remove_file(file);
    }
}

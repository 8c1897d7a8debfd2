//! Tier-1 chaos smoke (see DESIGN.md "Supervision, durability & resume"):
//! the smallest end-to-end proof that supervision works. One injected
//! worker death must cost zero observations, and a store a crash left
//! with one chunk kept, one torn and one never written must resume into
//! byte-identical chunks.
//!
//! The heavier matrix (panic isolation, poison, watchdog, three-point
//! resume) lives in `crates/pipeline/tests/supervision.rs`.

use webdep::pipeline::{
    measure_streamed, resume_streamed, ChaosPlan, ChunkStore, PipelineConfig, DEFAULT_CHUNK_SITES,
};
use webdep::webgen::{DeployConfig, DeployedWorld, World, WorldConfig};

#[test]
fn chaos_smoke_worker_death_and_crash_resume() {
    // The smallest world that still spans three chunks.
    let mut wc = WorldConfig::tiny();
    wc.sites_per_country = 100;
    wc.global_pool_size = 300;
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
    let store = tmp("store");
    let stats = measure_streamed(&world, &dep, &chaos, &store, None).unwrap();
    assert_eq!(stats.supervision.workers_lost, 1);
    assert_eq!(stats.supervision.batches_requeued, 1);
    let load = |dir| ChunkStore::open(dir).unwrap().load_dataset(&world).unwrap();
    assert_eq!(
        load(&clean),
        load(&store),
        "a worker death changed the dataset"
    );

    // Rebuild what a crash leaves behind from the chaos run's chunks: the
    // first chunk durable, the second torn mid-write, the last never
    // written.
    let chunks = ChunkStore::open(&store).unwrap().num_chunks();
    assert!(chunks >= 3, "need three chunks, got {chunks}");
    let name = |c: usize| format!("chunk-{c:06}.col");
    let cut = tmp("cut");
    let _ = std::fs::remove_dir_all(&cut);
    std::fs::create_dir_all(&cut).unwrap();
    std::fs::copy(store.join("manifest.json"), cut.join("manifest.json")).unwrap();
    for c in 0..chunks - 1 {
        let bytes = std::fs::read(store.join(name(c))).unwrap();
        let kept = if c == 1 { bytes.len() / 2 } else { bytes.len() };
        std::fs::write(cut.join(name(c)), &bytes[..kept]).unwrap();
    }

    // Resume: the durable chunks are kept, the torn one is quarantined,
    // and the sites of the torn and the unwritten ones are re-measured
    // into the uninterrupted run's bytes.
    let rstats = resume_streamed(&world, &dep, &config, &cut).unwrap();
    let lost = DEFAULT_CHUNK_SITES + (n - (chunks - 1) * DEFAULT_CHUNK_SITES);
    assert_eq!(rstats.supervision.sites_resumed, (n - lost) as u64);
    assert!(cut.join("quarantine").join(name(1)).exists());
    for c in 0..chunks {
        assert_eq!(
            std::fs::read(store.join(name(c))).unwrap(),
            std::fs::read(cut.join(name(c))).unwrap(),
            "crash-resume changed {}",
            name(c)
        );
    }
    for dir in [&clean, &store, &cut] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

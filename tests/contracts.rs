//! The contracts the rest of the system leans on, checked on a reduced
//! world:
//!
//! * measurement is independent of the worker count — one worker and four
//!   workers racing for the shared queue measure equal datasets;
//! * a snapshot served from the chunk store answers exactly what a
//!   resident analysis context computes: every layer's score table,
//!   global owner counts, per-country totals and bootstrap CIs are
//!   bit-equal;
//! * provider clustering is independent of the thread count — affinity
//!   propagation over the hosting and DNS features returns equal
//!   clusterings on one, two and three threads;
//! * `fsck --repair` heals a corrupt chunk from the run journal to the
//!   bytes the run wrote;
//! * world generation is deterministic: two generations of one config
//!   have equal sites, toplists and universe, so two processes measure
//!   the same world;
//! * an epoch measured as a delta equals one measured from scratch: the
//!   `measure_delta` store is byte-identical to a full `measure_streamed`
//!   run of the evolved world, and the snapshot `from_delta` builds off it
//!   equals the one `from_store` folds — the shared fold's two modes.

use std::sync::{Arc, OnceLock};
use webdep::analysis::centralization::layer_table;
use webdep::analysis::classes::classify;
use webdep::analysis::AnalysisCtx;
use webdep::pipeline::{
    measure, measure_delta, measure_streamed, ChunkStore, MeasuredDataset, PipelineConfig,
};
use webdep::serve::CubeSnapshot;
use webdep::stats::affinity::{affinity_propagation, AffinityConfig};
use webdep::stats::scale::min_max_scale_columns;
use webdep::webgen::{
    provider_site_counts, DeployConfig, DeployedWorld, EvolutionPlan, Layer, World, WorldConfig,
    COUNTRIES,
};

fn config(workers: usize) -> PipelineConfig {
    PipelineConfig {
        workers,
        ..PipelineConfig::default()
    }
}

/// The reduced world every contract runs on.
fn world_config() -> WorldConfig {
    let mut wc = WorldConfig::tiny();
    wc.sites_per_country = 60;
    wc.global_pool_size = 300;
    wc
}

/// A reduced world and its one-worker measurement, shared by the tests.
fn fixture() -> &'static (World, MeasuredDataset) {
    static FIXTURE: OnceLock<(World, MeasuredDataset)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let world = World::generate(world_config());
        let dep = DeployedWorld::deploy(&world, DeployConfig::default());
        let ds = measure(&world, &dep, &config(1));
        (world, ds)
    })
}

#[test]
fn world_generation_is_deterministic() {
    // The contract world, and the tiny world, whose owners tie on equal
    // counts where map iteration order used to break the tie.
    for wc in [world_config(), WorldConfig::tiny()] {
        let (a, b) = (World::generate(wc.clone()), World::generate(wc));
        // Not assert_eq!: a mismatch would print two whole worlds.
        assert!(a.sites == b.sites, "two generations assign different sites");
        assert!(
            a.toplists == b.toplists,
            "two generations rank different toplists"
        );
        assert!(
            a.global_top == b.global_top,
            "two generations differ in the global top list"
        );
        assert!(
            a.universe == b.universe,
            "two generations build different universes"
        );
    }
}

#[test]
fn measurement_is_independent_of_worker_count() {
    let (world, solo) = fixture();
    let dep = DeployedWorld::deploy(world, DeployConfig::default());
    let four = measure(world, &dep, &config(4));
    // Not assert_eq!: a mismatch would print two whole datasets.
    assert!(*solo == four, "1-worker and 4-worker measurements differ");
}

#[test]
fn store_snapshot_answers_like_resident_context() {
    let (world, solo) = fixture();
    let dep = DeployedWorld::deploy(world, DeployConfig::default());
    let dir = std::env::temp_dir().join(format!("webdep-contracts-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    measure_streamed(world, &dep, &config(4), &dir, None).expect("measure into a store");
    drop(dep);
    let snapshot =
        CubeSnapshot::from_store(1, Arc::new(world.clone()), &dir).expect("load snapshot");
    let _ = std::fs::remove_dir_all(&dir);

    let served = snapshot.ctx();
    let resident = AnalysisCtx::new(world, solo);
    // Debug renders every f64 in its shortest round-trip form, so equal
    // renderings mean bit-equal values.
    for layer in Layer::ALL {
        let table = layer_table(&served, layer);
        assert_eq!(table.rows.len(), 150, "{layer:?}: every country scored");
        assert_eq!(
            format!("{table:?}"),
            format!("{:?}", layer_table(&resident, layer)),
            "{layer:?} layer table differs between store snapshot and resident context"
        );
        // Every owner's global count, the top 10 of which the report
        // prints, and each country's toplist length and measured total.
        assert_eq!(
            served.global_counts(layer),
            resident.global_counts(layer),
            "{layer:?} global owner counts differ"
        );
        for ci in 0..COUNTRIES.len() {
            assert_eq!(
                (served.toplist_len(ci), served.country_total(ci, layer)),
                (resident.toplist_len(ci), resident.country_total(ci, layer)),
                "country {ci} {layer:?}: toplist length or measured total differs"
            );
        }
        for code in ["US", "DE", "TH", "IR", "BR"] {
            let ci = World::country_index(code).unwrap();
            let a = served.score_ci(ci, layer, 100, 0.95, 7);
            let b = resident.score_ci(ci, layer, 100, 0.95, 7);
            assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "{code} {layer:?} CI differs between store snapshot and resident context"
            );
        }
    }
}

#[test]
fn clustering_is_independent_of_thread_count() {
    let (world, solo) = fixture();
    let ctx = AnalysisCtx::new(world, solo);
    for layer in [Layer::Hosting, Layer::Dns] {
        // The clustering input `classify` builds: min-max scaled usage and
        // endemicity ratio per owner.
        let raw: Vec<Vec<f64>> = classify(&ctx, layer)
            .features
            .iter()
            .map(|f| vec![f.usage, f.endemicity_ratio])
            .collect();
        let points = min_max_scale_columns(&raw);
        let cluster = |threads| {
            let config = AffinityConfig {
                threads,
                ..AffinityConfig::default()
            };
            affinity_propagation(&points, &config).expect("owners to cluster")
        };
        let one = cluster(1);
        for threads in [2, 3] {
            assert_eq!(
                one,
                cluster(threads),
                "{layer:?} clustering differs between 1 and {threads} threads"
            );
        }
    }
}

#[test]
fn fsck_heals_a_corrupt_chunk_from_the_journal() {
    let (world, _) = fixture();
    let dep = DeployedWorld::deploy(world, DeployConfig::default());
    let tmp = |name: &str| {
        std::env::temp_dir().join(format!(
            "webdep-contracts-fsck-{name}-{}",
            std::process::id()
        ))
    };
    let (dir, journal) = (tmp("store"), tmp("journal"));
    let _ = std::fs::remove_dir_all(&dir);
    measure_streamed(world, &dep, &config(4), &dir, Some(&journal)).expect("checkpointed run");
    drop(dep);

    let chunk = dir.join("chunk-000001.col");
    let original = std::fs::read(&chunk).unwrap();
    let mut damaged = original.clone();
    damaged[original.len() / 2] ^= 0x10;
    std::fs::write(&chunk, &damaged).unwrap();

    let report = ChunkStore::fsck(&dir, Some(&journal), true).expect("fsck");
    assert_eq!(report.corrupt.len(), 1, "{report:?}");
    assert_eq!(report.healed, 1, "{report:?}");
    assert!(report.intact(), "{report:?}");
    assert!(
        std::fs::read(&chunk).unwrap() == original,
        "the healed chunk differs from the run's bytes"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn delta_epoch_equals_from_scratch() {
    let (world, _) = fixture();
    let tmp = |name: &str| {
        std::env::temp_dir().join(format!(
            "webdep-contracts-delta-{name}-{}",
            std::process::id()
        ))
    };
    let (base, delta_dir, full) = (tmp("base"), tmp("delta"), tmp("full"));
    // Both epochs deploy against the base epoch's pool census, as the
    // continuous loop does, so an unchanged site measures identically.
    let pinned = DeployConfig {
        pool_sites: Some(Arc::new(provider_site_counts(world))),
        ..DeployConfig::default()
    };
    let dep = DeployedWorld::deploy(world, pinned.clone());
    measure_streamed(world, &dep, &config(2), &base, None).expect("base epoch");
    drop(dep);

    let (evolved, delta) = EvolutionPlan::continuous(1, 0.10, 5).evolve_epoch(world, 0);
    let dep = DeployedWorld::deploy(&evolved, pinned);
    measure_delta(&evolved, &dep, &config(2), &delta, &base, &delta_dir, None).expect("delta");
    measure_streamed(&evolved, &dep, &config(2), &full, None).expect("from scratch");
    drop(dep);

    let chunks = ChunkStore::open(&full).expect("open").num_chunks();
    let files: Vec<String> = std::iter::once("manifest.json".to_string())
        .chain((0..chunks).map(|c| format!("chunk-{c:06}.col")))
        .collect();
    for f in &files {
        assert!(
            std::fs::read(delta_dir.join(f)).unwrap() == std::fs::read(full.join(f)).unwrap(),
            "{f} differs between the delta and the from-scratch store"
        );
    }
    assert_eq!(
        std::fs::read_dir(&delta_dir).unwrap().count(),
        files.len(),
        "stray files in the delta store"
    );

    let world = Arc::new(world.clone());
    let evolved = Arc::new(evolved);
    let prev = CubeSnapshot::from_store(1, world, &base).expect("base snapshot");
    let via_delta = CubeSnapshot::from_delta(2, Arc::clone(&evolved), &prev, &delta, &delta_dir)
        .expect("from_delta");
    let via_store = CubeSnapshot::from_store(2, evolved, &delta_dir).expect("from_store");
    for dir in [&base, &delta_dir, &full] {
        let _ = std::fs::remove_dir_all(dir);
    }

    assert_eq!(via_delta.taxonomy, via_store.taxonomy);
    // Debug renders every f64 in its shortest round-trip form, so equal
    // renderings mean bit-equal values.
    let (a, b) = (via_delta.ctx(), via_store.ctx());
    for layer in Layer::ALL {
        assert_eq!(
            format!("{:?}", layer_table(&a, layer)),
            format!("{:?}", layer_table(&b, layer)),
            "{layer:?} layer table differs between from_delta and from_store"
        );
    }
    via_delta
        .validate(Some(&prev), Some(&delta))
        .expect("the delta-built snapshot validates");
}

//! The contracts the rest of the system leans on, checked on a reduced
//! world:
//!
//! * measurement is independent of the worker count — one worker and four
//!   workers racing for the shared queue measure equal datasets;
//! * a snapshot served from the chunk store answers exactly what a
//!   resident analysis context computes: every layer's score table and
//!   bootstrap CIs are bit-equal;
//! * provider clustering is independent of the thread count — affinity
//!   propagation over the hosting and DNS features returns equal
//!   clusterings on one, two and three threads;
//! * `fsck --repair` heals a corrupt chunk from the run journal to the
//!   bytes the run wrote.

use std::sync::{Arc, OnceLock};
use webdep::analysis::centralization::layer_table;
use webdep::analysis::classes::classify;
use webdep::analysis::AnalysisCtx;
use webdep::pipeline::{measure, measure_streamed, ChunkStore, MeasuredDataset, PipelineConfig};
use webdep::serve::CubeSnapshot;
use webdep::stats::affinity::{affinity_propagation, AffinityConfig};
use webdep::stats::scale::min_max_scale_columns;
use webdep::webgen::{DeployConfig, DeployedWorld, Layer, World, WorldConfig};

fn config(workers: usize) -> PipelineConfig {
    PipelineConfig {
        workers,
        ..PipelineConfig::default()
    }
}

/// A reduced world and its one-worker measurement, shared by the tests.
fn fixture() -> &'static (World, MeasuredDataset) {
    static FIXTURE: OnceLock<(World, MeasuredDataset)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut wc = WorldConfig::tiny();
        wc.sites_per_country = 60;
        wc.global_pool_size = 300;
        let world = World::generate(wc);
        let dep = DeployedWorld::deploy(&world, DeployConfig::default());
        let ds = measure(&world, &dep, &config(1));
        (world, ds)
    })
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

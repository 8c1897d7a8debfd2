//! Incremental epoch measurement: `measure_delta` must materialize a store
//! byte-identical to a from-scratch `measure_streamed` of the evolved
//! world — the same determinism contract as crash-resume — at any worker
//! count, while re-measuring only the dirty site set.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use webdep_pipeline::run::{measure_streamed, PipelineConfig};
use webdep_pipeline::{measure_delta, ChunkStore};
use webdep_webgen::{
    provider_site_counts, DeployConfig, DeployedWorld, EpochKnobs, EvolutionPlan, World,
    WorldConfig,
};

/// Big enough to span several 4096-site chunks (so clean-chunk adoption is
/// actually exercised), small enough to measure in seconds.
fn small_world() -> World {
    World::generate(WorldConfig {
        seed: 42,
        sites_per_country: 90,
        global_pool_size: 120,
        tail_scale: 0.04,
        pool_target: 40,
    })
}

fn cfg(workers: usize) -> PipelineConfig {
    PipelineConfig {
        workers,
        ..Default::default()
    }
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("webdep-delta-{name}-{}", std::process::id()))
}

/// Byte-level store equality: manifest and every chunk file.
fn assert_stores_identical(a: &Path, b: &Path, what: &str) {
    let store = ChunkStore::open(a).unwrap();
    let files: Vec<String> = std::iter::once("manifest.json".to_string())
        .chain((0..store.num_chunks()).map(|c| format!("chunk-{c:06}.col")))
        .collect();
    for f in &files {
        assert_eq!(
            std::fs::read(a.join(f)).unwrap(),
            std::fs::read(b.join(f)).unwrap(),
            "{what}: {f} differs"
        );
    }
    assert_eq!(
        std::fs::read_dir(a).unwrap().count(),
        std::fs::read_dir(b).unwrap().count(),
        "{what}: stray files"
    );
}

/// Churn-only evolution (no in-place migration): every chunk below the old
/// final partial one is clean, so the delta path must adopt it wholesale,
/// and the result must match the from-scratch store byte for byte at 1, 2,
/// and 8 workers.
#[test]
fn delta_store_byte_identical_and_adopts_clean_chunks() {
    let base = small_world();
    let census = Arc::new(provider_site_counts(&base));
    let pinned = DeployConfig {
        pool_sites: Some(Arc::clone(&census)),
        ..DeployConfig::default()
    };
    let dep1 = DeployedWorld::deploy(&base, pinned.clone());
    let epoch1 = tmp("adopt-e1");
    let _ = std::fs::remove_dir_all(&epoch1);
    measure_streamed(&base, &dep1, &cfg(4), &epoch1, None).unwrap();

    let plan = EvolutionPlan {
        seed: 7,
        epochs: vec![EpochKnobs {
            migration: 0.0,
            ..EpochKnobs::steady(0.10)
        }],
    };
    let (evolved, delta) = plan.evolve_epoch(&base, 0);
    delta.certify_unchanged(&base, &evolved).unwrap();
    assert!(delta.migrated.is_empty());

    // From-scratch comparator: the evolved world deployed with the *base*
    // epoch's pinned pool census, exactly like the delta path.
    let dep2 = DeployedWorld::deploy(&evolved, pinned.clone());
    let full = tmp("adopt-full");
    let _ = std::fs::remove_dir_all(&full);
    measure_streamed(&evolved, &dep2, &cfg(4), &full, None).unwrap();

    for workers in [1usize, 2, 8] {
        let dir = tmp(&format!("adopt-w{workers}"));
        let _ = std::fs::remove_dir_all(&dir);
        let stats =
            measure_delta(&evolved, &dep2, &cfg(workers), &delta, &epoch1, &dir, None).unwrap();
        assert_eq!(stats.sites_total, evolved.sites.len());
        assert_eq!(stats.sites_remeasured, delta.dirty_count());
        assert!(
            stats.chunks_adopted > 0,
            "churn-only evolution must adopt the clean full chunks"
        );
        assert_stores_identical(&full, &dir, &format!("delta at {workers} workers"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::remove_dir_all(&epoch1).unwrap();
    std::fs::remove_dir_all(&full).unwrap();
}

/// In-place provider migration dirties mid-store sites: their new rows go
/// to a patch over the carried chunks, and the grown tail chunk
/// re-commits its clean rows from the previous store. The patched store
/// loads like the from-scratch one, compacts to its bytes, and only dirty
/// sites are re-measured.
#[test]
fn delta_with_migration_recommits_clean_rows() {
    let base = small_world();
    let census = Arc::new(provider_site_counts(&base));
    let pinned = DeployConfig {
        pool_sites: Some(Arc::clone(&census)),
        ..DeployConfig::default()
    };
    let dep1 = DeployedWorld::deploy(&base, pinned.clone());
    let epoch1 = tmp("mig-e1");
    let _ = std::fs::remove_dir_all(&epoch1);
    measure_streamed(&base, &dep1, &cfg(4), &epoch1, None).unwrap();

    let plan = EvolutionPlan::continuous(1, 0.10, 3);
    let (evolved, delta) = plan.evolve_epoch(&base, 0);
    delta.certify_unchanged(&base, &evolved).unwrap();
    assert!(
        !delta.migrated.is_empty(),
        "steady preset migrates sites in place"
    );

    let dep2 = DeployedWorld::deploy(&evolved, pinned.clone());
    let full = tmp("mig-full");
    let _ = std::fs::remove_dir_all(&full);
    measure_streamed(&evolved, &dep2, &cfg(4), &full, None).unwrap();

    let dir = tmp("mig-delta");
    let _ = std::fs::remove_dir_all(&dir);
    let stats = measure_delta(&evolved, &dep2, &cfg(4), &delta, &epoch1, &dir, None).unwrap();
    assert_eq!(stats.sites_remeasured, delta.dirty_count());
    assert!(
        stats.rows_recommitted > 0,
        "the grown tail chunk re-commits its clean rows from the previous store"
    );
    assert_eq!(
        (stats.patch_rows, stats.compacted),
        (delta.migrated.len(), false)
    );
    let load = |dir: &Path| {
        ChunkStore::open(dir)
            .unwrap()
            .load_dataset(&evolved)
            .unwrap()
    };
    let ds_new = load(&dir);
    assert!(
        ds_new.observations == load(&full).observations,
        "the patched store loads differently from the from-scratch one"
    );
    assert!(!ChunkStore::compact(&dir).unwrap().is_empty());
    assert_stores_identical(&full, &dir, "compacted delta with migration");

    // The migrated sites' observations really moved provider.
    let ds_old = ChunkStore::open(&epoch1)
        .unwrap()
        .load_dataset(&base)
        .unwrap();
    let mut changed = 0;
    for &i in &delta.migrated {
        if ds_old.observations[i as usize].hosting_org
            != ds_new.observations[i as usize].hosting_org
        {
            changed += 1;
        }
    }
    assert!(changed > 0, "migration must be visible in the measurements");

    std::fs::remove_dir_all(&epoch1).unwrap();
    std::fs::remove_dir_all(&full).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Store work follows the dirty rows: over four continuous epochs, every
/// epoch that does not compact carries all but the previous tail chunk
/// and every patch, decodes only that tail's clean rows (fewer than one
/// chunk), and encodes those rows once more plus the dirty rows — at most
/// the dirty rows plus one chunk.
#[test]
fn delta_epochs_touch_only_dirty_rows_and_the_tail() {
    let base = small_world();
    let pinned = DeployConfig {
        pool_sites: Some(Arc::new(provider_site_counts(&base))),
        ..DeployConfig::default()
    };
    let plan = EvolutionPlan::continuous(4, 0.10, 9);
    let dirs: Vec<PathBuf> = (0..=4).map(|e| tmp(&format!("work-e{e}"))).collect();
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
    let dep = DeployedWorld::deploy(&base, pinned.clone());
    measure_streamed(&base, &dep, &cfg(2), &dirs[0], None).unwrap();
    drop(dep);
    let mut world = base;
    let mut patch_rows = 0;
    for e in 0..4 {
        let (next, delta) = plan.evolve_epoch(&world, e);
        let dep = DeployedWorld::deploy(&next, pinned.clone());
        let prev = ChunkStore::open(&dirs[e]).unwrap();
        let stats =
            measure_delta(&next, &dep, &cfg(2), &delta, &dirs[e], &dirs[e + 1], None).unwrap();
        assert!(!stats.compacted, "epoch {e}: a few epochs never compact");
        let (k, dirty) = (prev.chunk_sites, delta.dirty_count());
        let decoded = stats.rows_recommitted;
        let encoded = stats.rows_recommitted + stats.sites_remeasured;
        assert_eq!(stats.sites_remeasured, dirty, "epoch {e}");
        assert!(decoded < k, "epoch {e}: {decoded} rows decoded");
        assert!(encoded <= dirty + k, "epoch {e}: {encoded} rows encoded");
        assert_eq!(
            stats.chunks_adopted,
            prev.sites / k,
            "epoch {e}: full chunks carried"
        );
        patch_rows += delta.migrated.len();
        assert_eq!(stats.patch_rows, patch_rows, "epoch {e}");
        let store = ChunkStore::open(&dirs[e + 1]).unwrap();
        assert_eq!(store.num_patches(), e + 1, "epoch {e}: one patch per epoch");
        world = next;
    }
    for dir in &dirs {
        std::fs::remove_dir_all(dir).unwrap();
    }
}

/// A delta against the wrong store or wrong world is refused up front.
#[test]
fn delta_guards_label_and_site_count() {
    let base = small_world();
    let census = Arc::new(provider_site_counts(&base));
    let pinned = DeployConfig {
        pool_sites: Some(census),
        ..DeployConfig::default()
    };
    let dep = DeployedWorld::deploy(&base, pinned.clone());
    let epoch1 = tmp("guard-e1");
    let _ = std::fs::remove_dir_all(&epoch1);
    measure_streamed(&base, &dep, &cfg(2), &epoch1, None).unwrap();

    let (evolved, delta) = EvolutionPlan::continuous(1, 0.05, 1).evolve_epoch(&base, 0);
    let dep2 = DeployedWorld::deploy(&evolved, pinned);
    let out = tmp("guard-out");
    // Wrong world for the delta (the base, not the evolved epoch).
    assert!(measure_delta(&base, &dep, &cfg(2), &delta, &epoch1, &out, None).is_err());
    // Wrong previous store (point it at the output dir, which is empty).
    let _ = std::fs::remove_dir_all(&out);
    assert!(measure_delta(&evolved, &dep2, &cfg(2), &delta, &out, &out, None).is_err());
    std::fs::remove_dir_all(&epoch1).unwrap();
}

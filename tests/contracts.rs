//! The contracts the rest of the system leans on, checked on a reduced
//! world:
//!
//! * measurement is independent of the worker count — one worker and four
//!   workers racing for the shared queue write byte-identical stores;
//! * a snapshot served from the chunk store answers exactly what an
//!   analysis context over the store's loaded dataset computes: every
//!   layer's score table, global owner counts, per-country totals and
//!   bootstrap CIs are bit-equal;
//! * provider clustering runs on the distinct features — the hosting and
//!   DNS features repeat points, and `classify` reports the clustering of
//!   the distinct points alone;
//! * a corrupt chunk that `fsck --repair` quarantines comes back from
//!   `resume_streamed`, and a corrupt epoch comes back from running its
//!   `measure_delta` again, each to the bytes the run wrote, and resuming
//!   a complete store deploys nothing, measures nothing and leaves its
//!   bytes as they were;
//! * world generation is deterministic: two generations of one config
//!   have equal sites, toplists and universe, so two processes measure
//!   the same world;
//! * an epoch measured as a delta equals one measured from scratch: the
//!   `measure_delta` store — carried chunks, a grown tail and a patch of
//!   the migrated sites — loads the same dataset as a full
//!   `measure_streamed` run of the evolved world and compacts to its
//!   bytes, and the snapshot `from_delta` builds off it equals the one
//!   `from_store` folds — the shared fold's two modes. The same holds at
//!   every epoch of a stack of them, where patches pile up, a site
//!   migrates twice, a superseded row sits in a re-encoded tail chunk,
//!   and an epoch compacts;
//! * loading a store across cores reads what the serial walk over its
//!   layers reads, row for row and error for error;
//! * a store in the FNV-1a-sealed version-1 format is refused by its
//!   version — by `open`, `load_dataset`, `fsck` and an epoch's carry —
//!   never decoded;
//! * the deployed DNS servers write the pinned reply bytes: every reply
//!   of the root, the registries and the authoritative racks to each
//!   `tiny` site's queries hashes to one pinned XXH64.

use std::net::Ipv4Addr;
use std::path::Path;
use std::sync::{Arc, OnceLock};
use std::time::Duration;
use webdep::analysis::centralization::layer_table;
use webdep::analysis::classes::classify;
use webdep::analysis::AnalysisCtx;
use webdep::dns::wire::{encode_query, MessageView, RData};
use webdep::dns::{DomainName, RecordType, DNS_PORT};
use webdep::netsim::{Endpoint, SockAddr};
use webdep::pipeline::{
    measure_delta, measure_streamed, resume_streamed, resume_streamed_with, ChunkStore,
    ChunkStoreWriter, MeasuredDataset, PipelineConfig, SiteObservation, DEFAULT_CHUNK_SITES,
};
use webdep::serve::CubeSnapshot;
use webdep::stats::affinity::{affinity_propagation, AffinityConfig};
use webdep::stats::scale::min_max_scale_columns;
use webdep::webgen::{
    provider_site_counts, Continent, DeployConfig, DeployedWorld, EpochKnobs, EvolutionPlan, Layer,
    World, WorldConfig, COUNTRIES,
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
        let dir = scratch("fixture", "store");
        measure_streamed(&world, &dep, &config(1), &dir, None).expect("measure into a store");
        let ds = ChunkStore::open(&dir).and_then(|s| s.load_dataset(&world));
        let _ = std::fs::remove_dir_all(&dir);
        (world, ds.expect("load the store"))
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

/// 64-bit FNV-1a over every site's fields in site order, then every
/// toplist and the global top list, each behind its length.
fn world_digest(w: &World) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&(w.sites.len() as u64).to_le_bytes());
    for s in &w.sites {
        eat(&(s.domain.len() as u64).to_le_bytes());
        eat(s.domain.as_bytes());
        for id in [s.tld, s.hosting, s.dns, s.ca] {
            eat(&id.to_le_bytes());
        }
        eat(&(s.language.len() as u64).to_le_bytes());
        eat(s.language.as_bytes());
        eat(&[s.is_global as u8]);
    }
    for list in w.toplists.iter().chain([&w.global_top]) {
        eat(&(list.len() as u64).to_le_bytes());
        for &i in list {
            eat(&i.to_le_bytes());
        }
    }
    h
}

#[test]
fn world_generation_matches_pinned_digests() {
    // Pinned across commits: every site's name, owners, language and
    // index, and every rank of every toplist. A change to how the world
    // is generated must leave them equal, whatever the host's core count.
    let mut wrong = Vec::new();
    for (name, mut wc, seed, want) in [
        ("tiny", WorldConfig::tiny(), 42, 0xb470_c4da_9a62_3a06),
        ("tiny", WorldConfig::tiny(), 1729, 0xc2e4_bd8e_65cb_a073),
        ("small", WorldConfig::small(), 42, 0x0660_cff7_6b6f_fb6b),
        ("small", WorldConfig::small(), 1729, 0x1b5e_9986_0ced_f6a2),
    ] {
        wc.seed = seed;
        let got = world_digest(&World::generate(wc));
        if got != want {
            wrong.push(format!("{name}@{seed}: {got:#018x}, pinned {want:#018x}"));
        }
    }
    assert!(
        wrong.is_empty(),
        "world digests moved: {}",
        wrong.join("; ")
    );
}

#[test]
fn measurement_is_independent_of_worker_count() {
    let (world, _) = fixture();
    let dep = DeployedWorld::deploy(world, DeployConfig::default());
    let [solo, four] = ["1w", "4w"].map(|n| scratch("workers", n));
    measure_streamed(world, &dep, &config(1), &solo, None).expect("1-worker store");
    measure_streamed(world, &dep, &config(4), &four, None).expect("4-worker store");
    assert_same_files(&solo, &four, "1-worker and 4-worker stores");
    for dir in [&solo, &four] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn store_snapshot_answers_like_resident_context() {
    let (world, _) = fixture();
    let dep = DeployedWorld::deploy(world, DeployConfig::default());
    let dir = scratch("snapshot", "store");
    measure_streamed(world, &dep, &config(4), &dir, None).expect("measure into a store");
    drop(dep);
    let snapshot =
        CubeSnapshot::from_store(1, Arc::new(world.clone()), &dir).expect("load snapshot");
    let loaded = ChunkStore::open(&dir).and_then(|s| s.load_dataset(world));
    let _ = std::fs::remove_dir_all(&dir);

    // Two folds over one store: the snapshot's, and an analysis context
    // over the dataset `load_dataset` makes resident.
    let served = snapshot.ctx();
    let loaded = loaded.expect("load the store");
    let resident = AnalysisCtx::new(world, &loaded);
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
fn clustering_runs_on_distinct_features() {
    let (world, solo) = fixture();
    let ctx = AnalysisCtx::new(world, solo);
    for layer in [Layer::Hosting, Layer::Dns] {
        // The clustering input `classify` builds: min-max scaled usage and
        // endemicity ratio per owner.
        let classification = classify(&ctx, layer);
        let raw: Vec<Vec<f64>> = classification
            .features
            .iter()
            .map(|f| vec![f.usage, f.endemicity_ratio])
            .collect();
        let points = min_max_scale_columns(&raw);
        let mut distinct: Vec<Vec<f64>> = Vec::new();
        for p in &points {
            if !distinct.contains(p) {
                distinct.push(p.clone());
            }
        }
        assert!(
            distinct.len() < points.len(),
            "{layer:?}: the features hold no duplicates to fold"
        );
        let alone =
            affinity_propagation(&distinct, &AffinityConfig::default()).expect("owners to cluster");
        assert_eq!(
            (
                classification.num_clusters,
                classification.iterations,
                classification.converged
            ),
            (alone.num_clusters(), alone.iterations, alone.converged),
            "{layer:?} clustering differs from clustering the distinct features"
        );
    }
}

/// `fsck --repair` finds and quarantines a corrupt chunk, and
/// `resume_streamed` measures its sites again into the run's bytes.
#[test]
fn fsck_repair_then_resume_heals_a_corrupt_chunk() {
    let (world, _) = fixture();
    let dep = DeployedWorld::deploy(world, DeployConfig::default());
    let dir = scratch("fsck-chunk", "store");
    let _ = std::fs::remove_dir_all(&dir);
    measure_streamed(world, &dep, &config(4), &dir, None).expect("run");

    let chunk = dir.join("chunk-000001.col");
    let original = std::fs::read(&chunk).unwrap();
    let mut damaged = original.clone();
    damaged[original.len() / 2] ^= 0x10;
    std::fs::write(&chunk, &damaged).unwrap();

    let report = ChunkStore::fsck(&dir, None, true).expect("fsck");
    assert_eq!(report.corrupt.len(), 1, "{report:?}");
    assert_eq!(report.quarantined, 1, "{report:?}");
    assert!(!report.clean() && !chunk.exists(), "{report:?}");

    let stats = resume_streamed(world, &dep, &config(4), &dir).expect("resume");
    let kept = world.sites.len() - ChunkStore::open(&dir).unwrap().chunk_rows(1);
    assert_eq!(stats.supervision.sites_resumed, kept as u64);
    assert!(
        std::fs::read(&chunk).unwrap() == original,
        "the healed chunk differs from the run's bytes"
    );
    assert!(ChunkStore::fsck(&dir, None, false).unwrap().clean());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Resuming a complete `tiny` store verifies it and stops there: the
/// world is not deployed, no worker is spawned, every site counts as
/// resumed, no query reaches the wire and the store's bytes stay as the
/// run wrote them.
#[test]
fn resuming_a_complete_store_deploys_and_measures_nothing() {
    let world = World::generate(WorldConfig::tiny());
    let dir = scratch("resume-complete", "store");
    let copy = scratch("resume-complete", "copy");
    let _ = std::fs::remove_dir_all(&dir);
    let dep = DeployedWorld::deploy(&world, DeployConfig::default());
    measure_streamed(&world, &dep, &config(2), &dir, None).expect("run");
    drop(dep);
    copy_store(&dir, &copy);

    let no_deploy = || -> DeployedWorld { panic!("a complete store needs no deployment") };
    let stats = resume_streamed_with(&world, no_deploy, &config(2), &dir).expect("resume");
    assert_eq!(stats.supervision.sites_resumed, world.sites.len() as u64);
    assert_eq!(stats.sites_per_sec, None, "a rate over no measured site");
    assert_eq!(stats.wire_queries, 0);
    assert!(stats.worker_busy.is_empty(), "a worker was spawned");
    assert_same_files(&dir, &copy, "the resumed complete store");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&copy);
}

/// A scratch path for one contract test's files.
fn scratch(test: &str, name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "webdep-contracts-{test}-{name}-{}",
        std::process::id()
    ))
}

/// The deploy configuration of a continuous loop over the fixture world:
/// every epoch deploys against the base epoch's pool census, so an
/// unchanged site measures identically.
fn pinned() -> DeployConfig {
    DeployConfig {
        pool_sites: Some(Arc::new(provider_site_counts(&fixture().0))),
        ..DeployConfig::default()
    }
}

/// An epoch store with a corrupt patch heals by running its
/// `measure_delta` again from the previous epoch's store: every file
/// comes back equal to the undamaged epoch's.
#[test]
fn a_corrupt_epoch_heals_by_measuring_its_delta_again() {
    let (world, _) = fixture();
    let [base, dir, undamaged] = ["base", "store", "undamaged"].map(|n| scratch("epoch-heal", n));
    for d in [&base, &dir, &undamaged] {
        let _ = std::fs::remove_dir_all(d);
    }
    let dep = DeployedWorld::deploy(world, pinned());
    measure_streamed(world, &dep, &config(2), &base, None).expect("base epoch");
    drop(dep);
    let (evolved, delta) = EvolutionPlan::continuous(1, 0.10, 5).evolve_epoch(world, 0);
    let dep = DeployedWorld::deploy(&evolved, pinned());
    measure_delta(&evolved, &dep, &config(2), &delta, &base, &dir, None).expect("delta epoch");
    copy_store(&dir, &undamaged);

    // A fresh file: the carried ones are hard links into the base epoch.
    let patch = dir.join("patch-000000.col");
    let original = std::fs::read(&patch).unwrap();
    let mut damaged = original.clone();
    damaged[original.len() / 2] ^= 0x10;
    std::fs::write(&patch, &damaged).unwrap();
    let report = ChunkStore::fsck(&dir, None, false).expect("fsck");
    assert_eq!(report.patches.corrupt.len(), 1, "{report:?}");
    assert!(!report.clean() && report.corrupt.is_empty(), "{report:?}");

    measure_delta(&evolved, &dep, &config(2), &delta, &base, &dir, None).expect("heal");
    drop(dep);
    assert_same_files(&dir, &undamaged, "the healed epoch");
    assert!(ChunkStore::fsck(&dir, None, false).unwrap().clean());
    for d in [&base, &dir, &undamaged] {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// Byte-at-a-time 64-bit FNV-1a: the layer checksum of store versions 1
/// and 2.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A store in the version-1 format is refused by version everywhere a
/// store is read: its manifest by `open` (and so `load_dataset`), `fsck`
/// and an epoch carried from it, before any layer is read; and its
/// chunks — magic `WDCHUNK1`, sealed with FNV-1a — under a current
/// manifest by their magic, never decoded or reported as a checksum
/// mismatch.
#[test]
fn a_version_1_store_is_refused_by_name() {
    let (world, _) = fixture();
    let [old, next] = ["old", "next"].map(|n| scratch("v1", n));
    let dep = DeployedWorld::deploy(world, pinned());
    measure_streamed(world, &dep, &config(2), &old, None).expect("store");
    drop(dep);
    for entry in std::fs::read_dir(&old).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "col") {
            let mut bytes = std::fs::read(&path).unwrap();
            bytes.truncate(bytes.len() - 8);
            bytes[..8].copy_from_slice(b"WDCHUNK1");
            let sum = fnv1a(&bytes);
            bytes.extend_from_slice(&sum.to_le_bytes());
            std::fs::write(&path, bytes).unwrap();
        }
    }
    let manifest = old.join("manifest.json");
    let current = std::fs::read_to_string(&manifest).unwrap();
    assert!(current.contains(r#""version":3,"#), "{current}");
    std::fs::write(
        &manifest,
        current.replace(r#""version":3,"#, r#""version":1,"#),
    )
    .unwrap();

    let (evolved, delta) = EvolutionPlan::continuous(1, 0.10, 5).evolve_epoch(world, 0);
    let dep = DeployedWorld::deploy(&evolved, pinned());
    let carry = || {
        let _ = std::fs::remove_dir_all(&next);
        measure_delta(&evolved, &dep, &config(2), &delta, &old, &next, None)
            .expect_err("an epoch is not carried from the store")
            .to_string()
    };
    let refused = [
        ChunkStore::open(&old).err().map(|e| e.to_string()),
        ChunkStore::fsck(&old, None, false)
            .err()
            .map(|e| e.to_string()),
        Some(carry()),
    ];
    for err in refused {
        let err = err.expect("a version-1 manifest is refused");
        assert!(err.contains("store version 1 "), "{err}");
    }

    std::fs::write(&manifest, &current).unwrap();
    let store = ChunkStore::open(&old).expect("a current manifest opens");
    let named = |err: &str| err.contains("chunk format version 1 is not read");
    let err = store
        .load_dataset(world)
        .expect_err("v1 chunks")
        .to_string();
    assert!(named(&err), "{err}");
    let report = ChunkStore::fsck(&old, None, false).expect("fsck");
    assert_eq!(report.valid, 0, "{report:?}");
    assert_eq!(report.corrupt.len(), report.chunks, "{report:?}");
    assert!(
        report.corrupt.iter().all(|(_, why)| named(why)),
        "{report:?}"
    );
    let err = carry();
    assert!(named(&err), "{err}");
    for dir in [&old, &next] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Every file of two store directories, by name: equal listings and
/// byte-equal contents.
fn assert_same_files(a: &Path, b: &Path, what: &str) {
    let names = |dir: &Path| {
        let mut names: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        names.sort();
        names
    };
    assert_eq!(names(a), names(b), "{what}: the file listings differ");
    for name in names(a) {
        assert!(
            std::fs::read(a.join(&name)).unwrap() == std::fs::read(b.join(&name)).unwrap(),
            "{what}: {name:?} differs"
        );
    }
}

/// Copies every file of the store at `dir` into a fresh `copy`, sharing
/// no inode with it.
fn copy_store(dir: &Path, copy: &Path) {
    let _ = std::fs::remove_dir_all(copy);
    std::fs::create_dir_all(copy).unwrap();
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), copy.join(entry.file_name())).unwrap();
    }
}

/// Compacts a copy of the store at `dir` (leaving `dir` as the next epoch
/// carries it) and requires the bytes of the from-scratch store `full`.
fn assert_compacts_to(dir: &Path, full: &Path, copy: &Path, what: &str) {
    copy_store(dir, copy);
    ChunkStore::compact(copy).expect("compact");
    assert_same_files(copy, full, what);
    std::fs::remove_dir_all(copy).unwrap();
}

/// The snapshot `from_delta` builds equals the one `from_store` folds
/// over the same store, and validates against its predecessor.
fn assert_delta_snapshot(
    prev: &CubeSnapshot,
    world: &Arc<World>,
    delta: &webdep::webgen::WorldDelta,
    dir: &Path,
) -> CubeSnapshot {
    let via_delta = CubeSnapshot::from_delta(prev.epoch + 1, Arc::clone(world), prev, delta, dir)
        .expect("from_delta");
    let via_store =
        CubeSnapshot::from_store(prev.epoch + 1, Arc::clone(world), dir).expect("from_store");
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
        .validate(Some(prev), Some(delta))
        .expect("the delta-built snapshot validates");
    via_delta
}

#[test]
fn delta_epoch_equals_from_scratch() {
    let (world, _) = fixture();
    let [base, delta_dir, full, copy] =
        ["base", "delta", "full", "copy"].map(|n| scratch("delta", n));
    let dep = DeployedWorld::deploy(world, pinned());
    measure_streamed(world, &dep, &config(2), &base, None).expect("base epoch");
    drop(dep);

    let (evolved, delta) = EvolutionPlan::continuous(1, 0.10, 5).evolve_epoch(world, 0);
    assert!(!delta.migrated.is_empty(), "the epoch writes a patch");
    let dep = DeployedWorld::deploy(&evolved, pinned());
    measure_delta(&evolved, &dep, &config(2), &delta, &base, &delta_dir, None).expect("delta");
    measure_streamed(&evolved, &dep, &config(2), &full, None).expect("from scratch");
    drop(dep);

    let load = |dir: &Path| {
        ChunkStore::open(dir)
            .unwrap()
            .load_dataset(&evolved)
            .unwrap()
    };
    assert!(
        load(&delta_dir) == load(&full),
        "the delta store loads differently from the from-scratch store"
    );
    assert_compacts_to(&delta_dir, &full, &copy, "the compacted delta store");

    let prev = CubeSnapshot::from_store(1, Arc::new(world.clone()), &base).expect("base snapshot");
    assert_delta_snapshot(&prev, &Arc::new(evolved.clone()), &delta, &delta_dir);
    for dir in [&base, &delta_dir, &full] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Five continuous epochs stack their layers: each carries the previous
/// store and adds a patch, until epoch 3 migrates a quarter of the local
/// sites and compacts. Along the way a site migrated in epoch 0 sits in
/// the short tail chunk that later epochs re-encode with its superseded
/// row, and migrates again in epoch 2. At every epoch the store loads
/// like a from-scratch measurement, compacts to its bytes, and
/// `from_delta` equals `from_store`.
#[test]
fn stacked_epochs_read_and_compact_like_from_scratch() {
    let (world, _) = fixture();
    let heavy = EpochKnobs {
        migration: 0.25,
        ..EpochKnobs::steady(0.10)
    };
    let mut epochs = vec![EpochKnobs::steady(0.10); 5];
    epochs[3] = heavy;
    let plan = EvolutionPlan { seed: 5, epochs };
    let dirs: Vec<_> = (0..=5)
        .map(|e| scratch("stack", &format!("e{e}")))
        .collect();
    let (full, copy) = (scratch("stack", "full"), scratch("stack", "copy"));
    let k = DEFAULT_CHUNK_SITES;
    let dep = DeployedWorld::deploy(world, pinned());
    measure_streamed(world, &dep, &config(2), &dirs[0], None).expect("base epoch");
    drop(dep);

    let mut world = Arc::new(world.clone());
    let mut snapshot = CubeSnapshot::from_store(1, Arc::clone(&world), &dirs[0]).expect("base");
    let mut twice = None;
    for e in 0..5 {
        let (mut next, mut delta) = plan.evolve_epoch(&world, e);
        let tail = delta.from_sites / k * k..delta.from_sites;
        match (e, twice) {
            (0, _) => {
                let site = delta
                    .migrated
                    .iter()
                    .find(|&&s| tail.contains(&(s as usize)));
                twice = Some(*site.expect("a site migrates inside the short tail chunk"));
            }
            (2, Some(site)) => {
                let cf = next.universe.provider_by_name("Cloudflare").unwrap();
                let moved = &mut next.sites[site as usize];
                assert_ne!(moved.hosting, cf);
                (moved.hosting, moved.dns) = (cf, cf);
                if let Err(at) = delta.migrated.binary_search(&site) {
                    delta.migrated.insert(at, site);
                }
            }
            _ => {}
        }
        delta
            .certify_unchanged(&world, &next)
            .expect("certified delta");
        let next = Arc::new(next);
        let dep = DeployedWorld::deploy(&next, pinned());
        let stats = measure_delta(
            &next,
            &dep,
            &config(2),
            &delta,
            &dirs[e],
            &dirs[e + 1],
            None,
        )
        .expect("delta epoch");
        let _ = std::fs::remove_dir_all(&full);
        measure_streamed(&next, &dep, &config(2), &full, None).expect("from scratch");
        drop(dep);
        assert_eq!(stats.compacted, e == 3, "epoch {e}");
        if e == 1 {
            // The tail chunk holding the epoch-0 patch's site grows.
            let site = twice.unwrap() as usize;
            assert!(tail.contains(&site) && stats.rows_recommitted == tail.len());
        }

        let load = |dir: &Path| ChunkStore::open(dir).unwrap().load_dataset(&next).unwrap();
        assert!(
            load(&dirs[e + 1]) == load(&full),
            "epoch {e}: the delta store loads differently from the from-scratch store"
        );
        assert_compacts_to(&dirs[e + 1], &full, &copy, &format!("epoch {e}"));
        snapshot = assert_delta_snapshot(&snapshot, &next, &delta, &dirs[e + 1]);
        world = next;
    }
    for dir in dirs.iter().chain([&full]) {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// The serial walk `load_dataset` must agree with: every layer in
/// `ChunkStore::layers` order, each row overwriting its site.
fn serial_walk(store: &ChunkStore) -> std::io::Result<Vec<SiteObservation>> {
    let mut rows: Vec<SiteObservation> = Vec::new();
    for layer in store.layers() {
        let layer = layer?;
        for r in 0..layer.rows {
            match rows.get_mut(layer.site(r)) {
                Some(slot) => *slot = layer.observation(r),
                None => rows.push(layer.observation(r)),
            }
        }
    }
    Ok(rows)
}

/// Opens the store at `dir` and requires `load_dataset` to return the
/// serial walk's rows.
fn assert_loads_like_the_walk(dir: &Path, world: &World, what: &str) -> ChunkStore {
    let store = ChunkStore::open(dir).expect(what);
    let walked = serial_walk(&store).expect(what);
    assert_eq!(walked.len(), world.sites.len(), "{what}: one row per site");
    let loaded = store.load_dataset(world).expect(what);
    assert!(
        loaded.observations == walked,
        "{what}: load_dataset differs from the serial walk"
    );
    store
}

/// The fixture's rows rewritten into a store of `chunk_sites`-site chunks.
fn rechunked(dir: &Path, chunk_sites: usize) -> ChunkStore {
    let (world, ds) = fixture();
    let mut writer = ChunkStoreWriter::create(dir, &world.label, world.sites.len(), chunk_sites)
        .expect("create the store");
    for (site, obs) in ds.observations.iter().enumerate() {
        writer.commit(site, obs).expect("commit");
    }
    writer.finish().expect("finish");
    ChunkStore::open(dir).expect("open the store")
}

/// `load_dataset` decodes ranges of base chunks across cores and applies
/// the patches after. On a fresh store, one patched by two epochs (before
/// and after compaction), a one-chunk store and a 13-chunk store (13 is
/// prime, so no thread count from 2 to 8 divides it) it equals the serial
/// walk; with two chunks corrupt it names the first, and a deleted chunk
/// is `NotFound`.
#[test]
fn parallel_load_equals_the_serial_walk() {
    let (world, _) = fixture();
    let dirs: Vec<_> = (0..=2).map(|e| scratch("load", &format!("e{e}"))).collect();
    let dep = DeployedWorld::deploy(world, pinned());
    measure_streamed(world, &dep, &config(2), &dirs[0], None).expect("base epoch");
    drop(dep);
    assert_loads_like_the_walk(&dirs[0], world, "a fresh store");

    let plan = EvolutionPlan::continuous(2, 0.10, 5);
    let mut world = world.clone();
    for e in 0..2 {
        let (next, delta) = plan.evolve_epoch(&world, e);
        let dep = DeployedWorld::deploy(&next, pinned());
        measure_delta(
            &next,
            &dep,
            &config(2),
            &delta,
            &dirs[e],
            &dirs[e + 1],
            None,
        )
        .expect("delta epoch");
        world = next;
    }
    let patched = assert_loads_like_the_walk(&dirs[2], &world, "a store patched twice");
    assert!(
        patched.num_patches() >= 2,
        "{} patches",
        patched.num_patches()
    );
    ChunkStore::compact(&dirs[2]).expect("compact");
    let compacted = assert_loads_like_the_walk(&dirs[2], &world, "the compacted store");
    assert_eq!(compacted.num_patches(), 0);
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }

    let (world, _) = fixture();
    let sites = world.sites.len();
    let one = scratch("load", "one");
    assert_eq!(rechunked(&one, sites).num_chunks(), 1);
    assert_loads_like_the_walk(&one, world, "a one-chunk store");
    let _ = std::fs::remove_dir_all(&one);

    let odd = scratch("load", "odd");
    assert_eq!(rechunked(&odd, sites.div_ceil(13)).num_chunks(), 13);
    assert_loads_like_the_walk(&odd, world, "a 13-chunk store");
    let load = || ChunkStore::open(&odd).unwrap().load_dataset(world);
    for c in [1, 11] {
        let path = odd.join(format!("chunk-{c:06}.col"));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
    }
    let err = load().expect_err("two corrupt chunks");
    assert!(err.to_string().starts_with("chunk 1:"), "{err}");
    std::fs::remove_file(odd.join("chunk-000005.col")).unwrap();
    let err = load().expect_err("corrupt and deleted chunks");
    assert!(err.to_string().starts_with("chunk 1:"), "{err}");
    std::fs::remove_file(odd.join("chunk-000001.col")).unwrap();
    let err = load().expect_err("a deleted chunk");
    assert_eq!(err.kind(), std::io::ErrorKind::NotFound, "{err}");
    let _ = std::fs::remove_dir_all(&odd);
}

/// Sends `query` from `client` to the DNS server at `server` and appends
/// the reply to `replies`, behind its length (`u32::MAX` for no reply);
/// returns the reply's bytes.
fn ask(client: &mut Endpoint, server: Ipv4Addr, query: &[u8], replies: &mut Vec<u8>) -> Vec<u8> {
    let mut reply = Vec::new();
    let dst = SockAddr::new(server, DNS_PORT);
    let got = match client.exchange(dst, query, Duration::from_secs(1), &mut reply) {
        Ok(Some(bytes)) => bytes.to_vec(),
        _ => Vec::new(),
    };
    let len = if got.is_empty() {
        u32::MAX
    } else {
        got.len() as u32
    };
    replies.extend_from_slice(&len.to_le_bytes());
    replies.extend_from_slice(&got);
    got
}

/// A query written by hand: id `id`, no flag set, one question per name
/// of `names` (presentation text, written as given: a mixed-case name
/// stays mixed-case on the wire), each of type `qtype`, class IN.
fn raw_query(id: u16, names: &[&str], qtype: RecordType) -> Vec<u8> {
    let mut q = Vec::new();
    q.extend_from_slice(&id.to_be_bytes());
    q.extend_from_slice(&[0, 0, 0, names.len() as u8, 0, 0, 0, 0, 0, 0]);
    for name in names {
        for label in name.split('.') {
            q.push(label.len() as u8);
            q.extend_from_slice(label.as_bytes());
        }
        q.push(0);
        q.extend_from_slice(&qtype.code().to_be_bytes());
        q.extend_from_slice(&[0, 1]);
    }
    q
}

/// The first glue address of a referral.
fn first_glue(reply: &[u8]) -> Option<Ipv4Addr> {
    let view = MessageView::parse(reply).ok()?;
    view.additionals().find_map(|r| match r.data {
        RData::A(ip) => Some(ip),
        _ => None,
    })
}

/// Every reply byte the deployed root, registries and authoritative
/// servers return to each site's A, NS and nameserver-host A queries on
/// the `tiny` world, hashed with XXH64: pinned across commits, so a change
/// to how a server reads a query or writes its reply leaves every byte as
/// it was. Some queries ask in mixed case, and some carry a second
/// question, so the echo of a question that is not already in canonical
/// wire form is pinned too.
#[test]
fn every_reply_byte_matches_the_pinned_digest() {
    const WANT: u64 = 0xcb44_89ae_9219_0f07;
    let world = World::generate(WorldConfig::tiny());
    let dep = DeployedWorld::deploy(&world, DeployConfig::default());
    let mut client = dep.vantage(Continent::Europe);
    let root = dep.roots[0];
    let mut replies = Vec::new();
    let mut query = Vec::new();
    let mut asked = 0;
    for (i, site) in world.sites.iter().enumerate() {
        let Ok(name) = DomainName::parse(&site.domain) else {
            continue;
        };
        let id = i as u16;
        encode_query(&mut query, id, &name, RecordType::A);
        let referral = ask(&mut client, root, &query, &mut replies);
        let Some(registry) = first_glue(&referral) else {
            continue;
        };
        let referral = ask(&mut client, registry, &query, &mut replies);
        let Some(auth) = first_glue(&referral) else {
            continue;
        };
        let hosts: Vec<DomainName> = MessageView::parse(&referral)
            .map(|v| {
                v.authorities()
                    .filter_map(|r| match r.data {
                        RData::Ns(host) => Some(host.to_name()),
                        _ => None,
                    })
                    .collect()
            })
            .unwrap_or_default();
        ask(&mut client, auth, &query, &mut replies);
        encode_query(&mut query, id, &name, RecordType::Ns);
        ask(&mut client, auth, &query, &mut replies);
        for host in &hosts {
            encode_query(&mut query, id, host, RecordType::A);
            ask(&mut client, auth, &query, &mut replies);
        }
        if i % 7 == 0 {
            let upper = site.domain.to_ascii_uppercase();
            let mixed = raw_query(id, &[&upper], RecordType::A);
            for server in [root, registry, auth] {
                ask(&mut client, server, &mixed, &mut replies);
            }
        }
        if let (0, Some(host)) = (i % 11, hosts.first()) {
            let two = raw_query(id, &[&site.domain, host.as_str()], RecordType::A);
            for server in [root, registry, auth] {
                ask(&mut client, server, &two, &mut replies);
            }
        }
        asked += 1;
    }
    assert!(asked > world.sites.len() / 2, "{asked} sites answered");
    let got = webdep::pipeline::store::xxh64(&replies);
    assert_eq!(
        got,
        WANT,
        "the replies to {asked} sites' queries ({} bytes) hash to {got:#018x}",
        replies.len()
    );
}

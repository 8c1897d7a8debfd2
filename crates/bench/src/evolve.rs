//! The `evolve` snapshot: O(churn) incremental epochs.
//!
//! A continuous measurement loop pays three bills per epoch: re-measuring
//! the world, rebuilding the dependence cube, and re-publishing the
//! serving snapshot. The incremental path (`measure_delta` +
//! `CubeSnapshot::from_delta`) claims all three are O(churn), not
//! O(world); this bench prices that claim against the from-scratch
//! comparators on the same evolved worlds.
//!
//! Per churn level (≈2% / 10% / 35%), a base world is generated once,
//! measured from scratch, and then evolved through several epochs. Every
//! epoch is measured **both** ways — `measure_delta` against the previous
//! epoch's store, and a from-scratch `measure_streamed` of the identical
//! evolved world under the identical pinned deployment — and the two
//! stores are certified byte-identical (manifest plus every chunk file)
//! before either timing counts. The cube side is priced twice:
//!
//! * **apply** — the `CubeBuilder` delta unit (clone the previous epoch's
//!   builder, grow it to the evolved site table, refold only dirty
//!   chunks) vs a from-scratch fold over every chunk, certified by the
//!   two finished cubes rendering byte-identical reports;
//! * **publish** — the full serving-snapshot constructors,
//!   `CubeSnapshot::from_delta` vs `from_store`, certified by taxonomy
//!   equality. Publish includes the cube's O(toplists) projection
//!   (`finish`) that both constructors share, so its speedup is bounded
//!   by that common tail; the apply rows isolate the O(churn) claim.
//!
//! Epochs here churn toplists without in-place provider migration: churn
//! appends fresh sites, so clean chunks are adopted wholesale and the
//! delta path's cost tracks the dirty set. Migration deliberately dirties
//! sites mid-store — that path (clean-row re-commit, adoption loss) is
//! correctness-covered by `webdep-pipeline`'s delta tests and priced
//! implicitly by the `rows_recommitted` column staying near zero here.

use crate::peak_rss_bytes;
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use webdep_analysis::{AnalysisCtx, CubeBuilder};
use webdep_pipeline::run::{measure_streamed, PipelineConfig};
use webdep_pipeline::{measure_delta, ChunkStore};
use webdep_serve::CubeSnapshot;
use webdep_webgen::{
    provider_site_counts, DeployConfig, DeployedWorld, EpochKnobs, EvolutionPlan, World, WorldDelta,
};

/// One evolved epoch, priced both ways.
#[derive(Serialize)]
pub struct EpochRow {
    /// Serving epoch the delta publishes (base epoch is 1).
    pub epoch: u64,
    /// Sites in the evolved world.
    pub sites_total: u64,
    /// Dirty sites the delta path re-measured.
    pub sites_remeasured: u64,
    /// `sites_remeasured / sites_total`.
    pub remeasured_fraction: f64,
    /// Clean chunks hard-linked from the previous store.
    pub chunks_adopted: u64,
    /// Chunks in the new store.
    pub chunks_total: u64,
    /// Clean rows re-committed out of partially dirty chunks.
    pub rows_recommitted: u64,
    /// Wall of `measure_delta` (previous store + dirty re-measure).
    pub delta_measure_ms: f64,
    /// Wall of the from-scratch `measure_streamed` comparator.
    pub full_measure_ms: f64,
    /// `full_measure_ms / delta_measure_ms`.
    pub measure_speedup: f64,
    /// Wall of the cube delta apply: clone the previous epoch's builder,
    /// grow to the new site table, refold dirty chunks only.
    pub cube_apply_ms: f64,
    /// Wall of the from-scratch comparator: fresh builder, fold every
    /// chunk of the new store.
    pub cube_rebuild_ms: f64,
    /// `cube_rebuild_ms / cube_apply_ms`.
    pub cube_speedup: f64,
    /// Wall of `CubeSnapshot::from_delta` (apply + shared projection).
    pub publish_delta_ms: f64,
    /// Wall of the `CubeSnapshot::from_store` rebuild.
    pub publish_rebuild_ms: f64,
    /// `publish_rebuild_ms / publish_delta_ms`.
    pub publish_speedup: f64,
    /// Delta store byte-identical to the from-scratch store, the applied
    /// and rebuilt cubes rendering identical reports, and the
    /// delta-published snapshot's failure taxonomy identical to the
    /// rebuilt one.
    pub certified_identical: bool,
}

/// All epochs at one churn level.
#[derive(Serialize)]
pub struct ChurnSweep {
    /// Fraction of each country's local toplist replaced per epoch.
    pub churn: f64,
    /// Per-epoch rows, in order.
    pub epochs: Vec<EpochRow>,
    /// Geometric mean of the epochs' measure speedups.
    pub mean_measure_speedup: f64,
    /// Geometric mean of the epochs' cube speedups.
    pub mean_cube_speedup: f64,
}

/// The `BENCH_evolve.json` payload.
#[derive(Serialize)]
pub struct EvolveSnapshot {
    /// Sites in each sweep's base world.
    pub sites_base: u64,
    /// Measurement worker threads.
    pub workers: u64,
    /// Epochs evolved per churn level.
    pub epochs_per_sweep: u64,
    /// One sweep per churn level, ascending.
    pub sweeps: Vec<ChurnSweep>,
    /// `VmHWM` of the bench process (all sweeps share it; the streaming
    /// paths hold one chunk at a time, so the resident worlds dominate).
    pub peak_rss_bytes: Option<u64>,
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("webdep-evolve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

fn ms(d: std::time::Duration) -> f64 {
    round3(d.as_secs_f64() * 1e3)
}

fn geo_mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0f64, 0u32);
    for x in xs {
        log_sum += x.ln();
        n += 1;
    }
    if n == 0 {
        return 0.0;
    }
    round3((log_sum / n as f64).exp())
}

/// Byte-level store equality: manifest and every chunk file, plus no
/// stray entries — the same contract the pipeline's delta tests assert.
fn stores_identical(a: &Path, b: &Path) -> bool {
    let Ok(store) = ChunkStore::open(a) else {
        return false;
    };
    let files: Vec<String> = std::iter::once("manifest.json".to_string())
        .chain((0..store.num_chunks()).map(|c| format!("chunk-{c:06}.col")))
        .collect();
    for f in &files {
        match (std::fs::read(a.join(f)), std::fs::read(b.join(f))) {
            (Ok(x), Ok(y)) if x == y => {}
            _ => return false,
        }
    }
    match (std::fs::read_dir(a), std::fs::read_dir(b)) {
        (Ok(x), Ok(y)) => x.count() == y.count(),
        _ => false,
    }
}

/// Folds every chunk of the store at `dir` into a fresh builder — the
/// from-scratch comparator for the cube apply.
fn fold_full(dir: &Path, world: &World) -> CubeBuilder {
    let store = ChunkStore::open(dir).expect("open store");
    let mut builder = CubeBuilder::new(world.sites.len());
    for c in 0..store.num_chunks() {
        let chunk = store.read_chunk(c).expect("read chunk");
        builder.fold_chunk(&chunk, world);
    }
    builder
}

/// The cube delta-apply unit: clone the previous epoch's builder, grow it
/// to the evolved site table, and refold only the chunks holding dirty
/// sites (clean rows in those chunks overwrite idempotently).
fn fold_delta(prev: &CubeBuilder, dir: &Path, delta: &WorldDelta, world: &World) -> CubeBuilder {
    let mut builder = prev.clone();
    builder.grow(delta.to_sites);
    let dirty = delta.dirty();
    let store = ChunkStore::open(dir).expect("open store");
    let k = store.chunk_sites;
    for c in 0..store.num_chunks() {
        let lo = c * k;
        let rows = store.chunk_rows(c);
        if dirty[lo..lo + rows].iter().any(|&d| d) {
            let chunk = store.read_chunk(c).expect("read chunk");
            builder.fold_chunk(&chunk, world);
        }
    }
    builder
}

/// Renders the finished cube through the scale bench's canonical report —
/// the byte-level certificate that two builders agree.
fn builder_report(builder: &CubeBuilder, world: &World) -> String {
    let cube = builder.finish(world);
    crate::scale::cube_report(&AnalysisCtx::over_cube(world, &cube))
}

/// Evolves one base world through `epochs` churn-only epochs, timing the
/// incremental path against the from-scratch comparators at each step.
fn churn_sweep(
    churn: f64,
    epochs: usize,
    sites_per_country: u32,
    workers: usize,
    log: &impl Fn(&str),
) -> ChurnSweep {
    let config = PipelineConfig {
        workers,
        ..Default::default()
    };
    let base = World::generate(crate::scale::scale_config(sites_per_country));
    let census = Arc::new(provider_site_counts(&base));
    let pinned = DeployConfig {
        pool_sites: Some(Arc::clone(&census)),
        ..DeployConfig::default()
    };
    // Churn only: appended replacements keep every full previous chunk
    // clean, which is the O(churn) case this bench prices (see module
    // docs for why migration is excluded).
    let plan = EvolutionPlan {
        seed: 23,
        epochs: vec![
            EpochKnobs {
                migration: 0.0,
                ..EpochKnobs::steady(churn)
            };
            epochs
        ],
    };

    let dep = DeployedWorld::deploy(&base, pinned.clone());
    let mut prev_dir = scratch(&format!("c{}-base", (churn * 100.0) as u32));
    measure_streamed(&base, &dep, &config, &prev_dir, None).expect("measure base epoch");
    drop(dep);
    let mut builder = fold_full(&prev_dir, &base);
    let mut world = Arc::new(base);
    let mut snapshot =
        CubeSnapshot::from_store(1, Arc::clone(&world), &prev_dir).expect("base snapshot");

    let mut rows = Vec::with_capacity(epochs);
    for e in 0..epochs {
        let (next, delta) = plan.evolve_epoch(&world, e);
        delta
            .certify_unchanged(&world, &next)
            .expect("evolution certificate");
        let next = Arc::new(next);
        let epoch = snapshot.epoch + 1;
        let dep = DeployedWorld::deploy(&next, pinned.clone());

        let full_dir = scratch(&format!("c{}-e{e}-full", (churn * 100.0) as u32));
        let t0 = Instant::now();
        measure_streamed(&next, &dep, &config, &full_dir, None).expect("full comparator");
        let full_measure = t0.elapsed();

        let delta_dir = scratch(&format!("c{}-e{e}-delta", (churn * 100.0) as u32));
        let t0 = Instant::now();
        let stats = measure_delta(&next, &dep, &config, &delta, &prev_dir, &delta_dir, None)
            .expect("delta measure");
        let delta_measure = t0.elapsed();
        drop(dep);

        let mut certified = stores_identical(&full_dir, &delta_dir);

        let t0 = Instant::now();
        let rebuilt_builder = fold_full(&delta_dir, &next);
        let cube_rebuild = t0.elapsed();
        let t0 = Instant::now();
        let applied_builder = fold_delta(&builder, &delta_dir, &delta, &next);
        let cube_apply = t0.elapsed();
        certified &=
            builder_report(&applied_builder, &next) == builder_report(&rebuilt_builder, &next);

        let t0 = Instant::now();
        let rebuilt = CubeSnapshot::from_store(epoch, Arc::clone(&next), &delta_dir)
            .expect("from-store rebuild");
        let publish_rebuild = t0.elapsed();
        let t0 = Instant::now();
        let applied =
            CubeSnapshot::from_delta(epoch, Arc::clone(&next), &snapshot, &delta, &delta_dir)
                .expect("from-delta apply");
        let publish_delta = t0.elapsed();
        certified &= applied.taxonomy == rebuilt.taxonomy;

        let row = EpochRow {
            epoch,
            sites_total: stats.sites_total as u64,
            sites_remeasured: stats.sites_remeasured as u64,
            remeasured_fraction: round3(stats.sites_remeasured as f64 / stats.sites_total as f64),
            chunks_adopted: stats.chunks_adopted as u64,
            chunks_total: stats.chunks_total as u64,
            rows_recommitted: stats.rows_recommitted as u64,
            delta_measure_ms: ms(delta_measure),
            full_measure_ms: ms(full_measure),
            measure_speedup: round3(full_measure.as_secs_f64() / delta_measure.as_secs_f64()),
            cube_apply_ms: ms(cube_apply),
            cube_rebuild_ms: ms(cube_rebuild),
            cube_speedup: round3(cube_rebuild.as_secs_f64() / cube_apply.as_secs_f64()),
            publish_delta_ms: ms(publish_delta),
            publish_rebuild_ms: ms(publish_rebuild),
            publish_speedup: round3(publish_rebuild.as_secs_f64() / publish_delta.as_secs_f64()),
            certified_identical: certified,
        };
        log(&format!(
            "churn {:.0}% epoch {}: {}/{} dirty, {}/{} chunks adopted, measure {:.0} ms vs {:.0} ms (x{:.1}), cube {:.1} ms vs {:.1} ms (x{:.1}), publish {:.1} ms vs {:.1} ms (x{:.1}), identical: {}",
            churn * 100.0,
            row.epoch,
            row.sites_remeasured,
            row.sites_total,
            row.chunks_adopted,
            row.chunks_total,
            row.delta_measure_ms,
            row.full_measure_ms,
            row.measure_speedup,
            row.cube_apply_ms,
            row.cube_rebuild_ms,
            row.cube_speedup,
            row.publish_delta_ms,
            row.publish_rebuild_ms,
            row.publish_speedup,
            row.certified_identical,
        ));
        rows.push(row);

        let _ = std::fs::remove_dir_all(&full_dir);
        let _ = std::fs::remove_dir_all(&prev_dir);
        prev_dir = delta_dir;
        world = next;
        snapshot = applied;
        builder = applied_builder;
    }
    let _ = std::fs::remove_dir_all(&prev_dir);

    ChurnSweep {
        churn,
        mean_measure_speedup: geo_mean(rows.iter().map(|r| r.measure_speedup)),
        mean_cube_speedup: geo_mean(rows.iter().map(|r| r.cube_speedup)),
        epochs: rows,
    }
}

/// Runs the churn sweeps and assembles `BENCH_evolve.json`'s payload.
///
/// Smoke mode shrinks to one small two-epoch sweep: every certificate
/// still holds (byte-identical stores, identical taxonomies, clean-chunk
/// adoption), but the timings are meaningless on a loaded box, so the
/// caller leaves the snapshot file alone.
pub fn evolve_snapshot(smoke: bool, log: impl Fn(&str)) -> EvolveSnapshot {
    let (sites_per_country, epochs, churns, workers) = if smoke {
        (90, 2, vec![0.10], 4)
    } else {
        (900, 4, vec![0.02, 0.10, 0.35], 8)
    };
    let mut sites_base = 0;
    let sweeps: Vec<ChurnSweep> = churns
        .into_iter()
        .map(|churn| {
            let sweep = churn_sweep(churn, epochs, sites_per_country, workers, &log);
            sites_base = sweep.epochs[0].sites_total - sweep.epochs[0].sites_remeasured;
            for row in &sweep.epochs {
                assert!(
                    row.certified_identical,
                    "churn {churn} epoch {}: delta diverged from from-scratch",
                    row.epoch
                );
                assert!(
                    row.chunks_adopted > 0,
                    "churn {churn} epoch {}: churn-only evolution must adopt clean chunks",
                    row.epoch
                );
            }
            sweep
        })
        .collect();
    EvolveSnapshot {
        // Churn appends its replacements, so the first epoch's clean
        // count is exactly the base world's site count.
        sites_base,
        workers: workers as u64,
        epochs_per_sweep: epochs as u64,
        sweeps,
        peak_rss_bytes: peak_rss_bytes(),
    }
}

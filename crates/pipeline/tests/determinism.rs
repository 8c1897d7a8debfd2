//! How workers race for the queue must never change *what* is measured:
//! same world + config ⇒ identical store bytes for any worker count.

use std::path::{Path, PathBuf};
use std::time::Duration;
use webdep_dns::resolver::ResolverConfig;
use webdep_pipeline::{measure_streamed, ChunkStore, PipelineConfig};
use webdep_tls::scanner::ScannerConfig;
use webdep_webgen::{DeployConfig, World, WorldConfig};

fn config(workers: usize) -> PipelineConfig {
    PipelineConfig {
        workers,
        ..Default::default()
    }
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("webdep-determinism-{name}-{}", std::process::id()))
}

/// The sorted file names of the store at `dir`.
fn file_names(dir: &Path) -> Vec<std::ffi::OsString> {
    let mut names: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    names.sort();
    names
}

/// Stores `a` and `b` hold the same files, byte for byte.
fn assert_same_store(a: &Path, b: &Path, what: &str) {
    let names = file_names(a);
    assert!(names.len() > 2, "expected a manifest and ≥2 chunks");
    assert_eq!(names, file_names(b), "{what}: the file sets differ");
    for name in &names {
        assert_eq!(
            std::fs::read(a.join(name)).unwrap(),
            std::fs::read(b.join(name)).unwrap(),
            "{what}: {name:?} differs"
        );
    }
}

/// A timeout is a comparison of simulated times, never a race with the
/// host's scheduler: every reply of a fault-free world arrives with no
/// delay, so even a zero window takes it, and zero timeouts measure the
/// same store as the defaults.
#[test]
fn zero_timeouts_measure_like_the_defaults() {
    let world = World::generate(WorldConfig::tiny());
    let dep = webdep_webgen::DeployedWorld::deploy(&world, DeployConfig::default());
    let zero = PipelineConfig {
        resolver: ResolverConfig {
            timeout: Duration::ZERO,
            ..Default::default()
        },
        scanner: ScannerConfig {
            timeout: Duration::ZERO,
            ..Default::default()
        },
        ..config(4)
    };
    let (defaults, zeroed) = (tmp("defaults"), tmp("zero"));
    measure_streamed(&world, &dep, &config(4), &defaults, None).unwrap();
    measure_streamed(&world, &dep, &zero, &zeroed, None).unwrap();
    assert_same_store(&defaults, &zeroed, "a zero timeout");
    let tax = ChunkStore::open(&defaults)
        .and_then(|s| s.load_dataset(&world))
        .unwrap()
        .failure_taxonomy();
    assert_eq!(tax.clean, tax.total, "the tiny world measures clean");
    for dir in [&defaults, &zeroed] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// The determinism contract extends to the on-disk chunk store: per-chunk
/// string interning happens in site order at encode time, so the interner
/// id assignments — and therefore every chunk file's bytes — must be
/// identical no matter how many workers raced to commit, including the
/// manifest. One worker vs two vs eight, compared file-by-file.
#[test]
fn streamed_chunks_identical_across_worker_counts() {
    let mut wc = WorldConfig::tiny();
    // Reduced: this measures the world three times.
    wc.sites_per_country = 100;
    wc.global_pool_size = 300;
    let world = World::generate(wc);
    let dep = webdep_webgen::DeployedWorld::deploy(&world, DeployConfig::default());

    let dir_for = |workers: usize| tmp(&format!("chunks-{workers}w"));
    for workers in [1, 2, 8] {
        measure_streamed(&world, &dep, &config(workers), &dir_for(workers), None).unwrap();
    }

    let reference = dir_for(1);
    for workers in [2, 8] {
        let dir = dir_for(workers);
        assert_same_store(&reference, &dir, &format!("1 vs {workers} workers"));
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&reference);
}

//! How workers race for the queue must never change *what* is measured:
//! same world + config ⇒ identical dataset and identical store bytes for
//! any worker count.

use std::time::Duration;
use webdep_dns::resolver::ResolverConfig;
use webdep_pipeline::run::{measure, PipelineConfig};
use webdep_tls::scanner::ScannerConfig;
use webdep_webgen::{DeployConfig, World, WorldConfig};

fn config(workers: usize) -> PipelineConfig {
    PipelineConfig {
        workers,
        ..Default::default()
    }
}

#[test]
fn dataset_identical_across_worker_counts() {
    let world = World::generate(WorldConfig::tiny());
    let dep = DeployConfig::default();
    let dep = webdep_webgen::DeployedWorld::deploy(&world, dep);

    let solo = measure(&world, &dep, &config(1));
    let eight = measure(&world, &dep, &config(8));
    assert_eq!(solo, eight, "worker count changed the measured dataset");
}

/// A timeout is a comparison of simulated times, never a race with the
/// host's scheduler: every reply of a fault-free world arrives with no
/// delay, so even a zero window takes it, and zero timeouts measure the
/// same dataset as the defaults.
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
    let defaults = measure(&world, &dep, &config(4));
    assert_eq!(
        measure(&world, &dep, &zero),
        defaults,
        "a zero timeout changed the measured dataset"
    );
    let tax = defaults.failure_taxonomy();
    assert_eq!(tax.clean, tax.total, "the tiny world measures clean");
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

    let dir_for = |workers: usize| {
        std::env::temp_dir().join(format!(
            "webdep-determinism-chunks-{workers}w-{}",
            std::process::id()
        ))
    };
    for workers in [1, 2, 8] {
        webdep_pipeline::measure_streamed(&world, &dep, &config(workers), &dir_for(workers), None)
            .unwrap();
    }

    let reference = dir_for(1);
    let mut names: Vec<_> = std::fs::read_dir(&reference)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    names.sort();
    assert!(names.len() > 2, "expected a manifest and ≥2 chunks");
    for workers in [2, 8] {
        let dir = dir_for(workers);
        let mut other: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        other.sort();
        assert_eq!(names, other, "file set differs at {workers} workers");
        for name in &names {
            assert_eq!(
                std::fs::read(reference.join(name)).unwrap(),
                std::fs::read(dir.join(name)).unwrap(),
                "{name:?} differs between 1 and {workers} workers"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&reference);
}

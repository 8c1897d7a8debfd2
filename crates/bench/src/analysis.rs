//! Shared timing harness for the analysis engine.
//!
//! Times the three things `BENCH_analysis.json` reports: the dependence-cube
//! build, the full [`ExperimentSuite`] wall over the cube-backed
//! `AnalysisCtx`, and an affinity-propagation sweep at serial vs parallel
//! thread counts. Both the `bench-snapshot` binary and the tier-1 smoke
//! test call these, so the numbers in the JSON and the path the tests
//! exercise stay the same code. (The committed `BENCH_analysis.json`
//! still holds the last before/after comparison against the retired
//! tally-on-demand context.)

use serde::Serialize;
use std::time::Instant;
use webdep_analysis::{AnalysisCtx, ExperimentSuite};
use webdep_pipeline::{measure, MeasuredDataset, PipelineConfig};
use webdep_stats::affinity::{affinity_propagation, AffinityConfig};
use webdep_webgen::{DeployConfig, DeployedWorld, World, WorldConfig};

fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

fn ms(d: std::time::Duration) -> f64 {
    round3(d.as_secs_f64() * 1e3)
}

/// Wall times for one context build + full suite run.
#[derive(Debug, Serialize)]
pub struct SuiteTiming {
    /// `AnalysisCtx` construction (the cube build).
    pub ctx_build_ms: f64,
    /// `ExperimentSuite::run` wall time.
    pub suite_wall_ms: f64,
    /// Experiments passed.
    pub passed: usize,
    /// Total experiments run.
    pub total: usize,
}

impl SuiteTiming {
    /// Build + run, end to end.
    pub fn end_to_end_ms(&self) -> f64 {
        self.ctx_build_ms + self.suite_wall_ms
    }
}

/// Builds a context and runs the full suite once.
pub fn time_suite(world: &World, ds: &MeasuredDataset) -> SuiteTiming {
    let t0 = Instant::now();
    let ctx = AnalysisCtx::new(world, ds);
    let ctx_build_ms = ms(t0.elapsed());
    let t1 = Instant::now();
    let suite = ExperimentSuite::run(&ctx, None, None);
    SuiteTiming {
        ctx_build_ms,
        suite_wall_ms: ms(t1.elapsed()),
        passed: suite.passed(),
        total: suite.total(),
    }
}

/// Serial and parallel wall times for one affinity-propagation run.
#[derive(Debug, Serialize)]
pub struct AffinityTiming {
    /// Points clustered (above the parallel threshold when ≥ 384).
    pub points: usize,
    /// Band sweeps, `threads = 1` (one band).
    pub serial_ms: f64,
    /// Band sweeps with `threads = parallel_threads` (one band per thread).
    pub parallel_ms: f64,
    /// Thread count of the parallel run.
    pub parallel_threads: usize,
    /// Message-passing sweeps executed (identical in both runs).
    pub sweeps: usize,
    /// Whether both runs produced byte-identical clusterings (must always
    /// be true).
    pub identical: bool,
}

/// Deterministic synthetic feature vectors (three loose Gaussian-ish
/// blobs via xorshift), matching the shape classify feeds the clusterer.
pub fn synthetic_points(n: usize, dims: usize) -> Vec<Vec<f64>> {
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|i| {
            let center = (i % 3) as f64 * 2.5;
            (0..dims).map(|_| center + next()).collect()
        })
        .collect()
}

/// Clusters `n` synthetic points serially and across `threads` workers,
/// checking both agree exactly.
pub fn time_affinity(n: usize, threads: usize) -> AffinityTiming {
    let points = synthetic_points(n, 4);
    let run = |threads: usize| {
        let config = AffinityConfig {
            threads,
            ..AffinityConfig::default()
        };
        let t0 = Instant::now();
        let clustering = affinity_propagation(&points, &config).expect("non-empty");
        (ms(t0.elapsed()), clustering)
    };
    let (serial_ms, serial) = run(1);
    let (parallel_ms, parallel) = run(threads);
    AffinityTiming {
        points: n,
        serial_ms,
        parallel_ms,
        parallel_threads: threads,
        sweeps: serial.iterations,
        identical: serial == parallel,
    }
}

/// The full `BENCH_analysis.json` payload.
#[derive(Debug, Serialize)]
pub struct AnalysisSnapshot {
    /// World scale name (`tiny` / `small` / `paper`).
    pub scale: String,
    /// Measured websites in the dataset.
    pub sites: u64,
    /// Worker threads the parallel passes use on this host.
    pub threads: u64,
    /// Cube build alone (one parallel pass over the observations).
    pub cube_build_ms: f64,
    /// Cube-backed context + full suite.
    pub suite: SuiteTiming,
    /// Affinity-propagation sweep, serial vs parallel.
    pub affinity: AffinityTiming,
    /// Peak RSS (`VmHWM`) of the bench process when the snapshot was
    /// assembled (bytes; `None`/JSON `null` off-Linux).
    pub peak_rss_bytes: Option<u64>,
}

/// Generates, deploys, and measures a world at `config` scale, then times
/// a suite run and an affinity sweep of `affinity_points`.
pub fn analysis_snapshot(
    scale: &str,
    config: WorldConfig,
    affinity_points: usize,
) -> AnalysisSnapshot {
    let world = World::generate(config);
    let dep = DeployedWorld::deploy(&world, DeployConfig::default());
    let ds = measure(&world, &dep, &PipelineConfig::default());
    drop(dep);

    // Warm (untimed) cube build, then the timed one.
    let _ = AnalysisCtx::new(&world, &ds);
    let t0 = Instant::now();
    let ctx = AnalysisCtx::new(&world, &ds);
    let cube_build_ms = ms(t0.elapsed());
    drop(ctx);

    let suite = time_suite(&world, &ds);
    let threads = webdep_stats::par::default_threads();

    AnalysisSnapshot {
        scale: scale.to_string(),
        sites: ds.observations.len() as u64,
        threads: threads as u64,
        cube_build_ms,
        suite,
        affinity: time_affinity(affinity_points, threads.max(2)),
        peak_rss_bytes: crate::peak_rss_bytes(),
    }
}

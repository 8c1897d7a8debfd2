//! The analysis engine: cube build, cube accessors, and the parallel
//! affinity-propagation sweep. (The full `ExperimentSuite` wall is timed
//! by `bench-snapshot`, which writes `BENCH_analysis.json`; these benches
//! cover the hot pieces.)

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use webdep_analysis::centralization::layer_table;
use webdep_analysis::AnalysisCtx;
use webdep_bench::analysis::synthetic_points;
use webdep_bench::fixture;
use webdep_stats::affinity::{affinity_propagation, AffinityConfig};
use webdep_webgen::{Layer, World};

fn cube_build(c: &mut Criterion) {
    let (world, ds) = fixture();
    let mut g = c.benchmark_group("cube_build");
    g.sample_size(10);
    g.bench_function("tiny_world", |b| {
        b.iter(|| black_box(AnalysisCtx::new(world, ds)))
    });
    g.finish();
}

fn accessors(c: &mut Criterion) {
    let (world, ds) = fixture();
    let cube = AnalysisCtx::new(world, ds);
    let us = World::country_index("US").unwrap();
    let owner = cube.country_counts(us, Layer::Hosting)[0].0;

    let mut g = c.benchmark_group("owner_share_150_countries");
    g.sample_size(10);
    g.bench_function("cube", |b| {
        b.iter(|| {
            for ci in 0..150 {
                black_box(cube.owner_share(ci, Layer::Hosting, owner));
            }
        })
    });
    g.finish();

    let mut g = c.benchmark_group("layer_table_hosting");
    g.sample_size(10);
    g.bench_function("cube", |b| {
        b.iter(|| black_box(layer_table(&cube, Layer::Hosting)))
    });
    g.finish();
}

fn affinity_sweeps(c: &mut Criterion) {
    let points = synthetic_points(512, 4);
    let mut g = c.benchmark_group("affinity_512pts");
    g.sample_size(10);
    for (name, threads) in [("serial", 1usize), ("parallel", 0)] {
        let config = AffinityConfig {
            threads,
            ..AffinityConfig::default()
        };
        g.bench_function(name, |b| {
            b.iter(|| black_box(affinity_propagation(&points, &config)))
        });
    }
    g.finish();
}

criterion_group!(benches, cube_build, accessors, affinity_sweeps);
criterion_main!(benches);

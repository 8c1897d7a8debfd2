//! The full reproduction: generate the calibrated world, deploy it, run
//! the measurement pipeline, execute every experiment, and write the
//! outputs (markdown + JSON data release) to `./out/`.
//!
//! Run with: `cargo run --release --example full_reproduction [-- scale]`
//! where `scale` is `tiny`, `small` (default), or `paper` (150 x 10k
//! sites; takes several minutes and a few GB of RAM).

use std::path::Path;
use std::time::Instant;
use webdep::analysis::centralization::layer_table;
use webdep::analysis::insularity::insularity_table;
use webdep::analysis::regional::subregion_summary;
use webdep::analysis::report;
use webdep::analysis::{AnalysisCtx, ExperimentSuite};
use webdep::pipeline::{measure_streamed, ChunkStore, PipelineConfig};
use webdep::webgen::evolve::evolve;
use webdep::webgen::{DeployConfig, DeployedWorld, Layer, World, WorldConfig};

fn main() {
    let scale = std::env::args().nth(1).unwrap_or_else(|| "small".into());
    let config = match scale.as_str() {
        "tiny" => WorldConfig::tiny(),
        "small" => WorldConfig::small(),
        "paper" => WorldConfig::paper(),
        other => {
            eprintln!("unknown scale {other:?}; use tiny | small | paper");
            std::process::exit(2);
        }
    };
    println!(
        "scale: {scale} ({} sites x 150 countries, tail_scale {})",
        config.sites_per_country, config.tail_scale
    );

    let t0 = Instant::now();
    let world = World::generate(config);
    println!(
        "world generated: {} unique sites, {} providers, {} CAs, {} TLDs ({:?})",
        world.sites.len(),
        world.universe.providers.len(),
        world.universe.cas.len(),
        world.universe.tlds.len(),
        t0.elapsed()
    );

    let t1 = Instant::now();
    let dep = DeployedWorld::deploy(&world, DeployConfig::default());
    println!("deployed: {} racks ({:?})", dep.num_racks(), t1.elapsed());

    let t2 = Instant::now();
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(8);
    let config = PipelineConfig {
        workers,
        ..Default::default()
    };
    // Each snapshot streams into a scratch chunk store and is read back.
    let measured = |world: &World, dep: &DeployedWorld| {
        let dir = std::env::temp_dir().join(format!(
            "webdep-full-reproduction-{}-{}",
            world.label,
            std::process::id()
        ));
        measure_streamed(world, dep, &config, &dir, None).expect("measure");
        let ds = ChunkStore::open(&dir).and_then(|s| s.load_dataset(world));
        let _ = std::fs::remove_dir_all(&dir);
        ds.expect("load the store")
    };
    let ds = measured(&world, &dep);
    println!(
        "measured: {} observations, success rate {:.2}% ({:?})",
        ds.observations.len(),
        100.0 * ds.success_rate(&world),
        t2.elapsed()
    );

    // The 2025 snapshot for §5.4.
    let t3 = Instant::now();
    let world25 = evolve(&world);
    let dep25 = DeployedWorld::deploy(&world25, DeployConfig::default());
    let ds25 = measured(&world25, &dep25);
    println!("2025 snapshot measured ({:?})", t3.elapsed());

    let ctx = AnalysisCtx::new(&world, &ds);
    let ctx25 = AnalysisCtx::new(&world25, &ds25);

    // Experiment suite (incl. §3.4 vantage validation on the live net).
    let t4 = Instant::now();
    let suite = ExperimentSuite::run(&ctx, Some(&ctx25), Some(&dep));
    println!(
        "experiments: {}/{} passed ({:?})\n",
        suite.passed(),
        suite.total(),
        t4.elapsed()
    );
    println!("{}", suite.to_markdown());

    // Headline tables.
    for layer in Layer::ALL {
        let t = layer_table(&ctx, layer);
        println!("{}", report::layer_table_markdown(&t, 5, 3));
    }
    let ins = insularity_table(&ctx, Layer::Hosting);
    println!("{}", report::insularity_markdown(&ins, 8));
    println!("{}", report::subregion_markdown(&subregion_summary(&ctx)));

    // Data release.
    let out = Path::new("out");
    std::fs::create_dir_all(out).expect("create out/");
    for layer in Layer::ALL {
        let t = layer_table(&ctx, layer);
        report::write_json(&t, &out.join(format!("scores_{}.json", layer.name())))
            .expect("write scores");
        let i = insularity_table(&ctx, layer);
        report::write_json(&i, &out.join(format!("insularity_{}.json", layer.name())))
            .expect("write insularity");
    }
    report::write_json(&suite, &out.join("experiments.json")).expect("write experiments");
    std::fs::write(
        out.join("EXPERIMENTS-generated.md"),
        format!(
            "# Generated experiment results ({scale} scale)\n\n{}\n",
            suite.to_markdown()
        ),
    )
    .expect("write markdown");
    println!("wrote data release to ./out/");
}

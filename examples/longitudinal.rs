//! The 2023 → 2025 longitudinal comparison (§5.4).
//!
//! Run with: `cargo run --release --example longitudinal`

use webdep::analysis::longitudinal::compare;
use webdep::analysis::AnalysisCtx;
use webdep::pipeline::{measure_streamed, ChunkStore, PipelineConfig};
use webdep::webgen::evolve::evolve;
use webdep::webgen::{DeployConfig, DeployedWorld, World, WorldConfig};

fn main() {
    let world23 = World::generate(WorldConfig::small());
    let world25 = evolve(&world23);

    // Each snapshot measured into a scratch chunk store and read back.
    let measured = |world: &World| {
        let dep = DeployedWorld::deploy(world, DeployConfig::default());
        let dir = std::env::temp_dir().join(format!(
            "webdep-longitudinal-{}-{}",
            world.label,
            std::process::id()
        ));
        measure_streamed(world, &dep, &PipelineConfig::default(), &dir, None).expect("measure");
        let ds = ChunkStore::open(&dir).and_then(|s| s.load_dataset(world));
        let _ = std::fs::remove_dir_all(&dir);
        ds.expect("load the store")
    };
    let ds23 = measured(&world23);
    let ds25 = measured(&world25);

    let report = compare(
        &AnalysisCtx::new(&world23, &ds23),
        &AnalysisCtx::new(&world25, &ds25),
    );

    println!(
        "== §5.4 longitudinal comparison ({} -> {}) ==",
        ds23.label, ds25.label
    );
    println!(
        "score correlation rho = {:.3}  (paper: 0.98)",
        report.score_correlation.map(|c| c.rho).unwrap_or(f64::NAN)
    );
    println!(
        "mean Cloudflare delta: {:+.1} pts  (paper: +3.8)",
        report.mean_cloudflare_delta_pts
    );
    println!(
        "mean toplist Jaccard: {:.2}  (paper: ~0.37)",
        report.mean_jaccard
    );
    println!(
        "countries with reduced US reliance: {} / {}  (paper: 56/150)",
        report.us_reliance_decreased,
        report.deltas.len()
    );

    println!("\nlargest Cloudflare increases:");
    let mut by_cf = report.deltas.clone();
    by_cf.sort_by(|a, b| {
        b.cloudflare_delta_pts
            .partial_cmp(&a.cloudflare_delta_pts)
            .unwrap()
    });
    for d in by_cf.iter().take(5) {
        println!(
            "  {}: {:+.1} pts (S {:.4} -> {:.4}, Jaccard {:.2})",
            d.code, d.cloudflare_delta_pts, d.s_old, d.s_new, d.jaccard
        );
    }
    println!("\nand the declines:");
    for d in by_cf.iter().rev().take(4) {
        println!(
            "  {}: {:+.1} pts (US share {:+.1} pts)",
            d.code, d.cloudflare_delta_pts, d.us_share_delta_pts
        );
    }

    if let Some(d) = report.delta("RU") {
        println!(
            "\nRussia: S {:.4} -> {:.4}, Cloudflare {:+.1} pts, US share {:+.1} pts (paper: 0.0554 -> 0.0499, -2.0, -1)",
            d.s_old, d.s_new, d.cloudflare_delta_pts, d.us_share_delta_pts
        );
    }
    if let Some(d) = report.largest_increase() {
        println!(
            "largest centralization increase: {} ({:.4} -> {:.4}; paper: Brazil 0.1446 -> 0.2354)",
            d.code, d.s_old, d.s_new
        );
    }
}

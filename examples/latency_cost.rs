//! The latency cost of dependence (an §8-inspired extension): modelled
//! RTT from each country to where its popular websites are actually
//! served.
//!
//! Run with: `cargo run --release --example latency_cost`

use webdep::analysis::latency::{continent_means, latency_table};
use webdep::analysis::AnalysisCtx;
use webdep::netsim::LatencyModel;
use webdep::pipeline::{measure_streamed, ChunkStore, PipelineConfig};
use webdep::webgen::{DeployConfig, DeployedWorld, World, WorldConfig};

fn main() {
    let world = World::generate(WorldConfig::small());
    let dep = DeployedWorld::deploy(&world, DeployConfig::default());
    let dir = std::env::temp_dir().join(format!("webdep-latency-cost-{}", std::process::id()));
    measure_streamed(&world, &dep, &PipelineConfig::default(), &dir, None).expect("measure");
    let ds = ChunkStore::open(&dir).and_then(|s| s.load_dataset(&world));
    let _ = std::fs::remove_dir_all(&dir);
    let ds = ds.expect("load the store");
    let ctx = AnalysisCtx::new(&world, &ds);

    let model = LatencyModel::default();
    let rows = latency_table(&ctx, &model);

    println!("Modelled mean RTT to hosting infrastructure (hosting layer):\n");
    println!("slowest countries:");
    for r in rows.iter().take(8) {
        println!(
            "  {} ({})  {:>5.1} ms   served in-continent: {:>4.1}%",
            r.code,
            r.continent,
            r.mean_rtt_ms,
            100.0 * r.served_locally
        );
    }
    println!("\nfastest countries:");
    for r in rows.iter().rev().take(8).collect::<Vec<_>>().iter().rev() {
        println!(
            "  {} ({})  {:>5.1} ms   served in-continent: {:>4.1}%",
            r.code,
            r.continent,
            r.mean_rtt_ms,
            100.0 * r.served_locally
        );
    }

    println!("\nper-continent means:");
    for (cont, ms) in continent_means(&rows) {
        println!("  {cont}: {ms:>5.1} ms");
    }
    println!("\nThe pattern mirrors Figure 8: Africa's websites live in North");
    println!("America and Europe, and the model prices that dependence in RTT;");
    println!("anycast (CDN) adoption is what keeps the gap from being larger.");
}

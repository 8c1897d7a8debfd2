//! Metric shoot-out on measured data: the centralization score vs the
//! top-N heuristic vs f-divergences (§3.1's argument, quantified).
//!
//! Run with: `cargo run --release --example metric_comparison`

use webdep::analysis::AnalysisCtx;
use webdep::core::centralization::centralization_score;
use webdep::core::fdiv::{disjoint_embedding, hellinger_distance, js_divergence, total_variation};
use webdep::core::topn::top_n_share;
use webdep::pipeline::{measure_streamed, ChunkStore, PipelineConfig};
use webdep::stats::corr::spearman;
use webdep::webgen::{DeployConfig, DeployedWorld, Layer, World, WorldConfig};

fn main() {
    let world = World::generate(WorldConfig::small());
    let dep = DeployedWorld::deploy(&world, DeployConfig::default());
    let dir = std::env::temp_dir().join(format!("webdep-metric-comparison-{}", std::process::id()));
    measure_streamed(&world, &dep, &PipelineConfig::default(), &dir, None).expect("measure");
    let ds = ChunkStore::open(&dir).and_then(|s| s.load_dataset(&world));
    let _ = std::fs::remove_dir_all(&dir);
    let ds = ds.expect("load the store");
    let ctx = AnalysisCtx::new(&world, &ds);

    println!("country | S      | top-5  | top-10 | TV    | JS    | Hellinger");
    println!("--------|--------|--------|--------|-------|-------|----------");
    let mut s_col = Vec::new();
    let mut t5_col = Vec::new();
    for code in ["TH", "ID", "US", "JP", "DE", "BG", "CZ", "RU", "TM", "IR"] {
        let ci = World::country_index(code).unwrap();
        let dist = ctx.country_dist(ci, Layer::Hosting).unwrap();
        let s = centralization_score(dist);
        let t5 = top_n_share(dist, 5);
        let t10 = top_n_share(dist, 10);
        let (p, q) = disjoint_embedding(dist.counts()).unwrap();
        println!(
            "{code:7} | {s:.4} | {t5:.4} | {t10:.4} | {:.3} | {:.3} | {:.3}",
            total_variation(&p, &q).unwrap(),
            js_divergence(&p, &q).unwrap(),
            hellinger_distance(&p, &q).unwrap(),
        );
        s_col.push(s);
        t5_col.push(t5);
    }
    println!();
    println!("Every f-divergence column saturates (TV=1, JS=ln 2, H=1): the");
    println!("observed and reference distributions are disjoint, so the family");
    println!("cannot rank countries — the paper's §3.1 argument.");
    if let Some(c) = spearman(&s_col, &t5_col) {
        println!();
        println!(
            "S and top-5 rank-correlate (rho = {:.2}) but disagree exactly where",
            c.rho
        );
        println!("head shapes differ — see the AZ/HK pair in `quickstart`.");
    }

    // Figure 1 on measured data.
    println!("\nFigure 1 rank curves (percent of sites at each provider rank):");
    for code in ["AZ", "HK", "TH", "IR"] {
        let ci = World::country_index(code).unwrap();
        let dist = ctx.country_dist(ci, Layer::Hosting).unwrap();
        let curve = webdep::core::topn::provider_rank_curve(dist);
        let head: Vec<String> = curve.iter().take(8).map(|v| format!("{v:.1}")).collect();
        println!(
            "  {code}: [{}] ... ({} providers, top-5 {:.0}%)",
            head.join(", "),
            curve.len(),
            100.0 * top_n_share(dist, 5)
        );
    }
}

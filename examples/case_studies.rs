//! Regionalization case studies (§5.3): insularity rankings, cross-border
//! dependence, and the Afghan Persian-language link.
//!
//! Run with: `cargo run --release --example case_studies`

use webdep::analysis::cases::{afghan_persian_case, dependence_on, foreign_dependence_cases};
use webdep::analysis::insularity::{dependence_shares, insularity_table};
use webdep::analysis::AnalysisCtx;
use webdep::pipeline::{measure_streamed, ChunkStore, PipelineConfig};
use webdep::webgen::{DeployConfig, DeployedWorld, Layer, World, WorldConfig};

fn main() {
    let world = World::generate(WorldConfig::small());
    let dep = DeployedWorld::deploy(&world, DeployConfig::default());
    let dir = std::env::temp_dir().join(format!("webdep-case-studies-{}", std::process::id()));
    measure_streamed(&world, &dep, &PipelineConfig::default(), &dir, None).expect("measure");
    let ds = ChunkStore::open(&dir).and_then(|s| s.load_dataset(&world));
    let _ = std::fs::remove_dir_all(&dir);
    let ds = ds.expect("load the store");
    let ctx = AnalysisCtx::new(&world, &ds);

    println!("== Hosting insularity (top 10) ==");
    let ins = insularity_table(&ctx, Layer::Hosting);
    for r in ins.rows.iter().take(10) {
        println!(
            "  #{:<3} {}  {:>5.1}%   biggest dependence: {} ({:.1}%)",
            r.rank,
            r.code,
            100.0 * r.insularity,
            r.top_dependence.0,
            100.0 * r.top_dependence.1
        );
    }

    println!("\n== Largest non-US foreign dependences (hosting, > 8%) ==");
    for case in foreign_dependence_cases(&ctx, Layer::Hosting, 0.08) {
        println!(
            "  {} -> {}: {:.1}%",
            case.country,
            case.on,
            100.0 * case.share
        );
    }

    println!("\n== The named §5.3.3 patterns ==");
    for (country, on) in [
        ("TM", "RU"),
        ("TJ", "RU"),
        ("KG", "RU"),
        ("KZ", "RU"),
        ("BY", "RU"),
        ("RE", "FR"),
        ("GP", "FR"),
        ("MQ", "FR"),
        ("BF", "FR"),
        ("SK", "CZ"),
        ("AT", "DE"),
        ("AF", "IR"),
    ] {
        println!(
            "  {country} on {on}: {:>5.1}%",
            100.0 * dependence_on(&ctx, country, on, Layer::Hosting)
        );
    }

    println!("\n== Afghanistan / Iran (Persian content) ==");
    if let Some(case) = afghan_persian_case(&ctx) {
        println!(
            "  {:.1}% of the Afghan top list is Persian (paper: 31.4%)",
            100.0 * case.persian_fraction
        );
        println!(
            "  {:.1}% of those sites are hosted in Iran (paper: 60.8%)",
            100.0 * case.persian_iran_hosted
        );
        println!(
            "  {:.1}% of all Afghan top sites use Iranian providers (paper: >20%)",
            100.0 * case.iran_share
        );
    }

    println!("\n== Where does Slovakia's web live? ==");
    let sk = World::country_index("SK").unwrap();
    for (cc, share) in dependence_shares(&ctx, sk, Layer::Hosting)
        .into_iter()
        .take(6)
    {
        println!("  {cc}: {:.1}%", 100.0 * share);
    }
}

//! The §3.4 vantage-point validation: resolving from each country's own
//! continent vs the default (Stanford-like) vantage.
//!
//! Run with: `cargo run --release --example vantage_validation`

use webdep::analysis::vantage::validate_vantage;
use webdep::analysis::AnalysisCtx;
use webdep::pipeline::{measure_streamed, ChunkStore, PipelineConfig};
use webdep::webgen::{Continent, DeployConfig, DeployedWorld, World, WorldConfig};

fn main() {
    let world = World::generate(WorldConfig::small());
    let dep = DeployedWorld::deploy(&world, DeployConfig::default());
    let dir =
        std::env::temp_dir().join(format!("webdep-vantage-validation-{}", std::process::id()));
    measure_streamed(&world, &dep, &PipelineConfig::default(), &dir, None).expect("measure");
    let ds = ChunkStore::open(&dir).and_then(|s| s.load_dataset(&world));
    let _ = std::fs::remove_dir_all(&dir);
    let ds = ds.expect("load the store");
    let ctx = AnalysisCtx::new(&world, &ds);

    // Show the raw mechanism first: one Cloudflare site, two vantages.
    let cf = world.universe.provider_by_name("Cloudflare").unwrap();
    if let Some(site) = world.sites.iter().find(|s| s.hosting == cf) {
        println!("GeoDNS mechanism for {} (Cloudflare-hosted):", site.domain);
        for cont in [Continent::NorthAmerica, Continent::Europe, Continent::Asia] {
            let ep = dep.vantage(cont);
            let mut resolver = webdep::dns::IterativeResolver::new(
                ep,
                dep.roots.clone(),
                webdep::dns::ResolverConfig::default(),
            );
            let name = webdep::dns::DomainName::parse(&site.domain).unwrap();
            if let Ok(addrs) = resolver.resolve_a(&name) {
                let geo = dep.geodb.country_of(addrs[0]).unwrap_or("??");
                println!("  from {cont:?}: {} (geolocates to {geo})", addrs[0]);
            }
        }
    }

    println!("\nRe-resolving a sample of every 3rd country from its own continent...");
    let v = validate_vantage(&ctx, &dep, 80, 3);
    println!(
        "countries: {}, sample {} sites each",
        v.scores.len(),
        v.sample
    );
    println!(
        "rho(default vantage S, local vantage S) = {:.3}  (paper: 0.96)",
        v.correlation.map(|c| c.rho).unwrap_or(f64::NAN)
    );
    println!("\nper-country scores (first 10):");
    for (code, s_default, s_local) in v.scores.iter().take(10) {
        println!("  {code}: default {s_default:.4} vs local {s_local:.4}");
    }
}

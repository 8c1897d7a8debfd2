//! Cross-crate integration: generate → deploy → measure → analyze, and
//! check the paper's headline shapes end to end.

use std::sync::OnceLock;
use webdep::analysis::centralization::layer_table;
use webdep::analysis::insularity::insularity_table;
use webdep::analysis::{AnalysisCtx, ExperimentSuite};
use webdep::pipeline::{measure_streamed, ChunkStore, MeasuredDataset, PipelineConfig};
use webdep::webgen::{DeployConfig, DeployedWorld, Layer, World, WorldConfig};

fn fixture() -> &'static (World, MeasuredDataset) {
    static FIXTURE: OnceLock<(World, MeasuredDataset)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let world = World::generate(WorldConfig::tiny());
        let dep = DeployedWorld::deploy(&world, DeployConfig::default());
        let dir = std::env::temp_dir().join(format!("webdep-end-to-end-{}", std::process::id()));
        measure_streamed(&world, &dep, &PipelineConfig::default(), &dir, None)
            .expect("measure into a store");
        let ds = ChunkStore::open(&dir).and_then(|s| s.load_dataset(&world));
        let _ = std::fs::remove_dir_all(&dir);
        (world, ds.expect("load the store"))
    })
}

#[test]
fn pipeline_recovers_ground_truth_everywhere() {
    let (world, ds) = fixture();
    // Every toplist-referenced site measured with the right attribution.
    let mut mismatches = 0;
    let mut total = 0;
    for toplist in &world.toplists {
        for &si in toplist.iter().step_by(7) {
            let site = &world.sites[si as usize];
            let obs = &ds.observations[si as usize];
            total += 1;
            if obs.hosting_org != Some(site.hosting)
                || obs.dns_org != Some(site.dns)
                || obs.ca_owner != Some(site.ca)
            {
                mismatches += 1;
            }
        }
    }
    assert!(total > 5000);
    assert!(
        (mismatches as f64) < 0.01 * total as f64,
        "{mismatches}/{total} mismatches"
    );
}

#[test]
fn calibration_holds_across_all_layers() {
    let (world, ds) = fixture();
    let ctx = AnalysisCtx::new(world, ds);
    for layer in Layer::ALL {
        let t = layer_table(&ctx, layer);
        let rho = t.paper_correlation().unwrap().rho;
        assert!(rho > 0.9, "{}: rho {rho}", layer.name());
    }
}

#[test]
fn layer_ordering_matches_paper() {
    let (world, ds) = fixture();
    let ctx = AnalysisCtx::new(world, ds);
    // Mean centralization: TLD > CA > hosting ~ DNS (Figure 9's gist).
    let mean = |l: Layer| layer_table(&ctx, l).summary.unwrap().mean;
    let (h, d, c, t) = (
        mean(Layer::Hosting),
        mean(Layer::Dns),
        mean(Layer::Ca),
        mean(Layer::Tld),
    );
    assert!(t > c && c > (h + d) / 2.0 - 0.02, "t={t} c={c} h={h} d={d}");
    // CA var smallest among provider layers (§7.1).
    let var = |l: Layer| layer_table(&ctx, l).summary.unwrap().var;
    assert!(var(Layer::Ca) < var(Layer::Tld));
}

#[test]
fn insularity_orderings() {
    let (world, ds) = fixture();
    let ctx = AnalysisCtx::new(world, ds);
    let host = insularity_table(&ctx, Layer::Hosting);
    let dns = insularity_table(&ctx, Layer::Dns);
    // Hosting and DNS insularity track each other (Figure 11).
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for r in &host.rows {
        if let Some(d) = dns.row(r.code) {
            xs.push(r.insularity);
            ys.push(d.insularity);
        }
    }
    let rho = webdep::stats::pearson(&xs, &ys).unwrap().rho;
    assert!(rho > 0.8, "hosting vs dns insularity rho {rho}");
}

#[test]
fn experiment_suite_passes_on_shared_fixture() {
    let (world, ds) = fixture();
    let ctx = AnalysisCtx::new(world, ds);
    let suite = ExperimentSuite::run(&ctx, None, None);
    let failed: Vec<String> = suite
        .results
        .iter()
        .filter(|r| !r.pass)
        .map(|r| format!("{}: {}", r.id, r.measured))
        .collect();
    assert!(failed.is_empty(), "failed: {failed:#?}");
}

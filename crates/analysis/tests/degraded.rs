//! End-to-end degradation: measure a world through a hostile fault plan,
//! then render every report table from what survived. Reduced coverage
//! must show up in the numbers, never as a panic or a missing table.

use std::sync::Arc;
use std::time::Duration;
use webdep_analysis::centralization::layer_table;
use webdep_analysis::insularity::insularity_table;
use webdep_analysis::regional::subregion_summary;
use webdep_analysis::report::{insularity_markdown, layer_table_markdown, subregion_markdown};
use webdep_analysis::{coverage_model, AnalysisCtx};
use webdep_dns::resolver::ResolverConfig;
use webdep_netsim::{FaultKind, FaultPlan};
use webdep_pipeline::{measure, MeasuredDataset, PipelineConfig, SiteObservation};
use webdep_tls::scanner::ScannerConfig;
use webdep_webgen::{DeployConfig, DeployedWorld, Layer, World, WorldConfig};

fn small_world() -> World {
    World::generate(WorldConfig {
        seed: 42,
        sites_per_country: 60,
        global_pool_size: 300,
        tail_scale: 0.04,
        pool_target: 40,
    })
}

#[test]
fn every_table_renders_under_heavy_faults() {
    let world = small_world();
    let plan = FaultPlan {
        seed: 21,
        outage_fraction: 0.35,
        flaky_fraction: 0.5,
        fail_rate: 0.8,
        kinds: vec![FaultKind::ServFail, FaultKind::Drop],
        ..FaultPlan::none()
    };
    let dep = DeployedWorld::deploy(
        &world,
        DeployConfig {
            faults: Some(Arc::new(plan)),
            ..Default::default()
        },
    );
    let ds = measure(
        &world,
        &dep,
        &PipelineConfig {
            workers: 8,
            resolver: ResolverConfig {
                timeout: Duration::from_millis(5),
                retries: 0,
                ..Default::default()
            },
            scanner: ScannerConfig {
                timeout: Duration::from_millis(5),
                retries: 0,
                site_deadline: None,
            },
            ..Default::default()
        },
    );
    let tax = ds.failure_taxonomy();
    assert!(tax.clean < tax.total, "the plan must actually degrade");
    assert!(!tax.to_markdown().is_empty());

    let ctx = AnalysisCtx::new(&world, &ds);
    let cov = coverage_model(&ctx);
    assert!(
        cov.layer(Layer::Hosting).fraction() < 1.0,
        "heavy faults must dent hosting coverage"
    );
    assert!(cov.to_markdown().contains("| hosting |"));

    for &layer in &Layer::ALL {
        let t = layer_table(&ctx, layer);
        let md = layer_table_markdown(&t, 5, 5);
        assert!(md.contains("centralization"), "{}: {md}", layer.name());
        // Whatever was scored carries its own coverage fraction.
        for row in &t.rows {
            assert!(row.coverage > 0.0 && row.coverage <= 1.0, "{}", row.code);
        }
        let imd = insularity_markdown(&insularity_table(&ctx, layer), 5);
        assert!(imd.contains("insularity"), "{}", layer.name());
    }
    let smd = subregion_markdown(&subregion_summary(&ctx));
    assert!(smd.contains("| subregion |"));
}

#[test]
fn layer_tables_render_even_when_nothing_measured() {
    let world = small_world();
    let ds = MeasuredDataset {
        observations: world
            .sites
            .iter()
            .map(|s| SiteObservation::blank(&s.domain, &s.language))
            .collect(),
        label: "blank".into(),
    };
    let ctx = AnalysisCtx::new(&world, &ds);
    for &layer in &[Layer::Hosting, Layer::Dns, Layer::Ca] {
        let t = layer_table(&ctx, layer);
        assert!(t.summary.is_none(), "{}", layer.name());
        let md = layer_table_markdown(&t, 5, 5);
        assert!(md.contains("unmeasured"), "{}: {md}", layer.name());
    }
}

//! Robustness of the measurement pipeline: failure injection (packet
//! loss) and the geolocation-accuracy ablation.

use std::time::Duration;
use webdep_dns::resolver::ResolverConfig;
use webdep_pipeline::{measure, PipelineConfig};
use webdep_tls::scanner::ScannerConfig;
use webdep_webgen::{DeployConfig, DeployedWorld, World, WorldConfig};

fn tiny_world() -> World {
    let mut cfg = WorldConfig::tiny();
    // Smaller still: robustness runs deploy several worlds.
    cfg.sites_per_country = 100;
    cfg.global_pool_size = 300;
    World::generate(cfg)
}

#[test]
fn retries_carry_measurement_through_packet_loss() {
    let world = tiny_world();
    let dep = DeployedWorld::deploy(
        &world,
        DeployConfig {
            loss_rate: 0.05,
            ..Default::default()
        },
    );
    let ds = measure(
        &world,
        &dep,
        &PipelineConfig {
            workers: 4,
            resolver: ResolverConfig {
                timeout: Duration::from_millis(40),
                retries: 8,
                ..Default::default()
            },
            scanner: ScannerConfig {
                timeout: Duration::from_millis(40),
                retries: 8,
                site_deadline: None,
            },
            ..Default::default()
        },
    );
    let rate = ds.success_rate(&world);
    assert!(rate > 0.95, "success rate under 5% loss: {rate}");
}

#[test]
fn geolocation_noise_does_not_move_org_attribution() {
    let world = tiny_world();
    let clean = DeployedWorld::deploy(&world, DeployConfig::default());
    let noisy = DeployedWorld::deploy(
        &world,
        DeployConfig {
            geo_accuracy: 0.80, // exaggerated so the per-range error process is visible even on few dominant prefixes (the paper's knob is 0.894)
            ..Default::default()
        },
    );
    let ds_clean = measure(&world, &clean, &PipelineConfig::default());
    let ds_noisy = measure(&world, &noisy, &PipelineConfig::default());

    // Organization attribution (pfx2as + AS-org) is untouched by the
    // geolocation error process...
    let mut geo_diffs = 0usize;
    let mut geo_total = 0usize;
    for (a, b) in ds_clean.observations.iter().zip(&ds_noisy.observations) {
        assert_eq!(a.hosting_org, b.hosting_org, "{}", a.domain);
        assert_eq!(a.dns_org, b.dns_org, "{}", a.domain);
        assert_eq!(a.ca_owner, b.ca_owner, "{}", a.domain);
        if let (Some(x), Some(y)) = (&a.hosting_ip_country, &b.hosting_ip_country) {
            geo_total += 1;
            if x != y {
                geo_diffs += 1;
            }
        }
    }
    // ...while the geolocation column visibly degrades.
    let diff_rate = geo_diffs as f64 / geo_total.max(1) as f64;
    assert!(
        diff_rate > 0.005,
        "expected visible geolocation noise, got {diff_rate}"
    );
    assert!(
        diff_rate < 0.6,
        "noise should stay bounded by the error budget, got {diff_rate}"
    );
}

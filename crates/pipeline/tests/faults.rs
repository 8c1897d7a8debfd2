//! Adversarial-world tests for the fault-injection layer: when the
//! substrate degrades arbitrarily — total loss, every server out, a flaky
//! majority — the pipeline must terminate without panicking, account for
//! every failure in the taxonomy, and stay byte-deterministic across
//! worker counts.

use std::sync::Arc;
use std::time::Duration;
use webdep_dns::resolver::ResolverConfig;
use webdep_netsim::{FaultKind, FaultPlan};
use webdep_pipeline::{measure, FailureCause, MeasuredDataset, PipelineConfig};
use webdep_tls::scanner::ScannerConfig;
use webdep_webgen::{DeployConfig, DeployedWorld, World, WorldConfig};

fn small_world() -> World {
    World::generate(WorldConfig {
        seed: 42,
        sites_per_country: 60,
        global_pool_size: 300,
        tail_scale: 0.04,
        pool_target: 40,
    })
}

/// Short timeouts, no retries: faults are deterministic, so a retry of a
/// faulted query can never succeed — only rotation to a different server
/// can, and that needs no retry budget.
fn fast_config(workers: usize) -> PipelineConfig {
    PipelineConfig {
        workers,
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
    }
}

fn deploy_with_faults(world: &World, plan: FaultPlan) -> DeployedWorld {
    DeployedWorld::deploy(
        world,
        DeployConfig {
            faults: Some(Arc::new(plan)),
            ..Default::default()
        },
    )
}

fn assert_failures_total(ds: &MeasuredDataset) {
    let tax = ds.failure_taxonomy();
    assert_eq!(tax.total, ds.observations.len() as u64);
    // Every observation is either clean or carries at least one layer
    // error — the taxonomy never loses a site.
    let with_errors = ds
        .observations
        .iter()
        .filter(|o| o.hosting_error.is_some() || o.dns_error.is_some() || o.ca_error.is_some())
        .count() as u64;
    assert_eq!(tax.clean + with_errors, tax.total);
}

/// `loss_rate = 1.0`: no datagram is ever delivered. The run must come
/// back with every site timed out, not hang or panic.
#[test]
fn total_packet_loss_terminates_with_all_timeouts() {
    let world = small_world();
    let dep = DeployedWorld::deploy(
        &world,
        DeployConfig {
            loss_rate: 1.0,
            ..Default::default()
        },
    );
    let ds = measure(&world, &dep, &fast_config(8));
    assert_eq!(ds.success_rate(&world), 0.0);
    assert_failures_total(&ds);
    let tax = ds.failure_taxonomy();
    assert_eq!(tax.clean, 0, "no site can measure under total loss");
    assert_eq!(
        tax.count("hosting", FailureCause::Timeout),
        tax.total,
        "total loss should time every hosting lookup out: {}",
        tax.to_markdown()
    );
}

/// Every unprotected server down for the whole run. The protected root
/// still answers, so resolution dies one hop later — still a timeout,
/// still accounted, still terminating.
#[test]
fn all_servers_out_terminates_and_accounts() {
    let world = small_world();
    let dep = deploy_with_faults(&world, FaultPlan::outages(11, 1.0));
    let ds = measure(&world, &dep, &fast_config(8));
    assert_eq!(ds.success_rate(&world), 0.0);
    assert_failures_total(&ds);
    let tax = ds.failure_taxonomy();
    assert_eq!(tax.clean, 0);
    // Outages are transport-level black holes: the only visible cause is
    // a timeout (never SERVFAIL or malformed answers).
    for cause in FailureCause::ALL {
        let n = tax.count("hosting", cause) + tax.count("dns", cause);
        match cause {
            FailureCause::Timeout => assert!(n > 0),
            FailureCause::Skipped => {}
            _ => assert_eq!(n, 0, "unexpected {} under outages", cause.name()),
        }
    }
}

/// A flaky majority (75% of servers, 90% fail rate, full repertoire minus
/// Delay — the sleeps would dominate the test) must still terminate and
/// the taxonomy must show only causes the injected kinds can produce.
#[test]
fn flaky_majority_terminates_with_matching_taxonomy() {
    let world = small_world();
    let plan = FaultPlan::flaky(
        13,
        0.75,
        0.9,
        vec![
            FaultKind::Drop,
            FaultKind::ServFail,
            FaultKind::Truncate,
            FaultKind::Garble,
        ],
    );
    let dep = deploy_with_faults(&world, plan);
    let ds = measure(&world, &dep, &fast_config(8));
    assert_failures_total(&ds);
    let tax = ds.failure_taxonomy();
    assert!(tax.clean < tax.total, "a flaky majority must leave a mark");
    // Drop/Truncate/Garble surface as timeouts (nothing usable arrives
    // before the deadline), ServFail as a refusal; rack faults can also
    // skip the CA scan. NxDomain/NoRecords would mean the faults corrupted
    // *content*, which they never do.
    for layer in ["hosting", "dns", "ca"] {
        assert_eq!(tax.count(layer, FailureCause::NxDomain), 0, "{layer}");
        assert_eq!(tax.count(layer, FailureCause::NoRecords), 0, "{layer}");
    }
    let refused = tax.count("hosting", FailureCause::Refused)
        + tax.count("dns", FailureCause::Refused)
        + tax.count("ca", FailureCause::Refused);
    assert!(
        refused > 0,
        "ServFail in the repertoire must show up as refusals"
    );
}

/// The determinism law under faults: same seed + same plan ⇒ the same
/// dataset, byte for byte, no matter how many workers measure it.
#[test]
fn faulted_dataset_identical_across_worker_counts() {
    let world = small_world();
    let plan = FaultPlan::flaky(
        17,
        0.5,
        0.5,
        vec![FaultKind::Drop, FaultKind::ServFail, FaultKind::Truncate],
    );
    let dep = deploy_with_faults(&world, plan);
    let solo = measure(&world, &dep, &fast_config(1));
    let eight = measure(&world, &dep, &fast_config(8));
    assert_eq!(solo, eight, "worker count changed the faulted dataset");

    // And a separately constructed deployment with an equal plan agrees
    // too: fault decisions are functions of the plan, not the process.
    let plan2 = FaultPlan::flaky(
        17,
        0.5,
        0.5,
        vec![FaultKind::Drop, FaultKind::ServFail, FaultKind::Truncate],
    );
    let dep2 = deploy_with_faults(&world, plan2);
    let again = measure(&world, &dep2, &fast_config(4));
    assert_eq!(solo, again, "redeployment changed the faulted dataset");
}

/// The same law for an *outage* plan. Outages are enforced in the
/// network's send path, where a careless implementation could black-hole
/// replies to the vantage endpoints too — and vantage addresses are
/// assigned by worker arrival order, which would make the dataset depend
/// on worker count. Outages must key on the deployment's fixed serving
/// addresses only.
#[test]
fn outage_dataset_identical_across_worker_counts() {
    let world = small_world();
    let dep = deploy_with_faults(&world, FaultPlan::outages(23, 0.3));
    let solo = measure(&world, &dep, &fast_config(1));
    let eight = measure(&world, &dep, &fast_config(8));
    assert_eq!(solo, eight, "worker count changed the outage dataset");
    // The comparison only bites if the outage actually splits the world:
    // some sites must fail and some must still measure cleanly.
    let tax = solo.failure_taxonomy();
    assert!(tax.clean > 0, "a 30% outage should leave survivors");
    assert!(tax.clean < tax.total, "a 30% outage should leave a mark");
}

/// Flaky servers leave fingerprints in the observability counters:
/// truncated datagrams are malformed, garbled ones mismatch their id, and
/// both must be visible in the run's aggregate stats.
#[test]
fn corruption_faults_show_up_in_run_counters() {
    let world = small_world();
    let plan = FaultPlan::flaky(19, 0.6, 0.8, vec![FaultKind::Truncate, FaultKind::Garble]);
    let dep = deploy_with_faults(&world, plan);
    let (_, stats) = webdep_pipeline::measure_with_stats(&world, &dep, &fast_config(8));
    assert!(
        stats.malformed_datagrams > 0,
        "truncation must be counted as malformed datagrams"
    );
    assert!(
        stats.mismatched_ids > 0,
        "garbling must be counted as id mismatches"
    );
}

/// An empty fault plan is no plan: deploying with `FaultPlan::none()`
/// measures the same dataset, down to its serialized bytes, as deploying
/// without one.
#[test]
fn zero_fault_plan_is_byte_identical_to_no_plan() {
    let world = small_world();
    let bare = measure(
        &world,
        &DeployedWorld::deploy(&world, DeployConfig::default()),
        &fast_config(4),
    );
    let planned = measure(
        &world,
        &deploy_with_faults(&world, FaultPlan::none()),
        &fast_config(4),
    );
    assert_eq!(bare, planned, "an empty fault plan changed the dataset");
    let bytes = |ds: &MeasuredDataset| serde_json::to_string(&ds.observations).expect("serialize");
    assert_eq!(bytes(&bare), bytes(&planned));
}

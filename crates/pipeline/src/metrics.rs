//! Process-wide pipeline telemetry, registered in the
//! [`webdep_core::metrics::global`] registry so any exporter in the
//! process (notably the serve crate's `GET /metrics`) can render it.
//!
//! The measurement hot loop keeps its existing contention-free shape:
//! workers accumulate plain `u64`s privately and the run fold-in
//! (`record_run`) adds the per-run totals to the global counters once,
//! after the parallel section — so instrumentation costs a handful of
//! `fetch_add`s per *run*, not per site.

use crate::run::MeasureStats;
use std::sync::OnceLock;
use webdep_core::metrics::{global, Counter};

/// Handles for every pipeline-level counter.
pub struct PipelineMetrics {
    /// Completed measurement runs (any entry point).
    pub runs: Counter,
    /// Sites that flowed through a completed run.
    pub sites_measured: Counter,
    /// DNS queries that missed every cache tier and hit the simulated
    /// wire.
    pub dns_cache_misses: Counter,
    /// Answers served from workers' private resolver caches.
    pub dns_local_cache_hits: Counter,
    /// Answers/delegations served from the shared cache tier.
    pub dns_shared_cache_hits: Counter,
    /// Replies discarded as undecodable datagrams.
    pub malformed_datagrams: Counter,
    /// Replies discarded for a transaction-id mismatch.
    pub mismatched_ids: Counter,
    /// Per-site panics isolated into failed observations.
    pub panics_isolated: Counter,
    /// Workers declared lost by the watchdog.
    pub workers_lost: Counter,
    /// Replacement workers spawned.
    pub workers_respawned: Counter,
    /// In-flight batches requeued after a worker loss.
    pub batches_requeued: Counter,
    /// Sites failed by the poison threshold.
    pub sites_poisoned: Counter,
    /// Sites a valid layer already held, so a run did not measure them.
    pub sites_resumed: Counter,
}

/// The process-wide pipeline metrics, registered on first use.
pub fn metrics() -> &'static PipelineMetrics {
    static METRICS: OnceLock<PipelineMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = global();
        PipelineMetrics {
            runs: r.counter(
                "webdep_pipeline_runs_total",
                "Completed measurement runs in this process",
            ),
            sites_measured: r.counter(
                "webdep_pipeline_sites_measured_total",
                "Sites that flowed through a completed measurement run",
            ),
            dns_cache_misses: r.counter(
                "webdep_pipeline_dns_cache_misses_total",
                "DNS queries that missed every cache tier and hit the simulated wire",
            ),
            dns_local_cache_hits: r.counter(
                "webdep_pipeline_dns_local_cache_hits_total",
                "DNS answers served from workers' private resolver caches",
            ),
            dns_shared_cache_hits: r.counter(
                "webdep_pipeline_dns_shared_cache_hits_total",
                "DNS delegations (TLD cuts) served from the shared cache tier",
            ),
            malformed_datagrams: r.counter(
                "webdep_pipeline_malformed_datagrams_total",
                "DNS replies discarded as undecodable",
            ),
            mismatched_ids: r.counter(
                "webdep_pipeline_mismatched_ids_total",
                "DNS replies discarded for a transaction-id mismatch",
            ),
            panics_isolated: r.counter(
                "webdep_pipeline_panics_isolated_total",
                "Per-site panics isolated into failed observations",
            ),
            workers_lost: r.counter(
                "webdep_pipeline_workers_lost_total",
                "Workers declared lost by the supervisor watchdog",
            ),
            workers_respawned: r.counter(
                "webdep_pipeline_workers_respawned_total",
                "Replacement workers spawned by the supervisor",
            ),
            batches_requeued: r.counter(
                "webdep_pipeline_batches_requeued_total",
                "In-flight batches requeued after a worker loss",
            ),
            sites_poisoned: r.counter(
                "webdep_pipeline_sites_poisoned_total",
                "Sites failed because their batch hit the poison threshold",
            ),
            sites_resumed: r.counter(
                "webdep_pipeline_sites_resumed_total",
                "Sites a valid layer already held, so a run did not measure them",
            ),
        }
    })
}

/// Folds one completed run's [`MeasureStats`] into the global counters.
pub(crate) fn record_run(sites: usize, stats: &MeasureStats) {
    let m = metrics();
    m.runs.inc();
    m.sites_measured.add(sites as u64);
    m.dns_cache_misses.add(stats.wire_queries);
    m.dns_local_cache_hits.add(stats.local_cache_hits);
    m.dns_shared_cache_hits.add(stats.shared_cache_hits);
    m.malformed_datagrams.add(stats.malformed_datagrams);
    m.mismatched_ids.add(stats.mismatched_ids);
    let sup = &stats.supervision;
    m.panics_isolated.add(sup.panics_isolated);
    m.workers_lost.add(sup.workers_lost);
    m.workers_respawned.add(sup.workers_respawned);
    m.batches_requeued.add(sup.batches_requeued);
    m.sites_poisoned.add(sup.sites_poisoned);
    m.sites_resumed.add(sup.sites_resumed);
}

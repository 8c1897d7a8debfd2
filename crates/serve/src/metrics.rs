//! Per-server telemetry: request counters, per-route latency histograms,
//! snapshot-epoch gauges, and the `GET /metrics` Prometheus-text body.
//!
//! Each [`ServeMetrics`] owns a private
//! [`webdep_core::metrics::Registry`], so several servers in
//! one test process never mix series; the exporter concatenates the
//! server's registry with the process-wide one (where the measurement
//! pipeline and the run journal register), giving one scrape target for
//! the whole process.

use crate::cache::{CacheCounters, ResponseCache};
use std::time::Duration;
use webdep_core::metrics::{global, Counter, Gauge, Histogram, Registry, LATENCY_SECONDS};

/// Route labels with dedicated request counters and latency histograms.
/// Unmatched paths (404s, bad queries on unknown routes) fall into
/// `other` so hostile traffic cannot mint unbounded series.
pub const ROUTE_LABELS: &[&str] = &[
    "healthz",
    "metrics",
    "meta",
    "countries",
    "score",
    "ci",
    "shares",
    "insularity",
    "badge",
    "top",
    "coverage",
    "taxonomy",
    "trajectory",
    "other",
];

struct RouteSeries {
    label: &'static str,
    requests: Counter,
    latency: Histogram,
}

/// All counters, gauges, and histograms one server exports.
pub struct ServeMetrics {
    registry: Registry,
    /// Connections accepted.
    pub connections: Counter,
    /// Requests answered with 2xx.
    pub ok: Counter,
    /// Requests answered with 4xx/5xx (parse errors included).
    pub errors: Counter,
    /// Requests answered with 408 after the read deadline.
    pub timeouts: Counter,
    /// Connections shed at accept time because the admission queue was at
    /// capacity (answered with a blind `503 + Retry-After`).
    pub shed_queue: Counter,
    /// Requests shed before route dispatch because the server was over its
    /// inflight or latency thresholds (`503 + Retry-After`).
    pub shed_load: Counter,
    /// Requests whose cube work was aborted at the per-route soft deadline
    /// (answered with `503 + Retry-After` instead of wedging a worker).
    pub deadline_aborts: Counter,
    /// Snapshot publications rejected by pre-publish validation (the
    /// previous epoch kept serving).
    pub publish_rejected: Counter,
    /// Connections currently queued for (or parked between) workers.
    pub queue_depth: Gauge,
    /// Requests currently inside route dispatch.
    pub inflight: Gauge,
    /// Quantile-biased request-latency EWMA (seconds) — the overload
    /// signal compared against the p99 budget.
    pub latency_ewma: Gauge,
    /// Currently published snapshot epoch.
    pub snapshot_epoch: Gauge,
    /// Snapshots published (the initial snapshot counts as the first).
    pub snapshot_publishes: Counter,
    /// Resident response-cache entries (set at scrape time).
    cache_entries: Gauge,
    routes: Vec<RouteSeries>,
}

impl ServeMetrics {
    /// Registers every server-level series in a fresh registry.
    pub fn new() -> Self {
        let registry = Registry::new();
        let routes = ROUTE_LABELS
            .iter()
            .map(|&label| RouteSeries {
                label,
                requests: registry.counter_with(
                    "webdep_serve_requests_total",
                    "Requests answered, by route",
                    &[("route", label)],
                ),
                latency: registry.histogram_with(
                    "webdep_serve_request_seconds",
                    "Wall-clock time from parsed head to rendered body, by route",
                    &[("route", label)],
                    LATENCY_SECONDS,
                ),
            })
            .collect();
        ServeMetrics {
            connections: registry.counter(
                "webdep_serve_connections_total",
                "Connections accepted by the listener",
            ),
            ok: registry.counter(
                "webdep_serve_responses_ok_total",
                "Requests answered with a 2xx status",
            ),
            errors: registry.counter(
                "webdep_serve_responses_error_total",
                "Requests answered with a 4xx or 5xx status (parse errors included)",
            ),
            timeouts: registry.counter(
                "webdep_serve_response_timeouts_total",
                "Requests answered with 408 after the read deadline",
            ),
            shed_queue: registry.counter(
                "webdep_serve_shed_queue_total",
                "Connections shed at accept time with the admission queue at capacity",
            ),
            shed_load: registry.counter(
                "webdep_serve_shed_load_total",
                "Requests shed before route dispatch under inflight or latency pressure",
            ),
            deadline_aborts: registry.counter(
                "webdep_serve_deadline_aborts_total",
                "Requests whose cube work was aborted at the per-route soft deadline",
            ),
            publish_rejected: registry.counter(
                "webdep_serve_publish_rejected_total",
                "Snapshot publications rejected by pre-publish validation",
            ),
            queue_depth: registry.gauge(
                "webdep_serve_queue_depth",
                "Connections queued for (or parked between) workers",
            ),
            inflight: registry.gauge(
                "webdep_serve_inflight_requests",
                "Requests currently inside route dispatch",
            ),
            latency_ewma: registry.gauge(
                "webdep_serve_latency_ewma_seconds",
                "Quantile-biased request-latency EWMA compared against the p99 budget",
            ),
            snapshot_epoch: registry.gauge(
                "webdep_serve_snapshot_epoch",
                "Currently published snapshot epoch",
            ),
            snapshot_publishes: registry.counter(
                "webdep_serve_snapshot_publishes_total",
                "Snapshot publications observed by this server",
            ),
            cache_entries: registry.gauge(
                "webdep_serve_cache_entries",
                "Response-cache entries currently resident",
            ),
            routes,
            registry,
        }
    }

    /// Counters for a [`ResponseCache`] wired into this registry.
    pub fn cache_counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.registry.counter(
                "webdep_serve_cache_hits_total",
                "Response-cache lookups answered from the cache",
            ),
            misses: self.registry.counter(
                "webdep_serve_cache_misses_total",
                "Response-cache lookups that had to render the body",
            ),
            evictions: self.registry.counter(
                "webdep_serve_cache_evictions_total",
                "Response-cache entries dropped to stay within capacity",
            ),
            stale_purged: self.registry.counter(
                "webdep_serve_cache_stale_purged_total",
                "Response-cache entries dropped because their epoch was superseded",
            ),
        }
    }

    /// Records one answered request: the per-route counter and latency
    /// histogram, plus the status-class counters.
    pub fn observe_request(&self, route: &str, status: u16, elapsed: Duration) {
        let series = self
            .routes
            .iter()
            .find(|r| r.label == route)
            .unwrap_or_else(|| self.routes.last().expect("route table is non-empty"));
        series.requests.inc();
        series.latency.observe_duration(elapsed);
        if status < 400 {
            self.ok.inc();
        } else {
            self.errors.inc();
        }
    }

    /// Latency quantile readout for a route (`None` before any traffic).
    pub fn route_quantile(&self, route: &str, q: f64) -> Option<f64> {
        self.routes
            .iter()
            .find(|r| r.label == route)
            .and_then(|r| r.latency.quantile(q))
    }

    /// Renders the `GET /metrics` body: this server's registry followed by
    /// the process-wide registry (pipeline counters, journal counters).
    pub fn render(&self, epoch: u64, cache: &ResponseCache) -> String {
        self.snapshot_epoch.set(epoch as f64);
        self.cache_entries.set(cache.stats().len as f64);
        let own = self.registry.render();
        let process = global().render();
        let mut out = String::with_capacity(own.len() + process.len());
        out.push_str(&own);
        out.push_str(&process);
        out
    }
}

impl Default for ServeMetrics {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_routes_fold_into_other() {
        let m = ServeMetrics::new();
        m.observe_request("no-such-route", 404, Duration::from_micros(80));
        m.observe_request("score", 200, Duration::from_micros(120));
        let cache = ResponseCache::new(16);
        let text = m.render(3, &cache);
        assert!(text.contains("webdep_serve_requests_total{route=\"other\"} 1"));
        assert!(text.contains("webdep_serve_requests_total{route=\"score\"} 1"));
        assert!(text.contains("webdep_serve_snapshot_epoch 3.0"));
        assert_eq!(m.ok.get(), 1);
        assert_eq!(m.errors.get(), 1);
        assert!(m.route_quantile("score", 0.5).is_some());
        assert!(m.route_quantile("meta", 0.5).is_none());
    }
}

//! `webdep serve`: a resident, epoch-versioned HTTP query service over the
//! [`DependenceCube`](webdep_analysis::DependenceCube).
//!
//! The one-shot report answers every question by re-running the analysis;
//! this crate keeps the cube hot behind a long-lived HTTP/1.1 endpoint so
//! centralization and dependence queries cost an in-memory lookup, and a
//! re-measurement landing mid-traffic swaps in atomically without blocking
//! a single reader.
//!
//! Layering:
//! - [`http`] — a total, property-tested request-head parser with explicit
//!   size and time limits, plus the response writer.
//! - [`snapshot`] — [`snapshot::CubeSnapshot`] (world + cube + taxonomy
//!   behind one `Arc`, always folded from a chunk store: in full, or
//!   only the dirty chunks of an epoch delta) and
//!   [`snapshot::SnapshotCell`], the RwLock-free epoch-versioned
//!   publication point.
//! - [`cache`] — the bounded `(epoch, canonical query) → body` response
//!   cache with hit/miss/eviction counters.
//! - [`metrics`] — per-route request counters and latency histograms,
//!   snapshot-epoch gauges, and the `GET /metrics` Prometheus-text body
//!   (built on [`webdep_core::metrics`], no prometheus crate).
//! - [`routes`] — the route table; every responder calls the same
//!   `webdep-analysis` entry points as the one-shot report.
//! - [`server`] — listener, worker pool, connection loop, graceful
//!   shutdown, and the CLI's SIGINT helper.
//!
//! Everything is `std` + the workspace's offline shims: no tokio, no
//! hyper, no libc.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod cache;
pub mod http;
pub mod metrics;
pub mod routes;
pub mod server;
pub mod snapshot;

pub use cache::{CacheCounters, CacheStats, ResponseCache};
pub use http::{Limits, Request};
pub use metrics::ServeMetrics;
pub use server::{start, OverloadConfig, ServeConfig, ServerHandle};
pub use snapshot::{CubeSnapshot, SnapshotCell};

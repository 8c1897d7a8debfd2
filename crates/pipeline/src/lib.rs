//! # webdep-pipeline
//!
//! The measurement pipeline (§3.4): resolve every site, TLS-scan the
//! serving IP, and enrich with the geolocation / pfx2as / AS-org / anycast
//! / CA-ownership databases — against the *deployed* simulated world, so
//! every number in the analysis is recovered by measurement rather than
//! read from generator ground truth.
//!
//! The paper's toolchain maps to: ZDNS → [`webdep_dns::IterativeResolver`],
//! ZGrab2 → [`webdep_tls::Scanner`], NetAcuity → `GeoDb`, Routeviews
//! pfx2as → `PrefixTable`, CAIDA AS-to-Org → `AsOrgDb`, bgp.tools →
//! `AnycastSet`, CCADB → `CaOwnerDb`, and LangDetect → the site's language
//! tag (carried on the generated site, since there is no real content to
//! classify).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataset;
pub mod delta;
pub mod journal;
pub mod metrics;
pub mod run;
pub mod store;
pub mod supervisor;
pub mod vantage;

pub use dataset::{FailureCause, FailureTaxonomy, LayerError, MeasuredDataset, SiteObservation};
pub use delta::{measure_delta, DeltaStats};
pub use journal::JournalWriter;
pub use run::{
    measure, measure_streamed, measure_with_stats, resume_streamed, MeasureStats, PipelineConfig,
};
pub use store::{ChunkStore, ChunkStoreWriter, DecodedChunk, FsckReport, DEFAULT_CHUNK_SITES};
pub use supervisor::{ChaosPlan, SupervisionStats, SupervisorConfig};
pub use vantage::resolve_hosting_orgs;

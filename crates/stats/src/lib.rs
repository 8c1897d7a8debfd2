//! # webdep-stats
//!
//! Statistics substrate for the `webdep` toolkit: the numerical machinery
//! the paper's analysis relies on but that is not itself a dependence
//! metric.
//!
//! * [`describe`] — means, variances, medians, quantiles.
//! * [`corr`] — Pearson and Spearman correlation with two-sided p-values
//!   (computed via the incomplete beta function, no external stats crate).
//! * [`jaccard`] — set similarity, used for the §5.4 top-list churn analysis.
//! * [`scale`] — min-max feature scaling used before clustering (§5.2).
//! * [`hist`] — fixed-width histograms and empirical CDFs (Figures 11, 12).
//! * [`bootstrap`] — seeded percentile bootstrap confidence intervals.
//! * [`par`] — scoped-thread parallel map with deterministic output order,
//!   used to spread country tables and bootstrap replicates across cores.
//! * [`affinity`] — affinity propagation clustering (Frey & Dueck 2007),
//!   the algorithm the paper uses to find provider classes.
//! * [`special`] — ln-gamma / incomplete beta special functions backing the
//!   p-values.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod affinity;
pub mod bootstrap;
pub mod corr;
pub mod describe;
pub mod hist;
pub mod jaccard;
pub mod par;
pub mod scale;
pub mod special;

pub use affinity::{affinity_propagation, AffinityConfig, Clustering};
pub use bootstrap::{
    bootstrap_ci, label_score_ci_scratch, BootstrapAborted, BootstrapCi, BootstrapScratch,
};
pub use corr::{pearson, spearman, Correlation, CorrelationStrength};
pub use describe::Summary;
pub use jaccard::jaccard_index;
pub use par::{par_map, par_map_indices};
pub use scale::min_max_scale_columns;

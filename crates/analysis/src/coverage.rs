//! Measurement coverage: what fraction of each country's toplist was
//! actually observed at each layer.
//!
//! A centralization score computed from 40% of a toplist is a different
//! claim than one computed from all of it. Under fault injection (and in
//! real measurement, under outages) the pipeline degrades gracefully
//! instead of aborting — so every analysis table carries coverage, and
//! this module aggregates it into the per-layer model the report reads.

use crate::ctx::AnalysisCtx;
use serde::Serialize;
use std::fmt::Write as _;
use webdep_webgen::{Layer, COUNTRIES};

/// One layer's coverage across all 150 countries.
#[derive(Debug, Clone, Serialize)]
pub struct LayerCoverage {
    /// The layer.
    pub layer_name: &'static str,
    /// Fraction of each country's toplist observed, `COUNTRIES` order.
    pub per_country: Vec<f64>,
    /// Toplist entries observed at this layer, summed over countries.
    pub observed: u64,
    /// Toplist entries expected (sum of toplist lengths).
    pub expected: u64,
}

impl LayerCoverage {
    /// Site-weighted coverage over all countries.
    pub fn fraction(&self) -> f64 {
        if self.expected == 0 {
            0.0
        } else {
            self.observed as f64 / self.expected as f64
        }
    }

    /// The worst-covered country and its fraction.
    pub fn min_country(&self) -> Option<(&'static str, f64)> {
        self.per_country
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("fractions are finite"))
            .map(|(ci, &f)| (COUNTRIES[ci].code, f))
    }

    /// Countries with zero observations at this layer.
    pub fn dark_countries(&self) -> usize {
        self.per_country.iter().filter(|&&f| f == 0.0).count()
    }
}

/// Coverage for every layer, in [`Layer::ALL`] order.
#[derive(Debug, Clone, Serialize)]
pub struct CoverageModel {
    /// Per-layer coverage, indexed by [`Layer::index`].
    pub layers: Vec<LayerCoverage>,
}

/// Builds the coverage model from an analysis context.
pub fn coverage_model(ctx: &AnalysisCtx<'_>) -> CoverageModel {
    let layers = Layer::ALL
        .iter()
        .map(|&layer| {
            let mut per_country = Vec::with_capacity(COUNTRIES.len());
            let (mut observed, mut expected) = (0u64, 0u64);
            for ci in 0..COUNTRIES.len() {
                per_country.push(ctx.country_coverage(ci, layer));
                observed += ctx.country_total(ci, layer);
                expected += ctx.toplist_len(ci) as u64;
            }
            LayerCoverage {
                layer_name: layer.name(),
                per_country,
                observed,
                expected,
            }
        })
        .collect();
    CoverageModel { layers }
}

impl CoverageModel {
    /// One layer's coverage.
    pub fn layer(&self, layer: Layer) -> &LayerCoverage {
        &self.layers[layer.index()]
    }

    /// Renders the model as a Markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out =
            String::from("| layer | coverage | worst country | dark |\n|---|---:|---|---:|\n");
        for l in &self.layers {
            let (code, frac) = l.min_country().unwrap_or(("-", 0.0));
            let _ = writeln!(
                out,
                "| {} | {:.1}% | {} ({:.1}%) | {} |",
                l.layer_name,
                100.0 * l.fraction(),
                code,
                100.0 * frac,
                l.dark_countries()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::testutil::ctx;
    use crate::ctx::AnalysisCtx;

    #[test]
    fn clean_fixture_is_fully_covered() {
        let c = ctx();
        let m = coverage_model(&c);
        assert_eq!(m.layers.len(), Layer::ALL.len());
        for l in &m.layers {
            assert!(l.fraction() > 0.99, "{}: {}", l.layer_name, l.fraction());
            assert_eq!(l.dark_countries(), 0, "{}", l.layer_name);
            assert_eq!(l.per_country.len(), COUNTRIES.len());
            assert_eq!(l.expected, l.observed, "{} loses sites", l.layer_name);
        }
        let md = m.to_markdown();
        assert!(md.contains("| hosting | 100.0% |"), "{md}");
    }

    #[test]
    fn empty_dataset_reports_zero_coverage() {
        use webdep_pipeline::{MeasuredDataset, SiteObservation};
        let (world, _) = crate::ctx::testutil::fixture();
        // All observations blank: every layer dark everywhere.
        let ds = MeasuredDataset {
            observations: world
                .sites
                .iter()
                .map(|s| SiteObservation::blank(&s.domain, &s.language))
                .collect(),
            label: "blank".into(),
        };
        let c = AnalysisCtx::new(world, &ds);
        let m = coverage_model(&c);
        assert_eq!(m.layer(Layer::Hosting).fraction(), 0.0);
        assert_eq!(m.layer(Layer::Hosting).dark_countries(), COUNTRIES.len());
        // TLD labels still parse from the domain, so that layer survives.
        assert!(m.layer(Layer::Tld).fraction() > 0.99);
    }
}

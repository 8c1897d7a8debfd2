//! The 2023 → 2025 longitudinal comparison (§5.4).

use crate::ctx::AnalysisCtx;
use serde::Serialize;
use std::collections::HashSet;
use webdep_core::centralization::centralization_score;
use webdep_stats::{jaccard_index, pearson, Correlation};
use webdep_webgen::{Layer, COUNTRIES};

/// Per-country longitudinal deltas.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CountryDelta {
    /// Country code.
    pub code: &'static str,
    /// Hosting centralization in the old snapshot.
    pub s_old: f64,
    /// Hosting centralization in the new snapshot.
    pub s_new: f64,
    /// Cloudflare share delta in percentage points.
    pub cloudflare_delta_pts: f64,
    /// Jaccard index between the two toplists' domain sets.
    pub jaccard: f64,
    /// US-provider share delta in percentage points.
    pub us_share_delta_pts: f64,
}

/// The full §5.4 comparison.
#[derive(Debug, Clone, Serialize)]
pub struct LongitudinalReport {
    /// Per-country rows.
    pub deltas: Vec<CountryDelta>,
    /// ρ between old and new scores (paper: 0.98).
    pub score_correlation: Option<Correlation>,
    /// Mean Cloudflare delta in points (paper: +3.8).
    pub mean_cloudflare_delta_pts: f64,
    /// Mean Jaccard (paper: ~0.37).
    pub mean_jaccard: f64,
    /// Countries whose US reliance decreased (paper: 56 of 150).
    pub us_reliance_decreased: usize,
}

/// A country's toplist domain set, read off the world's site records (the
/// pipeline copies each observation's domain from the same record).
fn country_domains<'c>(ctx: &'c AnalysisCtx<'_>, ci: usize) -> HashSet<&'c str> {
    ctx.world.toplists[ci]
        .iter()
        .map(|&oi| ctx.world.sites[oi as usize].domain.as_str())
        .collect()
}

fn cloudflare_share(ctx: &AnalysisCtx<'_>, ci: usize) -> f64 {
    ctx.world
        .universe
        .provider_by_name("Cloudflare")
        .map(|cf| ctx.owner_share(ci, Layer::Hosting, cf))
        .unwrap_or(0.0)
}

fn us_share(ctx: &AnalysisCtx<'_>, ci: usize) -> f64 {
    let counts = ctx.country_counts(ci, Layer::Hosting);
    let total = ctx.country_total(ci, Layer::Hosting);
    if total == 0 {
        return 0.0;
    }
    counts
        .iter()
        .filter(|&&(o, _)| ctx.owner_country(Layer::Hosting, o) == Some("US"))
        .map(|&(_, c)| c as f64)
        .sum::<f64>()
        / total as f64
}

/// Compares two measured snapshots (same country set).
pub fn compare(old: &AnalysisCtx<'_>, new: &AnalysisCtx<'_>) -> LongitudinalReport {
    let mut deltas = Vec::with_capacity(COUNTRIES.len());
    for (ci, country) in COUNTRIES.iter().enumerate() {
        let (Some(d_old), Some(d_new)) = (
            old.country_dist(ci, Layer::Hosting),
            new.country_dist(ci, Layer::Hosting),
        ) else {
            continue;
        };
        let domains_old = country_domains(old, ci);
        let domains_new = country_domains(new, ci);
        deltas.push(CountryDelta {
            code: country.code,
            s_old: centralization_score(d_old),
            s_new: centralization_score(d_new),
            cloudflare_delta_pts: 100.0 * (cloudflare_share(new, ci) - cloudflare_share(old, ci)),
            jaccard: jaccard_index(&domains_old, &domains_new),
            us_share_delta_pts: 100.0 * (us_share(new, ci) - us_share(old, ci)),
        });
    }
    let olds: Vec<f64> = deltas.iter().map(|d| d.s_old).collect();
    let news: Vec<f64> = deltas.iter().map(|d| d.s_new).collect();
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    LongitudinalReport {
        score_correlation: pearson(&olds, &news),
        mean_cloudflare_delta_pts: mean(
            &deltas
                .iter()
                .map(|d| d.cloudflare_delta_pts)
                .collect::<Vec<_>>(),
        ),
        mean_jaccard: mean(&deltas.iter().map(|d| d.jaccard).collect::<Vec<_>>()),
        us_reliance_decreased: deltas.iter().filter(|d| d.us_share_delta_pts < 0.0).count(),
        deltas,
    }
}

impl LongitudinalReport {
    /// Row by country code.
    pub fn delta(&self, code: &str) -> Option<&CountryDelta> {
        self.deltas.iter().find(|d| d.code == code)
    }

    /// The country with the largest centralization increase.
    pub fn largest_increase(&self) -> Option<&CountryDelta> {
        self.deltas.iter().max_by(|a, b| {
            (a.s_new - a.s_old)
                .partial_cmp(&(b.s_new - b.s_old))
                .expect("finite")
        })
    }
}

/// One epoch's summary point on a centralization trajectory.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EpochPoint {
    /// Epoch number (position in the trajectory).
    pub epoch: usize,
    /// Snapshot label of the epoch's world.
    pub label: String,
    /// Mean hosting centralization score across measured countries.
    pub mean_score: f64,
    /// Mean Cloudflare hosting share across measured countries, percent.
    pub mean_cloudflare_pct: f64,
    /// `mean_score` change versus the previous epoch (0 for the first).
    pub drift: f64,
    /// True when the drift breaks the trajectory's own trend — see
    /// [`Trajectory::push`] for the exact rule.
    pub changepoint: bool,
}

/// A per-epoch centralization trajectory for the continuous measurement
/// loop: push one point per published epoch, read drift and changepoint
/// flags off the points.
#[derive(Debug, Clone, Default, Serialize)]
pub struct Trajectory {
    /// Points in epoch order.
    pub points: Vec<EpochPoint>,
}

impl Trajectory {
    /// An empty trajectory.
    pub fn new() -> Self {
        Trajectory::default()
    }

    /// Appends an epoch summarized from an analysis context (cube-only
    /// contexts work — only cube accessors are read).
    ///
    /// Drift is the mean-score change against the previous point. The
    /// changepoint rule is deterministic: with fewer than two prior
    /// drifts, a point is flagged when `|drift| > 0.05`; afterwards, when
    /// `|drift|` exceeds three times the trailing mean absolute drift
    /// (floored at 0.01, so a flat trajectory doesn't flag noise).
    pub fn push(&mut self, ctx: &AnalysisCtx<'_>) -> &EpochPoint {
        let mut scores = Vec::new();
        let mut cf = Vec::new();
        for ci in 0..COUNTRIES.len() {
            if let Some(d) = ctx.country_dist(ci, Layer::Hosting) {
                scores.push(centralization_score(d));
                cf.push(100.0 * cloudflare_share(ctx, ci));
            }
        }
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
        self.push_point(&ctx.world.label, mean(&scores), mean(&cf))
    }

    /// Low-level append from precomputed means — the drift/changepoint
    /// arithmetic without an analysis context (also what tests exercise).
    pub fn push_point(
        &mut self,
        label: &str,
        mean_score: f64,
        mean_cloudflare_pct: f64,
    ) -> &EpochPoint {
        let drift = match self.points.last() {
            Some(prev) => mean_score - prev.mean_score,
            None => 0.0,
        };
        // Prior drifts, excluding the first point's structural zero.
        let prior: Vec<f64> = self.points.iter().skip(1).map(|p| p.drift.abs()).collect();
        let changepoint = if self.points.is_empty() {
            false
        } else if prior.len() < 2 {
            drift.abs() > 0.05
        } else {
            let trailing = prior.iter().sum::<f64>() / prior.len() as f64;
            drift.abs() > (3.0 * trailing).max(0.01)
        };
        self.points.push(EpochPoint {
            epoch: self.points.len(),
            label: label.to_string(),
            mean_score,
            mean_cloudflare_pct,
            drift,
            changepoint,
        });
        self.points.last().expect("just pushed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::testutil::{fixture, measured};
    use crate::AnalysisCtx;
    use std::sync::OnceLock;
    use webdep_pipeline::MeasuredDataset;
    use webdep_webgen::evolve::evolve;
    use webdep_webgen::{DeployConfig, DeployedWorld, World};

    fn evolved() -> &'static (World, MeasuredDataset) {
        static EVOLVED: OnceLock<(World, MeasuredDataset)> = OnceLock::new();
        EVOLVED.get_or_init(|| {
            let (world, _) = fixture();
            let new_world = evolve(world);
            let dep = DeployedWorld::deploy(&new_world, DeployConfig::default());
            let ds = measured(&new_world, &dep, "evolved");
            (new_world, ds)
        })
    }

    fn report() -> LongitudinalReport {
        let (old_world, old_ds) = fixture();
        let (new_world, new_ds) = evolved();
        compare(
            &AnalysisCtx::new(old_world, old_ds),
            &AnalysisCtx::new(new_world, new_ds),
        )
    }

    #[test]
    fn scores_stable_and_cloudflare_up() {
        let r = report();
        assert_eq!(r.deltas.len(), 150);
        let rho = r.score_correlation.unwrap().rho;
        assert!(rho > 0.9, "rho {rho}");
        assert!(
            (1.0..8.0).contains(&r.mean_cloudflare_delta_pts),
            "mean CF delta {}",
            r.mean_cloudflare_delta_pts
        );
    }

    #[test]
    fn brazil_and_turkmenistan_rise_russia_falls() {
        let r = report();
        assert!(r.delta("BR").unwrap().cloudflare_delta_pts > 5.0);
        assert!(r.delta("TM").unwrap().cloudflare_delta_pts > 6.0);
        assert!(r.delta("RU").unwrap().cloudflare_delta_pts <= 0.5);
        assert!(r.delta("RU").unwrap().us_share_delta_pts < 0.0);
    }

    #[test]
    fn jaccard_churn_in_range() {
        let r = report();
        assert!(
            (0.25..0.55).contains(&r.mean_jaccard),
            "mean jaccard {}",
            r.mean_jaccard
        );
        for d in &r.deltas {
            assert!(
                d.jaccard > 0.05 && d.jaccard < 0.95,
                "{}: {}",
                d.code,
                d.jaccard
            );
        }
    }

    #[test]
    fn some_countries_reduce_us_reliance() {
        let r = report();
        assert!(
            r.us_reliance_decreased > 10,
            "US-reliance decreases: {}",
            r.us_reliance_decreased
        );
        assert!(r.largest_increase().is_some());
    }

    /// Cube-only contexts (no resident observations — the store-built
    /// epoch shape) compare exactly like resident ones: toplist domains
    /// come from the world, and the measurement recorded the same ones.
    #[test]
    fn compare_matches_on_cube_only_contexts() {
        use crate::cube::DependenceCube;

        let (old_world, old_ds) = fixture();
        let (new_world, new_ds) = evolved();
        for (world, ds) in [(old_world, old_ds), (new_world, new_ds)] {
            assert!(world
                .sites
                .iter()
                .zip(&ds.observations)
                .all(|(site, obs)| site.domain == obs.domain));
        }
        let direct = report();

        let cube_old = DependenceCube::build(old_world, old_ds);
        let cube_new = DependenceCube::build(new_world, new_ds);
        let r = compare(
            &AnalysisCtx::over_cube(old_world, &cube_old),
            &AnalysisCtx::over_cube(new_world, &cube_new),
        );
        assert_eq!(r.deltas, direct.deltas);
    }

    /// The changepoint rule on synthetic points: a drift in line with the
    /// trailing trend stays quiet; one that breaks it flags.
    #[test]
    fn trajectory_drift_and_changepoint_flags() {
        let mut t = Trajectory::new();
        t.push_point("e0", 0.500, 10.0);
        assert!(!t.points[0].changepoint, "first point never flags");
        assert_eq!(t.points[0].drift, 0.0);
        t.push_point("e1", 0.504, 10.2);
        assert!(!t.points[1].changepoint, "small early drift stays quiet");
        t.push_point("e2", 0.508, 10.4);
        t.push_point("e3", 0.511, 10.5);
        assert!(!t.points[3].changepoint, "in-trend drift stays quiet");
        let p = t.push_point("e4", 0.60, 14.0).clone();
        assert!(p.changepoint, "an out-of-trend jump flags");
        assert!((p.drift - 0.089).abs() < 1e-9);
        assert_eq!(p.epoch, 4);
        // A flat trajectory never flags noise below the floor.
        let mut flat = Trajectory::new();
        for (i, s) in [0.5, 0.5001, 0.5002, 0.4999, 0.5005].iter().enumerate() {
            let p = flat.push_point(&format!("f{i}"), *s, 0.0).clone();
            assert!(!p.changepoint, "f{i} flagged");
        }
    }

    /// Trajectory plumbing over real epochs: the paper evolution raises
    /// the mean Cloudflare share, and drift is the score difference.
    #[test]
    fn trajectory_tracks_real_epochs() {
        let (old_world, old_ds) = fixture();
        let (new_world, new_ds) = evolved();
        let mut t = Trajectory::new();
        t.push(&AnalysisCtx::new(old_world, old_ds));
        t.push(&AnalysisCtx::new(new_world, new_ds));
        assert_eq!(t.points.len(), 2);
        assert_eq!(t.points[0].label, old_world.label);
        assert_eq!(t.points[1].label, new_world.label);
        assert!(
            t.points[1].mean_cloudflare_pct > t.points[0].mean_cloudflare_pct,
            "paper evolution raises Cloudflare share: {} -> {}",
            t.points[0].mean_cloudflare_pct,
            t.points[1].mean_cloudflare_pct
        );
        assert_eq!(
            t.points[1].drift,
            t.points[1].mean_score - t.points[0].mean_score
        );
    }
}

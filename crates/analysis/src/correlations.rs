//! The paper's headline correlations (§5.2, §5.3.1, §6, Appendix B).

use crate::classes::{Classification, ProviderClass};
use crate::ctx::AnalysisCtx;
use crate::insularity::country_insularity;
use serde::{Deserialize, Serialize};
use webdep_core::centralization::centralization_score;
use webdep_stats::{pearson, Correlation};
use webdep_webgen::{Layer, COUNTRIES};

/// The §5.2 class-share correlations plus §5.3.1 insularity correlation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClassCorrelations {
    /// ρ(S, XL-GP share) — paper: 0.90 (strong).
    pub s_vs_xlgp: Option<Correlation>,
    /// ρ(S, non-XL large-global share) — paper: 0.19 (poor).
    pub s_vs_lgp: Option<Correlation>,
    /// ρ(S, large-regional share) — paper: −0.72 (moderate, negative).
    pub s_vs_lrp: Option<Correlation>,
    /// ρ(S, insularity) — paper: −0.61 (moderate, negative).
    pub s_vs_insularity: Option<Correlation>,
}

/// Computes the §5.2 correlations for a provider layer.
pub fn class_correlations(
    ctx: &AnalysisCtx<'_>,
    layer: Layer,
    classes: &Classification,
) -> ClassCorrelations {
    let mut s = Vec::new();
    let mut xlgp = Vec::new();
    let mut lgp = Vec::new();
    let mut lrp = Vec::new();
    let mut ins = Vec::new();
    for (ci, _) in COUNTRIES.iter().enumerate() {
        let Some(dist) = ctx.country_dist(ci, layer) else {
            continue;
        };
        let counts = ctx.country_counts(ci, layer);
        let total = ctx.country_total(ci, layer);
        let share_of = |pred: &dyn Fn(ProviderClass) -> bool| -> f64 {
            counts
                .iter()
                .filter(|&&(o, _)| pred(classes.class(o)))
                .map(|&(_, c)| c as f64)
                .sum::<f64>()
                / total as f64
        };
        xlgp.push(share_of(&|c| c == ProviderClass::XlGp));
        lgp.push(share_of(&|c| {
            matches!(c, ProviderClass::LGp | ProviderClass::LGpR)
        }));
        lrp.push(share_of(&|c| c == ProviderClass::LRp));
        s.push(centralization_score(dist));
        ins.push(country_insularity(ctx, ci, layer).unwrap_or(0.0));
    }
    ClassCorrelations {
        s_vs_xlgp: pearson(&s, &xlgp),
        s_vs_lgp: pearson(&s, &lgp),
        s_vs_lrp: pearson(&s, &lrp),
        s_vs_insularity: pearson(&s, &ins),
    }
}

/// ρ between hosting insularity and TLD insularity (Appendix B: 0.70).
pub fn hosting_vs_tld_insularity(ctx: &AnalysisCtx<'_>) -> Option<Correlation> {
    let mut hosting = Vec::new();
    let mut tld = Vec::new();
    for ci in 0..COUNTRIES.len() {
        match (
            country_insularity(ctx, ci, Layer::Hosting),
            country_insularity(ctx, ci, Layer::Tld),
        ) {
            (Some(h), Some(t)) => {
                hosting.push(h);
                tld.push(t);
            }
            _ => continue,
        }
    }
    pearson(&hosting, &tld)
}

/// ρ between two layers' centralization scores (e.g. hosting vs DNS).
pub fn layer_score_correlation(ctx: &AnalysisCtx<'_>, a: Layer, b: Layer) -> Option<Correlation> {
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for ci in 0..COUNTRIES.len() {
        match (ctx.country_dist(ci, a), ctx.country_dist(ci, b)) {
            (Some(da), Some(db)) => {
                xs.push(centralization_score(da));
                ys.push(centralization_score(db));
            }
            _ => continue,
        }
    }
    pearson(&xs, &ys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::classify;
    use crate::ctx::testutil::ctx;
    use webdep_stats::CorrelationStrength;

    #[test]
    fn xlgp_share_strongly_correlates_with_centralization() {
        let c = ctx();
        let classes = classify(&c, Layer::Hosting);
        let corr = class_correlations(&c, Layer::Hosting, &classes);
        let x = corr.s_vs_xlgp.unwrap();
        assert!(x.rho > 0.7, "rho = {}", x.rho);
        assert!(x.significant_at(0.05));
    }

    #[test]
    fn lrp_share_negatively_correlates() {
        let c = ctx();
        let classes = classify(&c, Layer::Hosting);
        let corr = class_correlations(&c, Layer::Hosting, &classes);
        let l = corr.s_vs_lrp.unwrap();
        assert!(l.rho < -0.3, "rho = {}", l.rho);
    }

    #[test]
    fn lgp_correlation_weaker_than_xlgp() {
        let c = ctx();
        let classes = classify(&c, Layer::Hosting);
        let corr = class_correlations(&c, Layer::Hosting, &classes);
        let xl = corr.s_vs_xlgp.unwrap().rho;
        let l = corr.s_vs_lgp.unwrap().rho;
        assert!(l.abs() < xl.abs(), "L-GP {l} vs XL-GP {xl}");
    }

    #[test]
    fn insularity_negatively_correlates_with_centralization() {
        let c = ctx();
        let classes = classify(&c, Layer::Hosting);
        let corr = class_correlations(&c, Layer::Hosting, &classes);
        let i = corr.s_vs_insularity.unwrap();
        assert!(i.rho < -0.2, "rho = {}", i.rho);
    }

    #[test]
    fn hosting_and_tld_insularity_couple() {
        let c = ctx();
        let corr = hosting_vs_tld_insularity(&c).unwrap();
        assert!(corr.rho > 0.35, "rho = {}", corr.rho);
        assert!(!matches!(corr.strength(), CorrelationStrength::Poor));
    }

    #[test]
    fn hosting_and_dns_scores_track() {
        let c = ctx();
        let corr = layer_score_correlation(&c, Layer::Hosting, Layer::Dns).unwrap();
        assert!(corr.rho > 0.8, "rho = {}", corr.rho);
    }
}

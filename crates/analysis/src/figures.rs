//! Data series for Figures 1–4 and 12 (the remaining figures are views of
//! the tables produced elsewhere: 5/17–19 from [`crate::centralization`],
//! 7/14–16 from [`crate::breakdown`], 8–10 from [`crate::regional`],
//! 11/13/20–22 from [`crate::insularity`]).

use crate::ctx::AnalysisCtx;
use serde::Serialize;
use webdep_core::centralization::{centralization_score, centralization_score_counts_ref};
use webdep_core::emd::emd_to_decentralized_via_transport_with;
use webdep_core::regionalization::UsageCurve;
use webdep_core::topn::{provider_rank_curve, top_n_share};
use webdep_core::CountDist;
use webdep_core::EmdWorkspace;
use webdep_stats::hist::Histogram;
use webdep_webgen::calibrate::solve_counts;
use webdep_webgen::{Layer, World};

/// Figure 1: the top-N blind spot. Rank curves for the paper's four
/// example countries plus their top-5 shares and scores.
#[derive(Debug, Clone, Serialize)]
pub struct Fig1TopNShortcoming {
    /// `(country, rank_curve_percentages, top5_share, s)`.
    pub curves: Vec<(String, Vec<f64>, f64, f64)>,
}

/// Builds Figure 1 from measured hosting data (AZ, HK, TH, IR).
pub fn fig1_topn_shortcoming(ctx: &AnalysisCtx<'_>) -> Fig1TopNShortcoming {
    let curves = ["AZ", "HK", "TH", "IR"]
        .iter()
        .filter_map(|code| {
            let ci = World::country_index(code)?;
            let dist = ctx.country_dist(ci, Layer::Hosting)?;
            Some((
                code.to_string(),
                provider_rank_curve(dist),
                top_n_share(dist, 5),
                centralization_score(dist),
            ))
        })
        .collect();
    Fig1TopNShortcoming { curves }
}

/// Figure 2: the worked EMD example. Two 25-site toy distributions whose
/// scores reproduce the figure's 0.28 (Country A) and 0.32 (Country B).
#[derive(Debug, Clone, Serialize)]
pub struct Fig2EmdExample {
    /// Country A counts and score.
    pub country_a: (Vec<u64>, f64),
    /// Country B counts and score.
    pub country_b: (Vec<u64>, f64),
    /// Scores recomputed via the generic transportation solver (equal to
    /// the closed form by Appendix A).
    pub via_transport: (f64, f64),
}

/// Builds the Figure 2 example (independent of measurement).
pub fn fig2_emd_example() -> Fig2EmdExample {
    let a = vec![12u64, 6, 4, 2, 1];
    let b = vec![13u64, 6, 4, 2];
    let s_a = centralization_score_counts_ref(&a).expect("non-empty");
    let s_b = centralization_score_counts_ref(&b).expect("non-empty");
    let dist_a = CountDist::from_counts(a.clone()).expect("non-empty");
    let dist_b = CountDist::from_counts(b.clone()).expect("non-empty");
    let mut ws = EmdWorkspace::new();
    let t_a = emd_to_decentralized_via_transport_with(&dist_a, &mut ws).expect("solvable");
    let t_b = emd_to_decentralized_via_transport_with(&dist_b, &mut ws).expect("solvable");
    Fig2EmdExample {
        country_a: (a, s_a),
        country_b: (b, s_b),
        via_transport: (t_a, t_b),
    }
}

/// Figure 3: synthetic distributions at the paper's example score values,
/// as cumulative-website curves.
#[derive(Debug, Clone, Serialize)]
pub struct Fig3ExampleCurves {
    /// `(target_s, achieved_s, cumulative_counts)` per curve.
    pub curves: Vec<(f64, f64, Vec<u64>)>,
}

/// The paper's Figure 3 score ladder.
pub const FIG3_TARGETS: [f64; 7] = [0.818, 0.481, 0.25, 0.111, 0.026, 0.005, 0.001];

/// Builds Figure 3 for `total` websites (the paper uses 10,000).
pub fn fig3_example_curves(total: u64) -> Fig3ExampleCurves {
    let curves = FIG3_TARGETS
        .iter()
        .map(|&target| {
            let head = (target.sqrt() * 0.999).clamp(0.001, 0.98);
            let counts = solve_counts(target, total, (total as usize).min(10_000), head);
            let achieved = centralization_score_counts_ref(&counts).expect("non-empty");
            let mut cum = Vec::with_capacity(counts.len());
            let mut acc = 0u64;
            for c in &counts {
                acc += c;
                cum.push(acc);
            }
            (target, achieved, cum)
        })
        .collect();
    Fig3ExampleCurves { curves }
}

/// Figure 4: usage and endemicity for a global vs a regional provider.
#[derive(Debug, Clone, Serialize)]
pub struct Fig4UsageEndemicity {
    /// Provider name.
    pub name: String,
    /// Sorted per-country usage percentages.
    pub curve: Vec<f64>,
    /// Usage `U`.
    pub usage: f64,
    /// Endemicity `E`.
    pub endemicity: f64,
    /// Endemicity ratio `E_R`.
    pub endemicity_ratio: f64,
}

/// Builds Figure 4's two curves from measured hosting data.
pub fn fig4_usage_endemicity(
    ctx: &AnalysisCtx<'_>,
    global_name: &str,
    regional_name: &str,
) -> Vec<Fig4UsageEndemicity> {
    let usage = ctx.usage_matrix(Layer::Hosting);
    [global_name, regional_name]
        .iter()
        .filter_map(|name| {
            let id = ctx.world.universe.provider_by_name(name)?;
            let row = usage.get(&id)?;
            let curve = UsageCurve::new(row.clone());
            Some(Fig4UsageEndemicity {
                name: name.to_string(),
                curve: curve.values().to_vec(),
                usage: curve.usage(),
                endemicity: curve.endemicity(),
                endemicity_ratio: curve.endemicity_ratio(),
            })
        })
        .collect()
}

/// Figure 12: per-layer score histograms plus the global-top marker.
#[derive(Debug, Clone, Serialize)]
pub struct Fig12Histograms {
    /// `(layer, histogram, global_top_marker)` per layer.
    pub layers: Vec<(String, Histogram, Option<f64>)>,
}

/// Builds Figure 12 with the paper's axis (0–0.7, 0.02-wide bins).
pub fn fig12_histograms(ctx: &AnalysisCtx<'_>) -> Fig12Histograms {
    let layers = Layer::ALL
        .iter()
        .map(|&layer| {
            let t = crate::centralization::layer_table(ctx, layer);
            let scores: Vec<f64> = t.rows.iter().map(|r| r.s).collect();
            (
                layer.name().to_string(),
                Histogram::new(0.0, 0.7, 35, &scores),
                t.global_top_score,
            )
        })
        .collect();
    Fig12Histograms { layers }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::testutil::ctx;

    #[test]
    fn fig1_reproduces_the_blind_spot() {
        let c = ctx();
        let f = fig1_topn_shortcoming(&c);
        assert_eq!(f.curves.len(), 4);
        let get = |code: &str| f.curves.iter().find(|c| c.0 == code).unwrap();
        let (_, _, _, s_th) = get("TH");
        let (_, _, _, s_ir) = get("IR");
        // Thailand far more centralized than Iran (the reference extremes).
        assert!(*s_th > 3.0 * s_ir, "TH {s_th} vs IR {s_ir}");
        // Azerbaijan more centralized than Hong Kong despite similar top-5
        // coverage — the paper's motivating observation.
        let (_, az_curve, az5, s_az) = get("AZ");
        let (_, _, hk5, s_hk) = get("HK");
        assert!((az5 - hk5).abs() < 0.25, "top-5 roughly comparable");
        assert!(s_az > s_hk, "AZ {s_az} vs HK {s_hk}");
        assert!(az_curve.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn fig2_scores_match_paper() {
        let f = fig2_emd_example();
        assert!(
            (f.country_a.1 - 0.28).abs() < 0.005,
            "A = {}",
            f.country_a.1
        );
        assert!(
            (f.country_b.1 - 0.32).abs() < 0.005,
            "B = {}",
            f.country_b.1
        );
        // Appendix A: transport solver agrees with the closed form.
        assert!((f.via_transport.0 - f.country_a.1).abs() < 1e-9);
        assert!((f.via_transport.1 - f.country_b.1).abs() < 1e-9);
    }

    #[test]
    fn fig3_hits_the_score_ladder() {
        let f = fig3_example_curves(10_000);
        assert_eq!(f.curves.len(), 7);
        for (target, achieved, cum) in &f.curves {
            assert!(
                (target - achieved).abs() < 0.02 * (1.0 + target * 10.0),
                "target {target}, achieved {achieved}"
            );
            assert_eq!(*cum.last().unwrap(), 10_000);
            assert!(cum.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn fig4_global_vs_regional() {
        let c = ctx();
        let f = fig4_usage_endemicity(&c, "Cloudflare", "Beget");
        assert_eq!(f.len(), 2);
        let cf = &f[0];
        let beget = &f[1];
        assert!(cf.usage > beget.usage, "Cloudflare is larger");
        assert!(
            cf.endemicity_ratio < beget.endemicity_ratio,
            "Beget is more endemic: {} vs {}",
            cf.endemicity_ratio,
            beget.endemicity_ratio
        );
        assert!(beget.endemicity_ratio > 0.6);
    }

    #[test]
    fn fig12_histograms_cover_all_countries() {
        let c = ctx();
        let f = fig12_histograms(&c);
        assert_eq!(f.layers.len(), 4);
        for (name, hist, marker) in &f.layers {
            assert_eq!(hist.total() + hist.out_of_range, 150, "{name}");
            assert!(marker.is_some(), "{name} needs a global marker");
        }
    }
}

//! The §5.3.3 regional case studies: Russia/CIS, France, Czechia, Germany,
//! and the Iran/Afghanistan Persian-language link.

use crate::ctx::AnalysisCtx;
use crate::insularity::dependence_shares;
use serde::Serialize;
use webdep_webgen::{Layer, World, COUNTRIES};

/// One cross-border dependence finding.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DependenceCase {
    /// The depending country.
    pub country: &'static str,
    /// The country depended upon.
    pub on: String,
    /// Share of websites served by providers based there.
    pub share: f64,
}

/// All countries whose largest *foreign* dependence exceeds `min_share`
/// at a layer, sorted by share — the §5.3.3 discovery procedure.
pub fn foreign_dependence_cases(
    ctx: &AnalysisCtx<'_>,
    layer: Layer,
    min_share: f64,
) -> Vec<DependenceCase> {
    let mut out = Vec::new();
    for (ci, country) in COUNTRIES.iter().enumerate() {
        for (cc, share) in dependence_shares(ctx, ci, layer) {
            if cc == country.code {
                continue;
            }
            // The US is everyone's largest dependence through the global
            // providers; the §5.3.3 cases are the non-US patterns.
            if cc == "US" {
                continue;
            }
            if share >= min_share {
                out.push(DependenceCase {
                    country: country.code,
                    on: cc,
                    share,
                });
            }
            break; // only the largest non-US foreign dependence
        }
    }
    out.sort_by(|a, b| b.share.partial_cmp(&a.share).expect("finite"));
    out
}

/// Share of a country's sites hosted by providers based in `on`.
pub fn dependence_on(ctx: &AnalysisCtx<'_>, country: &str, on: &str, layer: Layer) -> f64 {
    let Some(ci) = World::country_index(country) else {
        return 0.0;
    };
    dependence_shares(ctx, ci, layer)
        .into_iter()
        .find(|(cc, _)| cc == on)
        .map(|(_, s)| s)
        .unwrap_or(0.0)
}

/// The Afghan Persian-language case study numbers (§5.3.3).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PersianCase {
    /// Fraction of the Afghan top list in Persian (paper: 31.4%).
    pub persian_fraction: f64,
    /// Fraction of those Persian sites hosted in Iran (paper: 60.8%).
    pub persian_iran_hosted: f64,
    /// Overall Afghan dependence on Iranian providers (paper: >20%).
    pub iran_share: f64,
}

/// Computes the Afghan Persian case from measured data (language tags are
/// the LangDetect stand-in carried per site).
pub fn afghan_persian_case(ctx: &AnalysisCtx<'_>) -> Option<PersianCase> {
    let af = World::country_index("AF")?;
    let obs: Vec<_> = ctx.country_observations(af).collect();
    if obs.is_empty() {
        return None;
    }
    let persian: Vec<_> = obs.iter().filter(|o| o.language == "fa").collect();
    let persian_fraction = persian.len() as f64 / obs.len() as f64;
    let iran_hosted = persian
        .iter()
        .filter(|o| o.hosting_org_country.as_deref() == Some("IR"))
        .count();
    let persian_iran_hosted = if persian.is_empty() {
        0.0
    } else {
        iran_hosted as f64 / persian.len() as f64
    };
    Some(PersianCase {
        persian_fraction,
        persian_iran_hosted,
        iran_share: dependence_on(ctx, "AF", "IR", Layer::Hosting),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::testutil::ctx;

    #[test]
    fn cis_russia_cases_surface() {
        let c = ctx();
        let cases = foreign_dependence_cases(&c, Layer::Hosting, 0.10);
        let on_russia: Vec<&DependenceCase> = cases.iter().filter(|d| d.on == "RU").collect();
        let countries: Vec<&str> = on_russia.iter().map(|d| d.country).collect();
        for cc in ["TM", "TJ", "KG", "KZ", "BY"] {
            assert!(
                countries.contains(&cc),
                "{cc} missing from RU cases: {countries:?}"
            );
        }
        for cc in ["UA", "LT", "EE"] {
            assert!(!countries.contains(&cc), "{cc} should not be in RU cases");
        }
    }

    #[test]
    fn france_and_czechia_cases() {
        let c = ctx();
        assert!(dependence_on(&c, "RE", "FR", Layer::Hosting) > 0.2);
        assert!(dependence_on(&c, "GP", "FR", Layer::Hosting) > 0.2);
        assert!(dependence_on(&c, "BF", "FR", Layer::Hosting) > 0.10);
        assert!(dependence_on(&c, "SK", "CZ", Layer::Hosting) > 0.15);
        assert!(dependence_on(&c, "CZ", "SK", Layer::Hosting) < 0.05);
    }

    #[test]
    fn germany_austria_case() {
        let c = ctx();
        let at_on_de = dependence_on(&c, "AT", "DE", Layer::Hosting);
        assert!(at_on_de > 0.03, "AT on DE: {at_on_de}");
    }

    #[test]
    fn afghan_persian_case_numbers() {
        let c = ctx();
        let case = afghan_persian_case(&c).unwrap();
        assert!(
            (0.2..0.45).contains(&case.persian_fraction),
            "persian fraction {}",
            case.persian_fraction
        );
        assert!(
            case.persian_iran_hosted > 0.35,
            "IR-hosted persian {}",
            case.persian_iran_hosted
        );
        assert!(case.iran_share > 0.10, "AF on IR {}", case.iran_share);
    }

    #[test]
    fn unknown_country_is_zero() {
        let c = ctx();
        assert_eq!(dependence_on(&c, "XX", "RU", Layer::Hosting), 0.0);
    }
}

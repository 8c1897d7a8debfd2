//! Regional aggregates: cross-continent dependence matrices (Figure 8) and
//! subregion summaries (Figures 9, 10).

use crate::centralization::layer_table;
use crate::ctx::AnalysisCtx;
use crate::insularity::country_insularity;
use serde::{Deserialize, Serialize};
use webdep_webgen::{Layer, COUNTRIES};

/// Continent codes in matrix order, plus the anycast pseudo-column.
pub const MATRIX_CONTINENTS: [&str; 6] = ["NA", "SA", "EU", "AF", "AS", "OC"];

/// A 6x7 dependence matrix: row = continent where websites are popular,
/// column = continent attribution (provider HQ, IP geolocation, or NS
/// geolocation), with a 7th "anycast" column where applicable.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ContinentMatrix {
    /// What the columns attribute (e.g. "provider HQ").
    pub what: String,
    /// `share[row][col]` fraction of row-continent websites attributed to
    /// column; `share[row][6]` is the anycast fraction.
    pub share: Vec<Vec<f64>>,
}

impl ContinentMatrix {
    /// The share for a (row, col) continent-code pair.
    pub fn get(&self, row: &str, col: &str) -> Option<f64> {
        let r = MATRIX_CONTINENTS.iter().position(|&c| c == row)?;
        if col == "anycast" {
            return self.share[r].get(6).copied();
        }
        let c = MATRIX_CONTINENTS.iter().position(|&c| c == col)?;
        self.share[r].get(c).copied()
    }
}

fn continent_code_of_country(code: &str) -> Option<&'static str> {
    webdep_webgen::CountryRecord::by_code(code).map(|c| c.continent.code())
}

fn continent_index(code: &str) -> Option<usize> {
    MATRIX_CONTINENTS.iter().position(|&c| c == code)
}

/// Kinds of attribution for [`continent_matrix`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attribution {
    /// Hosting provider's HQ country (Figure 8a).
    HostingHq,
    /// Serving-IP geolocation; anycast IPs fill the anycast column
    /// (Figure 8b).
    IpGeo,
    /// Nameserver-IP geolocation with anycast column (Figure 8c).
    NsGeo,
}

/// Builds a cross-continent dependence matrix (Figure 8a/b/c).
pub fn continent_matrix(ctx: &AnalysisCtx<'_>, attribution: Attribution) -> ContinentMatrix {
    // Countries tally independently into one continent row each; fan them
    // across cores and sum the integer partials in country order.
    let per_country = webdep_stats::par_map_indices(
        COUNTRIES.len(),
        webdep_stats::par::default_threads(),
        |ci| {
            let country = &COUNTRIES[ci];
            let mut row_counts = [0u64; 7];
            let Some(row) = continent_index(country.continent.code()) else {
                return (0usize, row_counts, 0u64);
            };
            let mut total = 0u64;
            for obs in ctx.country_observations(ci) {
                let col: Option<usize> = match attribution {
                    Attribution::HostingHq => obs
                        .hosting_org_country
                        .as_deref()
                        .and_then(continent_code_of_country)
                        .and_then(continent_index)
                        .or(Some(0)), // non-dataset HQs (e.g. CN) fold to the fallback
                    Attribution::IpGeo => {
                        if obs.hosting_anycast {
                            Some(6)
                        } else {
                            obs.hosting_ip_country
                                .as_deref()
                                .and_then(continent_code_of_country)
                                .and_then(continent_index)
                        }
                    }
                    Attribution::NsGeo => {
                        if obs.dns_anycast {
                            Some(6)
                        } else {
                            obs.dns_ip_country
                                .as_deref()
                                .and_then(continent_code_of_country)
                                .and_then(continent_index)
                        }
                    }
                };
                if let Some(col) = col {
                    row_counts[col] += 1;
                    total += 1;
                }
            }
            (row, row_counts, total)
        },
    );
    let mut counts = vec![vec![0u64; 7]; 6];
    let mut totals = vec![0u64; 6];
    for (row, row_counts, total) in per_country {
        for (col, &c) in row_counts.iter().enumerate() {
            counts[row][col] += c;
        }
        totals[row] += total;
    }
    let share = counts
        .into_iter()
        .zip(&totals)
        .map(|(row, &t)| {
            row.into_iter()
                .map(|c| if t == 0 { 0.0 } else { c as f64 / t as f64 })
                .collect()
        })
        .collect();
    ContinentMatrix {
        what: format!("{attribution:?}"),
        share,
    }
}

/// A subregion's mean score/insularity across the four layers (Figures 9
/// and 10's underlying data).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SubregionSummary {
    /// The UN subregion name.
    pub subregion: String,
    /// Countries in the subregion.
    pub countries: usize,
    /// Mean centralization per layer, `[hosting, dns, ca, tld]`.
    pub mean_s: [f64; 4],
    /// Mean insularity per layer.
    pub mean_insularity: [f64; 4],
}

/// Builds the per-subregion summary across all layers.
pub fn subregion_summary(ctx: &AnalysisCtx<'_>) -> Vec<SubregionSummary> {
    let mut subregions: Vec<&str> = COUNTRIES.iter().map(|c| c.subregion).collect();
    subregions.sort_unstable();
    subregions.dedup();

    let tables: Vec<_> = Layer::ALL.iter().map(|&l| layer_table(ctx, l)).collect();

    subregions
        .into_iter()
        .map(|sub| {
            let countries = COUNTRIES.iter().filter(|c| c.subregion == sub).count();
            let mut mean_s = [0.0; 4];
            for (li, t) in tables.iter().enumerate() {
                mean_s[li] = t.subregion_mean(sub).unwrap_or(0.0);
            }
            let mut mean_insularity = [0.0; 4];
            for (li, &layer) in Layer::ALL.iter().enumerate() {
                let vals: Vec<f64> = COUNTRIES
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| c.subregion == sub)
                    .filter_map(|(ci, _)| country_insularity(ctx, ci, layer))
                    .collect();
                mean_insularity[li] = webdep_stats::describe::mean(&vals).unwrap_or(0.0);
            }
            SubregionSummary {
                subregion: sub.to_string(),
                countries,
                mean_s,
                mean_insularity,
            }
        })
        .collect()
}

/// Continent of a country where websites using a given continent's
/// providers are served from — convenience for the Figure 8b diagonal
/// check: fraction of row-continent sites served (geolocated or anycast)
/// outside North America and Europe.
pub fn africa_external_reliance(matrix: &ContinentMatrix) -> f64 {
    let na = matrix.get("AF", "NA").unwrap_or(0.0);
    let eu = matrix.get("AF", "EU").unwrap_or(0.0);
    na + eu
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::testutil::ctx;

    #[test]
    fn hq_matrix_shows_na_dominance() {
        let c = ctx();
        let m = continent_matrix(&c, Attribution::HostingHq);
        // Every continent leans on North-American (US) providers.
        for row in MATRIX_CONTINENTS {
            let na = m.get(row, "NA").unwrap();
            assert!(na > 0.3, "{row} NA share {na}");
        }
        // Europe is substantially self-reliant.
        let eu_eu = m.get("EU", "EU").unwrap();
        assert!(eu_eu > 0.15, "EU self-reliance {eu_eu}");
        // Africa uses almost no African providers.
        let af_af = m.get("AF", "AF").unwrap();
        assert!(af_af < 0.10, "AF self-reliance {af_af}");
    }

    #[test]
    fn ip_geo_matrix_has_anycast_and_local_serving() {
        let c = ctx();
        let m = continent_matrix(&c, Attribution::IpGeo);
        // Anycast (Cloudflare et al.) is a visible column everywhere.
        for row in MATRIX_CONTINENTS {
            let anycast = m.get(row, "anycast").unwrap();
            assert!(anycast > 0.05, "{row} anycast {anycast}");
        }
        // Rows sum to ~1.
        for r in &m.share {
            let sum: f64 = r.iter().sum();
            assert!((sum - 1.0).abs() < 0.05, "row sum {sum}");
        }
        // CDN regional serving: Asia's non-anycast sites still partly
        // geolocate in Asia.
        let as_as = m.get("AS", "AS").unwrap();
        assert!(as_as > 0.05, "AS local serving {as_as}");
    }

    #[test]
    fn ns_geo_matrix_anycast_heavier_than_hosting() {
        let c = ctx();
        let ip = continent_matrix(&c, Attribution::IpGeo);
        let ns = continent_matrix(&c, Attribution::NsGeo);
        // §6.2: anycast is (at least) as prevalent for nameservers.
        let mean_anycast = |m: &ContinentMatrix| {
            MATRIX_CONTINENTS
                .iter()
                .map(|r| m.get(r, "anycast").unwrap())
                .sum::<f64>()
                / 6.0
        };
        assert!(mean_anycast(&ns) >= mean_anycast(&ip) * 0.8);
    }

    #[test]
    fn subregion_summary_covers_all() {
        let c = ctx();
        let summary = subregion_summary(&c);
        let total: usize = summary.iter().map(|s| s.countries).sum();
        assert_eq!(total, 150);
        let se_asia = summary
            .iter()
            .find(|s| s.subregion == "South-eastern Asia")
            .unwrap();
        let central_asia = summary
            .iter()
            .find(|s| s.subregion == "Central Asia")
            .unwrap();
        // Paper: SE Asia most centralized (hosting), Central Asia least.
        assert!(se_asia.mean_s[0] > central_asia.mean_s[0]);
    }

    #[test]
    fn africa_relies_on_na_and_eu() {
        let c = ctx();
        let m = continent_matrix(&c, Attribution::HostingHq);
        assert!(africa_external_reliance(&m) > 0.6);
    }
}

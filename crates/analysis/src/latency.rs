//! Latency cost of dependence — a toolkit extension quantifying the §8
//! discussion ("availability and performance could be impacted not only by
//! a provider outage, but also by a geopolitical schism").
//!
//! Every measured site is charged a modelled round-trip from its country's
//! continent to where its content is actually served: anycast/CDN sites
//! serve locally (intra-continent RTT); everything else serves from the
//! continent its serving IP geolocates to. Countries that depend on
//! faraway providers pay for it here — Africa's reliance on North American
//! and European hosting (Figure 8) becomes a concrete RTT penalty.

use crate::ctx::AnalysisCtx;
use serde::Serialize;
use webdep_netsim::LatencyModel;
use webdep_webgen::{Continent, CountryRecord, COUNTRIES};

/// One country's modelled content-fetch latency.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CountryLatency {
    /// Country code.
    pub code: &'static str,
    /// Continent code.
    pub continent: &'static str,
    /// Mean modelled RTT to serving infrastructure, milliseconds.
    pub mean_rtt_ms: f64,
    /// Fraction of sites served within the country's own continent
    /// (anycast or locally geolocated).
    pub served_locally: f64,
}

/// Modelled RTT table for the hosting layer, slowest countries first.
pub fn latency_table(ctx: &AnalysisCtx<'_>, model: &LatencyModel) -> Vec<CountryLatency> {
    let mut rows: Vec<CountryLatency> = COUNTRIES
        .iter()
        .enumerate()
        .filter_map(|(ci, country)| {
            let user_region = country.continent.region();
            let mut total_ms = 0.0;
            let mut local = 0usize;
            let mut n = 0usize;
            for obs in ctx.country_observations(ci) {
                let serving = if obs.hosting_anycast {
                    // Anycast serves from the nearest point of presence.
                    country.continent
                } else {
                    match obs
                        .hosting_ip_country
                        .as_deref()
                        .and_then(CountryRecord::by_code)
                    {
                        Some(c) => c.continent,
                        None => continue,
                    }
                };
                let rtt = model.rtt(user_region, serving.region());
                total_ms += rtt.as_millis() as f64;
                if serving == country.continent {
                    local += 1;
                }
                n += 1;
            }
            if n == 0 {
                return None;
            }
            Some(CountryLatency {
                code: country.code,
                continent: country.continent.code(),
                mean_rtt_ms: total_ms / n as f64,
                served_locally: local as f64 / n as f64,
            })
        })
        .collect();
    rows.sort_by(|a, b| b.mean_rtt_ms.partial_cmp(&a.mean_rtt_ms).expect("finite"));
    rows
}

/// Mean modelled RTT per continent code.
pub fn continent_means(rows: &[CountryLatency]) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = Continent::ALL
        .iter()
        .filter_map(|c| {
            let vals: Vec<f64> = rows
                .iter()
                .filter(|r| r.continent == c.code())
                .map(|r| r.mean_rtt_ms)
                .collect();
            webdep_stats::describe::mean(&vals).map(|m| (c.code().to_string(), m))
        })
        .collect();
    out.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::testutil::ctx;

    #[test]
    fn africa_pays_the_dependence_penalty() {
        let c = ctx();
        let rows = latency_table(&c, &LatencyModel::default());
        assert_eq!(rows.len(), 150);
        let means = continent_means(&rows);
        let of = |code: &str| {
            means
                .iter()
                .find(|(c, _)| c == code)
                .map(|&(_, m)| m)
                .unwrap()
        };
        // Africa's reliance on NA/EU infrastructure costs real RTT compared
        // to the self-reliant continents.
        assert!(of("AF") > of("NA"), "AF {} vs NA {}", of("AF"), of("NA"));
        assert!(of("AF") > of("EU"), "AF {} vs EU {}", of("AF"), of("EU"));
    }

    #[test]
    fn locality_and_latency_anticorrelate() {
        let c = ctx();
        let rows = latency_table(&c, &LatencyModel::default());
        let local: Vec<f64> = rows.iter().map(|r| r.served_locally).collect();
        let rtt: Vec<f64> = rows.iter().map(|r| r.mean_rtt_ms).collect();
        let corr = webdep_stats::pearson(&local, &rtt).unwrap();
        assert!(corr.rho < -0.6, "rho = {}", corr.rho);
    }

    #[test]
    fn bounds_are_sane() {
        let c = ctx();
        let model = LatencyModel::default();
        for r in latency_table(&c, &model) {
            assert!(
                (20.0..=300.0).contains(&r.mean_rtt_ms),
                "{}: {}",
                r.code,
                r.mean_rtt_ms
            );
            assert!((0.0..=1.0).contains(&r.served_locally));
        }
    }
}

//! Countries, continents, and infrastructure layers.

use serde::{Deserialize, Serialize};
use webdep_netsim::Region;

/// Continents, matching the paper's Appendix E codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Continent {
    /// AF.
    Africa,
    /// AS.
    Asia,
    /// EU.
    Europe,
    /// NA.
    NorthAmerica,
    /// OC.
    Oceania,
    /// SA.
    SouthAmerica,
}

impl Continent {
    /// All continents.
    pub const ALL: [Continent; 6] = [
        Continent::Africa,
        Continent::Asia,
        Continent::Europe,
        Continent::NorthAmerica,
        Continent::Oceania,
        Continent::SouthAmerica,
    ];

    /// The paper's two-letter code.
    pub fn code(self) -> &'static str {
        match self {
            Continent::Africa => "AF",
            Continent::Asia => "AS",
            Continent::Europe => "EU",
            Continent::NorthAmerica => "NA",
            Continent::Oceania => "OC",
            Continent::SouthAmerica => "SA",
        }
    }

    /// The netsim region for latency/anycast modelling.
    pub fn region(self) -> Region {
        match self {
            Continent::Africa => Region::AFRICA,
            Continent::Asia => Region::ASIA,
            Continent::Europe => Region::EUROPE,
            Continent::NorthAmerica => Region::NORTH_AMERICA,
            Continent::Oceania => Region::OCEANIA,
            Continent::SouthAmerica => Region::SOUTH_AMERICA,
        }
    }

    /// A representative country code per continent, used to geolocate the
    /// regional points of presence of CDN providers.
    pub fn representative_country(self) -> &'static str {
        match self {
            Continent::Africa => "ZA",
            Continent::Asia => "SG",
            Continent::Europe => "DE",
            Continent::NorthAmerica => "US",
            Continent::Oceania => "AU",
            Continent::SouthAmerica => "BR",
        }
    }
}

/// The four infrastructure layers the paper analyzes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Layer {
    /// Hosting / content delivery (§5).
    Hosting,
    /// Authoritative DNS (§6).
    Dns,
    /// Certificate authorities (§7).
    Ca,
    /// Top-level domains (Appendix B).
    Tld,
}

impl Layer {
    /// All layers, in the paper's table order (5, 6, 7, 8).
    pub const ALL: [Layer; 4] = [Layer::Hosting, Layer::Dns, Layer::Ca, Layer::Tld];

    /// Index into `[f64; 4]` score arrays.
    pub fn index(self) -> usize {
        match self {
            Layer::Hosting => 0,
            Layer::Dns => 1,
            Layer::Ca => 2,
            Layer::Tld => 3,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Hosting => "hosting",
            Layer::Dns => "dns",
            Layer::Ca => "ca",
            Layer::Tld => "tld",
        }
    }
}

/// A country in the paper's dataset, with its paper-reported centralization
/// scores per layer (the generator's calibration targets).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CountryRecord {
    /// ISO 3166-1 alpha-2 code.
    pub code: &'static str,
    /// English name.
    pub name: &'static str,
    /// UN subregion, e.g. `South-eastern Asia`.
    pub subregion: &'static str,
    /// Continent.
    pub continent: Continent,
    /// Paper-reported centralization score per layer, indexed by
    /// [`Layer::index`] (hosting, DNS, CA, TLD).
    pub paper_s: [f64; 4],
}

impl CountryRecord {
    /// The paper score for a layer.
    pub fn paper_score(&self, layer: Layer) -> f64 {
        self.paper_s[layer.index()]
    }

    /// Looks up a country by its alpha-2 code (uppercase, as
    /// [`crate::World::country_index`] reads it).
    pub fn by_code(code: &str) -> Option<&'static CountryRecord> {
        crate::World::country_index(code).and_then(|i| crate::paper_data::COUNTRIES.get(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_data::{COUNTRIES, NUM_COUNTRIES};

    #[test]
    fn dataset_has_150_countries() {
        assert_eq!(COUNTRIES.len(), 150);
        assert_eq!(NUM_COUNTRIES, 150);
    }

    #[test]
    fn codes_unique_and_wellformed() {
        let mut codes: Vec<&str> = COUNTRIES.iter().map(|c| c.code).collect();
        codes.sort_unstable();
        let before = codes.len();
        codes.dedup();
        assert_eq!(codes.len(), before);
        assert!(codes.iter().all(|c| c.len() == 2));
    }

    #[test]
    fn paper_anchor_values() {
        // Spot checks straight from Tables 5-8.
        let th = CountryRecord::by_code("TH").unwrap();
        assert_eq!(th.paper_score(Layer::Hosting), 0.3548);
        let ir = CountryRecord::by_code("IR").unwrap();
        assert_eq!(ir.paper_score(Layer::Hosting), 0.0411);
        let cz = CountryRecord::by_code("CZ").unwrap();
        assert_eq!(cz.paper_score(Layer::Dns), 0.0391);
        let sk = CountryRecord::by_code("SK").unwrap();
        assert_eq!(sk.paper_score(Layer::Ca), 0.3304);
        let us = CountryRecord::by_code("US").unwrap();
        assert_eq!(us.paper_score(Layer::Tld), 0.5853);
        assert_eq!(us.continent, Continent::NorthAmerica);
        assert_eq!(us.subregion, "Northern America");
    }

    #[test]
    fn scores_in_plausible_range() {
        for c in &COUNTRIES {
            for l in Layer::ALL {
                let s = c.paper_score(l);
                assert!((0.01..0.70).contains(&s), "{} {}: {s}", c.code, l.name());
            }
        }
    }

    #[test]
    fn continent_counts_match_paper() {
        let count = |cont: Continent| COUNTRIES.iter().filter(|c| c.continent == cont).count();
        assert_eq!(count(Continent::Europe), 39);
        assert_eq!(count(Continent::Oceania), 3);
        // All continents sum to 150.
        let total: usize = Continent::ALL.iter().map(|&c| count(c)).sum();
        assert_eq!(total, 150);
    }

    /// The compile-time index answers what a scan of the 150 records
    /// answers, on every uppercase pair and on malformed input.
    #[test]
    fn country_index_matches_a_linear_scan() {
        use crate::deploy::continent_of_country;
        use crate::World;
        let scan = |code: &str| COUNTRIES.iter().position(|c| c.code == code);
        let mut found = 0;
        for a in b'A'..=b'Z' {
            for b in b'A'..=b'Z' {
                let code = String::from_utf8(vec![a, b]).unwrap();
                let want = scan(&code);
                assert_eq!(World::country_index(&code), want, "{code}");
                assert_eq!(
                    CountryRecord::by_code(&code).map(|c| c.code),
                    want.map(|i| COUNTRIES[i].code),
                    "{code}"
                );
                found += usize::from(want.is_some());
            }
        }
        assert_eq!(found, NUM_COUNTRIES);
        assert!(CountryRecord::by_code("XX").is_none());
        for code in ["", "U", "USA", "us", "uS", "É", "DÉ", "\u{0}S", "[A", "@Z"] {
            assert_eq!(World::country_index(code), None, "{code:?}");
            assert!(CountryRecord::by_code(code).is_none(), "{code:?}");
        }
        // HQ countries outside the dataset keep their fallbacks.
        assert_eq!(continent_of_country("CN"), Continent::Asia);
        assert_eq!(continent_of_country("XX"), Continent::NorthAmerica);
        assert_eq!(continent_of_country("us"), Continent::NorthAmerica);
        assert_eq!(continent_of_country("DE"), Continent::Europe);
    }

    #[test]
    fn layer_indices() {
        assert_eq!(Layer::Hosting.index(), 0);
        assert_eq!(Layer::Tld.index(), 3);
        assert_eq!(Layer::ALL.len(), 4);
        assert_eq!(Continent::Asia.code(), "AS");
        assert_eq!(Continent::Europe.representative_country(), "DE");
    }
}

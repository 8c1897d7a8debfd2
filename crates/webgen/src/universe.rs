//! The provider / CA / TLD universe.
//!
//! Named entities anchor the paper's case studies (Cloudflare, Beget,
//! SuperHosting.BG, Asseco, ...); synthetic entities fill the tiers out to
//! the paper's observed universe sizes (Table 1: 2 XL-GP, 6 L-GP, 2
//! L-GP (R), 22 M-GP, 73 S-GP, 174 L-RP, 587 S-RP, 11,548 XS-RP). The
//! regional tail scales with [`crate::world::WorldConfig::tail_scale`] so
//! tests can run small worlds.

use crate::paper_data::COUNTRIES;
use crate::provider::{CaRecord, Provider, ProviderTier, TldKind, TldRecord};
use std::collections::HashMap;

/// The full entity universe for a generated world.
#[derive(Debug, Clone, PartialEq)]
pub struct Universe {
    /// All providers; index equals `Provider::id`.
    pub providers: Vec<Provider>,
    /// All certificate authorities; index equals `CaRecord::id`.
    pub cas: Vec<CaRecord>,
    /// All TLDs; index equals `TldRecord::id`.
    pub tlds: Vec<TldRecord>,
    /// Regional provider ids per country code, ordered large → small.
    pub regional_by_country: HashMap<String, Vec<u32>>,
    /// Global hosting provider ids in canonical (size) order, heads first.
    pub global_hosting: Vec<u32>,
    /// Global DNS provider ids in canonical order (includes managed DNS).
    pub global_dns: Vec<u32>,
    /// TLD label → id, the one interning table every observation-TLD
    /// lookup goes through (see [`Universe::tld_by_label`]).
    tld_ids: HashMap<String, u32>,
}

/// Named global hosting/CDN providers: (name, country, tier, dns, cdn, anycast).
const NAMED_GLOBALS: &[(&str, &str, ProviderTier, bool, bool, bool)] = &[
    ("Cloudflare", "US", ProviderTier::XlGlobal, true, true, true),
    ("Amazon", "US", ProviderTier::XlGlobal, true, true, false),
    ("Google", "US", ProviderTier::LargeGlobal, true, true, true),
    ("Akamai", "US", ProviderTier::LargeGlobal, true, true, true),
    (
        "Microsoft",
        "US",
        ProviderTier::LargeGlobal,
        true,
        true,
        false,
    ),
    ("Fastly", "US", ProviderTier::LargeGlobal, false, true, true),
    (
        "GoDaddy",
        "US",
        ProviderTier::LargeGlobal,
        true,
        false,
        false,
    ),
    (
        "Unified Layer",
        "US",
        ProviderTier::LargeGlobal,
        true,
        false,
        false,
    ),
    (
        "OVH",
        "FR",
        ProviderTier::LargeGlobalRegional,
        true,
        false,
        false,
    ),
    (
        "Hetzner",
        "DE",
        ProviderTier::LargeGlobalRegional,
        true,
        false,
        false,
    ),
];

/// Named medium global providers: (name, country, dns).
const NAMED_MEDIUM: &[(&str, &str, bool)] = &[
    ("Incapsula", "US", true),
    ("DigitalOcean", "US", true),
    ("Linode", "US", true),
    ("Vultr", "US", false),
    ("Leaseweb", "NL", true),
    ("Contabo", "DE", false),
    ("Rackspace", "US", true),
    ("IONOS", "DE", true),
    ("Squarespace", "US", true),
    ("Shopify", "CA", false),
    ("Salesforce", "US", false),
    ("Oracle", "US", true),
    ("IBM Cloud", "US", true),
    ("Automattic", "US", true),
];

/// Named small global providers: (name, country).
const NAMED_SMALL: &[(&str, &str)] = &[
    ("Wix", "IL"),
    ("Netlify", "US"),
    ("Vercel", "US"),
    ("GitHub Pages", "US"),
    ("Heroku", "US"),
    ("Render", "US"),
    ("Weebly", "US"),
    ("Gcore", "LU"),
];

/// Managed DNS providers (DNS-only): (name, country, tier, anycast).
const NAMED_DNS_ONLY: &[(&str, &str, ProviderTier, bool)] = &[
    ("NSONE", "US", ProviderTier::LargeGlobal, true),
    ("Neustar UltraDNS", "US", ProviderTier::LargeGlobal, true),
    ("DNSimple", "US", ProviderTier::MediumGlobal, true),
    ("Sucuri", "US", ProviderTier::SmallGlobal, false),
    ("DNS Made Easy", "US", ProviderTier::MediumGlobal, true),
    ("ClouDNS", "BG", ProviderTier::SmallGlobal, false),
];

/// Named regional providers anchoring the case studies:
/// (name, country, tier, dns).
const NAMED_REGIONAL: &[(&str, &str, ProviderTier, bool)] = &[
    // Russia (CIS dependence, §5.3.3).
    ("Beget", "RU", ProviderTier::LargeRegional, true),
    ("Timeweb", "RU", ProviderTier::LargeRegional, true),
    ("Selectel", "RU", ProviderTier::LargeRegional, true),
    ("REG.RU", "RU", ProviderTier::LargeRegional, true),
    ("Yandex Cloud", "RU", ProviderTier::LargeRegional, true),
    // Bulgaria / Lithuania (single dominant regional, §5.2).
    ("SuperHosting.BG", "BG", ProviderTier::LargeRegional, true),
    (
        "UAB Interneto vizija",
        "LT",
        ProviderTier::LargeRegional,
        true,
    ),
    // Czechia (insular; used by Slovakia).
    ("WEDOS", "CZ", ProviderTier::LargeRegional, true),
    ("Forpsi", "CZ", ProviderTier::LargeRegional, true),
    ("Seznam.cz", "CZ", ProviderTier::LargeRegional, true),
    // Iran (least centralized; used by Afghanistan).
    ("ArvanCloud", "IR", ProviderTier::LargeRegional, true),
    ("ParsPack", "IR", ProviderTier::LargeRegional, true),
    ("Afranet", "IR", ProviderTier::LargeRegional, true),
    ("Iran Telecom", "IR", ProviderTier::LargeRegional, true),
    // France (administrative regions + former colonies).
    ("Online S.A.S", "FR", ProviderTier::LargeRegional, true),
    ("Gandi", "FR", ProviderTier::LargeRegional, true),
    ("Scaleway", "FR", ProviderTier::LargeRegional, true),
    // Germany (used in Austria).
    ("Strato", "DE", ProviderTier::LargeRegional, true),
    ("netcup", "DE", ProviderTier::LargeRegional, true),
    // Asia-Pacific large regionals.
    ("Alibaba", "CN", ProviderTier::LargeRegional, true),
    ("Tencent", "CN", ProviderTier::LargeRegional, true),
    ("Sakura Internet", "JP", ProviderTier::LargeRegional, true),
    ("NTT", "JP", ProviderTier::LargeRegional, true),
    ("Naver Cloud", "KR", ProviderTier::LargeRegional, true),
    ("KT Corporation", "KR", ProviderTier::LargeRegional, true),
    // Misc named tails used as examples in the paper.
    ("Loopia", "SE", ProviderTier::SmallRegional, true),
    ("Forthnet", "GR", ProviderTier::XsRegional, true),
];

/// CA owners: (name, country, tier). Counts match Table 3:
/// 7 L-GP, 2 M-GP, 11 L-RP, 10 S-RP, 15 XS-RP = 45 CAs.
const CAS: &[(&str, &str, ProviderTier)] = &[
    // Large global (the 7 that serve ~98% of the web).
    ("Let's Encrypt", "US", ProviderTier::LargeGlobal),
    ("DigiCert", "US", ProviderTier::LargeGlobal),
    ("Sectigo", "GB", ProviderTier::LargeGlobal),
    ("Google Trust Services", "US", ProviderTier::LargeGlobal),
    ("Amazon Trust Services", "US", ProviderTier::LargeGlobal),
    ("GlobalSign", "BE", ProviderTier::LargeGlobal),
    ("GoDaddy", "US", ProviderTier::LargeGlobal),
    // Medium global.
    ("Entrust", "CA", ProviderTier::MediumGlobal),
    ("IdenTrust", "US", ProviderTier::MediumGlobal),
    // Large regional.
    ("Asseco", "PL", ProviderTier::LargeRegional),
    ("SwissSign", "CH", ProviderTier::LargeRegional),
    ("Actalis", "IT", ProviderTier::LargeRegional),
    ("Buypass", "NO", ProviderTier::LargeRegional),
    ("HARICA", "GR", ProviderTier::LargeRegional),
    ("TWCA", "TW", ProviderTier::LargeRegional),
    ("SECOM", "JP", ProviderTier::LargeRegional),
    ("Cybertrust Japan", "JP", ProviderTier::LargeRegional),
    ("Certigna", "FR", ProviderTier::LargeRegional),
    ("Izenpe", "ES", ProviderTier::LargeRegional),
    ("Microsec", "HU", ProviderTier::LargeRegional),
    // Small regional.
    ("SSL.com", "US", ProviderTier::SmallRegional),
    ("Disig", "SK", ProviderTier::SmallRegional),
    ("ACCV", "ES", ProviderTier::SmallRegional),
    ("Telia", "FI", ProviderTier::SmallRegional),
    ("D-TRUST", "DE", ProviderTier::SmallRegional),
    ("Chunghwa Telecom", "TW", ProviderTier::SmallRegional),
    ("KICA", "KR", ProviderTier::SmallRegional),
    ("JPRS", "JP", ProviderTier::SmallRegional),
    ("GLOBALTRUST", "AT", ProviderTier::SmallRegional),
    ("Firmaprofesional", "ES", ProviderTier::SmallRegional),
    // Extra-small regional.
    ("TrustCor", "PA", ProviderTier::XsRegional),
    ("Camerfirma", "ES", ProviderTier::XsRegional),
    ("ANF", "ES", ProviderTier::XsRegional),
    ("OISTE", "CH", ProviderTier::XsRegional),
    ("NetLock", "HU", ProviderTier::XsRegional),
    ("Pos Digicert", "MY", ProviderTier::XsRegional),
    ("MSC Trustgate", "MY", ProviderTier::XsRegional),
    ("Kamu SM", "TR", ProviderTier::XsRegional),
    ("TurkTrust", "TR", ProviderTier::XsRegional),
    ("E-Tugra", "TR", ProviderTier::XsRegional),
    ("GDCA", "CN", ProviderTier::XsRegional),
    ("CFCA", "CN", ProviderTier::XsRegional),
    ("Serasa", "BR", ProviderTier::XsRegional),
    ("Certisign", "BR", ProviderTier::XsRegional),
    ("Sonera", "FI", ProviderTier::XsRegional),
];

/// Global (non-cc) TLD labels beyond `.com`.
const GLOBAL_TLDS: &[&str] = &[
    "net", "org", "io", "info", "biz", "top", "xyz", "online", "site", "app", "dev", "tv", "cc",
    "ai", "shop", "store", "blog", "cloud", "live", "pro",
];

impl Universe {
    /// Builds the universe. `tail_scale` in `(0, 1]` scales the regional
    /// provider tail (1.0 reproduces the paper's ~12k providers).
    pub fn build(tail_scale: f64) -> Universe {
        assert!(
            tail_scale > 0.0 && tail_scale <= 1.0,
            "tail_scale must be in (0, 1]"
        );
        let mut providers: Vec<Provider> = Vec::new();
        let mut regional_by_country: HashMap<String, Vec<u32>> = HashMap::new();
        let add = |providers: &mut Vec<Provider>,
                   name: String,
                   country: &str,
                   tier: ProviderTier,
                   dns: bool,
                   cdn: bool,
                   anycast: bool,
                   hosting: bool| {
            let id = providers.len() as u32;
            providers.push(Provider {
                id,
                name,
                country: country.to_string(),
                tier,
                asn: 1000 + id,
                offers_hosting: hosting,
                offers_dns: dns,
                cdn,
                anycast,
            });
            id
        };

        let mut global_hosting: Vec<u32> = Vec::new();
        let mut global_dns: Vec<u32> = Vec::new();

        for &(name, cc, tier, dns, cdn, anycast) in NAMED_GLOBALS {
            let id = add(
                &mut providers,
                name.to_string(),
                cc,
                tier,
                dns,
                cdn,
                anycast,
                true,
            );
            global_hosting.push(id);
            if dns {
                global_dns.push(id);
            }
        }
        for &(name, cc, dns) in NAMED_MEDIUM {
            let id = add(
                &mut providers,
                name.to_string(),
                cc,
                ProviderTier::MediumGlobal,
                dns,
                false,
                false,
                true,
            );
            global_hosting.push(id);
            if dns {
                global_dns.push(id);
            }
        }
        // Pad M-GP to 22 with synthetic names.
        for i in NAMED_MEDIUM.len()..22 {
            let id = add(
                &mut providers,
                format!("MidCloud {}", i + 1),
                ["US", "GB", "NL", "SG", "CA"][i % 5],
                ProviderTier::MediumGlobal,
                i % 2 == 0,
                false,
                false,
                true,
            );
            global_hosting.push(id);
            if i % 2 == 0 {
                global_dns.push(id);
            }
        }
        for &(name, cc) in NAMED_SMALL {
            let id = add(
                &mut providers,
                name.to_string(),
                cc,
                ProviderTier::SmallGlobal,
                true,
                false,
                false,
                true,
            );
            global_hosting.push(id);
            global_dns.push(id);
        }
        // Pad S-GP to 73.
        for i in NAMED_SMALL.len()..73 {
            let id = add(
                &mut providers,
                format!("GlobalHost {}", i + 1),
                ["US", "GB", "DE", "NL", "SG", "AU", "CA", "IE"][i % 8],
                ProviderTier::SmallGlobal,
                i % 3 != 0,
                false,
                false,
                true,
            );
            global_hosting.push(id);
            if i % 3 != 0 {
                global_dns.push(id);
            }
        }
        // Managed DNS (DNS-only, not in the hosting pool).
        for &(name, cc, tier, anycast) in NAMED_DNS_ONLY {
            let id = add(
                &mut providers,
                name.to_string(),
                cc,
                tier,
                true,
                false,
                anycast,
                false,
            );
            global_dns.push(id);
        }

        // Named regionals.
        for &(name, cc, tier, dns) in NAMED_REGIONAL {
            let id = add(
                &mut providers,
                name.to_string(),
                cc,
                tier,
                dns,
                false,
                false,
                true,
            );
            regional_by_country
                .entry(cc.to_string())
                .or_default()
                .push(id);
        }

        // Synthetic regional tails for each dataset country. Full-scale
        // counts per country: ~1 L-RP, 4 S-RP, 77 XS-RP (matching the
        // paper's 174 / 587 / 11,548 totals once named ones are included).
        let xs_per_country = ((77.0 * tail_scale).round() as usize).max(2);
        let s_per_country = ((4.0 * tail_scale).round() as usize).max(1);
        // Countries other countries depend on (§5.3.3) need a deep enough
        // provider bench to absorb those budgets even at small tail scales.
        const DEP_TARGETS: [&str; 5] = ["RU", "FR", "CZ", "DE", "IR"];
        for c in &COUNTRIES {
            let (xs_per_country, s_per_country) = if DEP_TARGETS.contains(&c.code) {
                (xs_per_country.max(14), s_per_country.max(4))
            } else {
                (xs_per_country, s_per_country)
            };
            let entry = regional_by_country.entry(c.code.to_string()).or_default();
            let named_large = providers
                .iter()
                .filter(|p| p.country == c.code && p.tier == ProviderTier::LargeRegional)
                .count();
            if named_large == 0 {
                let id = add(
                    &mut providers,
                    format!("{} Hosting", c.name),
                    c.code,
                    ProviderTier::LargeRegional,
                    true,
                    false,
                    false,
                    true,
                );
                entry.push(id);
            }
            for i in 0..s_per_country {
                let id = add(
                    &mut providers,
                    format!("{} Net {}", c.code, i + 1),
                    c.code,
                    ProviderTier::SmallRegional,
                    true,
                    false,
                    false,
                    true,
                );
                entry.push(id);
            }
            for i in 0..xs_per_country {
                let id = add(
                    &mut providers,
                    format!("{} Local {}", c.code, i + 1),
                    c.code,
                    ProviderTier::XsRegional,
                    i % 2 == 0,
                    false,
                    false,
                    true,
                );
                entry.push(id);
            }
        }
        // Order each country's regional list large -> small.
        for list in regional_by_country.values_mut() {
            list.sort_by_key(|&id| match providers[id as usize].tier {
                ProviderTier::LargeRegional => 0,
                ProviderTier::SmallRegional => 1,
                _ => 2,
            });
        }

        // CAs: issuing cert ids start at 100_000 to stay clear of provider
        // ids; roots at 200_000.
        let cas: Vec<CaRecord> = CAS
            .iter()
            .enumerate()
            .map(|(i, &(name, cc, tier))| CaRecord {
                id: i as u32,
                name: name.to_string(),
                country: cc.to_string(),
                tier,
                issuing_cert_id: 100_000 + i as u32,
                root_cert_id: 200_000 + i as u32,
            })
            .collect();

        // TLDs: com, globals, one ccTLD per dataset country.
        let mut tlds: Vec<TldRecord> = Vec::new();
        tlds.push(TldRecord {
            id: 0,
            label: "com".into(),
            kind: TldKind::Com,
        });
        for g in GLOBAL_TLDS {
            tlds.push(TldRecord {
                id: tlds.len() as u32,
                label: (*g).to_string(),
                kind: TldKind::Global,
            });
        }
        for c in &COUNTRIES {
            tlds.push(TldRecord {
                id: tlds.len() as u32,
                label: c.code.to_ascii_lowercase(),
                kind: TldKind::Cc(c.code.to_string()),
            });
        }

        let tld_ids = tlds.iter().map(|t| (t.label.clone(), t.id)).collect();
        Universe {
            providers,
            cas,
            tlds,
            regional_by_country,
            global_hosting,
            global_dns,
            tld_ids,
        }
    }

    /// Provider by id.
    pub fn provider(&self, id: u32) -> &Provider {
        &self.providers[id as usize]
    }

    /// CA by id.
    pub fn ca(&self, id: u32) -> &CaRecord {
        &self.cas[id as usize]
    }

    /// TLD by id.
    pub fn tld(&self, id: u32) -> &TldRecord {
        &self.tlds[id as usize]
    }

    /// The TLD id for a label.
    pub fn tld_by_label(&self, label: &str) -> Option<u32> {
        self.tld_ids.get(label).copied()
    }

    /// Id of a provider by exact name.
    pub fn provider_by_name(&self, name: &str) -> Option<u32> {
        self.providers.iter().find(|p| p.name == name).map(|p| p.id)
    }

    /// Id of a CA by exact name.
    pub fn ca_by_name(&self, name: &str) -> Option<u32> {
        self.cas.iter().find(|c| c.name == name).map(|c| c.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_scale_counts_match_paper_tiers() {
        let u = Universe::build(1.0);
        let count = |tier: ProviderTier| u.providers.iter().filter(|p| p.tier == tier).count();
        assert_eq!(count(ProviderTier::XlGlobal), 2);
        assert_eq!(count(ProviderTier::LargeGlobalRegional), 2);
        assert_eq!(count(ProviderTier::MediumGlobal), 22 + 2); // + 2 managed DNS
        assert!(count(ProviderTier::LargeRegional) >= 150);
        assert!(count(ProviderTier::XsRegional) > 10_000);
        assert_eq!(u.cas.len(), 45);
        // CA tier counts from Table 3.
        let ca_count = |tier: ProviderTier| u.cas.iter().filter(|c| c.tier == tier).count();
        assert_eq!(ca_count(ProviderTier::LargeGlobal), 7);
        assert_eq!(ca_count(ProviderTier::MediumGlobal), 2);
        assert_eq!(ca_count(ProviderTier::LargeRegional), 11);
        assert_eq!(ca_count(ProviderTier::SmallRegional), 10);
        assert_eq!(ca_count(ProviderTier::XsRegional), 15);
    }

    #[test]
    fn small_scale_still_has_structure() {
        let u = Universe::build(0.05);
        // Named providers always exist.
        assert!(u.provider_by_name("Cloudflare").is_some());
        assert!(u.provider_by_name("Beget").is_some());
        assert!(u.provider_by_name("SuperHosting.BG").is_some());
        // Every dataset country has at least a few regional providers.
        for c in &COUNTRIES {
            let list = &u.regional_by_country[c.code];
            assert!(list.len() >= 3, "{}: {}", c.code, list.len());
        }
    }

    #[test]
    fn cloudflare_is_provider_zero_and_heads_pools() {
        let u = Universe::build(0.1);
        assert_eq!(u.provider_by_name("Cloudflare"), Some(0));
        assert_eq!(u.global_hosting[0], 0);
        assert_eq!(u.global_dns[0], 0);
        let cf = u.provider(0);
        assert!(cf.anycast && cf.cdn && cf.offers_dns);
        assert_eq!(cf.country, "US");
    }

    #[test]
    fn managed_dns_not_in_hosting_pool() {
        let u = Universe::build(0.1);
        let nsone = u.provider_by_name("NSONE").unwrap();
        assert!(!u.global_hosting.contains(&nsone));
        assert!(u.global_dns.contains(&nsone));
        assert!(!u.provider(nsone).offers_hosting);
    }

    #[test]
    fn tlds_cover_all_countries() {
        let u = Universe::build(0.1);
        assert_eq!(u.tld_by_label("com"), Some(0));
        assert!(u.tld_by_label("de").is_some());
        assert!(u.tld_by_label("kg").is_some());
        assert_eq!(u.tlds.len(), 1 + 20 + 150);
    }

    #[test]
    fn ids_are_dense() {
        let u = Universe::build(0.1);
        for (i, p) in u.providers.iter().enumerate() {
            assert_eq!(p.id as usize, i);
        }
        for (i, c) in u.cas.iter().enumerate() {
            assert_eq!(c.id as usize, i);
        }
        for (i, t) in u.tlds.iter().enumerate() {
            assert_eq!(t.id as usize, i);
        }
    }

    #[test]
    fn ca_names_unique() {
        let u = Universe::build(0.1);
        let mut names: Vec<&str> = u.cas.iter().map(|c| c.name.as_str()).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn tld_labels_unique() {
        let u = Universe::build(0.05);
        let mut labels: Vec<&str> = u.tlds.iter().map(|t| t.label.as_str()).collect();
        let n = labels.len();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), n, "duplicate TLD labels break the registry");
    }

    #[test]
    #[should_panic(expected = "tail_scale")]
    fn tail_scale_validated() {
        let _ = Universe::build(0.0);
    }
}

//! Vantage-point re-measurement (§3.4's RIPE Atlas validation).
//!
//! The paper validates its Stanford vantage by re-resolving each country's
//! toplist through RIPE probes *in that country* and correlating the
//! resulting centralization scores (ρ = 0.96). Here the analogue resolves
//! a sample of a country's sites from the country's own continent; CDN
//! providers answer GeoDNS-style, so the serving IP (and thus, in a world
//! with geolocation noise, occasionally the inferred org) can differ.

use webdep_dns::resolver::{IterativeResolver, ResolverConfig};
use webdep_dns::DomainName;
use webdep_webgen::{Continent, DeployedWorld, World};

/// Resolves a sample of `country_idx`'s toplist from `vantage`, returning
/// the hosting organization id per sampled site (`None` on failure).
///
/// `sample` caps the number of sites (evenly strided through the toplist)
/// to keep per-country re-measurement affordable.
pub fn resolve_hosting_orgs(
    world: &World,
    dep: &DeployedWorld,
    country_idx: usize,
    vantage: Continent,
    sample: usize,
) -> Vec<Option<u32>> {
    let toplist = &world.toplists[country_idx];
    let stride = (toplist.len() / sample.max(1)).max(1);
    let ep = dep.vantage(vantage);
    let mut resolver = IterativeResolver::new(ep, dep.roots.clone(), ResolverConfig::default());
    toplist
        .iter()
        .step_by(stride)
        .take(sample)
        .map(|&site_idx| {
            let site = &world.sites[site_idx as usize];
            let name = DomainName::parse(&site.domain).ok()?;
            let addrs = resolver.resolve_a(&name);
            resolver.forget(&name);
            let ip = *addrs.ok()?.first()?;
            let (&asn, _) = dep.pfx2as.lookup(ip)?;
            dep.asorg.org_of_asn(asn).map(|o| o.org_id)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use webdep_webgen::{DeployConfig, WorldConfig};

    #[test]
    fn vantage_resolution_recovers_orgs() {
        let world = World::generate(WorldConfig::tiny());
        let dep = DeployedWorld::deploy(&world, DeployConfig::default());
        let th = World::country_index("TH").unwrap();
        let orgs = resolve_hosting_orgs(&world, &dep, th, Continent::Asia, 30);
        assert_eq!(orgs.len(), 30);
        let resolved = orgs.iter().filter(|o| o.is_some()).count();
        assert!(resolved >= 29, "resolved {resolved}/30");

        // Org attribution is vantage-independent even though serving IPs
        // differ (the provider owns its regional prefixes).
        let orgs_na = resolve_hosting_orgs(&world, &dep, th, Continent::NorthAmerica, 30);
        assert_eq!(orgs, orgs_na);
    }
}

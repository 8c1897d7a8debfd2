//! Deployment: put a generated [`World`] on the simulated internet.
//!
//! Deployment builds everything the measurement pipeline will probe:
//!
//! * **Addressing** — every provider gets a `/20` per continent of
//!   presence; anycast providers announce theirs via anycast; eyeball
//!   prefixes per continent host the vantage points.
//! * **DNS** — a root delegating every TLD, registry servers holding
//!   each TLD's delegations (with glue), and provider "racks" answering
//!   authoritatively for the sites they serve. CDN providers answer
//!   GeoDNS-style: the A record depends on the querier's continent,
//!   which is what makes the §3.4 vantage-point experiment meaningful.
//! * **TLS** — every site has a leaf certificate chained to its CA's
//!   intermediate and root, served by SNI from the hosting rack.
//! * **Enrichment databases** — pfx2as, AS→org, geolocation (with the
//!   paper's ~89.4% accuracy knob), anycast prefixes, and the CCADB-style
//!   issuer→owner map, all derived from the deployed addressing plan.
//!
//! One rack serves many providers (shared hosting). Racks, TLD registries
//! and the root are *inline responders* ([`ResponderSet`]): stateless
//! serving logic invoked on the querier's thread, so a round trip costs a
//! function call rather than two context switches, and the deployed world
//! runs no server thread at all — no answer can miss a client timeout
//! waiting for a server thread to be scheduled. Every one of them serves
//! through `webdep_dns::serve_query` and `webdep_tls::serve_hello`; the
//! root and the registries are [`DelegationTable`]s (the root's origin is
//! `.`).
//!
//! Deploying builds an index, not a copy: every rack and registry answers
//! from one shared, read-only site table (the domains in one arena, a row
//! of provider, CA and TLD ids per site, an open-addressed slot table over
//! the names) plus tables sized by providers. A rack answers a name only
//! when the site's DNS (or, for TLS, hosting) provider lives on it; a
//! registry refers a site through its DNS provider's one interned
//! [`Delegation`]; a leaf certificate is encoded from the site's serial,
//! name and CA at handshake time. So deploy allocates per provider and
//! TLD, not per site.

use crate::country::{Continent, CountryRecord};
use crate::provider::Provider;
use crate::world::World;
use std::hash::BuildHasher;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;
use webdep_dns::bigzone::{ChildLookup, Delegation, DelegationTable};
use webdep_dns::name::DomainName;
use webdep_dns::server::QuestionRef;
use webdep_dns::wire::{RData, Rcode, RecordType, Reply, Wire, WireName};
use webdep_dns::{serve_query, DNS_PORT};
use webdep_geodb::{
    AnycastSet, AsOrgDb, CaOwner, CaOwnerDb, GeoDb, GeoDbBuilder, OrgRecord, PrefixTable,
};
use webdep_netsim::{
    Datagram, Endpoint, FaultPlan, KeyedMap, KeyedState, NetConfig, Network, Prefix, Region,
    ResponderSet,
};
use webdep_tls::cert::{CertRef, Certificate};
use webdep_tls::{serve_hello, TLS_PORT};

/// Deployment parameters.
#[derive(Debug, Clone)]
pub struct DeployConfig {
    /// Number of hosting racks.
    pub racks: usize,
    /// Country-level geolocation accuracy (paper: NetAcuity ~0.894).
    pub geo_accuracy: f64,
    /// Seed for the geolocation error process.
    pub seed: u64,
    /// Network packet-loss probability (failure injection for resolver /
    /// scanner retry testing).
    pub loss_rate: f64,
    /// Deterministic fault plan. Whole-run outages apply at the transport
    /// to every query addressed to a non-protected server address (see
    /// [`FaultPlan::server_out`]; a reply to a vantage endpoint is never
    /// checked); per-query flaky faults apply only at
    /// the authoritative tier (hosting/DNS racks), keyed on
    /// `(server ip, qname or sni)` so retries meet the same fate on every
    /// worker schedule. The root server is always protected.
    pub faults: Option<Arc<FaultPlan>>,
    /// Per-provider site counts used to size serving pools. `None` counts
    /// `world.sites` at deploy time. An evolution loop pins the *base*
    /// epoch's counts ([`provider_site_counts`]) across every epoch's
    /// deployment so pool lengths — and therefore the serving IPs of
    /// unchanged sites — stay fixed while customers churn (real provider
    /// address plans do not reshuffle with customer counts). Required for
    /// `measure_delta`'s byte-identity contract.
    pub pool_sites: Option<Arc<Vec<u64>>>,
}

impl Default for DeployConfig {
    fn default() -> Self {
        DeployConfig {
            racks: 16,
            geo_accuracy: 1.0,
            seed: 7,
            loss_rate: 0.0,
            faults: None,
            pool_sites: None,
        }
    }
}

/// Sites hosted per provider id — the pool-sizing census a continuous
/// evolution loop captures once from its base world and pins via
/// [`DeployConfig::pool_sites`] for every subsequent epoch.
pub fn provider_site_counts(world: &World) -> Vec<u64> {
    let mut counts = vec![0u64; world.universe.providers.len()];
    for s in &world.sites {
        counts[s.hosting as usize] += 1;
    }
    counts
}

/// Continent of a provider's HQ country (with fallbacks for HQ countries
/// outside the 150-country dataset).
pub fn continent_of_country(code: &str) -> Continent {
    if let Some(c) = CountryRecord::by_code(code) {
        return c.continent;
    }
    match code {
        "CN" => Continent::Asia,
        _ => Continent::NorthAmerica,
    }
}

/// Per-provider serving IP pools, one pool per continent (empty where the
/// provider has no presence).
#[derive(Debug, Clone, Default)]
pub struct ProviderPools {
    /// Pools indexed by continent index (see [`cont_index`]).
    pub pools: [Vec<Ipv4Addr>; 6],
    /// Primary nameserver addresses.
    pub ns_addrs: Vec<Ipv4Addr>,
}

/// Continent index used across deployment tables.
pub fn cont_index(c: Continent) -> usize {
    match c {
        Continent::NorthAmerica => 0,
        Continent::SouthAmerica => 1,
        Continent::Europe => 2,
        Continent::Africa => 3,
        Continent::Asia => 4,
        Continent::Oceania => 5,
    }
}

/// All continents in [`cont_index`] order.
pub const CONT_ORDER: [Continent; 6] = [
    Continent::NorthAmerica,
    Continent::SouthAmerica,
    Continent::Europe,
    Continent::Africa,
    Continent::Asia,
    Continent::Oceania,
];

/// The deployed world: live servers plus the enrichment databases.
pub struct DeployedWorld {
    /// The simulated network fabric.
    pub network: Network,
    /// Root nameserver addresses (resolver hints).
    pub roots: Vec<Ipv4Addr>,
    /// Prefix → origin ASN (pfx2as).
    pub pfx2as: Arc<PrefixTable<u32>>,
    /// ASN → organization.
    pub asorg: Arc<AsOrgDb>,
    /// IP → country.
    pub geodb: Arc<GeoDb>,
    /// Anycast prefixes.
    pub anycast: Arc<AnycastSet>,
    /// Certificate issuer → CA owner.
    pub caodb: Arc<CaOwnerDb>,
    /// Serving pools per provider (shared with the rack responders).
    pub pools: Arc<Vec<ProviderPools>>,
    eyeball_prefixes: [Prefix; 6],
    vantage_counters: [AtomicU32; 6],
    responders: Vec<ResponderSet>,
}

/// One site's serving facts: everything a rack or registry needs besides
/// the name.
struct SiteRow {
    dns: u32,
    hosting: u32,
    ca: u32,
    tld: u32,
    /// Stable per-site hash selecting an IP within the pool ([`fnv1a`]).
    pool_hash: u32,
}

/// Marks an empty slot of [`SiteIndex::slots`].
const EMPTY: u32 = u32::MAX;

/// CNAME edge hosts per CDN provider; a site's pool hash picks one.
const EDGE_HOSTS: u32 = 64;

/// Every deployed site, built once per deploy and shared read-only by all
/// racks and registries: the domains in one arena, a compact row per site,
/// and an open-addressed slot table over the names. Its size is a few
/// allocations whatever the number of sites.
struct SiteIndex {
    /// Every domain, concatenated in site order.
    names: String,
    /// Site `i`'s domain is `names[offsets[i]..offsets[i + 1]]`: the end
    /// offsets, after a leading 0.
    offsets: Vec<u32>,
    rows: Vec<SiteRow>,
    /// Site indices by name hash, linearly probed; a power of two at most
    /// half full.
    slots: Vec<u32>,
    /// The process-keyed hasher every measurement-path map uses. The
    /// index holds only the world's own names, and a probe for a name it
    /// does not hold ends at the first empty slot of a table at most half
    /// full.
    hasher: KeyedState,
}

impl SiteIndex {
    fn build(world: &World) -> SiteIndex {
        let n = world.sites.len();
        let mut index = SiteIndex {
            names: String::with_capacity(world.sites.iter().map(|s| s.domain.len()).sum()),
            offsets: Vec::with_capacity(n + 1),
            rows: Vec::with_capacity(n),
            slots: vec![EMPTY; (2 * n).next_power_of_two()],
            hasher: KeyedState::default(),
        };
        index.offsets.push(0);
        for site in &world.sites {
            // Queries look names up in presentation form, lowercase.
            debug_assert!(
                !site.domain.bytes().any(|b| b.is_ascii_uppercase()),
                "generated names are lowercase"
            );
            index.names.push_str(&site.domain);
            index.offsets.push(index.names.len() as u32);
            index.rows.push(SiteRow {
                dns: site.dns,
                hosting: site.hosting,
                ca: site.ca,
                tld: site.tld,
                pool_hash: fnv1a(&site.domain),
            });
        }
        // Generated domains are unique; were one repeated, its last site
        // would take the name, as a map insert would.
        for idx in 0..n as u32 {
            let slot = index.slot_of(index.name(idx));
            index.slots[slot] = idx;
        }
        index
    }

    /// The domain of site `idx`.
    fn name(&self, idx: u32) -> &str {
        let i = idx as usize;
        &self.names[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The slot holding `name`, or the empty slot ending its probe.
    fn slot_of(&self, name: &str) -> usize {
        let mask = self.slots.len() - 1;
        let mut slot = self.hasher.hash_one(name) as usize & mask;
        loop {
            match self.slots[slot] {
                EMPTY => return slot,
                idx if self.name(idx) == name => return slot,
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// The site named `name`: its index and row.
    fn find(&self, name: &str) -> Option<(u32, &SiteRow)> {
        match self.slots[self.slot_of(name)] {
            EMPTY => None,
            idx => Some((idx, &self.rows[idx as usize])),
        }
    }
}

/// What every rack and registry answers from, shared through one `Arc`:
/// the site index plus tables sized by providers and CAs, never by sites.
struct Served {
    sites: SiteIndex,
    /// Number of racks; provider `p` lives on rack `p % racks`.
    racks: usize,
    /// Serving pools per provider, for GeoDNS answers.
    pools: Arc<Vec<ProviderPools>>,
    /// The CNAME edge host names of each CDN (GeoDNS) provider
    /// (`e<hash % EDGE_HOSTS>.<provider-slug>.net`, the real-world
    /// `*.cdn.example.net` pattern), in wire form; empty for the others.
    edges: Vec<Vec<WireName>>,
    /// Each provider's nameservers with glue: the referral to every site
    /// it serves DNS for, and its NS answer.
    delegations: Vec<Delegation>,
    /// Nameserver host → (provider, address), from the glue.
    hosts: KeyedMap<DomainName, (u32, Ipv4Addr)>,
    /// (intermediate, root) certificates, indexed by CA id.
    ca_certs: Vec<(Certificate, Certificate)>,
    /// Eyeball prefixes for querier-continent detection.
    eyeballs: [Prefix; 6],
    /// Active fault plan for this deployment (authoritative tier only).
    faults: Option<Arc<FaultPlan>>,
}

impl Served {
    fn rack_of(&self, provider: u32) -> usize {
        provider as usize % self.racks
    }

    fn querier_continent(&self, src: Ipv4Addr) -> usize {
        // Default: North America (the paper's Stanford vantage).
        self.eyeballs
            .iter()
            .position(|p| p.contains(src))
            .unwrap_or(0)
    }

    fn serving_ip(&self, provider: u32, hash: u32, querier_cont: usize) -> Option<Ipv4Addr> {
        let pools = &self.pools[provider as usize].pools;
        // A CDN serves from the querier's continent; any other provider
        // has one pool, its home continent's, and serves from it.
        let pool = if !pools[querier_cont].is_empty() {
            &pools[querier_cont]
        } else {
            pools.iter().find(|p| !p.is_empty())?
        };
        pool.get(hash as usize % pool.len()).copied()
    }

    /// The site named `name` if its `provider` (DNS or hosting) lives on
    /// rack `rack`.
    fn site_on(
        &self,
        rack: usize,
        name: &str,
        provider: fn(&SiteRow) -> u32,
    ) -> Option<(u32, &SiteRow)> {
        let (idx, row) = self.sites.find(name)?;
        (self.rack_of(provider(row)) == rack).then_some((idx, row))
    }

    /// One answer of hosting/DNS rack `rack`: DNS on port 53 for the sites
    /// and nameserver hosts of the DNS providers it runs, TLS on 443 for
    /// the sites of the hosting providers it runs, through the same
    /// serving functions as every simulated server. Pure in the shared
    /// tables, so it runs inline on whichever querier thread sent the
    /// datagram. Any active fault plan is applied to the ready answer,
    /// keyed on the server address the query was sent to.
    fn rack_respond(
        &self,
        rack: usize,
        dgram: &Datagram<'_>,
        out: &mut Vec<u8>,
    ) -> Option<Duration> {
        let faults = self.faults.as_deref();
        match dgram.dst.port {
            DNS_PORT => serve_query(dgram.payload, dgram.dst.ip, faults, out, |q, reply| {
                self.respond_dns(rack, q, dgram.src.ip, reply)
            }),
            TLS_PORT => serve_hello(dgram.payload, dgram.dst.ip, faults, out, |sni| {
                self.chain_for(rack, sni)
            }),
            _ => None,
        }
    }

    /// Answers the DNS question `q` at `rack`, writing the records
    /// straight into `reply`: a site's A answer or NS set when the site's
    /// DNS provider lives here, a nameserver host's address, NoData for a
    /// known name without such records, NXDOMAIN otherwise.
    fn respond_dns(&self, rack: usize, q: QuestionRef<'_>, src: Ipv4Addr, reply: &mut Reply<'_>) {
        reply.set_authoritative();
        let site = self.site_on(rack, q.name, |row| row.dns);
        let answered = match (site, q.qtype) {
            (Some((_, row)), RecordType::A) => self.site_answers(q.wire, row, src, reply),
            (Some((_, row)), RecordType::Ns) => {
                for ns in self.delegations[row.dns as usize].ns() {
                    reply.answer(q.wire, 3600, RData::Ns(ns.as_wire()));
                }
                true
            }
            // Infrastructure hosts (nameservers).
            (None, RecordType::A) => match self.hosts.get(q.name) {
                Some(&(p, ip)) if self.rack_of(p) == rack => {
                    reply.answer(q.wire, 3600, RData::A(ip));
                    true
                }
                _ => false,
            },
            _ => false,
        };
        // A known name without answers is NoData.
        if site.is_none() && !answered {
            reply.set_rcode(Rcode::NxDomain);
        }
    }

    /// Writes a site's A answer: its serving address from the querier's
    /// continent, behind a CNAME to the provider's edge host for CDN sites.
    /// False when the provider has no address to serve from.
    fn site_answers(
        &self,
        name: Wire<'_>,
        row: &SiteRow,
        src: Ipv4Addr,
        reply: &mut Reply<'_>,
    ) -> bool {
        let Some(ip) = self.serving_ip(row.hosting, row.pool_hash, self.querier_continent(src))
        else {
            return false;
        };
        let edges = &self.edges[row.hosting as usize];
        match edges.get((row.pool_hash % EDGE_HOSTS) as usize) {
            // CDN sites answer like the real thing: a CNAME to the
            // provider's edge host plus its address, exercising the
            // resolver's CNAME path.
            Some(edge) => {
                reply.answer(name, 300, RData::Cname(edge.as_wire()));
                reply.answer(edge.as_wire(), 300, RData::A(ip));
            }
            None => reply.answer(name, 300, RData::A(ip)),
        }
        true
    }

    /// The chain `rack` presents for `sni`, leaf first: the site's leaf,
    /// then its CA's intermediate and root.
    fn chain_for(&self, rack: usize, sni: &str) -> Option<[CertRef<'_>; 3]> {
        // Scanners send the domain as measured, which is already lowercase.
        let (idx, row) = if sni.bytes().any(|b| b.is_ascii_uppercase()) {
            self.site_on(rack, &sni.to_ascii_lowercase(), |row| row.hosting)
        } else {
            self.site_on(rack, sni, |row| row.hosting)
        }?;
        let (inter, root) = &self.ca_certs[row.ca as usize];
        let leaf = CertRef::Leaf {
            serial: 1_000_000 + u64::from(idx),
            name: self.sites.name(idx),
            issuer: inter,
        };
        Some([leaf, CertRef::Whole(inter), CertRef::Whole(root)])
    }
}

/// The sites one TLD registry refers: a [`DelegationTable`] hook over the
/// shared index, each site referred to its DNS provider's nameservers.
struct TldSites {
    served: Arc<Served>,
    tld: u32,
}

impl ChildLookup for TldSites {
    fn delegation(&self, domain: &str) -> Option<&Delegation> {
        let (_, row) = self.served.sites.find(domain)?;
        (row.tld == self.tld).then(|| &self.served.delegations[row.dns as usize])
    }
}

/// One registry (or root) answer: the delegation table keyed by the server
/// IP the query was addressed to.
fn registry_respond(
    tables: &KeyedMap<Ipv4Addr, DelegationTable>,
    dgram: &Datagram<'_>,
    out: &mut Vec<u8>,
) -> Option<Duration> {
    match tables.get(&dgram.dst.ip) {
        Some(table) if dgram.dst.port == DNS_PORT => {
            serve_query(dgram.payload, dgram.dst.ip, None, out, |q, reply| {
                table.respond(q, reply)
            })
        }
        _ => None,
    }
}

impl DeployedWorld {
    /// Deploys `world` onto a fresh network.
    pub fn deploy(world: &World, config: DeployConfig) -> DeployedWorld {
        // The root always answers: a whole-run outage of the single root
        // address would zero the measurement rather than degrade it, and
        // the fault model targets provider infrastructure.
        let root_ip = Ipv4Addr::new(198, 41, 0, 4);
        let faults = config.faults.clone().filter(|p| p.is_active()).map(|plan| {
            if plan.protected.contains(&root_ip) {
                plan
            } else {
                let mut p = (*plan).clone();
                p.protected.push(root_ip);
                Arc::new(p)
            }
        });
        let network = Network::new(NetConfig {
            loss_rate: config.loss_rate,
            seed: config.seed,
            faults: faults.clone(),
            ..NetConfig::default()
        });
        let universe = &world.universe;
        let n_providers = universe.providers.len();

        // ---- Addressing plan ----
        // Eyeballs: 100.<cont>.0.0/16.
        let eyeball_prefixes: [Prefix; 6] = std::array::from_fn(|i| {
            Prefix::new(Ipv4Addr::new(100, i as u8, 0, 0), 16).expect("static prefix")
        });

        let mut pfx2as = PrefixTable::new();
        let mut geo = GeoDbBuilder::new();
        let mut anycast = AnycastSet::new();
        let mut asorg = AsOrgDb::new();

        // Provider prefixes: /20s carved sequentially from 60.0.0.0.
        let mut next_p20: u32 = u32::from(Ipv4Addr::new(60, 0, 0, 0)) >> 12;

        // Sites per provider per continent decide pool sizes; a pinned
        // census overrides the live count so pool lengths survive churn.
        let sites_per_provider: Vec<u64> = match &config.pool_sites {
            Some(pinned) => {
                assert_eq!(
                    pinned.len(),
                    n_providers,
                    "pinned pool census must cover every provider"
                );
                pinned.to_vec()
            }
            None => provider_site_counts(world),
        };

        let mut pools: Vec<ProviderPools> = Vec::with_capacity(n_providers);
        for p in &universe.providers {
            let mut pp = ProviderPools::default();
            let home = continent_of_country(&p.country);
            let presence: Vec<Continent> = if p.cdn {
                CONT_ORDER.to_vec()
            } else {
                vec![home]
            };
            for cont in presence {
                let prefix = Prefix::new(Ipv4Addr::from(next_p20 << 12), 20).expect("aligned /20");
                next_p20 += 1;
                pfx2as.insert(prefix, p.asn);
                let geo_country = if p.cdn && cont != home {
                    cont.representative_country().to_string()
                } else {
                    p.country.clone()
                };
                geo.add_prefix(prefix, &geo_country);
                if p.anycast {
                    anycast.add(prefix);
                }
                // Serving pool: enough IPs that big providers share load,
                // small providers use a couple.
                let n_sites = sites_per_provider[p.id as usize];
                let pool_size = ((n_sites / 48).clamp(2, 192) + 2) as u64;
                let pool: Vec<Ipv4Addr> = (0..pool_size)
                    .map(|i| prefix.nth(i + 16).expect("/20 has room"))
                    .collect();
                pp.pools[cont_index(cont)] = pool;
                // Nameservers live in the home prefix.
                if (cont == home || p.anycast) && pp.ns_addrs.len() < 2 {
                    pp.ns_addrs.push(prefix.nth(2).expect("/20 has room"));
                    pp.ns_addrs.push(prefix.nth(3).expect("/20 has room"));
                }
            }
            if pp.ns_addrs.is_empty() {
                // Hosting-only presence still runs its own NS.
                let first = pp.pools.iter().find(|v| !v.is_empty()).expect("presence");
                pp.ns_addrs.push(first[0]);
            }
            asorg.add_org(OrgRecord {
                org_id: p.id,
                name: p.name.clone(),
                country: p.country.clone(),
            });
            asorg.map_asn(p.asn, p.id);
            pools.push(pp);
        }
        let pools = Arc::new(pools);

        // Eyeball prefixes geolocate to each continent's representative.
        for (i, p) in eyeball_prefixes.iter().enumerate() {
            geo.add_prefix(*p, CONT_ORDER[i].representative_country());
        }

        // ---- CA certificates & ownership ----
        let mut caodb = CaOwnerDb::new();
        let mut ca_certs: Vec<(Certificate, Certificate)> = Vec::new();
        for ca in &universe.cas {
            caodb.add_owner(CaOwner {
                owner_id: ca.id,
                name: ca.name.clone(),
                country: ca.country.clone(),
            });
            caodb.map_issuer(ca.issuing_cert_id, ca.id);
            caodb.map_issuer(ca.root_cert_id, ca.id);
            let root = Certificate {
                serial: ca.root_cert_id as u64,
                subject: format!("{} Root", ca.name),
                san: vec![],
                issuer_id: ca.root_cert_id,
                issuer_name: format!("{} Root", ca.name),
                not_before: 0,
                not_after: u64::MAX,
                is_ca: true,
            };
            let inter = Certificate {
                serial: ca.issuing_cert_id as u64,
                subject: format!("{} Issuing CA", ca.name),
                san: vec![],
                issuer_id: ca.root_cert_id,
                issuer_name: root.subject.clone(),
                not_before: 0,
                not_after: u64::MAX,
                is_ca: true,
            };
            ca_certs.push((inter, root));
        }

        // ---- Shared serving tables ----
        let slugs: Vec<String> = universe.providers.iter().map(|p| p.slug()).collect();
        // A provider's infrastructure hosts live under `<slug>.net`.
        let infra = |p: &Provider, host: &str| {
            DomainName::parse(&format!("{host}{}.net", slugs[p.id as usize]))
                .expect("slug names are valid")
        };
        // Each provider's nameservers, glued; the names every reply writes
        // are built in wire form here, once.
        let mut hosts = KeyedMap::default();
        let delegations: Vec<Delegation> = (universe.providers.iter())
            .map(|p| {
                let addrs = &pools[p.id as usize].ns_addrs;
                let glue: Vec<(DomainName, Ipv4Addr)> = (1..=addrs.len())
                    .map(|i| infra(p, &format!("ns{i}.")))
                    .zip(addrs.iter().copied())
                    .collect();
                let ns: Vec<DomainName> = glue.iter().map(|(name, _)| name.clone()).collect();
                let delegation = Delegation::new(&ns, &glue);
                hosts.extend(glue.into_iter().map(|(name, ip)| (name, (p.id, ip))));
                delegation
            })
            .collect();
        let edges = (universe.providers.iter())
            .map(|p| {
                let hosts = if p.cdn { 0..EDGE_HOSTS } else { 0..0 };
                hosts
                    .map(|h| (&infra(p, &format!("e{h}."))).into())
                    .collect()
            })
            .collect();
        let served = Arc::new(Served {
            sites: SiteIndex::build(world),
            racks: config.racks.max(1),
            pools: Arc::clone(&pools),
            edges,
            delegations,
            hosts,
            ca_certs,
            eyeballs: eyeball_prefixes,
            faults,
        });

        // ---- Registry racks ----
        // A registry serves each TLD holding a site, and `.net` for the
        // provider infrastructure domains (`<slug>.net`) so glueless paths
        // still resolve. TLD id order assigns the registry addresses:
        // 192.5.<i/250>.<i%250+1>. The root is one more delegation table
        // (origin `.`), referring each TLD to its registry.
        let net_tld = universe.tld_by_label("net");
        let mut served_tlds = vec![false; universe.tlds.len()];
        for tld in world.sites.iter().map(|s| s.tld).chain(net_tld) {
            served_tlds[tld as usize] = true;
        }
        let tld_ids = (0..universe.tlds.len() as u32).filter(|&t| served_tlds[t as usize]);
        let mut root = DelegationTable::new(DomainName::root());
        let registry_groups = 4usize;
        let mut registry_tables: Vec<KeyedMap<Ipv4Addr, DelegationTable>> =
            vec![KeyedMap::default(); registry_groups];
        for (gi, tld_id) in tld_ids.enumerate() {
            let i = gi as u32;
            let ip = Ipv4Addr::new(192, 5, (i / 250) as u8, (i % 250 + 1) as u8);
            let label = &universe.tld(tld_id).label;
            let origin = DomainName::parse(label).expect("tld label");
            let sites = TldSites {
                served: Arc::clone(&served),
                tld: tld_id,
            };
            let mut table = DelegationTable::new(origin.clone()).with_lookup(Arc::new(sites));
            if Some(tld_id) == net_tld {
                // The table's own children come before its hook, so an
                // infrastructure domain wins over a site of the same name.
                for (p, d) in universe.providers.iter().zip(&served.delegations) {
                    table.register(infra(p, ""), d.clone());
                }
            }
            let ns_host =
                DomainName::parse(&format!("ns.{label}-registry.net")).expect("registry host");
            root.register(
                origin,
                Delegation::new(std::slice::from_ref(&ns_host), &[(ns_host.clone(), ip)]),
            );
            registry_tables[gi % registry_groups].insert(ip, table);
        }
        registry_tables[0].insert(root_ip, root);
        geo.add_prefix(
            Prefix::new(Ipv4Addr::new(198, 41, 0, 0), 24).expect("static"),
            "US",
        );
        geo.add_prefix(
            Prefix::new(Ipv4Addr::new(192, 5, 0, 0), 16).expect("static"),
            "US",
        );

        let mut responders: Vec<ResponderSet> = Vec::new();
        for tables in registry_tables {
            if tables.is_empty() {
                continue;
            }
            let ips: Vec<Ipv4Addr> = tables.keys().copied().collect();
            let set = ResponderSet::new(&network, move |d: &Datagram, out: &mut Vec<u8>| {
                registry_respond(&tables, d, out)
            });
            for ip in ips {
                set.attach(ip, DNS_PORT, Region::NORTH_AMERICA)
                    .expect("registry address free");
            }
            responders.push(set);
        }

        // ---- Hosting racks ----
        for ri in 0..served.racks {
            let rack = Arc::clone(&served);
            let set = ResponderSet::new(&network, move |d: &Datagram, out: &mut Vec<u8>| {
                rack.rack_respond(ri, d, out)
            });
            // Attach every address of every provider on this rack.
            for p in &universe.providers {
                if served.rack_of(p.id) != ri {
                    continue;
                }
                let pp = &pools[p.id as usize];
                // Each continent's pool lies in a /20 of its own, announced
                // from that continent alone, so even an anycast provider's
                // pool address has one site and binds like a unicast one.
                for (ci, pool) in pp.pools.iter().enumerate() {
                    let region = CONT_ORDER[ci].region();
                    for &ip in pool {
                        set.attach(ip, TLS_PORT, region)
                            .expect("address plan is collision-free");
                        set.attach(ip, DNS_PORT, region)
                            .expect("address plan is collision-free");
                    }
                }
                let home_region = continent_of_country(&p.country).region();
                for &ns in &pp.ns_addrs {
                    if p.anycast {
                        for cont in CONT_ORDER {
                            let _ = set.attach_anycast(ns, DNS_PORT, cont.region());
                        }
                    } else {
                        // NS address may coincide with a pool address only
                        // for the tiny single-IP fallback; tolerate.
                        let _ = set.attach(ns, DNS_PORT, home_region);
                    }
                }
            }
            responders.push(set);
        }

        let geodb = if config.geo_accuracy < 1.0 {
            let mut g = geo;
            g.with_accuracy(config.geo_accuracy, config.seed);
            g.build()
        } else {
            geo.build()
        };

        DeployedWorld {
            network,
            roots: vec![root_ip],
            pfx2as: Arc::new(pfx2as),
            asorg: Arc::new(asorg),
            geodb: Arc::new(geodb),
            anycast: Arc::new(anycast),
            caodb: Arc::new(caodb),
            pools,
            eyeball_prefixes,
            vantage_counters: std::array::from_fn(|_| AtomicU32::new(10)),
            responders,
        }
    }

    /// A fresh vantage-point endpoint in `continent`'s eyeball prefix.
    /// Each call gets a unique address, so each client's loss stream is its
    /// own.
    pub fn vantage(&self, continent: Continent) -> Endpoint {
        let ci = cont_index(continent);
        let n = self.vantage_counters[ci].fetch_add(1, Ordering::Relaxed);
        let ip = self.eyeball_prefixes[ci]
            .nth(n as u64)
            .expect("eyeball prefix exhausted");
        self.network.bind(ip, 33000, continent.region())
    }

    /// Number of serving racks (registries + hosting).
    pub fn num_racks(&self) -> usize {
        self.responders.len()
    }
}

/// 32-bit FNV-1a string hash: a site's stable pool position, the same on
/// every deploy (unlike the keyed [`SiteIndex`] probe hash).
fn fnv1a(s: &str) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for b in s.bytes() {
        h = (h ^ b as u32).wrapping_mul(0x0100_0193);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{World, WorldConfig};
    use std::collections::HashMap;
    use webdep_dns::bigzone::DEFAULT_TTL;
    use webdep_dns::resolver::{IterativeResolver, ResolverConfig};
    use webdep_dns::wire::{encode_query, MessageView};
    use webdep_netsim::SockAddr;
    use webdep_tls::scanner::{Scanner, ScannerConfig};

    fn deployed() -> (World, DeployedWorld) {
        let world = World::generate(WorldConfig::tiny());
        let dep = DeployedWorld::deploy(&world, DeployConfig::default());
        (world, dep)
    }

    #[test]
    fn resolves_and_scans_sites_end_to_end() {
        let (world, dep) = deployed();
        let vantage = dep.vantage(Continent::NorthAmerica);
        let mut resolver =
            IterativeResolver::new(vantage, dep.roots.clone(), ResolverConfig::default());
        let scan_ep = dep.vantage(Continent::NorthAmerica);
        let mut scanner = Scanner::new(scan_ep, ScannerConfig::default());

        // Probe a sample of sites from several countries.
        for &ci in &[0usize, 40, 80, 120] {
            for &site_idx in world.toplists[ci].iter().step_by(97).take(4) {
                let site = &world.sites[site_idx as usize];
                let name = webdep_dns::DomainName::parse(&site.domain).unwrap();
                let addrs = resolver
                    .resolve_a(&name)
                    .unwrap_or_else(|e| panic!("resolve {}: {e}", site.domain));
                assert!(!addrs.is_empty());
                // The serving IP belongs to the hosting provider's ASN.
                let (asn, _) = dep.pfx2as.lookup(addrs[0]).expect("IP in plan");
                let org = dep.asorg.org_of_asn(*asn).expect("org known");
                assert_eq!(
                    org.org_id,
                    site.hosting,
                    "{}: expected {} got {}",
                    site.domain,
                    world.universe.provider(site.hosting).name,
                    org.name
                );
                // TLS chain identifies the CA.
                let chain = scanner
                    .scan(addrs[0], &site.domain)
                    .unwrap_or_else(|e| panic!("scan {}: {e}", site.domain));
                assert_eq!(chain.validate(&site.domain, 1000), Ok(()));
                let owner = dep
                    .caodb
                    .owner_of_issuer(chain.leaf().unwrap().issuer_id)
                    .expect("issuer known");
                assert_eq!(owner.owner_id, site.ca);
            }
        }
    }

    #[test]
    fn ns_resolution_identifies_dns_provider() {
        let (world, dep) = deployed();
        let vantage = dep.vantage(Continent::Europe);
        let mut resolver =
            IterativeResolver::new(vantage, dep.roots.clone(), ResolverConfig::default());
        let site = &world.sites[world.toplists[10][3] as usize];
        let name = webdep_dns::DomainName::parse(&site.domain).unwrap();
        let ns = resolver.resolve_ns(&name).expect("NS resolves");
        assert!(!ns.is_empty());
        let ns_addr = resolver.resolve_a(&ns[0]).expect("NS A resolves");
        let (asn, _) = dep.pfx2as.lookup(ns_addr[0]).expect("NS IP in plan");
        let org = dep.asorg.org_of_asn(*asn).expect("org known");
        assert_eq!(org.org_id, site.dns);
    }

    #[test]
    fn cdn_sites_resolve_to_querier_continent() {
        let (world, dep) = deployed();
        // Find a Cloudflare-hosted site (CDN + anycast).
        let cf = world.universe.provider_by_name("Cloudflare").unwrap();
        let site = world
            .sites
            .iter()
            .find(|s| s.hosting == cf)
            .expect("Cloudflare hosts sites");
        let name = webdep_dns::DomainName::parse(&site.domain).unwrap();

        let mut answers = Vec::new();
        for cont in [Continent::NorthAmerica, Continent::Asia] {
            let vantage = dep.vantage(cont);
            let mut resolver =
                IterativeResolver::new(vantage, dep.roots.clone(), ResolverConfig::default());
            let addrs = resolver.resolve_a(&name).expect("resolves");
            let country = dep.geodb.country_of(addrs[0]).expect("geolocates");
            answers.push((addrs[0], country.to_string()));
        }
        // Same provider, different regional IPs.
        assert_ne!(answers[0].0, answers[1].0, "GeoDNS should differ");
        assert_eq!(answers[0].1, "US");
        assert_eq!(answers[1].1, "SG");
        for (ip, _) in &answers {
            let (asn, _) = dep.pfx2as.lookup(*ip).unwrap();
            assert_eq!(dep.asorg.org_of_asn(*asn).unwrap().org_id, cf);
        }
    }

    #[test]
    fn cdn_sites_answer_with_cname_chains() {
        let (world, dep) = deployed();
        let cf = world.universe.provider_by_name("Cloudflare").unwrap();
        let site = world
            .sites
            .iter()
            .find(|s| s.hosting == cf)
            .expect("Cloudflare hosts sites");
        // The rack answers a CNAME to the edge host plus the edge's
        // address; the iterative resolver returns the address.
        let mut vantage = dep.vantage(Continent::NorthAmerica);
        let ns = SockAddr::new(dep.pools[site.dns as usize].ns_addrs[0], DNS_PORT);
        let query = dns_query(&site.domain, RecordType::A);
        let mut reply = Vec::new();
        let reply = vantage
            .exchange(ns, &query, Duration::ZERO, &mut reply)
            .unwrap()
            .unwrap();
        let answers: Vec<_> = MessageView::parse(reply).unwrap().answers().collect();
        let RData::Cname(edge) = answers[0].data else {
            panic!("a CDN site answers a CNAME first");
        };
        assert!(answers[1].owner.same_as(edge), "{answers:?}");
        let edge_ip = match answers[1].data {
            RData::A(ip) => ip,
            _ => panic!("the edge's address follows the CNAME"),
        };
        let mut resolver =
            IterativeResolver::new(vantage, dep.roots.clone(), ResolverConfig::default());
        let name = webdep_dns::DomainName::parse(&site.domain).unwrap();
        assert_eq!(*resolver.resolve_a(&name).expect("resolves"), [edge_ip]);
        // A regional (non-CDN) provider's site answers a bare A record; a
        // direct check that the CNAME is CDN-specific lives in the rack:
        let beget = world.universe.provider_by_name("Beget").unwrap();
        assert!(world.universe.provider(cf).cdn);
        assert!(!world.universe.provider(beget).cdn);
    }

    #[test]
    fn anycast_prefixes_flagged() {
        let (world, dep) = deployed();
        let cf = world.universe.provider_by_name("Cloudflare").unwrap();
        let pool = &dep.pools[cf as usize].pools[0];
        assert!(dep.anycast.contains(pool[0]));
        let hetzner = world.universe.provider_by_name("Hetzner").unwrap();
        let hpool = dep.pools[hetzner as usize]
            .pools
            .iter()
            .find(|p| !p.is_empty())
            .unwrap();
        assert!(!dep.anycast.contains(hpool[0]));
    }

    #[test]
    fn geolocation_reflects_hq_for_regional_providers() {
        let (world, dep) = deployed();
        let beget = world.universe.provider_by_name("Beget").unwrap();
        let pool = dep.pools[beget as usize]
            .pools
            .iter()
            .find(|p| !p.is_empty())
            .unwrap();
        assert_eq!(dep.geodb.country_of(pool[0]), Some("RU"));
    }

    #[test]
    fn fault_plan_degrades_racks_but_spares_root_and_registries() {
        use webdep_netsim::{FaultKind, FaultPlan};
        let world = World::generate(WorldConfig::tiny());
        let dep = DeployedWorld::deploy(
            &world,
            DeployConfig {
                faults: Some(Arc::new(FaultPlan::flaky(
                    5,
                    1.0,
                    1.0,
                    vec![FaultKind::ServFail],
                ))),
                ..DeployConfig::default()
            },
        );
        let site = &world.sites[world.toplists[0][0] as usize];
        let name = webdep_dns::DomainName::parse(&site.domain).unwrap();

        // Every rack answers SERVFAIL, so resolution fails — but quickly
        // (no timeouts): root and registry referrals still work, and the
        // authoritative servers answer, just unhelpfully.
        let vantage = dep.vantage(Continent::NorthAmerica);
        let mut resolver =
            IterativeResolver::new(vantage, dep.roots.clone(), ResolverConfig::default());
        let err = resolver.resolve_a(&name).unwrap_err();
        assert!(matches!(err, webdep_dns::resolver::ResolveError::ServFail));

        // TLS flights from the hosting rack become fatal alerts.
        let pool = dep.pools[site.hosting as usize]
            .pools
            .iter()
            .find(|p| !p.is_empty())
            .unwrap();
        let mut scanner = Scanner::new(
            dep.vantage(Continent::NorthAmerica),
            ScannerConfig::default(),
        );
        let err = scanner.scan(pool[0], &site.domain).unwrap_err();
        assert_eq!(
            err,
            webdep_tls::ScanError::Alert(webdep_tls::ALERT_INTERNAL_ERROR)
        );
    }

    #[test]
    fn outage_plan_black_holes_rack_servers() {
        use webdep_netsim::FaultPlan;
        let world = World::generate(WorldConfig::tiny());
        let dep = DeployedWorld::deploy(
            &world,
            DeployConfig {
                faults: Some(Arc::new(FaultPlan::outages(9, 1.0))),
                ..DeployConfig::default()
            },
        );
        // Every server address except the protected root is out; the
        // resolver gets referrals nowhere (registry IPs are out too) and
        // must conclude with a timeout rather than hang.
        let vantage = dep.vantage(Continent::Europe);
        let mut resolver = IterativeResolver::new(
            vantage,
            dep.roots.clone(),
            ResolverConfig {
                timeout: Duration::from_millis(20),
                retries: 0,
                ..ResolverConfig::default()
            },
        );
        let site = &world.sites[world.toplists[3][0] as usize];
        let name = webdep_dns::DomainName::parse(&site.domain).unwrap();
        let err = resolver.resolve_a(&name).unwrap_err();
        assert!(matches!(err, webdep_dns::resolver::ResolveError::Timeout));
    }

    /// The deployment's tables as per-site copies, as the racks and
    /// registries held them before the shared site index: the reference
    /// every deployed answer must equal byte for byte.
    struct Reference {
        /// Per rack: site → (hosting provider, pool hash).
        site_a: Vec<HashMap<DomainName, (u32, u32)>>,
        /// Per rack: site → NS host names.
        site_ns: Vec<HashMap<DomainName, Vec<DomainName>>>,
        /// Per rack: nameserver host → address.
        host_a: Vec<HashMap<DomainName, Ipv4Addr>>,
        /// Per rack: SNI → leaf.
        leaf_by_sni: Vec<HashMap<String, Certificate>>,
        /// Registry address → registry (the root's included).
        registries: HashMap<Ipv4Addr, Registry>,
        /// Registry address per TLD id.
        registry_of: HashMap<u32, Ipv4Addr>,
        ca_certs: Vec<(Certificate, Certificate)>,
        slugs: Vec<String>,
        cdn: Vec<bool>,
        pools: Arc<Vec<ProviderPools>>,
        eyeballs: [Prefix; 6],
    }

    const RACKS: usize = 16;

    impl Reference {
        fn build(world: &World, dep: &DeployedWorld) -> Reference {
            let u = &world.universe;
            let pools = Arc::clone(&dep.pools);
            let slugs: Vec<String> = u.providers.iter().map(|p| p.slug()).collect();
            let ns_names: Vec<Vec<DomainName>> = (0..u.providers.len())
                .map(|p| {
                    (1..=pools[p].ns_addrs.len())
                        .map(|i| DomainName::parse(&format!("ns{i}.{}.net", slugs[p])).unwrap())
                        .collect()
                })
                .collect();
            let delegation = |p: u32| RefDelegation {
                ns: ns_names[p as usize].clone(),
                glue: ns_names[p as usize]
                    .iter()
                    .cloned()
                    .zip(pools[p as usize].ns_addrs.iter().copied())
                    .collect(),
            };
            let mut r = Reference {
                site_a: vec![HashMap::new(); RACKS],
                site_ns: vec![HashMap::new(); RACKS],
                host_a: vec![HashMap::new(); RACKS],
                leaf_by_sni: vec![HashMap::new(); RACKS],
                registries: HashMap::new(),
                registry_of: HashMap::new(),
                ca_certs: Vec::new(),
                slugs: slugs.clone(),
                cdn: u.providers.iter().map(|p| p.cdn).collect(),
                pools: Arc::clone(&pools),
                eyeballs: dep.eyeball_prefixes,
            };
            for ca in &u.cas {
                let root = Certificate {
                    serial: ca.root_cert_id as u64,
                    subject: format!("{} Root", ca.name),
                    san: vec![],
                    issuer_id: ca.root_cert_id,
                    issuer_name: format!("{} Root", ca.name),
                    not_before: 0,
                    not_after: u64::MAX,
                    is_ca: true,
                };
                let inter = Certificate {
                    serial: ca.issuing_cert_id as u64,
                    subject: format!("{} Issuing CA", ca.name),
                    san: vec![],
                    issuer_id: ca.root_cert_id,
                    issuer_name: root.subject.clone(),
                    not_before: 0,
                    not_after: u64::MAX,
                    is_ca: true,
                };
                r.ca_certs.push((inter, root));
            }
            for p in &u.providers {
                for (name, addr) in ns_names[p.id as usize]
                    .iter()
                    .zip(&pools[p.id as usize].ns_addrs)
                {
                    r.host_a[p.id as usize % RACKS].insert(name.clone(), *addr);
                }
            }
            let mut tld_tables: std::collections::BTreeMap<u32, Registry> = Default::default();
            for (idx, site) in world.sites.iter().enumerate() {
                let domain = DomainName::parse(&site.domain).unwrap();
                let dns_rack = site.dns as usize % RACKS;
                r.site_a[dns_rack]
                    .insert(domain.clone(), (site.hosting, fnv_reference(&site.domain)));
                r.site_ns[dns_rack].insert(domain.clone(), ns_names[site.dns as usize].clone());
                let ca = u.ca(site.ca);
                let leaf = Certificate {
                    serial: 1_000_000 + idx as u64,
                    subject: site.domain.clone(),
                    san: vec![site.domain.clone()],
                    issuer_id: ca.issuing_cert_id,
                    issuer_name: format!("{} Issuing CA", ca.name),
                    not_before: 0,
                    not_after: u64::MAX,
                    is_ca: false,
                };
                r.leaf_by_sni[site.hosting as usize % RACKS].insert(site.domain.clone(), leaf);
                tld_tables
                    .entry(site.tld)
                    .or_insert_with(|| Registry::new(&u.tld(site.tld).label))
                    .register(domain, delegation(site.dns));
            }
            if let Some(net) = u.tld_by_label("net") {
                let table = tld_tables
                    .entry(net)
                    .or_insert_with(|| Registry::new("net"));
                for p in &u.providers {
                    let slug_domain = DomainName::parse(&format!("{}.net", p.slug())).unwrap();
                    table.register(slug_domain, delegation(p.id));
                }
            }
            let mut root = Registry::new(".");
            for (i, (tld, table)) in tld_tables.into_iter().enumerate() {
                let ip = Ipv4Addr::new(192, 5, (i / 250) as u8, (i % 250 + 1) as u8);
                let label = &u.tld(tld).label;
                let ns_host = DomainName::parse(&format!("ns.{label}-registry.net")).unwrap();
                root.register(
                    DomainName::parse(label).unwrap(),
                    RefDelegation {
                        ns: vec![ns_host.clone()],
                        glue: vec![(ns_host, ip)],
                    },
                );
                r.registries.insert(ip, table);
                r.registry_of.insert(tld, ip);
            }
            r.registries.insert(dep.roots[0], root);
            r
        }

        /// Writes the rack's answer to `q`, asked from `src`, into `reply`.
        fn respond_dns(
            &self,
            rack: usize,
            q: QuestionRef<'_>,
            src: Ipv4Addr,
            reply: &mut Reply<'_>,
        ) {
            let name = DomainName::parse(q.name).unwrap();
            let answers: Option<Vec<(DomainName, u32, RData<DomainName>)>> = match q.qtype {
                RecordType::A => {
                    self.site_a[rack]
                        .get_key_value(&name)
                        .and_then(|(owner, &(p, hash))| {
                            let cont = self
                                .eyeballs
                                .iter()
                                .position(|e| e.contains(src))
                                .unwrap_or(0);
                            let pools = &self.pools[p as usize].pools;
                            let pool = if self.cdn[p as usize] && !pools[cont].is_empty() {
                                &pools[cont]
                            } else {
                                pools.iter().find(|p| !p.is_empty())?
                            };
                            let ip = pool[hash as usize % pool.len()];
                            let a = |name| (name, 300, RData::A(ip));
                            Some(if self.cdn[p as usize] {
                                let edge = DomainName::parse(&format!(
                                    "e{}.{}.net",
                                    hash % 64,
                                    self.slugs[p as usize]
                                ))
                                .unwrap();
                                vec![(owner.clone(), 300, RData::Cname(edge.clone())), a(edge)]
                            } else {
                                vec![a(owner.clone())]
                            })
                        })
                }
                RecordType::Ns => self.site_ns[rack].get_key_value(&name).map(|(owner, ns)| {
                    ns.iter()
                        .map(|n| (owner.clone(), 3600, RData::Ns(n.clone())))
                        .collect()
                }),
                RecordType::Cname => None,
            };
            if answers.is_none() && q.qtype == RecordType::A {
                if let Some(&ip) = self.host_a[rack].get(&name) {
                    reply.set_authoritative();
                    reply.answer(w(&name).as_wire(), DEFAULT_TTL, RData::A(ip));
                    return;
                }
            }
            let nxdomain = answers.is_none()
                && !self.site_a[rack].contains_key(&name)
                && !self.site_ns[rack].contains_key(&name);
            reply.set_authoritative();
            for (owner, ttl, data) in answers.iter().flatten() {
                let data = match data {
                    RData::A(ip) => RData::A(*ip),
                    RData::Ns(n) => RData::Ns(w(n)),
                    RData::Cname(n) => RData::Cname(w(n)),
                };
                let data = match &data {
                    RData::A(ip) => RData::A(*ip),
                    RData::Ns(n) => RData::Ns(n.as_wire()),
                    RData::Cname(n) => RData::Cname(n.as_wire()),
                };
                reply.answer(w(owner).as_wire(), *ttl, data);
            }
            if nxdomain {
                reply.set_rcode(Rcode::NxDomain);
            }
        }

        /// The reference reply to `query` sent from `src` to `dst`: the
        /// per-site tables' answer, written through the serving functions
        /// (`serve_query`, `serve_hello`) every deployed server runs.
        fn reply(&self, rack: usize, dst: SockAddr, src: Ipv4Addr, query: &[u8]) -> Vec<u8> {
            let mut out = Vec::new();
            let answered = if dst.port == TLS_PORT {
                serve_hello(query, dst.ip, None, &mut out, |sni| {
                    let leaf = self.leaf_by_sni[rack].get(sni)?;
                    let (inter, root) = &self.ca_certs[(leaf.issuer_id - 100_000) as usize];
                    Some([leaf, inter, root].map(CertRef::Whole))
                })
            } else {
                serve_query(query, dst.ip, None, &mut out, |q, reply| {
                    match self.registries.get(&dst.ip) {
                        Some(registry) => registry.refer(q, reply),
                        None => self.respond_dns(rack, q, src, reply),
                    }
                })
            };
            assert!(answered.is_some(), "every query is answered");
            out
        }
    }

    /// A delegation as the reference keeps it: nameserver names and glue.
    struct RefDelegation {
        ns: Vec<DomainName>,
        glue: Vec<(DomainName, Ipv4Addr)>,
    }

    /// `name` in the wire form a reply writes.
    fn w(name: &DomainName) -> WireName {
        name.into()
    }

    /// A registry as the reference answers: the delegations of its
    /// origin's children, and a referral (with glue) to the child a
    /// queried name lies under.
    struct Registry {
        origin: DomainName,
        children: HashMap<DomainName, RefDelegation>,
    }

    impl Registry {
        fn new(origin: &str) -> Registry {
            Registry {
                origin: DomainName::parse(origin).unwrap(),
                children: HashMap::new(),
            }
        }

        fn register(&mut self, child: DomainName, delegation: RefDelegation) {
            self.children.insert(child, delegation);
        }

        /// Writes the registry's answer to `q` into `reply`.
        fn refer(&self, q: QuestionRef<'_>, reply: &mut Reply<'_>) {
            let name = DomainName::parse(q.name).unwrap();
            if !name.is_within(&self.origin) {
                reply.set_rcode(Rcode::ServFail);
                return;
            }
            let mut child = name.clone();
            while child.num_labels() > self.origin.num_labels() + 1 {
                child = child.parent().unwrap();
            }
            match self.children.get(&child) {
                _ if name == self.origin => reply.set_authoritative(),
                Some(d) => {
                    for ns in &d.ns {
                        let (owner, ns) = (w(&child), w(ns));
                        reply.authority(owner.as_wire(), DEFAULT_TTL, RData::Ns(ns.as_wire()));
                    }
                    for (host, ip) in &d.glue {
                        reply.additional(w(host).as_wire(), DEFAULT_TTL, RData::A(*ip));
                    }
                }
                None => {
                    reply.set_authoritative();
                    reply.set_rcode(Rcode::NxDomain);
                }
            }
        }
    }

    /// The old per-site pool hash, kept apart from [`fnv1a`] so the
    /// reference does not share the code it checks.
    fn fnv_reference(s: &str) -> u32 {
        s.bytes()
            .fold(0x811c_9dc5, |h, b| (h ^ b as u32).wrapping_mul(0x0100_0193))
    }

    /// Sends `query` from `ep` to `dst` on the deployed network and
    /// checks the reply against the reference's bytes; returns the reply.
    fn same_reply(
        r: &Reference,
        ep: &mut Endpoint,
        rack: usize,
        dst: SockAddr,
        query: Vec<u8>,
        what: &str,
    ) -> Vec<u8> {
        let want = r.reply(rack, dst, ep.addr().ip, &query);
        let mut got = Vec::new();
        ep.exchange(dst, &query, Duration::ZERO, &mut got)
            .expect("deployed address")
            .expect("inline reply");
        assert_eq!(got, want, "{what}");
        got
    }

    /// A query for `name`/`qtype`, written by the resolver's encoder.
    fn dns_query(name: &str, qtype: RecordType) -> Vec<u8> {
        let mut query = Vec::new();
        encode_query(&mut query, 7, &DomainName::parse(name).unwrap(), qtype);
        query
    }

    /// Every site's answers — A from two continents (a CDN site's behind
    /// its CNAME), NS, the root and registry referrals with glue, the TLS
    /// flight, and NXDOMAIN at a rack that does not serve it — plus every
    /// nameserver host's A and NS answers and the FormErr of a query
    /// without a question, written from the shared site index, equal the
    /// reference's answer from per-site tables byte for byte.
    fn assert_wire_equal(world: &World) {
        let dep = DeployedWorld::deploy(world, DeployConfig::default());
        assert_eq!(
            dep.num_racks() - 4,
            RACKS,
            "four registry groups, then the racks"
        );
        let r = Reference::build(world, &dep);
        let mut na = dep.vantage(Continent::NorthAmerica);
        let mut asia = dep.vantage(Continent::Asia);
        let n_providers = world.universe.providers.len() as u32;
        let ns_addr = |p: u32| SockAddr::new(dep.pools[p as usize].ns_addrs[0], DNS_PORT);
        let root = SockAddr::new(dep.roots[0], DNS_PORT);
        let mut cnames = 0;
        let mut nxdomains = 0;
        for site in &world.sites {
            let d = site.domain.as_str();
            let rack = site.dns as usize % RACKS;
            for ep in [&mut na, &mut asia] {
                let reply = same_reply(
                    &r,
                    ep,
                    rack,
                    ns_addr(site.dns),
                    dns_query(d, RecordType::A),
                    d,
                );
                cnames += MessageView::parse(&reply)
                    .unwrap()
                    .answers()
                    .filter(|a| a.data.record_type() == RecordType::Cname)
                    .count();
            }
            same_reply(
                &r,
                &mut na,
                rack,
                ns_addr(site.dns),
                dns_query(d, RecordType::Ns),
                d,
            );
            same_reply(&r, &mut na, 0, root, dns_query(d, RecordType::A), d);
            let registry = SockAddr::new(r.registry_of[&site.tld], DNS_PORT);
            same_reply(&r, &mut na, 0, registry, dns_query(d, RecordType::A), d);

            // A rack that does not run the site's DNS denies it.
            let other = (site.dns + 1) % n_providers;
            let reply = same_reply(
                &r,
                &mut na,
                other as usize % RACKS,
                ns_addr(other),
                dns_query(d, RecordType::A),
                d,
            );
            nxdomains += (MessageView::parse(&reply).unwrap().rcode() == Rcode::NxDomain) as usize;

            let hosting = dep.pools[site.hosting as usize]
                .pools
                .iter()
                .find(|p| !p.is_empty())
                .unwrap();
            let mut hello = Vec::new();
            webdep_tls::handshake::encode_client_hello(&mut hello, 11, &site.domain);
            same_reply(
                &r,
                &mut na,
                site.hosting as usize % RACKS,
                SockAddr::new(hosting[0], TLS_PORT),
                hello,
                d,
            );
        }
        // Every nameserver host, at its own rack and at the next one.
        for (p, pools) in dep.pools.iter().enumerate() {
            let p = p as u32;
            let next = (p + 1) % n_providers;
            for (i, _) in pools.ns_addrs.iter().enumerate() {
                let host = format!("ns{}.{}.net", i + 1, world.universe.provider(p).slug());
                let asked = [
                    (p, RecordType::A),
                    (p, RecordType::Ns),
                    (next, RecordType::A),
                ];
                for (at, qtype) in asked {
                    let rack = at as usize % RACKS;
                    same_reply(
                        &r,
                        &mut asia,
                        rack,
                        ns_addr(at),
                        dns_query(&host, qtype),
                        &host,
                    );
                }
            }
        }
        // A query without a question is FormErr at a rack, a registry and
        // the root alike.
        // The header alone: id 9, no flag, every count 0.
        let empty = [0, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];
        let registry = SockAddr::new(r.registry_of[&world.sites[0].tld], DNS_PORT);
        for dst in [ns_addr(0), registry, root] {
            let reply = same_reply(&r, &mut na, 0, dst, empty.to_vec(), "no question");
            assert_eq!(MessageView::parse(&reply).unwrap().rcode(), Rcode::FormErr);
        }
        assert!(cnames > 0, "CDN sites answer with CNAMEs");
        assert_eq!(
            nxdomains,
            world.sites.len(),
            "the wrong rack answers NXDOMAIN"
        );
    }

    #[test]
    fn every_site_answers_as_its_per_site_tables_did() {
        assert_wire_equal(&World::generate(WorldConfig::tiny()));
    }

    /// A site on `.net` named like a provider's infrastructure domain: the
    /// registry still refers the name to the provider, as it did when the
    /// provider's delegation overwrote the site's.
    #[test]
    fn provider_slug_wins_over_a_net_site() {
        let mut wc = WorldConfig::tiny();
        wc.sites_per_country = 60;
        wc.global_pool_size = 300;
        let mut world = World::generate(wc);
        let net = world.universe.tld_by_label("net").expect(".net is a TLD");
        let cf = world.universe.provider_by_name("Cloudflare").unwrap();
        let slug = format!("{}.net", world.universe.provider(cf).slug());
        let site = world.sites.iter_mut().find(|s| s.dns != cf).unwrap();
        site.domain = slug.clone();
        site.tld = net;
        assert_wire_equal(&world);

        let dep = DeployedWorld::deploy(&world, DeployConfig::default());
        let r = Reference::build(&world, &dep);
        let mut ep = dep.vantage(Continent::Europe);
        let registry = SockAddr::new(r.registry_of[&net], DNS_PORT);
        let query = dns_query(&slug, RecordType::A);
        let mut reply = Vec::new();
        let reply = ep.exchange(registry, &query, Duration::ZERO, &mut reply);
        let referral = MessageView::parse(reply.unwrap().unwrap()).unwrap();
        let cf_ns = format!("ns1.{slug}");
        let first = referral.authorities().next().expect("a referral");
        assert!(
            matches!(first.data, RData::Ns(ns) if ns.eq_str(&cf_ns)),
            "{first:?}"
        );
    }

    #[test]
    fn the_site_index_finds_every_domain_and_no_other_name() {
        let world = World::generate(WorldConfig::tiny());
        let index = SiteIndex::build(&world);
        for (i, site) in world.sites.iter().enumerate() {
            let (idx, row) = index.find(&site.domain).expect("a deployed site");
            assert_eq!((idx as usize, row.dns), (i, site.dns), "{}", site.domain);
        }
        // Names beside the generated ones: domains of every ninth site with
        // a label added, a byte added or the last byte dropped, then
        // numbered names.
        let near = (world.sites.iter().step_by(9)).flat_map(|s| {
            let d = &s.domain;
            [
                format!("www.{d}"),
                format!("{d}x"),
                d[..d.len() - 1].to_owned(),
            ]
        });
        let numbered = (0..10_000).map(|i| format!("site-{i}.invalid"));
        let taken: std::collections::HashSet<&str> =
            world.sites.iter().map(|s| s.domain.as_str()).collect();
        let others: Vec<String> = (near.chain(numbered))
            .filter(|name| !taken.contains(name.as_str()))
            .take(10_000)
            .collect();
        assert_eq!(others.len(), 10_000);
        for name in &others {
            assert!(index.find(name).is_none(), "{name}");
        }
    }

    #[test]
    fn unknown_domain_is_nxdomain() {
        let (_world, dep) = deployed();
        let vantage = dep.vantage(Continent::NorthAmerica);
        let mut resolver =
            IterativeResolver::new(vantage, dep.roots.clone(), ResolverConfig::default());
        let name = webdep_dns::DomainName::parse("definitely-not-generated.com").unwrap();
        let err = resolver.resolve_a(&name).unwrap_err();
        assert!(matches!(
            err,
            webdep_dns::resolver::ResolveError::NxDomain(_)
        ));
    }
}

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

use crate::country::{Continent, CountryRecord};
use crate::world::World;
use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use webdep_dns::bigzone::{Delegation, DelegationTable, HostTable};
use webdep_dns::name::DomainName;
use webdep_dns::wire as dnswire;
use webdep_dns::{serve_query, DNS_PORT};
use webdep_geodb::{
    AnycastSet, AsOrgDb, CaOwner, CaOwnerDb, GeoDb, GeoDbBuilder, OrgRecord, PrefixTable,
};
use webdep_netsim::{
    Datagram, Endpoint, FaultPlan, FaultedReply, NetConfig, Network, Prefix, Region, ResponderSet,
};
use webdep_tls::cert::Certificate;
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
    /// to every non-protected server address — service ports only, so
    /// replies to vantage endpoints are never eaten (see
    /// [`FaultPlan::black_holes`]); per-query flaky faults apply only at
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

/// Per-site record a DNS rack answers from.
struct SiteDnsEntry {
    hosting_provider: u32,
    /// Stable per-site hash selecting an IP within the pool.
    hash: u32,
}

/// CNAME edge host name for a CDN-served site
/// (`e<hash>.<provider-slug>.net`, the real-world `*.cdn.example.net`
/// pattern).
fn edge_name(slug: &str, hash: u32) -> DomainName {
    DomainName::parse(&format!("e{}.{slug}.net", hash % 64)).expect("edge names are valid")
}

/// A hosting/DNS rack's data.
struct RackData {
    /// Site domain → DNS answer recipe (sites whose *DNS provider* lives
    /// on this rack).
    site_a: HashMap<DomainName, SiteDnsEntry>,
    /// Domain → NS host names.
    site_ns: HashMap<DomainName, Vec<DomainName>>,
    /// Nameserver / infrastructure host A records.
    host_a: HostTable,
    /// SNI → leaf certificate (sites *hosted* on this rack).
    leaf_by_sni: HashMap<String, Certificate>,
    /// Shared CA (intermediate, root) certs, indexed by CA id.
    ca_certs: Arc<Vec<(Certificate, Certificate)>>,
    /// Shared provider pools for GeoDNS answers.
    pools: Arc<Vec<ProviderPools>>,
    /// Whether each provider is a CDN (GeoDNS) provider.
    provider_cdn: Arc<Vec<bool>>,
    /// Provider slugs (for CDN CNAME edge names).
    provider_slug: Arc<Vec<String>>,
    /// Eyeball prefixes for querier-continent detection.
    eyeballs: [Prefix; 6],
    /// Active fault plan for this deployment (authoritative tier only).
    faults: Option<Arc<FaultPlan>>,
}

impl RackData {
    fn querier_continent(&self, src: Ipv4Addr) -> usize {
        for (i, p) in self.eyeballs.iter().enumerate() {
            if p.contains(src) {
                return i;
            }
        }
        0 // default: North America (the paper's Stanford vantage)
    }

    fn serving_ip(&self, provider: u32, hash: u32, querier_cont: usize) -> Option<Ipv4Addr> {
        let pools = &self.pools[provider as usize].pools;
        let pool = if self.provider_cdn[provider as usize] && !pools[querier_cont].is_empty() {
            &pools[querier_cont]
        } else {
            // Non-CDN providers serve from their (single) home pool.
            pools.iter().find(|p| !p.is_empty())?
        };
        pool.get(hash as usize % pool.len()).copied()
    }

    /// Answers a DNS query; the response reuses the query's question
    /// section.
    fn respond_dns(&self, query: dnswire::Message, src: Ipv4Addr) -> dnswire::Message {
        let Some(q) = query.questions.first() else {
            return query.into_response(); // `serve_query` answers these itself
        };
        let answers = match q.qtype {
            dnswire::RecordType::A => self.site_answers(&q.name, src),
            dnswire::RecordType::Ns => self.site_ns.get_key_value(&q.name).map(|(owner, ns)| {
                ns.iter()
                    .map(|n| dnswire::Record {
                        name: owner.clone(),
                        ttl: 3600,
                        data: dnswire::RecordData::Ns(n.clone()),
                    })
                    .collect()
            }),
            dnswire::RecordType::Cname => None,
        };
        if answers.is_none() && q.qtype == dnswire::RecordType::A {
            // Infrastructure hosts (nameservers).
            let host_resp = self.host_a.respond(&query);
            if !host_resp.answers.is_empty() {
                return host_resp;
            }
        }
        let nxdomain = answers.is_none()
            && !self.site_a.contains_key(&q.name)
            && !self.site_ns.contains_key(&q.name);
        let mut resp = query.into_response();
        resp.authoritative = true;
        // No answers for a known name is NoData.
        resp.answers = answers.unwrap_or_default();
        if nxdomain {
            resp.rcode = dnswire::Rcode::NxDomain;
        }
        resp
    }

    /// A site's A answer: its serving address from the querier's
    /// continent, behind a CNAME to the provider's edge host for CDN sites.
    fn site_answers(&self, name: &DomainName, src: Ipv4Addr) -> Option<Vec<dnswire::Record>> {
        let (owner, entry) = self.site_a.get_key_value(name)?;
        let cont = self.querier_continent(src);
        let ip = self.serving_ip(entry.hosting_provider, entry.hash, cont)?;
        let a = |name| dnswire::Record {
            name,
            ttl: 300,
            data: dnswire::RecordData::A(ip),
        };
        Some(if self.provider_cdn[entry.hosting_provider as usize] {
            // CDN sites answer like the real thing: a CNAME to the
            // provider's edge host plus its address, exercising the
            // resolver's CNAME path.
            let edge = edge_name(
                &self.provider_slug[entry.hosting_provider as usize],
                entry.hash,
            );
            vec![
                dnswire::Record {
                    name: owner.clone(),
                    ttl: 300,
                    data: dnswire::RecordData::Cname(edge.clone()),
                },
                a(edge),
            ]
        } else {
            vec![a(owner.clone())]
        })
    }

    /// The chain presented for `sni`, leaf first: the site's leaf, then
    /// its CA's intermediate and root.
    fn chain_for(&self, sni: &str) -> Option<[&Certificate; 3]> {
        // Scanners send the domain as measured, which is already lowercase.
        let leaf = if sni.bytes().any(|b| b.is_ascii_uppercase()) {
            self.leaf_by_sni.get(&sni.to_ascii_lowercase())
        } else {
            self.leaf_by_sni.get(sni)
        }?;
        let (inter, root) = &self.ca_certs[leaf_ca_index(leaf)];
        Some([leaf, inter, root])
    }
}

/// CA index is encoded in the issuing cert id (see `Universe::build`).
fn leaf_ca_index(leaf: &Certificate) -> usize {
    (leaf.issuer_id - 100_000) as usize
}

/// One rack answer: DNS on port 53, TLS on 443, through the same serving
/// functions as every simulated server. Pure in the rack data, so it runs
/// inline on whichever querier thread sent the datagram. Any active fault
/// plan is applied to the ready answer, keyed on the server address the
/// query was sent to.
fn rack_respond(data: &RackData, dgram: &Datagram) -> FaultedReply {
    let faults = data.faults.as_deref();
    match dgram.dst.port {
        DNS_PORT => serve_query(&dgram.payload, dgram.dst.ip, faults, |query| {
            data.respond_dns(query, dgram.src.ip)
        }),
        TLS_PORT => serve_hello(&dgram.payload, dgram.dst.ip, faults, |sni| {
            data.chain_for(sni)
        }),
        _ => FaultedReply::swallowed(),
    }
}

/// One registry (or root) answer: the delegation table keyed by the server
/// IP the query was addressed to.
fn registry_respond(tables: &HashMap<Ipv4Addr, DelegationTable>, dgram: &Datagram) -> FaultedReply {
    match tables.get(&dgram.dst.ip) {
        Some(table) if dgram.dst.port == DNS_PORT => {
            serve_query(&dgram.payload, dgram.dst.ip, None, |query| {
                table.respond(query)
            })
        }
        _ => FaultedReply::swallowed(),
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
        let provider_cdn = Arc::new(
            universe
                .providers
                .iter()
                .map(|p| p.cdn)
                .collect::<Vec<bool>>(),
        );
        let provider_slug = Arc::new(
            universe
                .providers
                .iter()
                .map(|p| p.slug())
                .collect::<Vec<String>>(),
        );

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
        let ca_certs = Arc::new(ca_certs);

        // ---- Rack data ----
        let n_racks = config.racks.max(1);
        let rack_of = |provider: u32| (provider as usize) % n_racks;
        let mut rack_data: Vec<RackData> = (0..n_racks)
            .map(|_| RackData {
                site_a: HashMap::new(),
                site_ns: HashMap::new(),
                host_a: HostTable::new(),
                leaf_by_sni: HashMap::new(),
                ca_certs: Arc::clone(&ca_certs),
                pools: Arc::clone(&pools),
                provider_cdn: Arc::clone(&provider_cdn),
                provider_slug: Arc::clone(&provider_slug),
                eyeballs: eyeball_prefixes,
                faults: faults.clone(),
            })
            .collect();

        // Nameserver host names per provider.
        let ns_names: Vec<Vec<DomainName>> = universe
            .providers
            .iter()
            .map(|p| {
                let slug = p.slug();
                pools[p.id as usize]
                    .ns_addrs
                    .iter()
                    .enumerate()
                    .map(|(i, _)| {
                        DomainName::parse(&format!("ns{}.{}.net", i + 1, slug))
                            .expect("slug names are valid")
                    })
                    .collect()
            })
            .collect();

        // Install nameserver A records on each DNS provider's rack.
        for p in &universe.providers {
            let rd = &mut rack_data[rack_of(p.id)];
            for (name, addr) in ns_names[p.id as usize]
                .iter()
                .zip(&pools[p.id as usize].ns_addrs)
            {
                rd.host_a.add_a(name.clone(), *addr);
            }
        }

        // Install sites: DNS data on the DNS provider's rack, TLS leaf on
        // the hosting provider's rack.
        // Ordered by TLD id: iteration order assigns the registry addresses.
        let mut tld_tables: BTreeMap<u32, DelegationTable> = BTreeMap::new();
        for (site_idx, site) in world.sites.iter().enumerate() {
            let domain = DomainName::parse(&site.domain).expect("generated names are valid");
            let dns_rack = rack_of(site.dns);
            let hash = fxhash(&site.domain);
            rack_data[dns_rack].site_a.insert(
                domain.clone(),
                SiteDnsEntry {
                    hosting_provider: site.hosting,
                    hash,
                },
            );
            rack_data[dns_rack]
                .site_ns
                .insert(domain.clone(), ns_names[site.dns as usize].clone());

            // TLS leaf on the hosting rack.
            let ca = universe.ca(site.ca);
            let leaf = Certificate {
                serial: 1_000_000 + site_idx as u64,
                subject: site.domain.clone(),
                san: vec![site.domain.clone()],
                issuer_id: ca.issuing_cert_id,
                issuer_name: format!("{} Issuing CA", ca.name),
                not_before: 0,
                not_after: u64::MAX,
                is_ca: false,
            };
            rack_data[rack_of(site.hosting)]
                .leaf_by_sni
                .insert(site.domain.to_ascii_lowercase(), leaf);

            // Registry delegation.
            let table = tld_tables.entry(site.tld).or_insert_with(|| {
                let label = &universe.tld(site.tld).label;
                DelegationTable::new(DomainName::parse(label).expect("tld label"))
            });
            let glue: Vec<(DomainName, Ipv4Addr)> = ns_names[site.dns as usize]
                .iter()
                .cloned()
                .zip(pools[site.dns as usize].ns_addrs.iter().copied())
                .collect();
            table.register(
                domain,
                Delegation {
                    ns: ns_names[site.dns as usize].clone(),
                    glue,
                },
            );
        }

        // Register provider infrastructure domains (<slug>.net) so glueless
        // paths still resolve.
        if let Some(net_tld) = universe.tld_by_label("net") {
            let table = tld_tables.entry(net_tld).or_insert_with(|| {
                DelegationTable::new(DomainName::parse("net").expect("tld label"))
            });
            for p in &universe.providers {
                let slug_domain =
                    DomainName::parse(&format!("{}.net", p.slug())).expect("slug names are valid");
                let glue: Vec<(DomainName, Ipv4Addr)> = ns_names[p.id as usize]
                    .iter()
                    .cloned()
                    .zip(pools[p.id as usize].ns_addrs.iter().copied())
                    .collect();
                table.register(
                    slug_domain,
                    Delegation {
                        ns: ns_names[p.id as usize].clone(),
                        glue,
                    },
                );
            }
        }

        // ---- Registry racks ----
        // TLD server IPs: 192.5.<i/250>.<i%250+1>. The root is one more
        // delegation table (origin `.`), referring each TLD to its registry.
        let mut root = DelegationTable::new(DomainName::root());
        let registry_groups = 4usize;
        let mut registry_tables: Vec<HashMap<Ipv4Addr, DelegationTable>> =
            vec![HashMap::new(); registry_groups];
        for (gi, (tld_id, table)) in tld_tables.into_iter().enumerate() {
            let i = gi as u32;
            let ip = Ipv4Addr::new(192, 5, (i / 250) as u8, (i % 250 + 1) as u8);
            let label = &universe.tld(tld_id).label;
            let ns_host =
                DomainName::parse(&format!("ns.{label}-registry.net")).expect("registry host");
            root.register(
                DomainName::parse(label).expect("tld label"),
                Delegation {
                    ns: vec![ns_host.clone()],
                    glue: vec![(ns_host, ip)],
                },
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
            let set = ResponderSet::new(&network, move |d: &Datagram| registry_respond(&tables, d));
            for ip in ips {
                set.attach(ip, DNS_PORT, Region::NORTH_AMERICA)
                    .expect("registry address free");
            }
            responders.push(set);
        }

        // ---- Hosting racks ----
        for (ri, data) in rack_data.into_iter().enumerate() {
            let set = ResponderSet::new(&network, move |d: &Datagram| rack_respond(&data, d));
            // Attach every address of every provider on this rack.
            for p in &universe.providers {
                if rack_of(p.id) != ri {
                    continue;
                }
                let pp = &pools[p.id as usize];
                for (ci, pool) in pp.pools.iter().enumerate() {
                    let region = CONT_ORDER[ci].region();
                    for &ip in pool {
                        if p.anycast {
                            // Anycast pools share addresses across
                            // continents; attach each once per region.
                            let _ = set.attach_anycast(ip, TLS_PORT, region);
                            let _ = set.attach_anycast(ip, DNS_PORT, region);
                        } else {
                            set.attach(ip, TLS_PORT, region)
                                .expect("address plan is collision-free");
                            set.attach(ip, DNS_PORT, region)
                                .expect("address plan is collision-free");
                        }
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

    /// Binds a fresh vantage-point endpoint in `continent`'s eyeball
    /// prefix. Each call gets a unique address.
    pub fn vantage(&self, continent: Continent) -> Endpoint {
        let ci = cont_index(continent);
        let n = self.vantage_counters[ci].fetch_add(1, Ordering::Relaxed);
        let ip = self.eyeball_prefixes[ci]
            .nth(n as u64)
            .expect("eyeball prefix exhausted");
        self.network
            .bind(ip, 33000, continent.region())
            .expect("vantage addresses are unique")
    }

    /// Number of serving racks (registries + hosting).
    pub fn num_racks(&self) -> usize {
        self.responders.len()
    }
}

/// FxHash-style string hash for stable IP selection.
fn fxhash(s: &str) -> u32 {
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
    use std::time::Duration;
    use webdep_dns::resolver::{IterativeResolver, ResolverConfig};
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
        // Raw stub query so the CNAME is visible (the iterative resolver
        // collapses it).
        let vantage = dep.vantage(Continent::NorthAmerica);
        let mut resolver =
            IterativeResolver::new(vantage, dep.roots.clone(), ResolverConfig::default());
        let name = webdep_dns::DomainName::parse(&site.domain).unwrap();
        let data = resolver
            .resolve(&name, webdep_dns::wire::RecordType::A, 0)
            .expect("resolves");
        assert!(
            data.iter()
                .any(|d| matches!(d, webdep_dns::wire::RecordData::A(_))),
            "terminal A records present"
        );
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

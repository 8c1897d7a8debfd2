//! Replay of the per-site measurement on a seeded sample of sites, on one
//! thread, making the same public calls the pipeline makes per site:
//! `DomainName::parse`, `IterativeResolver::resolve_a` / `resolve_ns`, the
//! `PrefixTable` / `AsOrgDb` / `GeoDb` / `AnycastSet` / `CaOwnerDb`
//! lookups, `Scanner::scan`, and `ChunkStoreWriter::commit`. Untraced it
//! gives per-site latency; traced, every call is a span, so each layer's
//! share of a site can be attributed.

use crate::load::Rng;
use crate::trace::{span, timed};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use webdep_dns::{DomainName, IterativeResolver, ResolverConfig, ResolverStats, SharedDnsCache};
use webdep_pipeline::{ChunkStoreWriter, SiteObservation, DEFAULT_CHUNK_SITES};
use webdep_tls::{Scanner, ScannerConfig};
use webdep_webgen::{Continent, DeployedWorld, World};

/// A replay in progress: a resolver (with a delegation cache of its own),
/// scanner and chunk writer, walking a seeded permutation of the world's
/// sites. It runs on one thread, so its counts repeat exactly for a seed.
pub struct Replayer<'w> {
    world: &'w World,
    dep: &'w DeployedWorld,
    sample: Vec<usize>,
    next: usize,
    resolver: IterativeResolver,
    scanner: Scanner,
    writer: Option<ChunkStoreWriter>,
}

impl<'w> Replayer<'w> {
    /// Prepares to replay `warm + timed` distinct seeded-sampled sites and
    /// replays the `warm` ones untimed, filling the resolver's delegation
    /// cache as a running pipeline's is.
    pub fn new(
        world: &'w World,
        dep: &'w DeployedWorld,
        seed: u64,
        warm: usize,
        timed: usize,
        store_dir: &Path,
    ) -> std::io::Result<Self> {
        let mut sample: Vec<usize> = (0..world.sites.len()).collect();
        Rng::new(seed, "replay.sites").shuffle(&mut sample);
        sample.truncate(warm + timed);
        let endpoint = dep.vantage(Continent::NorthAmerica);
        let mut replayer = Replayer {
            world,
            dep,
            writer: Some(ChunkStoreWriter::create(
                store_dir,
                &world.label,
                sample.len(),
                DEFAULT_CHUNK_SITES,
            )?),
            sample,
            next: 0,
            resolver: IterativeResolver::with_shared_cache(
                endpoint,
                dep.roots.clone(),
                ResolverConfig::default(),
                Arc::new(SharedDnsCache::new()),
            ),
            scanner: Scanner::new(
                dep.vantage(Continent::NorthAmerica),
                ScannerConfig::default(),
            ),
        };
        replayer.window(warm)?;
        Ok(replayer)
    }

    /// The resolver's counters so far (warm-up included). Single-threaded
    /// over a seeded sample, so they repeat exactly for a seed.
    pub fn resolver_stats(&self) -> ResolverStats {
        self.resolver.stats()
    }

    /// Sites replayed so far (warm-up included).
    pub fn replayed(&self) -> usize {
        self.next
    }

    /// Sites not yet replayed.
    pub fn remaining(&self) -> usize {
        self.sample.len() - self.next
    }

    /// Replays the next `n` sites (fewer at the end) and returns each
    /// one's latency in ms. The writer is finished with the last site.
    pub fn window(&mut self, n: usize) -> std::io::Result<Vec<f64>> {
        let end = (self.next + n).min(self.sample.len());
        let mut site_ms = Vec::with_capacity(end - self.next);
        for k in self.next..end {
            let i = self.sample[k];
            let t0 = Instant::now();
            let site = span("replay.site", 0, i as u64);
            let obs = measure_site(
                self.world,
                self.dep,
                i,
                &mut self.resolver,
                &mut self.scanner,
                site.id(),
            );
            let writer = self
                .writer
                .as_mut()
                .expect("writer open until the last site");
            timed("pipeline.chunk_commit", site.id(), i as u64, || {
                writer.commit(k, &obs)
            })?;
            drop(site);
            site_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        self.next = end;
        if self.remaining() == 0 {
            if let Some(w) = self.writer.take() {
                w.finish()?;
            }
        }
        Ok(site_ms)
    }
}

/// One site's resolve → enrich → scan, as the pipeline does it.
fn measure_site(
    world: &World,
    dep: &DeployedWorld,
    i: usize,
    resolver: &mut IterativeResolver,
    scanner: &mut Scanner,
    parent: u32,
) -> SiteObservation {
    let req = i as u64;
    let site = &world.sites[i];
    let mut obs = SiteObservation::blank(&site.domain, &site.language);
    let Ok(name) = timed("dns.parse", parent, req, || DomainName::parse(&site.domain)) else {
        return obs;
    };
    let enrich = |obs_ip: std::net::Ipv4Addr| {
        timed("geodb.enrich", parent, req, || {
            let asn = dep.pfx2as.lookup(obs_ip).map(|(&asn, _)| asn);
            let org = asn
                .and_then(|a| dep.asorg.org_of_asn(a))
                .map(|o| (o.org_id, o.country.clone()));
            let geo = dep.geodb.country_of(obs_ip).map(str::to_string);
            let anycast = dep.anycast.contains(obs_ip);
            (asn, org, geo, anycast)
        })
    };
    if let Ok(addrs) = timed("dns.resolve_a", parent, req, || resolver.resolve_a(&name)) {
        if let Some(&ip) = addrs.first() {
            let (asn, org, geo, anycast) = enrich(ip);
            obs.hosting_ip = Some(ip);
            obs.hosting_asn = asn;
            obs.hosting_org = org.as_ref().map(|o| o.0);
            obs.hosting_org_country = org.map(|o| o.1);
            obs.hosting_ip_country = geo;
            obs.hosting_anycast = anycast;
        }
    }
    if let Ok(ns_names) = timed("dns.resolve_ns", parent, req, || resolver.resolve_ns(&name)) {
        obs.ns_names = ns_names.iter().map(|n| n.to_string()).collect();
        let ip = ns_names.iter().find_map(|ns| {
            timed("dns.resolve_a", parent, req, || resolver.resolve_a(ns))
                .ok()
                .and_then(|a| a.first().copied())
        });
        if let Some(ip) = ip {
            let (asn, org, geo, anycast) = enrich(ip);
            obs.dns_ip = Some(ip);
            obs.dns_asn = asn;
            obs.dns_org = org.as_ref().map(|o| o.0);
            obs.dns_org_country = org.map(|o| o.1);
            obs.dns_ip_country = geo;
            obs.dns_anycast = anycast;
        }
    }
    if let Some(ip) = obs.hosting_ip {
        if let Ok(chain) = timed("tls.scan", parent, req, || scanner.scan(ip, &site.domain)) {
            if let Some(leaf) = chain.leaf() {
                let owner = timed("geodb.enrich", parent, req, || {
                    dep.caodb
                        .owner_of_issuer(leaf.issuer_id)
                        .map(|o| (o.owner_id, o.country.clone()))
                });
                obs.ca_owner = owner.as_ref().map(|o| o.0);
                obs.ca_owner_country = owner.map(|o| o.1);
            }
        }
    }
    obs.derive_error_summary();
    obs
}

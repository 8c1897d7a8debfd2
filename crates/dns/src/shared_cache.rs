//! Process-wide cache of the root's delegations, shared by every resolver
//! in a measurement run.
//!
//! The pipeline spawns one [`crate::IterativeResolver`] per worker, each
//! with a private delegation/answer cache. Without a shared tier every
//! worker would walk the root on its own for each top-level domain: with
//! `w` workers the root would see roughly `w`× the referrals a single
//! resolver asks for. The [`SharedDnsCache`] holds exactly what those
//! walks learn — the zone cuts the root's referrals hand out (the TLDs)
//! — and nothing deeper: answers and zones below a TLD are specific to
//! the sites that asked for them, and a census of a whole run found no
//! later lookup that read one from another worker. A resolver publishes a
//! cut here only when the referral came from the root servers, and
//! consults this tier only when its private cache holds no cut below the
//! root for the name, promoting a hit into its private cache.
//!
//! The map holds one entry per TLD, so it is small, almost only read, and
//! read only on a worker's first lookup under each TLD: one `RwLock` is
//! all it needs.

use crate::name::DomainName;
use parking_lot::RwLock;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use webdep_netsim::KeyedMap;

/// Running hit/miss counters for a [`SharedDnsCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharedCacheStats {
    /// Lookups answered from the shared tier.
    pub hits: u64,
    /// Lookups that fell through to the wire.
    pub misses: u64,
}

/// The root's delegations (zone cut -> nameserver addresses), shared
/// across resolvers.
///
/// Thread-safe; intended to be wrapped in an `Arc` and handed to each
/// worker's resolver via
/// [`crate::IterativeResolver::with_shared_cache`].
#[derive(Default)]
pub struct SharedDnsCache {
    zones: RwLock<KeyedMap<DomainName, Arc<[Ipv4Addr]>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl SharedDnsCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cached authoritative addresses for the zone named `zone` (its
    /// presentation form), if any.
    pub fn get_zone(&self, zone: &str) -> Option<Arc<[Ipv4Addr]>> {
        let hit = self.zones.read().get(zone).cloned();
        let counter = if hit.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        hit
    }

    /// Records the authoritative addresses for `zone`, a cut the root
    /// delegates.
    pub fn put_zone(&self, zone: DomainName, addrs: Arc<[Ipv4Addr]>) {
        self.zones.write().insert(zone, addrs);
    }

    /// Hit/miss counters accumulated since construction.
    pub fn stats(&self) -> SharedCacheStats {
        SharedCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    #[test]
    fn zone_roundtrip() {
        let cache = SharedDnsCache::new();
        assert_eq!(cache.get_zone("com"), None);
        cache.put_zone(n("com"), Arc::from([Ipv4Addr::new(192, 5, 6, 30)]));
        assert_eq!(
            cache.get_zone("com").as_deref(),
            Some(&[Ipv4Addr::new(192, 5, 6, 30)][..])
        );
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let cache = SharedDnsCache::new();
        let _ = cache.get_zone("org"); // miss
        cache.put_zone(n("org"), Arc::from([Ipv4Addr::new(199, 19, 56, 1)]));
        let _ = cache.get_zone("org"); // hit
        let _ = cache.get_zone("net"); // miss
        assert_eq!(cache.stats(), SharedCacheStats { hits: 1, misses: 2 });
    }

    #[test]
    fn concurrent_writers_and_readers() {
        let cache = SharedDnsCache::new();
        std::thread::scope(|s| {
            for t in 0..8u8 {
                let cache = &cache;
                s.spawn(move || {
                    for i in 0..50u8 {
                        let zone = format!("tld{t}x{i}");
                        cache.put_zone(n(&zone), Arc::from([Ipv4Addr::new(10, t, i, 1)]));
                        assert!(cache.get_zone(&zone).is_some());
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits, 8 * 50);
    }
}

//! Process-wide DNS cache shared by every resolver in a measurement run.
//!
//! The pipeline spawns one [`crate::IterativeResolver`] per worker, each
//! with a private delegation/answer cache. That means every worker re-walks
//! the root and TLD tier on its own: with `w` workers the delegation tier
//! sees roughly `w`× the wire queries a single resolver would send. The
//! [`SharedDnsCache`] sits *under* the per-resolver caches: lookups check
//! the private cache first, then this shared tier (promoting hits into the
//! private cache), and only then go to the wire. Writes go through to both.
//!
//! The cache is lock-striped: keys are spread over [`NUM_SHARDS`]
//! independent `RwLock`-protected maps so concurrent workers rarely contend
//! on the same lock, and readers never block each other at all.

use crate::name::DomainName;
use crate::wire::{RecordData, RecordType};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of independent lock stripes. A small power of two well above the
/// worker counts the pipeline uses keeps the collision probability low.
pub const NUM_SHARDS: usize = 16;

/// Answers for one name, one slot per record type. Nesting by name lets
/// lookups borrow the key instead of building `(name, type)` tuples, and
/// the fixed slots need no allocation of their own. Both cache tiers use it.
#[derive(Debug, Default)]
pub(crate) struct AnswerRows([Option<Vec<RecordData>>; 3]);

impl AnswerRows {
    fn slot(qtype: RecordType) -> usize {
        match qtype {
            RecordType::A => 0,
            RecordType::Ns => 1,
            RecordType::Cname => 2,
        }
    }

    /// The cached answer of type `qtype`, if any.
    pub(crate) fn get(&self, qtype: RecordType) -> Option<&[RecordData]> {
        self.0[Self::slot(qtype)].as_deref()
    }

    /// Stores `data` as `name`'s answer of type `qtype` in `map`, cloning
    /// the name only when it has no answers yet.
    pub(crate) fn put(
        map: &mut HashMap<DomainName, AnswerRows>,
        name: &DomainName,
        qtype: RecordType,
        data: Vec<RecordData>,
    ) {
        let rows = match map.get_mut(name) {
            Some(rows) => rows,
            None => map.entry(name.clone()).or_default(),
        };
        rows.0[Self::slot(qtype)] = Some(data);
    }
}

#[derive(Default)]
struct Shard {
    /// zone apex -> authoritative server addresses.
    zones: RwLock<HashMap<DomainName, Arc<[Ipv4Addr]>>>,
    /// completed answers by owner name, then record type.
    answers: RwLock<HashMap<DomainName, AnswerRows>>,
}

/// Running hit/miss counters for a [`SharedDnsCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharedCacheStats {
    /// Lookups answered from the shared tier.
    pub hits: u64,
    /// Lookups that fell through to the wire.
    pub misses: u64,
}

/// A lock-striped delegation + answer cache shared across resolvers.
///
/// Thread-safe; intended to be wrapped in an `Arc` and handed to each
/// worker's resolver via
/// [`crate::IterativeResolver::with_shared_cache`].
#[derive(Default)]
pub struct SharedDnsCache {
    shards: [Shard; NUM_SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
}

/// The shard of a name, from its presentation form (which hashes as the
/// `DomainName` does), so a borrowed suffix finds its zone's shard.
fn shard_index(name: &str) -> usize {
    let mut h = DefaultHasher::new();
    name.hash(&mut h);
    (h.finish() as usize) % NUM_SHARDS
}

impl SharedDnsCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cached authoritative addresses for the zone named `zone` (its
    /// presentation form, `""` for the root), if any.
    pub fn get_zone(&self, zone: &str) -> Option<Arc<[Ipv4Addr]>> {
        let shard = &self.shards[shard_index(zone)];
        let hit = shard.zones.read().get(zone).cloned();
        self.count(hit.is_some());
        hit
    }

    /// Records the authoritative addresses for `zone`.
    pub fn put_zone(&self, zone: DomainName, addrs: Arc<[Ipv4Addr]>) {
        let shard = &self.shards[shard_index(zone.as_str())];
        shard.zones.write().insert(zone, addrs);
    }

    /// Cached answer for `name`/`qtype`, if any.
    pub fn get_answer(&self, name: &DomainName, qtype: RecordType) -> Option<Vec<RecordData>> {
        let shard = &self.shards[shard_index(name.as_str())];
        let guard = shard.answers.read();
        let hit = guard
            .get(name)
            .and_then(|rows| rows.get(qtype))
            .map(<[RecordData]>::to_vec);
        drop(guard);
        self.count(hit.is_some());
        hit
    }

    /// Records a completed answer for `name`/`qtype`; the name is cloned
    /// only when it has no row yet.
    pub fn put_answer(&self, name: &DomainName, qtype: RecordType, data: Vec<RecordData>) {
        let shard = &self.shards[shard_index(name.as_str())];
        AnswerRows::put(&mut shard.answers.write(), name, qtype, data);
    }

    /// Hit/miss counters accumulated since construction.
    pub fn stats(&self) -> SharedCacheStats {
        SharedCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    fn count(&self, hit: bool) {
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
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
    fn answers_keyed_by_type() {
        let cache = SharedDnsCache::new();
        let name = n("example.com");
        cache.put_answer(
            &name,
            RecordType::A,
            vec![RecordData::A(Ipv4Addr::new(203, 0, 113, 10))],
        );
        cache.put_answer(
            &name,
            RecordType::Ns,
            vec![RecordData::Ns(n("ns1.example.com"))],
        );
        assert_eq!(
            cache.get_answer(&name, RecordType::A),
            Some(vec![RecordData::A(Ipv4Addr::new(203, 0, 113, 10))])
        );
        assert_eq!(
            cache.get_answer(&name, RecordType::Ns),
            Some(vec![RecordData::Ns(n("ns1.example.com"))])
        );
        assert_eq!(cache.get_answer(&name, RecordType::Cname), None);
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let cache = SharedDnsCache::new();
        let _ = cache.get_zone("org"); // miss
        cache.put_zone(n("org"), Arc::from([Ipv4Addr::new(199, 19, 56, 1)]));
        let _ = cache.get_zone("org"); // hit
        let _ = cache.get_answer(&n("example.org"), RecordType::A); // miss
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
                        let name = n(&format!("host{}.zone{}.test", i, t));
                        cache.put_answer(
                            &name,
                            RecordType::A,
                            vec![RecordData::A(Ipv4Addr::new(10, t, i, 1))],
                        );
                        assert!(cache.get_answer(&name, RecordType::A).is_some());
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits, 8 * 50);
    }
}

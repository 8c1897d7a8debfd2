//! Bounded, epoch-aware response cache with SIEVE eviction.
//!
//! Keys are `(epoch, canonical query key)` so entries built against an old
//! snapshot can never satisfy a request routed to a newer one: after a
//! publish, lookups carry the new epoch and simply miss.  Stale entries are
//! additionally purged eagerly via [`ResponseCache::purge_older`] so the
//! capacity budget is not wasted on unreachable epochs.
//!
//! The cache is sharded by key hash; each shard is an independent
//! `Mutex` over a map and its insertion order, so concurrent readers on
//! different keys rarely contend on the same lock.  Values are
//! `Arc<Vec<u8>>` rendered response bodies — a hit clones the `Arc`, never
//! the bytes.  A lookup hashes the borrowed key once, for the shard and
//! the shard's map together, and allocates nothing.
//!
//! Eviction is SIEVE (Zhang et al., NSDI '24).  A hit sets the entry's
//! visited bit and moves nothing.  To make room, a hand walks the
//! insertion order from the oldest entry toward the newest, wrapping
//! around: it clears each visited bit it passes and evicts the first
//! unvisited entry, then rests on that entry's newer neighbour.  New
//! entries go in at the newest end.  Keys read again before the hand comes
//! round stay resident, so a flood of one-hit keys cannot push out the
//! hot ones (a FIFO queue lets it), and unlike LRU a hit reorders nothing.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::sync::{Arc, Mutex};
use webdep_core::metrics::Counter;

const SHARDS: usize = 16;

/// Counters describing cache effectiveness since startup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to render the response.
    pub misses: u64,
    /// Entries dropped to stay within capacity.
    pub evictions: u64,
    /// Entries dropped because their epoch was superseded.
    pub stale_purged: u64,
    /// Entries currently resident.
    pub len: usize,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; `None` before the first lookup.
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        if total == 0 {
            None
        } else {
            Some(self.hits as f64 / total as f64)
        }
    }
}

/// Hashes a shard map's key, which is already the cache's keyed SipHash
/// of the whole `(epoch, key)`: the identity.
#[derive(Default)]
struct KeyHash(u64);

impl Hasher for KeyHash {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("shard maps are keyed by a u64 hash")
    }

    fn write_u64(&mut self, h: u64) {
        self.0 = h;
    }
}

struct Entry {
    epoch: u64,
    key: Box<str>,
    body: Arc<Vec<u8>>,
    /// Set by a hit, cleared when the hand passes.
    visited: bool,
}

/// One shard: entries by the 64-bit hash of `(epoch, key)`, their hashes
/// in insertion order (oldest first), and the SIEVE hand, a position in
/// that order. Two keys whose hashes collide cannot both be resident:
/// the second is not cached while the first is, and lookups compare the
/// whole key, so a collision costs a miss, never a wrong body.
#[derive(Default)]
struct Shard {
    map: HashMap<u64, Entry, BuildHasherDefault<KeyHash>>,
    order: VecDeque<u64>,
    hand: usize,
}

impl Shard {
    fn get(&mut self, h: u64, epoch: u64, key: &str) -> Option<Arc<Vec<u8>>> {
        let entry = self
            .map
            .get_mut(&h)
            .filter(|e| e.epoch == epoch && &*e.key == key)?;
        entry.visited = true;
        Some(Arc::clone(&entry.body))
    }

    /// Inserts unless the hash is resident, first evicting one entry if
    /// the shard holds `capacity`. Returns whether it evicted.
    fn insert(
        &mut self,
        h: u64,
        epoch: u64,
        key: &str,
        body: Arc<Vec<u8>>,
        capacity: usize,
    ) -> bool {
        if self.map.contains_key(&h) {
            return false;
        }
        let evicted = self.map.len() >= capacity && self.evict();
        self.order.push_back(h);
        self.map.insert(
            h,
            Entry {
                epoch,
                key: key.into(),
                body,
                visited: false,
            },
        );
        evicted
    }

    /// One SIEVE eviction; `false` when the shard is empty.
    fn evict(&mut self) -> bool {
        if self.order.is_empty() {
            return false;
        }
        loop {
            let h = self.order[self.hand];
            let entry = self
                .map
                .get_mut(&h)
                .expect("order and map hold the same keys");
            if entry.visited {
                entry.visited = false;
                self.hand += 1;
                self.wrap_hand();
            } else {
                // The newer neighbour slides into the hand's position.
                self.order.remove(self.hand);
                self.map.remove(&h);
                self.wrap_hand();
                return true;
            }
        }
    }

    /// Drops entries older than `epoch`, leaving the hand on the first
    /// survivor at or after its position. Returns the number dropped.
    fn purge_older(&mut self, epoch: u64) -> u64 {
        let before = self.map.len();
        self.map.retain(|_, e| e.epoch >= epoch);
        let map = &self.map;
        self.hand = self
            .order
            .iter()
            .take(self.hand)
            .filter(|h| map.contains_key(h))
            .count();
        self.order.retain(|h| map.contains_key(h));
        self.wrap_hand();
        (before - self.map.len()) as u64
    }

    /// A hand past the newest entry goes back to the oldest, before a
    /// later insert could land under it.
    fn wrap_hand(&mut self) {
        if self.hand >= self.order.len() {
            self.hand = 0;
        }
    }
}

/// Counter handles for the cache's four event streams. Pass handles
/// registered in a metrics registry (see `ServeMetrics::cache_counters`)
/// to expose them at `GET /metrics`; [`CacheCounters::default`] makes
/// unregistered, process-private ones.
///
/// Exactness contract (audited for the `/metrics` exporter): every update
/// is an atomic read-modify-write (`fetch_add`), so concurrent shard
/// access never loses increments — `hits + misses` equals the number of
/// `get` calls exactly, and `evictions`/`stale_purged` are incremented
/// under the owning shard's lock in the same critical section that
/// removes the entry. The one deliberate softness: `get` counts *after*
/// releasing the shard lock, so a scrape racing a lookup may see the
/// lookup's map effect before its counter tick (never the reverse of
/// exactness — totals converge the instant in-flight calls return).
#[derive(Clone, Default)]
pub struct CacheCounters {
    /// Lookups answered from the cache.
    pub hits: Counter,
    /// Lookups that had to render the response.
    pub misses: Counter,
    /// Entries dropped to stay within capacity.
    pub evictions: Counter,
    /// Entries dropped because their epoch was superseded.
    pub stale_purged: Counter,
}

/// Sharded `(epoch, canonical key) → rendered body` cache with SIEVE
/// eviction and a global capacity bound.
pub struct ResponseCache {
    shards: Vec<Mutex<Shard>>,
    capacity_per_shard: usize,
    counters: CacheCounters,
    /// Random per cache, so clients cannot craft keys that collide.
    hasher: RandomState,
}

impl ResponseCache {
    /// Creates a cache holding at most `capacity` entries (rounded up to a
    /// multiple of the shard count; minimum one entry per shard), with
    /// process-private counters.
    pub fn new(capacity: usize) -> Self {
        Self::with_counters(capacity, CacheCounters::default())
    }

    /// Like [`ResponseCache::new`], but counting into the given handles
    /// (typically registered in a metrics registry).
    pub fn with_counters(capacity: usize, counters: CacheCounters) -> Self {
        let capacity_per_shard = capacity.div_ceil(SHARDS).max(1);
        ResponseCache {
            shards: (0..SHARDS).map(|_| Mutex::default()).collect(),
            capacity_per_shard,
            counters,
            hasher: RandomState::new(),
        }
    }

    /// The key's hash and its shard. The shard takes bits the shard map
    /// does not: its bucket index comes from the low bits and its tag
    /// from the top seven.
    fn locate(&self, epoch: u64, key: &str) -> (u64, &Mutex<Shard>) {
        let h = self.hasher.hash_one((epoch, key));
        (h, &self.shards[(h >> 32) as usize % SHARDS])
    }

    /// Looks up a rendered body, counting a hit or a miss. A hit marks
    /// the entry visited.
    pub fn get(&self, epoch: u64, key: &str) -> Option<Arc<Vec<u8>>> {
        let (h, shard) = self.locate(epoch, key);
        let found = shard
            .lock()
            .expect("cache shard poisoned")
            .get(h, epoch, key);
        if found.is_some() {
            self.counters.hits.inc();
        } else {
            self.counters.misses.inc();
        }
        found
    }

    /// Inserts a rendered body, evicting by SIEVE if the shard is at
    /// capacity. Re-inserting an existing key is a no-op.
    pub fn insert(&self, epoch: u64, key: &str, body: Arc<Vec<u8>>) {
        let (h, shard) = self.locate(epoch, key);
        let mut guard = shard.lock().expect("cache shard poisoned");
        if guard.insert(h, epoch, key, body, self.capacity_per_shard) {
            self.counters.evictions.inc();
        }
    }

    /// Drops every entry whose epoch is older than `epoch`. Called on
    /// publish so superseded bodies release their memory immediately.
    pub fn purge_older(&self, epoch: u64) {
        for shard in &self.shards {
            let mut guard = shard.lock().expect("cache shard poisoned");
            let dropped = guard.purge_older(epoch);
            if dropped > 0 {
                self.counters.stale_purged.add(dropped);
            }
        }
    }

    /// Drops every entry (counters are preserved).
    pub fn clear(&self) {
        for shard in &self.shards {
            *shard.lock().expect("cache shard poisoned") = Shard::default();
        }
    }

    /// Current counters and resident entry count.
    pub fn stats(&self) -> CacheStats {
        let len = self
            .shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").map.len())
            .sum();
        CacheStats {
            hits: self.counters.hits.get(),
            misses: self.counters.misses.get(),
            evictions: self.counters.evictions.get(),
            stale_purged: self.counters.stale_purged.get(),
            len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(s: &str) -> Arc<Vec<u8>> {
        Arc::new(s.as_bytes().to_vec())
    }

    #[test]
    fn hit_and_miss_counting() {
        let cache = ResponseCache::new(64);
        assert!(cache.get(1, "a").is_none());
        cache.insert(1, "a", body("x"));
        assert_eq!(cache.get(1, "a").unwrap().as_slice(), b"x");
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.len, 1);
        assert_eq!(stats.hit_rate(), Some(0.5));
    }

    #[test]
    fn epoch_is_part_of_the_key() {
        let cache = ResponseCache::new(64);
        cache.insert(1, "a", body("old"));
        assert!(cache.get(2, "a").is_none(), "new epoch must miss");
        assert_eq!(cache.get(1, "a").unwrap().as_slice(), b"old");
    }

    #[test]
    fn purge_older_drops_stale_epochs_only() {
        let cache = ResponseCache::new(64);
        cache.insert(1, "a", body("old"));
        cache.insert(2, "a", body("new"));
        cache.purge_older(2);
        assert!(cache.get(1, "a").is_none());
        assert_eq!(cache.get(2, "a").unwrap().as_slice(), b"new");
        assert_eq!(cache.stats().stale_purged, 1);
    }

    #[test]
    fn capacity_is_bounded_with_sieve_eviction() {
        let cache = ResponseCache::new(16); // 1 entry per shard
        for i in 0..200 {
            cache.insert(1, &format!("k{i}"), body("v"));
        }
        let stats = cache.stats();
        assert!(stats.len <= 16, "len {} exceeds capacity", stats.len);
        assert!(stats.evictions >= 200 - 16);
    }

    /// Scan resistance: a hot key re-read between inserts survives a
    /// flood of one-hit keys through every shard. (A FIFO queue evicts
    /// it once its shard has taken four more keys.)
    #[test]
    fn hot_key_survives_a_flood_of_one_hit_keys() {
        let cache = ResponseCache::new(64); // 4 entries per shard
        cache.insert(1, "hot", body("h"));
        for i in 0..1_000 {
            cache.insert(1, &format!("cold{i}"), body("c"));
            assert!(
                cache.get(1, "hot").is_some(),
                "hot key evicted after {} one-hit inserts",
                i + 1
            );
        }
        let stats = cache.stats();
        assert_eq!(stats.len, 64);
        assert_eq!(stats.evictions, 1_001 - 64);
    }

    fn resident(shard: &mut Shard, h: u64, epoch: u64) -> bool {
        shard.get(h, epoch, &format!("k{h}")).is_some()
    }

    /// The hand walks oldest to newest, clears visited bits, evicts the
    /// first unvisited entry and rests on its newer neighbour.
    #[test]
    fn sieve_hand_spares_visited_entries() {
        let mut shard = Shard::default();
        for h in 1..=4 {
            assert!(!shard.insert(h, 1, &format!("k{h}"), body("v"), 4));
        }
        assert!(resident(&mut shard, 1, 1) && resident(&mut shard, 2, 1));
        // 1 and 2 are visited: the hand clears them and evicts 3.
        assert!(shard.insert(5, 1, "k5", body("v"), 4));
        assert_eq!(Vec::from(shard.order.clone()), [1, 2, 4, 5]);
        assert_eq!(shard.hand, 2, "the hand rests on 3's newer neighbour");
        // The hand is on 4, unvisited: it goes next.
        assert!(shard.insert(6, 1, "k6", body("v"), 4));
        assert_eq!(Vec::from(shard.order.clone()), [1, 2, 5, 6]);
        assert!(!resident(&mut shard, 4, 1));
    }

    /// `purge_older` with the hand on a purged entry leaves it on the next
    /// survivor, and eviction carries on from there.
    #[test]
    fn purge_older_moves_a_hand_off_purged_entries() {
        let mut shard = Shard::default();
        for (h, epoch) in [(1, 1), (2, 2), (3, 1), (4, 1)] {
            shard.insert(h, epoch, &format!("k{h}"), body("v"), 4);
        }
        assert!(resident(&mut shard, 1, 1) && resident(&mut shard, 2, 2));
        // Hand clears 1 and 2, evicts 3, rests on 4 (epoch 1).
        assert!(shard.insert(5, 2, "k5", body("v"), 4));
        assert_eq!(shard.hand, 2);
        assert_eq!(shard.purge_older(2), 2, "1 and 4 are stale");
        assert_eq!(Vec::from(shard.order.clone()), [2, 5]);
        assert_eq!(shard.hand, 1, "from purged 4 to its survivor 5");
        for h in [6, 7] {
            shard.insert(h, 2, &format!("k{h}"), body("v"), 4);
        }
        assert!(resident(&mut shard, 2, 2));
        // Hand on 5 (unvisited) evicts it; 2 was re-read and stays.
        assert!(shard.insert(8, 2, "k8", body("v"), 4));
        assert_eq!(Vec::from(shard.order.clone()), [2, 6, 7, 8]);

        // Late inserts from an old epoch land newest. 6 is re-read; the
        // hand clears it and evicts 7, then evicts 8 and rests on 9.
        assert!(resident(&mut shard, 6, 2));
        assert!(shard.insert(9, 1, "k9", body("v"), 4));
        assert!(shard.insert(10, 1, "k10", body("v"), 4));
        assert_eq!(Vec::from(shard.order.clone()), [2, 6, 9, 10]);
        assert_eq!(shard.hand, 2);
        // Purging 9 and 10 sends the hand back to the oldest entry, not
        // to where the next insert lands: 2 is still visited, 6 is not.
        assert_eq!(shard.purge_older(2), 2);
        assert_eq!(shard.hand, 0);
        shard.insert(11, 2, "k11", body("v"), 4);
        shard.insert(12, 2, "k12", body("v"), 4);
        assert!(shard.insert(13, 2, "k13", body("v"), 4));
        assert_eq!(Vec::from(shard.order.clone()), [2, 11, 12, 13]);
    }

    /// A key whose hash collides with a resident key's is not cached, and
    /// a lookup for it misses rather than returning the other body.
    #[test]
    fn hash_collisions_miss_never_alias() {
        let mut shard = Shard::default();
        shard.insert(7, 1, "a", body("a"), 4);
        assert!(!shard.insert(7, 1, "b", body("b"), 4));
        assert!(shard.get(7, 1, "b").is_none());
        assert!(shard.get(7, 2, "a").is_none());
        assert_eq!(shard.get(7, 1, "a").unwrap().as_slice(), b"a");
    }

    /// The exactness audit behind the `/metrics` exporter: hammer every
    /// operation from many threads and check the counters balance to the
    /// exact operation totals — a single lost increment (a non-atomic
    /// read-modify-write anywhere) fails the accounting identities.
    #[test]
    fn counters_are_exact_under_concurrent_shard_access() {
        const THREADS: u64 = 8;
        const OPS: u64 = 2_000;
        let cache = ResponseCache::new(32); // 2 entries/shard: constant eviction pressure
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let cache = &cache;
                s.spawn(move || {
                    for i in 0..OPS {
                        // Overlapping key ranges force cross-thread contention
                        // on the same shards.
                        let key = format!("k{}", (t * OPS / 2 + i) % 64);
                        if cache.get(1, &key).is_none() {
                            cache.insert(1, &key, body("v"));
                        }
                        if i % 128 == 0 {
                            cache.purge_older(1); // no-op epoch-wise, must not distort counts
                        }
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(
            stats.hits + stats.misses,
            THREADS * OPS,
            "lookup accounting lost increments: {stats:?}"
        );
        assert_eq!(stats.stale_purged, 0, "purge_older(1) dropped live entries");
        // Every insert either remains resident, was evicted, or was a
        // same-key no-op; evictions can never exceed misses (each miss is
        // the only path to an insert attempt).
        assert!(
            stats.evictions + (stats.len as u64) <= stats.misses,
            "eviction accounting inconsistent: {stats:?}"
        );
    }

    #[test]
    fn reinsert_same_key_keeps_first_body() {
        let cache = ResponseCache::new(64);
        cache.insert(1, "a", body("first"));
        cache.insert(1, "a", body("second"));
        assert_eq!(cache.get(1, "a").unwrap().as_slice(), b"first");
        assert_eq!(cache.stats().len, 1);
    }
}

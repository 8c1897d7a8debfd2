//! Binary trie with longest-prefix matching — the pfx2as data structure.

use std::net::Ipv4Addr;
use std::sync::OnceLock;
use webdep_netsim::Prefix;

/// A generic longest-prefix-match table over IPv4 prefixes.
///
/// Inserting a more specific prefix shadows the covering one, exactly like
/// routing-table semantics: `lookup` returns the value of the longest
/// matching prefix.
///
/// The prefixes are a binary trie stored flat: every node in one vector,
/// children by index, the values in a vector of their own. Lookups read a
/// table compiled from the trie on the first lookup after a change: the
/// address space cut into pieces, each with the longest prefix covering
/// all of it, and the pieces indexed by their top address bits, so a
/// lookup reads a bucket and the one or two pieces it holds rather than
/// walking up to 32 nodes.
#[derive(Debug, Clone)]
pub struct PrefixTable<V> {
    /// The root first. A child index of 0 is no child: the root is no
    /// node's child.
    nodes: Vec<Node>,
    values: Vec<V>,
    pieces: OnceLock<Pieces>,
}

#[derive(Debug, Clone)]
struct Node {
    /// The index of the node's value in `values`, [`NONE`] for none.
    value: u32,
    children: [u32; 2],
}

/// No value: of a node without one, or of a piece no prefix covers.
const NONE: u32 = u32::MAX;

/// The address space cut at every prefix boundary: piece `i` runs from
/// `starts[i]` up to the next start, and its longest covering prefix has
/// the value `hits[i].0` and is `hits[i].1` bits long. The first piece
/// starts at 0. `first[b]` is the piece holding the first address whose
/// top bits (the address shifted right by `shift`) are `b`, so the piece
/// of an address in bucket `b` is one of `first[b]..=first[b + 1]`.
#[derive(Debug, Clone, Default)]
struct Pieces {
    starts: Vec<u32>,
    hits: Vec<(u32, u8)>,
    first: Vec<u32>,
    shift: u32,
}

impl Pieces {
    /// Appends the piece from `start` on, merged into the one before when
    /// the same prefix covers both.
    fn push(&mut self, start: u64, hit: (u32, u8)) {
        if self.hits.last() != Some(&hit) {
            self.starts.push(start as u32);
            self.hits.push(hit);
        }
    }

    /// Indexes the pieces by their top bits, about one bucket a piece.
    fn index(&mut self) {
        let bits = self
            .starts
            .len()
            .next_power_of_two()
            .trailing_zeros()
            .clamp(1, 16);
        self.shift = 32 - bits;
        let mut piece = 0;
        for bucket in 0..1u64 << bits {
            let start = bucket << self.shift;
            while self
                .starts
                .get(piece + 1)
                .is_some_and(|&next| u64::from(next) <= start)
            {
                piece += 1;
            }
            self.first.push(piece as u32);
        }
        self.first.push(self.starts.len() as u32 - 1);
    }

    /// The piece holding `raw`.
    fn find(&self, raw: u32) -> usize {
        let bucket = (raw >> self.shift) as usize;
        let (lo, hi) = (self.first[bucket] as usize, self.first[bucket + 1] as usize);
        lo + self.starts[lo + 1..=hi].partition_point(|&start| start <= raw)
    }
}

impl Node {
    fn empty() -> Self {
        Node {
            value: NONE,
            children: [0, 0],
        }
    }
}

impl<V> Default for PrefixTable<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> PrefixTable<V> {
    /// Creates an empty table.
    pub fn new() -> Self {
        PrefixTable {
            nodes: vec![Node::empty()],
            values: Vec::new(),
            pieces: OnceLock::new(),
        }
    }

    /// Number of stored prefixes.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no prefix is stored.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Inserts (or replaces) the value for `prefix`. Returns the previous
    /// value when replacing.
    pub fn insert(&mut self, prefix: Prefix, value: V) -> Option<V> {
        self.pieces.take();
        let mut at = 0;
        for bit in prefix.bits() {
            at = match self.nodes[at].children[bit as usize] {
                0 => {
                    let child = self.nodes.len();
                    self.nodes[at].children[bit as usize] =
                        u32::try_from(child).expect("a table of at most 2^32 nodes");
                    self.nodes.push(Node::empty());
                    child
                }
                child => child as usize,
            };
        }
        match self.values.get_mut(self.nodes[at].value as usize) {
            Some(old) => Some(std::mem::replace(old, value)),
            None => {
                self.nodes[at].value =
                    u32::try_from(self.values.len()).expect("at most 2^32 - 1 prefixes");
                self.values.push(value);
                None
            }
        }
    }

    /// Longest-prefix match for `ip`; returns the value and the matched
    /// prefix length.
    pub fn lookup(&self, ip: Ipv4Addr) -> Option<(&V, u8)> {
        let pieces = self.pieces.get_or_init(|| self.compile());
        let (value, len) = pieces.hits[pieces.find(u32::from(ip))];
        Some((self.values.get(value as usize)?, len))
    }

    /// The pieces of the address space, in address order, indexed.
    fn compile(&self) -> Pieces {
        let mut pieces = Pieces::default();
        self.cut(0, 0, 0, (NONE, 0), &mut pieces);
        pieces.index();
        pieces
    }

    /// Cuts the block of node `at`, `depth` bits deep from `base`, into
    /// pieces, `best` the longest prefix covering it from above.
    fn cut(&self, at: usize, base: u64, depth: u8, best: (u32, u8), pieces: &mut Pieces) {
        let node = &self.nodes[at];
        let best = match node.value {
            NONE => best,
            value => (value, depth),
        };
        if node.children == [0, 0] {
            pieces.push(base, best);
            return;
        }
        let half = 1u64 << (31 - depth);
        for (bit, &child) in node.children.iter().enumerate() {
            let base = base + bit as u64 * half;
            match child {
                0 => pieces.push(base, best),
                child => self.cut(child as usize, base, depth + 1, best, pieces),
            }
        }
    }

    /// Exact-match retrieval of the value stored for `prefix`.
    pub fn get(&self, prefix: &Prefix) -> Option<&V> {
        let mut node = &self.nodes[0];
        for bit in prefix.bits() {
            match node.children[bit as usize] {
                0 => return None,
                child => node = &self.nodes[child as usize],
            }
        }
        self.values.get(node.value as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn basic_lookup() {
        let mut t = PrefixTable::new();
        t.insert(p("10.0.0.0/8"), 100u32);
        t.insert(p("10.1.0.0/16"), 200);
        assert_eq!(t.lookup(ip("10.2.3.4")), Some((&100, 8)));
        assert_eq!(t.lookup(ip("10.1.3.4")), Some((&200, 16)));
        assert_eq!(t.lookup(ip("11.0.0.1")), None);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn most_specific_wins_regardless_of_insert_order() {
        let mut t = PrefixTable::new();
        t.insert(p("10.1.0.0/16"), "specific");
        t.insert(p("10.0.0.0/8"), "broad");
        assert_eq!(t.lookup(ip("10.1.0.1")).unwrap().0, &"specific");
        assert_eq!(t.lookup(ip("10.200.0.1")).unwrap().0, &"broad");
    }

    #[test]
    fn replace_returns_old() {
        let mut t = PrefixTable::new();
        assert_eq!(t.insert(p("192.0.2.0/24"), 1), None);
        assert_eq!(t.insert(p("192.0.2.0/24"), 2), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&p("192.0.2.0/24")), Some(&2));
    }

    #[test]
    fn default_route() {
        let mut t = PrefixTable::new();
        t.insert(p("0.0.0.0/0"), "default");
        t.insert(p("198.51.100.0/24"), "doc");
        assert_eq!(t.lookup(ip("8.8.8.8")).unwrap(), (&"default", 0));
        assert_eq!(t.lookup(ip("198.51.100.9")).unwrap(), (&"doc", 24));
    }

    #[test]
    fn host_routes() {
        let mut t = PrefixTable::new();
        t.insert(p("203.0.113.7/32"), 7);
        assert_eq!(t.lookup(ip("203.0.113.7")), Some((&7, 32)));
        assert_eq!(t.lookup(ip("203.0.113.8")), None);
    }

    #[test]
    fn get_requires_exact() {
        let mut t = PrefixTable::new();
        t.insert(p("10.0.0.0/8"), 1);
        assert_eq!(t.get(&p("10.0.0.0/8")), Some(&1));
        assert_eq!(t.get(&p("10.0.0.0/9")), None);
        assert_eq!(t.get(&p("10.0.0.0/7")), None);
    }

    /// A prefix of length `len` over `base`'s top bits.
    fn prefix(base: u32, len: u8) -> Prefix {
        Prefix::new(Ipv4Addr::from(base), len).unwrap()
    }

    /// A prefix whose length leans to the ends: /0, /32 and everything
    /// between.
    fn arb_prefix() -> impl Strategy<Value = Prefix> {
        (any::<u32>(), 0u8..40).prop_map(|(base, len)| prefix(base, len.saturating_sub(4).min(32)))
    }

    proptest! {
        /// Lookups and exact gets equal a linear scan over the inserted
        /// prefixes, the last insert of a prefix winning, on random sets
        /// with nested prefixes (each set's prefixes are cut from a few
        /// shared bases), /0 and /32.
        #[test]
        fn lookups_match_a_linear_scan(
            bases in prop::collection::vec(any::<u32>(), 1..4),
            picks in prop::collection::vec((0usize..4, 0u8..40, any::<u32>()), 0..24),
            extra in prop::collection::vec(arb_prefix(), 0..4),
            probes in prop::collection::vec(any::<u32>(), 0..16),
        ) {
            let mut inserted: Vec<(Prefix, u32)> = Vec::new();
            let mut table = PrefixTable::new();
            let nested = picks.iter().map(|&(b, len, _)| {
                prefix(bases[b % bases.len()], len.saturating_sub(4).min(32))
            });
            // The longest inserted prefix covering `ip`, its newest value.
            let scan = |inserted: &[(Prefix, u32)], ip: Ipv4Addr| {
                let longest = inserted.iter().filter(|(p, _)| p.contains(ip)).map(|(p, _)| p.len()).max()?;
                inserted.iter().rev().find(|(p, _)| p.len() == longest && p.contains(ip))
                    .map(|&(_, v)| (v, longest))
            };
            for (i, p) in nested.chain(extra).enumerate() {
                let value = picks.get(i).map_or(i as u32, |&(_, _, v)| v);
                let old = inserted.iter().rposition(|(q, _)| *q == p);
                prop_assert_eq!(table.insert(p, value), old.map(|k| inserted[k].1));
                inserted.push((p, value));
                // A lookup between inserts sees every insert before it.
                let ip = p.base();
                prop_assert_eq!(table.lookup(ip).map(|(&v, len)| (v, len)), scan(&inserted, ip));
            }
            let newest = |p: &Prefix| inserted.iter().rev().find(|(q, _)| q == p).map(|(_, v)| v);
            let distinct = (inserted.iter())
                .map(|(p, _)| (u32::from(p.base()), p.len()))
                .collect::<std::collections::BTreeSet<_>>();
            prop_assert_eq!(table.len(), distinct.len());
            for (p, _) in &inserted {
                prop_assert_eq!(table.get(p), newest(p));
            }
            let covered = inserted.iter().map(|(p, _)| u32::from(p.base()));
            for ip in probes.into_iter().chain(covered).map(Ipv4Addr::from) {
                let want = inserted.iter()
                    .filter(|(p, _)| p.contains(ip))
                    .max_by_key(|(p, _)| p.len())
                    .map(|(p, _)| (newest(p).unwrap(), p.len()));
                prop_assert_eq!(table.lookup(ip), want);
            }
        }
    }
}

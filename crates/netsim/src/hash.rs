//! The measurement path's one hasher: keyed, std-only, a few multiplies a
//! key.
//!
//! Every map an exchange, a resolution or a chunk encoding probes is keyed
//! by a short name, an address or an id, and std's SipHash-1-3 spent more
//! time on those keys than the probes themselves. [`KeyedHasher`] absorbs
//! 16 bytes per 64×64→128-bit multiply, folding the product's halves
//! together, and absorbs an integer with one multiply. Each hash is keyed
//! by two secret words drawn once per process from std's [`RandomState`],
//! so which keys collide cannot be read off the source or chosen ahead of a
//! run. [`KeyedMap`] and [`KeyedSet`] are std's maps over it.
//!
//! It is not a cryptographic PRF, so the tables that use it are safe from
//! crafted collisions by what they hold, not by the hash alone: the tables
//! built at deploy hold only the world's own keys, and the two that insert
//! names decoded from replies (a resolver's private tier, which
//! `forget` holds to O(providers + TLDs) entries, and a chunk's string
//! table, at most twelve strings a row of a 4,096-row chunk) are bounded,
//! so even keys that all collide cost a bounded probe, never a quadratic
//! blow-up over a run.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher, RandomState};
use std::sync::OnceLock;

/// A [`HashMap`] over the process-keyed [`KeyedHasher`].
pub type KeyedMap<K, V> = HashMap<K, V, KeyedState>;

/// A [`HashSet`] over the process-keyed [`KeyedHasher`].
pub type KeyedSet<T> = HashSet<T, KeyedState>;

/// The process's key: two words from std's randomly keyed SipHash, drawn
/// on first use.
fn process_key() -> [u64; 2] {
    static KEY: OnceLock<[u64; 2]> = OnceLock::new();
    *KEY.get_or_init(|| {
        let random = RandomState::new();
        [random.hash_one(0u64), random.hash_one(1u64)]
    })
}

/// Builds [`KeyedHasher`]s under one key: the process's by
/// [`Default`], or a given one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyedState {
    key: [u64; 2],
}

impl KeyedState {
    /// A state under `key` rather than the process's: the same key always
    /// gives the same hashes.
    pub fn with_key(key: [u64; 2]) -> Self {
        KeyedState { key }
    }
}

impl Default for KeyedState {
    /// A state under the process's key.
    fn default() -> Self {
        KeyedState::with_key(process_key())
    }
}

impl BuildHasher for KeyedState {
    type Hasher = KeyedHasher;

    fn build_hasher(&self) -> KeyedHasher {
        KeyedHasher {
            acc: self.key[0],
            mul: self.key[1] | 1,
        }
    }
}

/// The 128-bit product of `a` and `b`, its halves folded together.
fn fold_mul(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    (product as u64) ^ ((product >> 64) as u64)
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("eight bytes"))
}

fn u32_at(bytes: &[u8], at: usize) -> u64 {
    u64::from(u32::from_le_bytes(
        bytes[at..at + 4].try_into().expect("four bytes"),
    ))
}

/// A keyed multiply-fold hasher (see the module docs). Build it through
/// [`KeyedState`].
#[derive(Debug, Clone)]
pub struct KeyedHasher {
    acc: u64,
    /// The second key word, made odd.
    mul: u64,
}

impl KeyedHasher {
    /// Absorbs two words.
    fn absorb(&mut self, a: u64, b: u64) {
        self.acc = fold_mul(self.acc ^ a, self.mul ^ b);
    }
}

impl Hasher for KeyedHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut rest = bytes;
        while rest.len() > 16 {
            self.absorb(u64_at(rest, 0), u64_at(rest, 8));
            rest = &rest[16..];
        }
        // The last 1 to 16 bytes as two words, overlapping where shorter
        // than 16 (every byte is read), with the length beside them so a
        // tail and its zero-padded extension differ.
        let n = rest.len();
        let (a, b) = match n {
            9..=16 => (u64_at(rest, 0), u64_at(rest, n - 8)),
            4..=8 => (u32_at(rest, 0), u32_at(rest, n - 4)),
            1..=3 => {
                let (first, mid, last) = (rest[0], rest[n / 2], rest[n - 1]);
                (
                    u64::from(first) << 16 | u64::from(mid) << 8 | u64::from(last),
                    0,
                )
            }
            _ => (0, 0),
        };
        self.absorb(a, b.rotate_left(32) ^ n as u64);
    }

    fn write_u8(&mut self, i: u8) {
        self.write_u64(u64::from(i));
    }

    fn write_u16(&mut self, i: u16) {
        self.write_u64(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.absorb(i, 0);
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    fn finish(&self) -> u64 {
        self.acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Keys of every tail length, and integers.
    fn hashes(state: KeyedState) -> Vec<u64> {
        let text = "abcdefghijklmnopqrstuvwxyz0123456789.example.com";
        let mut out: Vec<u64> = (0..=text.len())
            .map(|n| state.hash_one(&text[..n]))
            .collect();
        out.extend((0..64u64).map(|i| state.hash_one(i)));
        out.extend((0..64u32).map(|i| state.hash_one(i)));
        out
    }

    #[test]
    fn the_same_key_gives_the_same_hash() {
        let key = [0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210];
        assert_eq!(
            hashes(KeyedState::with_key(key)),
            hashes(KeyedState::with_key(key))
        );
        // The process key is drawn once: two default states agree.
        assert_eq!(hashes(KeyedState::default()), hashes(KeyedState::default()));
    }

    #[test]
    fn two_keys_give_different_hashes() {
        let (k0, k1) = (0x243f_6a88_85a3_08d3, 0x1319_8a2e_0370_7344);
        let a = hashes(KeyedState::with_key([k0, k1]));
        let b = hashes(KeyedState::with_key([k0, k1 ^ 0x10]));
        let c = hashes(KeyedState::with_key([k0 ^ 0x10, k1]));
        for (i, ((a, b), c)) in a.iter().zip(&b).zip(&c).enumerate() {
            assert_ne!(a, b, "key {i}: second word ignored");
            assert_ne!(a, c, "key {i}: first word ignored");
        }
    }

    #[test]
    fn distinct_keys_hash_apart() {
        // Every tail length, every prefix, and a zero-padded extension of
        // each: no two of them share a hash under one key.
        let state = KeyedState::default();
        let mut hashes = Vec::new();
        for len in 0..=40u8 {
            let key: Vec<u8> = (0..len).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
            let mut padded = key.clone();
            padded.push(0);
            for bytes in [key, padded] {
                let mut h = state.build_hasher();
                h.write(&bytes);
                hashes.push(h.finish());
            }
        }
        let distinct: std::collections::BTreeSet<u64> = hashes.iter().copied().collect();
        assert_eq!(distinct.len(), hashes.len());
    }
}

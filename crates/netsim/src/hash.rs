//! One deterministic hasher for the sim plane's lookup tables.
//!
//! Rule: a map or set keyed only by values the simulator assigned itself —
//! node ids, engine-allocated ports, event seqs, [`FlowId`]s, sim addresses,
//! NAT ports, sim [`Prefix`]es — uses [`FastMap`] / [`FastSet`]. Anything
//! keyed by bytes from outside the program (a socket, a file, a user) keeps
//! std's default `RandomState`: its seeded SipHash is what stops keys
//! crafted to collide, and no such key exists on this side of the wire.
//!
//! The mix is Fx-style: each word is folded in by a rotate, an xor and a
//! multiply by one fixed odd constant. There is no per-process seed, so a
//! hash is a pure function of its key. Iteration order still depends on
//! insertion history and capacity, so the two types are newtypes that
//! forward the membership API only: they have no `iter`, `keys`, `values`,
//! `drain` or `into_iter`, and a loop over one does not compile. The
//! workspace `clippy.toml` bans std's `HashMap` and `HashSet` outright, so
//! these wrappers are the sim's only hash tables.
//!
//! Because the constant is odd, when only a key's last word varies, the
//! low `n` bits of its hash are a bijection of that word's low `n` bits:
//! consecutive seqs, and the ports of one node, land in distinct buckets.
//!
//! [`FlowId`]: crate::engine::FlowId
//! [`Prefix`]: crate::addr::Prefix

#![expect(
    clippy::disallowed_types,
    reason = "the newtypes' insides: std's tables under the fixed hasher, with every \
              order-revealing method left unforwarded"
)]

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};

type Fx = BuildHasherDefault<FxHasher>;

/// A hash map for sim-assigned keys (see the module doc). It cannot be
/// iterated:
///
/// ```compile_fail
/// let mut m = netsim::hash::FastMap::<u32, u32>::default();
/// m.insert(1, 2);
/// for (k, v) in &m {
///     println!("{k} {v}");
/// }
/// ```
#[derive(Debug, Clone)]
pub struct FastMap<K, V>(HashMap<K, V, Fx>);

impl<K, V> Default for FastMap<K, V> {
    #[inline]
    fn default() -> Self {
        FastMap(HashMap::default())
    }
}

impl<K: Hash + Eq, V> FastMap<K, V> {
    /// The value under `k`.
    #[inline]
    pub fn get(&self, k: &K) -> Option<&V> {
        self.0.get(k)
    }

    /// The value under `k`, mutably.
    #[inline]
    pub fn get_mut(&mut self, k: &K) -> Option<&mut V> {
        self.0.get_mut(k)
    }

    /// Whether `k` has a value.
    #[inline]
    pub fn contains_key(&self, k: &K) -> bool {
        self.0.contains_key(k)
    }

    /// Stores `v` under `k`, returning the value it replaced.
    #[inline]
    pub fn insert(&mut self, k: K, v: V) -> Option<V> {
        self.0.insert(k, v)
    }

    /// Removes and returns the value under `k`.
    #[inline]
    pub fn remove(&mut self, k: &K) -> Option<V> {
        self.0.remove(k)
    }

    /// Removes every entry, keeping the allocation.
    #[inline]
    pub fn clear(&mut self) {
        self.0.clear();
    }
}

/// A hash set for sim-assigned keys (see the module doc). It cannot be
/// iterated:
///
/// ```compile_fail
/// let mut s = netsim::hash::FastSet::<u32>::default();
/// s.insert(1);
/// let first = s.iter().next();
/// ```
#[derive(Debug, Clone)]
pub struct FastSet<T>(HashSet<T, Fx>);

impl<T> Default for FastSet<T> {
    #[inline]
    fn default() -> Self {
        FastSet(HashSet::default())
    }
}

impl<T: Hash + Eq> FastSet<T> {
    /// Adds `t`; false if it was already present.
    #[inline]
    pub fn insert(&mut self, t: T) -> bool {
        self.0.insert(t)
    }

    /// Removes `t`; false if it was absent.
    #[inline]
    pub fn remove(&mut self, t: &T) -> bool {
        self.0.remove(t)
    }
}

/// The multiplier of rustc's and Firefox's FxHash. It only has to be odd
/// for the low-bit property in the module doc.
const MUL: u64 = 0x517c_c1b7_2722_0a95;

/// The multiply-rotate hasher behind [`FastMap`] and [`FastSet`].
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(MUL);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topo::NodeId;
    use std::hash::{BuildHasher, Hash};

    fn low16_all_distinct<T: Hash>(mut keys: impl Iterator<Item = T>) -> bool {
        let build = BuildHasherDefault::<FxHasher>::default();
        let mut seen = vec![false; 1 << 16];
        keys.all(|k| {
            let slot = &mut seen[(build.hash_one(k) & 0xffff) as usize];
            !std::mem::replace(slot, true)
        })
    }

    #[test]
    fn hashes_are_a_pure_function_of_the_key() {
        let a = BuildHasherDefault::<FxHasher>::default();
        let b = BuildHasherDefault::<FxHasher>::default();
        for key in [0u64, 1, 42, u64::MAX] {
            assert_eq!(a.hash_one(key), b.hash_one(key));
        }
        let node_port = (NodeId(7), 53u16);
        assert_eq!(a.hash_one(node_port), b.hash_one(node_port));
        // A literal cannot depend on the process: there is no seed.
        assert_eq!(a.hash_one(1u64), MUL);
        assert_eq!(a.hash_one(3u64), 3u64.wrapping_mul(MUL));
    }

    #[test]
    fn consecutive_u64_keys_fill_distinct_low_bits() {
        let base = 0x0123_4567_89ab_0000u64;
        assert!(low16_all_distinct(base..base + (1 << 16)));
    }

    #[test]
    fn the_ports_of_one_node_fill_distinct_low_bits() {
        for node in [NodeId(0), NodeId(554)] {
            assert!(low16_all_distinct((0..=u16::MAX).map(|p| (node, p))));
        }
    }
}

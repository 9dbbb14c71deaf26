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
//! insertion history and capacity, so detlint's D1 treats these aliases
//! like `HashMap`/`HashSet`: membership only, never order.
//!
//! Because the constant is odd, when only a key's last word varies, the
//! low `n` bits of its hash are a bijection of that word's low `n` bits:
//! consecutive seqs, and the ports of one node, land in distinct buckets.
//!
//! [`FlowId`]: crate::engine::FlowId
//! [`Prefix`]: crate::addr::Prefix

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` for sim-assigned keys (see the module doc).
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` for sim-assigned keys (see the module doc).
pub type FastSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

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

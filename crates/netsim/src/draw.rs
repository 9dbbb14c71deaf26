//! Keyed per-hop draws: the loss and latency a packet meets on a hop are a
//! pure function of the shard seed, the hop and the packet's *cause*, never
//! of the packet's place in a shared random stream.
//!
//! Every [`Packet`](crate::packet::Packet) carries a sim-only `draw` word,
//! assigned where the packet is born and carried unchanged through
//! forwarding and NAT (DESIGN §5 has the full table):
//!
//! * a client flow draws [`mix`]`(TAG_FLOW, flow id)`;
//! * service egress `i` draws `mix(cause, i)`, where the cause is the
//!   handled packet's `draw`, or, on a timer tick,
//!   `mix(TAG_TICK ^ registration id, tick count)`;
//! * an echo reply or ICMP error draws `mix(tag, offending draw)`.
//!
//! On each hop the engine seeds a [`HopRng`] with
//! `splitmix(draw_seed ^ draw ^ (link << 32 | node))`. A packet's samples
//! change only when its cause does: a draw from `Network::rng`, or an extra
//! or missing packet elsewhere, moves nothing unless it shifts the flow-id
//! counter, the registration counter or a service's tick count.

use rand::RngCore;

/// The SplitMix64 increment (the golden-ratio constant).
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Cause tag of a packet sent by a client flow.
pub(crate) const TAG_FLOW: u64 = u64::from_le_bytes(*b"drawflow");
/// Cause tag of a service's timer tick (xor-ed with its registration id).
pub(crate) const TAG_TICK: u64 = u64::from_le_bytes(*b"drawtick");
/// Cause tag of an echo reply.
pub(crate) const TAG_ECHO: u64 = u64::from_le_bytes(*b"drawecho");
/// Cause tag of a destination- or port-unreachable error.
pub(crate) const TAG_UNREACHABLE: u64 = u64::from_le_bytes(*b"drawunre");
/// Cause tag of a TTL-expired error.
pub(crate) const TAG_EXPIRED: u64 = u64::from_le_bytes(*b"drawttlx");
/// Separates the per-hop draw seed from the engine's own RNG seed.
pub(crate) const HOP_SEED: u64 = u64::from_le_bytes(*b"hopdraws");

/// One SplitMix64 step from state `x`: a bijective 64-bit mix.
#[inline]
pub(crate) fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Combines a cause with an index (or a tag with an identity).
#[inline]
pub(crate) fn mix(a: u64, b: u64) -> u64 {
    splitmix(a ^ splitmix(b))
}

/// A SplitMix64 counter generator: the draws of one packet on one hop.
#[derive(Debug, Clone)]
pub(crate) struct HopRng(u64);

impl HopRng {
    /// The generator for a hop key.
    pub(crate) fn new(key: u64) -> Self {
        HopRng(key)
    }
}

impl RngCore for HopRng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let out = splitmix(self.0);
        self.0 = self.0.wrapping_add(GOLDEN);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_distinct_in_their_high_bits() {
        let tags = [TAG_FLOW, TAG_TICK, TAG_ECHO, TAG_UNREACHABLE, TAG_EXPIRED];
        for (i, a) in tags.iter().enumerate() {
            for b in &tags[i + 1..] {
                // A registration id xor-ed into TAG_TICK would have to reach
                // 2^32 before it could land on another tag.
                assert!(a ^ b >= 1 << 32, "{a:#x} {b:#x}");
            }
        }
    }

    #[test]
    fn mix_is_order_sensitive_and_index_sensitive() {
        assert_ne!(mix(1, 2), mix(2, 1));
        assert_ne!(mix(7, 0), mix(7, 1));
        assert_ne!(mix(0, 0), 0);
    }

    #[test]
    fn hop_rng_is_a_pure_function_of_its_key() {
        let a: Vec<u64> = {
            let mut r = HopRng::new(42);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = HopRng::new(42);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(HopRng::new(43).next_u64(), a[0]);
    }
}

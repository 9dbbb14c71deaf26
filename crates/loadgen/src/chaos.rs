//! Deterministic wire chaos: adversarial input the driver interleaves
//! with the scripted mix, planned per carrier on its own seed lane
//! ([`measure::world::lane::WIRE_CHAOS`]) so enabling chaos never
//! perturbs the scripted query stream itself.
//!
//! Every action is planned up front from the world seed — two runs of the
//! same seed and profile inject byte-identical garbage at the same script
//! positions. The driver uses [`serve::classify`] on each planned
//! datagram to predict the server's reaction (reply vs typed silent
//! drop), which is what lets the ground-truth replay stay byte-exact
//! under fire: chaos that reaches the core is replayed; chaos the front
//! end eats (evicted TCP connections) never touches the core at all.

use crate::script::PlannedQuery;
use measure::world::{derive_seed, lane};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How hostile the wire is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChaosProfile {
    /// No chaos: the driver sends only the scripted mix.
    #[default]
    Off,
    /// Occasional malformed datagrams (~1 action per 16 scripted
    /// queries): exercises the reject paths without stressing admission.
    Mild,
    /// Sustained hostility (~1 action per 4 scripted queries) plus
    /// guaranteed early TCP abuse and a duplicate flood per carrier, so
    /// even a short soak drives the eviction and shed counters nonzero.
    Stress,
}

impl ChaosProfile {
    /// Parses a CLI profile name.
    pub fn parse(s: &str) -> Option<ChaosProfile> {
        match s {
            "off" | "none" => Some(ChaosProfile::Off),
            "mild" => Some(ChaosProfile::Mild),
            "stress" => Some(ChaosProfile::Stress),
            _ => None,
        }
    }

    /// Stable lowercase name (reports, metrics labels).
    pub fn label(self) -> &'static str {
        match self {
            ChaosProfile::Off => "off",
            ChaosProfile::Mild => "mild",
            ChaosProfile::Stress => "stress",
        }
    }

    /// Mean scripted queries per random chaos action (None = no chaos).
    fn action_period(self) -> Option<u64> {
        match self {
            ChaosProfile::Off => None,
            ChaosProfile::Mild => Some(16),
            ChaosProfile::Stress => Some(4),
        }
    }
}

/// One planned hostile act, executed by the driver immediately before a
/// scripted query.
#[derive(Debug, Clone)]
pub enum ChaosAction {
    /// Random bytes on the UDP socket. May accidentally parse as
    /// anything; the driver classifies to know whether a reply is owed.
    UdpGarbage(Vec<u8>),
    /// A mutated copy of the upcoming scripted query (bit flip,
    /// truncation, trailing garbage, or a corrupted QDCOUNT).
    UdpMutant(Vec<u8>),
    /// A burst of identical well-formed queries sent back-to-back: the
    /// only planned action that can legitimately earn REFUSED, by
    /// overrunning the carrier's inflight bound.
    UdpFlood {
        /// The duplicated query bytes.
        wire: Vec<u8>,
        /// How many copies go out back-to-back.
        copies: usize,
    },
    /// A TCP connection declaring a frame larger than the server's cap:
    /// must be evicted before the body is read.
    TcpOversized,
    /// A valid framed TCP query dribbled in small chunks (each within
    /// the server's progress deadline): must still be answered.
    TcpSplit(Vec<u8>),
    /// A TCP connection that sends a partial frame and then goes silent:
    /// must be evicted by the slow-read deadline.
    TcpStall,
}

/// Copies of one query a flood sends: comfortably above the server's
/// per-carrier inflight bound, so a flood reliably drives the backlog
/// into shedding territory on loopback.
const FLOOD_COPIES: usize = 96;

/// Plans one carrier's chaos: `plan[i]` is the list of actions to run
/// immediately before scripted query `i`. Deterministic in
/// `(master_seed, shard, profile, script length)`.
pub fn plan_carrier(
    profile: ChaosProfile,
    master_seed: u64,
    shard: usize,
    queries: &[PlannedQuery],
) -> Vec<Vec<ChaosAction>> {
    let mut plan: Vec<Vec<ChaosAction>> = vec![Vec::new(); queries.len()];
    let Some(period) = profile.action_period() else {
        return plan;
    };
    if queries.is_empty() {
        return plan;
    }
    let mut rng = StdRng::seed_from_u64(derive_seed(master_seed, lane::WIRE_CHAOS, shard as u64));

    // Guaranteed early events: even a short smoke run must light up the
    // formerr / eviction / shed counters it asserts on.
    plan[0].push(ChaosAction::UdpGarbage(garbage(&mut rng)));
    if profile == ChaosProfile::Stress {
        plan[0].push(ChaosAction::TcpOversized);
        if queries.len() > 1 {
            plan[1].push(ChaosAction::TcpStall);
        }
        if queries.len() > 2 {
            plan[2].push(ChaosAction::UdpFlood {
                wire: reidentified(&mut rng, &queries[2].wire),
                copies: FLOOD_COPIES,
            });
        }
    }

    for (i, q) in queries.iter().enumerate() {
        if rng.gen_range(0..period) != 0 {
            continue;
        }
        let action = match rng.gen_range(0..100u32) {
            0..=39 => ChaosAction::UdpGarbage(garbage(&mut rng)),
            40..=79 => ChaosAction::UdpMutant(mutate(&mut rng, &q.wire)),
            80..=89 => ChaosAction::TcpSplit(reidentified(&mut rng, &q.wire)),
            // Floods are expensive (FLOOD_COPIES sim resolutions each);
            // keep them rare, and only under stress.
            _ if profile == ChaosProfile::Stress && rng.gen_range(0..8u32) == 0 => {
                ChaosAction::UdpFlood {
                    wire: reidentified(&mut rng, &q.wire),
                    copies: FLOOD_COPIES,
                }
            }
            _ => ChaosAction::UdpGarbage(garbage(&mut rng)),
        };
        plan[i].push(action);
    }
    plan
}

/// Random bytes, 0..64 long. Anything goes: too-short runts, QR-bit
/// "responses", random opcodes — classification decides their fate.
fn garbage(rng: &mut StdRng) -> Vec<u8> {
    let len = rng.gen_range(0..64usize);
    (0..len).map(|_| rng.gen()).collect()
}

/// A copy of `wire` with a fresh chaos-chosen transaction id, so flood
/// and split traffic never collides with the scripted exchange it rides
/// alongside.
fn reidentified(rng: &mut StdRng, wire: &[u8]) -> Vec<u8> {
    let mut out = wire.to_vec();
    if out.len() >= 2 {
        let id: u16 = rng.gen();
        out[..2].copy_from_slice(&id.to_be_bytes());
    }
    out
}

/// One random structural mutation of a scripted query. The result may
/// land in any wire class — well-formed (bit flip in the qname), FORMERR
/// (corrupted QDCOUNT), or a silent drop (truncated below the header) —
/// which is exactly the point.
fn mutate(rng: &mut StdRng, wire: &[u8]) -> Vec<u8> {
    let mut out = reidentified(rng, wire);
    if out.is_empty() {
        return out;
    }
    match rng.gen_range(0..4u32) {
        0 => {
            // Flip one bit somewhere past the id.
            let at = rng.gen_range(0..out.len());
            out[at] ^= 1 << rng.gen_range(0..8u32);
        }
        1 => {
            // Truncate anywhere, including below the header.
            let keep = rng.gen_range(0..out.len());
            out.truncate(keep);
        }
        2 => {
            // Trailing garbage after a valid message.
            let extra = rng.gen_range(1..16usize);
            for _ in 0..extra {
                out.push(rng.gen());
            }
        }
        _ => {
            // Corrupt QDCOUNT (bytes 4..6) to 0 or 2.
            if out.len() >= 6 {
                let qd: u16 = if rng.gen() { 0 } else { 2 };
                out[4..6].copy_from_slice(&qd.to_be_bytes());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnswire::builder::QueryBuilder;
    use dnswire::name::DnsName;
    use dnswire::rdata::RecordType;

    fn fake_queries(n: usize) -> Vec<PlannedQuery> {
        (0..n)
            .map(|i| {
                let qname = DnsName::parse("m.yelp.com").unwrap();
                let wire = QueryBuilder::new(i as u16, "m.yelp.com", RecordType::A)
                    .build()
                    .unwrap()
                    .encode()
                    .unwrap();
                PlannedQuery {
                    id: i as u16,
                    qname,
                    wire,
                }
            })
            .collect()
    }

    #[test]
    fn plans_are_deterministic_per_seed_and_shard() {
        let qs = fake_queries(200);
        let a = plan_carrier(ChaosProfile::Stress, 2014, 1, &qs);
        let b = plan_carrier(ChaosProfile::Stress, 2014, 1, &qs);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.len(), y.len());
            for (ax, ay) in x.iter().zip(y) {
                assert_eq!(format!("{ax:?}"), format!("{ay:?}"));
            }
        }
        // A different shard draws a different stream.
        let c = plan_carrier(ChaosProfile::Stress, 2014, 2, &qs);
        assert_ne!(
            format!("{a:?}"),
            format!("{c:?}"),
            "shards must not share a chaos stream"
        );
    }

    #[test]
    fn off_plans_nothing_and_stress_forces_early_abuse() {
        let qs = fake_queries(50);
        let off = plan_carrier(ChaosProfile::Off, 7, 0, &qs);
        assert!(off.iter().all(|v| v.is_empty()));

        let stress = plan_carrier(ChaosProfile::Stress, 7, 0, &qs);
        let planned = |f: fn(&ChaosAction) -> bool| stress.iter().flatten().any(f);
        assert!(planned(|a| matches!(a, ChaosAction::TcpOversized)));
        assert!(planned(|a| matches!(a, ChaosAction::TcpStall)));
        assert!(planned(|a| matches!(a, ChaosAction::UdpFlood { .. })));
        assert!(planned(|a| matches!(a, ChaosAction::UdpGarbage(_))));
    }

    #[test]
    fn mild_is_sparser_than_stress() {
        let qs = fake_queries(2_000);
        let mild: usize = plan_carrier(ChaosProfile::Mild, 99, 0, &qs)
            .iter()
            .map(Vec::len)
            .sum();
        let stress: usize = plan_carrier(ChaosProfile::Stress, 99, 0, &qs)
            .iter()
            .map(Vec::len)
            .sum();
        assert!(mild > 0);
        assert!(stress > mild * 2, "stress {stress} vs mild {mild}");
    }

    #[test]
    fn mutants_vary_and_keep_determinism() {
        let qs = fake_queries(1);
        let wire = &qs[0].wire;
        let mut rng = StdRng::seed_from_u64(5);
        let mutants: Vec<Vec<u8>> = (0..32).map(|_| mutate(&mut rng, wire)).collect();
        // At least one mutant differs from the original in shape.
        assert!(mutants.iter().any(|m| m.len() != wire.len()));
        let mut rng2 = StdRng::seed_from_u64(5);
        let again: Vec<Vec<u8>> = (0..32).map(|_| mutate(&mut rng2, wire)).collect();
        assert_eq!(mutants, again);
    }
}

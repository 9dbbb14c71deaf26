//! Middleboxes: stateful firewalls and NAT, the machinery behind the
//! paper's "cellular network opaqueness" (§4.4).
//!
//! Cellular operators place NAT and firewall policy at their packet
//! gateways; externally generated traffic cannot reach devices or most
//! infrastructure (Wang et al., SIGCOMM CCR 2011). We model both as
//! prefix-scoped policies attached to gateway nodes: the *protected* side is
//! a set of prefixes, flows from protected to outside are remembered, and
//! inbound packets must match an established flow or an explicit allowance.

use crate::addr::Prefix;
use crate::hash::FastMap;
use crate::packet::{IcmpMsg, Packet, Transport};
use crate::time::{SimDuration, SimTime};
use std::net::Ipv4Addr;

/// A flow signature used for "established" tracking, direction-normalized
/// to (inside endpoint, outside endpoint).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct FlowKey {
    inside: Ipv4Addr,
    outside: Ipv4Addr,
    /// UDP: (inside port, outside port); ICMP: (ident-derived, 0).
    ports: (u16, u16),
    proto: Proto,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Proto {
    Udp,
    Icmp,
}

fn classify(packet: &Packet) -> (Proto, u16, u16) {
    match &packet.transport {
        Transport::Udp {
            src_port, dst_port, ..
        } => (Proto::Udp, *src_port, *dst_port),
        Transport::Icmp(icmp) => {
            let id = match icmp {
                IcmpMsg::EchoRequest { ident, .. } | IcmpMsg::EchoReply { ident, .. } => {
                    (*ident & 0xFFFF) as u16
                }
                // ICMP errors correlate via the original datagram, handled
                // by the firewall's error path.
                IcmpMsg::TimeExceeded { .. } | IcmpMsg::DestUnreachable { .. } => 0,
            };
            (Proto::Icmp, id, id)
        }
    }
}

/// Verdict from a firewall check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Forward the packet.
    Accept,
    /// Silently drop it (cellular firewalls do not send errors).
    Drop,
}

/// A stateful, prefix-scoped firewall.
///
/// Packets travelling *out* of the protected prefixes establish flow state;
/// packets travelling *in* are accepted only when they match established
/// state or an explicit allowance. Packets not crossing the boundary are
/// always accepted.
#[derive(Debug, Clone)]
pub struct Firewall {
    protected: Vec<Prefix>,
    /// Addresses inside the protected range that may receive unsolicited
    /// ICMP echo (e.g. Verizon's externally pingable resolvers, Table 4).
    ping_allowed: Vec<Ipv4Addr>,
    flows: FastMap<FlowKey, SimTime>,
    flow_timeout: SimDuration,
    /// Packets dropped, for diagnostics and tests.
    pub drops: u64,
}

impl Firewall {
    /// A firewall protecting the given prefixes.
    pub fn new(protected: Vec<Prefix>) -> Self {
        Firewall {
            protected,
            ping_allowed: Vec::new(),
            flows: FastMap::default(),
            flow_timeout: SimDuration::from_secs(120),
            drops: 0,
        }
    }

    /// Permits unsolicited ICMP echo to an inside address.
    pub fn allow_ping_to(&mut self, addr: Ipv4Addr) {
        self.ping_allowed.push(addr);
    }

    fn inside(&self, addr: Ipv4Addr) -> bool {
        self.protected.iter().any(|p| p.contains(addr))
    }

    /// Inspects a packet transiting this node at time `now`.
    pub fn check(&mut self, packet: &Packet, now: SimTime) -> Verdict {
        let src_in = self.inside(packet.src);
        let dst_in = self.inside(packet.dst);
        let (proto, src_port, dst_port) = classify(packet);
        match (src_in, dst_in) {
            // Outbound: remember the flow.
            (true, false) => {
                self.flows.insert(
                    FlowKey {
                        inside: packet.src,
                        outside: packet.dst,
                        ports: (src_port, dst_port),
                        proto,
                    },
                    now,
                );
                Verdict::Accept
            }
            // Inbound: must match established state or an allowance.
            (false, true) => {
                // ICMP errors about an inside-originated packet are replies
                // to an established outbound flow.
                if let Transport::Icmp(
                    IcmpMsg::TimeExceeded { original } | IcmpMsg::DestUnreachable { original },
                ) = &packet.transport
                {
                    if self.inside(original.src) {
                        return Verdict::Accept;
                    }
                    self.drops += 1;
                    return Verdict::Drop;
                }
                let key = FlowKey {
                    inside: packet.dst,
                    outside: packet.src,
                    ports: (dst_port, src_port),
                    proto,
                };
                if let Some(&t) = self.flows.get(&key) {
                    if now.since(t) <= self.flow_timeout {
                        return Verdict::Accept;
                    }
                    self.flows.remove(&key);
                }
                if matches!(
                    packet.transport,
                    Transport::Icmp(IcmpMsg::EchoRequest { .. })
                ) && self.ping_allowed.contains(&packet.dst)
                {
                    return Verdict::Accept;
                }
                self.drops += 1;
                Verdict::Drop
            }
            // Not crossing the boundary.
            _ => Verdict::Accept,
        }
    }
}

/// Endpoint-independent NAT translating protected-side sources to a public
/// address with per-flow identifiers.
#[derive(Debug, Clone)]
pub struct Nat {
    inside: Vec<Prefix>,
    public_addr: Ipv4Addr,
    /// (proto, inside addr, inside id) -> public id
    out_map: FastMap<(Proto, Ipv4Addr, u16), u16>,
    /// public id -> (proto, inside addr, inside id)
    in_map: FastMap<(Proto, u16), (Ipv4Addr, u16)>,
    next_id: u16,
}

impl Nat {
    /// A NAT translating `inside` prefixes to `public_addr`.
    pub fn new(inside: Vec<Prefix>, public_addr: Ipv4Addr) -> Self {
        Nat {
            inside,
            public_addr,
            out_map: FastMap::default(),
            in_map: FastMap::default(),
            next_id: 20_000,
        }
    }

    /// The address translated flows appear to come from.
    pub fn public_addr(&self) -> Ipv4Addr {
        self.public_addr
    }

    fn is_inside(&self, addr: Ipv4Addr) -> bool {
        self.inside.iter().any(|p| p.contains(addr))
    }

    fn map_out(&mut self, proto: Proto, src: Ipv4Addr, id: u16) -> u16 {
        if let Some(&pub_id) = self.out_map.get(&(proto, src, id)) {
            return pub_id;
        }
        let pub_id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1).max(20_000);
        self.out_map.insert((proto, src, id), pub_id);
        self.in_map.insert((proto, pub_id), (src, id));
        pub_id
    }

    /// Translates a packet transiting this node. Returns `None` for inbound
    /// packets with no mapping (which the caller should drop).
    pub fn translate(&mut self, mut packet: Packet) -> Option<Packet> {
        let src_in = self.is_inside(packet.src);
        let to_public = packet.dst == self.public_addr;
        if src_in && !self.is_inside(packet.dst) {
            // Outbound: rewrite source.
            match &mut packet.transport {
                Transport::Udp { src_port, .. } => {
                    *src_port = self.map_out(Proto::Udp, packet.src, *src_port);
                }
                Transport::Icmp(IcmpMsg::EchoRequest { ident, seq: _ }) => {
                    let inside_id = (*ident & 0xFFFF) as u16;
                    let pub_id = self.map_out(Proto::Icmp, packet.src, inside_id);
                    *ident = (*ident & !0xFFFF) | pub_id as u64;
                }
                _ => {}
            }
            packet.src = self.public_addr;
            Some(packet)
        } else if to_public {
            // Inbound: restore the original destination.
            match &mut packet.transport {
                Transport::Udp { dst_port, .. } => {
                    let (orig_addr, orig_port) = *self.in_map.get(&(Proto::Udp, *dst_port))?;
                    packet.dst = orig_addr;
                    *dst_port = orig_port;
                    Some(packet)
                }
                Transport::Icmp(IcmpMsg::EchoReply { ident, .. }) => {
                    let pub_id = (*ident & 0xFFFF) as u16;
                    let (orig_addr, orig_id) = *self.in_map.get(&(Proto::Icmp, pub_id))?;
                    packet.dst = orig_addr;
                    *ident = (*ident & !0xFFFF) | orig_id as u64;
                    Some(packet)
                }
                Transport::Icmp(
                    IcmpMsg::TimeExceeded { original } | IcmpMsg::DestUnreachable { original },
                ) => {
                    // Errors about a translated outbound packet: match on
                    // the original's translated identifiers.
                    let (proto, pub_id) = match original.udp_ports {
                        Some((sp, _)) => (Proto::Udp, sp),
                        None => (Proto::Icmp, (original.ident & 0xFFFF) as u16),
                    };
                    let (orig_addr, orig_id) = *self.in_map.get(&(proto, pub_id))?;
                    packet.dst = orig_addr;
                    original.src = orig_addr;
                    match (&mut original.udp_ports, proto) {
                        (Some((sp, _)), Proto::Udp) => *sp = orig_id,
                        _ => original.ident = orig_id as u64,
                    }
                    Some(packet)
                }
                _ => None,
            }
        } else {
            // Not crossing this NAT.
            Some(packet)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
        Ipv4Addr::new(a, b, c, d)
    }

    fn carrier_prefix() -> Prefix {
        "10.0.0.0/8".parse().unwrap()
    }

    #[test]
    fn firewall_allows_outbound_then_matching_inbound() {
        let mut fw = Firewall::new(vec![carrier_prefix()]);
        let t0 = SimTime::ZERO;
        let out = Packet::udp(ip(10, 1, 1, 1), 5000, ip(8, 8, 8, 8), 53, vec![]);
        assert_eq!(fw.check(&out, t0), Verdict::Accept);
        let back = Packet::udp(ip(8, 8, 8, 8), 53, ip(10, 1, 1, 1), 5000, vec![]);
        assert_eq!(
            fw.check(&back, t0 + SimDuration::from_secs(1)),
            Verdict::Accept
        );
    }

    #[test]
    fn firewall_drops_unsolicited_inbound() {
        let mut fw = Firewall::new(vec![carrier_prefix()]);
        let probe = Packet::echo_request(ip(203, 0, 113, 5), ip(10, 1, 1, 1), 9, 0);
        assert_eq!(fw.check(&probe, SimTime::ZERO), Verdict::Drop);
        assert_eq!(fw.drops, 1);
        let dgram = Packet::udp(ip(203, 0, 113, 5), 4000, ip(10, 1, 1, 1), 53, vec![]);
        assert_eq!(fw.check(&dgram, SimTime::ZERO), Verdict::Drop);
    }

    #[test]
    fn firewall_flow_state_expires() {
        let mut fw = Firewall::new(vec![carrier_prefix()]);
        fw.flow_timeout = SimDuration::from_secs(10);
        let out = Packet::udp(ip(10, 1, 1, 1), 5000, ip(8, 8, 8, 8), 53, vec![]);
        fw.check(&out, SimTime::ZERO);
        let back = Packet::udp(ip(8, 8, 8, 8), 53, ip(10, 1, 1, 1), 5000, vec![]);
        let late = SimTime::ZERO + SimDuration::from_secs(11);
        assert_eq!(fw.check(&back, late), Verdict::Drop);
    }

    #[test]
    fn firewall_ping_allowlist() {
        let mut fw = Firewall::new(vec![carrier_prefix()]);
        fw.allow_ping_to(ip(10, 9, 9, 9));
        let ok = Packet::echo_request(ip(203, 0, 113, 5), ip(10, 9, 9, 9), 1, 0);
        assert_eq!(fw.check(&ok, SimTime::ZERO), Verdict::Accept);
        let not_ok = Packet::echo_request(ip(203, 0, 113, 5), ip(10, 9, 9, 8), 1, 0);
        assert_eq!(fw.check(&not_ok, SimTime::ZERO), Verdict::Drop);
    }

    #[test]
    fn firewall_admits_icmp_errors_for_inside_probes() {
        let mut fw = Firewall::new(vec![carrier_prefix()]);
        let original = Packet::echo_request(ip(10, 1, 1, 1), ip(203, 0, 113, 9), 4, 1).probe_key();
        let err = Packet {
            src: ip(198, 51, 100, 1),
            dst: ip(10, 1, 1, 1),
            ttl: 60,
            transport: Transport::Icmp(IcmpMsg::TimeExceeded { original }),
            draw: 0,
        };
        assert_eq!(fw.check(&err, SimTime::ZERO), Verdict::Accept);
    }

    #[test]
    fn firewall_ignores_internal_traffic() {
        let mut fw = Firewall::new(vec![carrier_prefix()]);
        let p = Packet::udp(ip(10, 1, 1, 1), 1, ip(10, 2, 2, 2), 2, vec![]);
        assert_eq!(fw.check(&p, SimTime::ZERO), Verdict::Accept);
    }

    #[test]
    fn nat_translates_udp_both_ways() {
        let mut nat = Nat::new(vec![carrier_prefix()], ip(66, 174, 1, 1));
        let out = Packet::udp(ip(10, 1, 1, 1), 5000, ip(8, 8, 8, 8), 53, vec![7]);
        let xlated = nat.translate(out).unwrap();
        assert_eq!(xlated.src, ip(66, 174, 1, 1));
        let pub_port = match xlated.transport {
            Transport::Udp { src_port, .. } => src_port,
            _ => unreachable!(),
        };
        assert_ne!(pub_port, 5000);
        let back = Packet::udp(ip(8, 8, 8, 8), 53, ip(66, 174, 1, 1), pub_port, vec![8]);
        let restored = nat.translate(back).unwrap();
        assert_eq!(restored.dst, ip(10, 1, 1, 1));
        match restored.transport {
            Transport::Udp { dst_port, .. } => assert_eq!(dst_port, 5000),
            _ => unreachable!(),
        }
    }

    #[test]
    fn nat_translates_icmp_echo() {
        let mut nat = Nat::new(vec![carrier_prefix()], ip(66, 174, 1, 1));
        let out = Packet::echo_request(ip(10, 1, 1, 1), ip(8, 8, 4, 4), 0xABCD, 2);
        let xlated = nat.translate(out).unwrap();
        let pub_ident = match xlated.transport {
            Transport::Icmp(IcmpMsg::EchoRequest { ident, .. }) => ident,
            _ => unreachable!(),
        };
        let back = Packet {
            src: ip(8, 8, 4, 4),
            dst: ip(66, 174, 1, 1),
            ttl: 64,
            transport: Transport::Icmp(IcmpMsg::EchoReply {
                ident: pub_ident,
                seq: 2,
            }),
            draw: 0,
        };
        let restored = nat.translate(back).unwrap();
        assert_eq!(restored.dst, ip(10, 1, 1, 1));
        match restored.transport {
            Transport::Icmp(IcmpMsg::EchoReply { ident, .. }) => {
                assert_eq!(ident & 0xFFFF, 0xABCD)
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn nat_drops_unmapped_inbound() {
        let mut nat = Nat::new(vec![carrier_prefix()], ip(66, 174, 1, 1));
        let stray = Packet::udp(ip(8, 8, 8, 8), 53, ip(66, 174, 1, 1), 31337, vec![]);
        assert!(nat.translate(stray).is_none());
    }

    #[test]
    fn nat_mapping_is_stable_per_flow() {
        let mut nat = Nat::new(vec![carrier_prefix()], ip(66, 174, 1, 1));
        let p1 = Packet::udp(ip(10, 1, 1, 1), 5000, ip(8, 8, 8, 8), 53, vec![]);
        let p2 = Packet::udp(ip(10, 1, 1, 1), 5000, ip(9, 9, 9, 9), 53, vec![]);
        let a = nat.translate(p1).unwrap();
        let b = nat.translate(p2).unwrap();
        let (pa, pb) = match (a.transport, b.transport) {
            (Transport::Udp { src_port: x, .. }, Transport::Udp { src_port: y, .. }) => (x, y),
            _ => unreachable!(),
        };
        // Endpoint-independent: same inside (addr, port) keeps one mapping.
        assert_eq!(pa, pb);
    }

    #[test]
    fn nat_passes_unrelated_traffic() {
        let mut nat = Nat::new(vec![carrier_prefix()], ip(66, 174, 1, 1));
        let p = Packet::udp(ip(203, 0, 113, 1), 1, ip(198, 51, 100, 2), 2, vec![]);
        assert!(nat.translate(p.clone()).unwrap() == p);
    }
}

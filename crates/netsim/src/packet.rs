//! Packet model: an IPv4-ish envelope over UDP and ICMP transports.
//!
//! The simulation carries real payload bytes (DNS messages from `dnswire`,
//! HTTP-lite requests) but elides header fields irrelevant to the study
//! (checksums, fragmentation, IP options).

use std::net::Ipv4Addr;

/// Default initial TTL for packets originated by hosts.
pub const DEFAULT_TTL: u8 = 64;

/// A packet in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Source address (possibly rewritten by NAT in transit).
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Remaining time-to-live in hops.
    pub ttl: u8,
    /// Transport-layer content.
    pub transport: Transport,
    /// Sim-only key of this packet's per-hop loss and latency draws, set
    /// where the packet is born from what caused it and carried unchanged
    /// through forwarding and NAT. Never part of the wire image (see
    /// [`crate::draw`]).
    pub draw: u64,
}

impl Packet {
    /// A UDP packet with the default TTL.
    pub fn udp(
        src: Ipv4Addr,
        src_port: u16,
        dst: Ipv4Addr,
        dst_port: u16,
        payload: Vec<u8>,
    ) -> Self {
        Packet {
            src,
            dst,
            ttl: DEFAULT_TTL,
            transport: Transport::Udp {
                src_port,
                dst_port,
                payload,
            },
            draw: 0,
        }
    }

    /// An ICMP echo request with the default TTL.
    pub fn echo_request(src: Ipv4Addr, dst: Ipv4Addr, ident: u64, seq: u16) -> Self {
        Packet {
            src,
            dst,
            ttl: DEFAULT_TTL,
            transport: Transport::Icmp(IcmpMsg::EchoRequest { ident, seq }),
            draw: 0,
        }
    }

    /// The identifiers another node needs to report this packet in an ICMP
    /// error (the "original datagram" quotation of RFC 792).
    pub fn probe_key(&self) -> ProbeKey {
        match &self.transport {
            Transport::Udp {
                src_port, dst_port, ..
            } => ProbeKey {
                src: self.src,
                dst: self.dst,
                ident: 0,
                seq: 0,
                udp_ports: Some((*src_port, *dst_port)),
            },
            Transport::Icmp(IcmpMsg::EchoRequest { ident, seq })
            | Transport::Icmp(IcmpMsg::EchoReply { ident, seq }) => ProbeKey {
                src: self.src,
                dst: self.dst,
                ident: *ident,
                seq: *seq,
                udp_ports: None,
            },
            Transport::Icmp(_) => ProbeKey {
                src: self.src,
                dst: self.dst,
                ident: 0,
                seq: 0,
                udp_ports: None,
            },
        }
    }

    /// Approximate on-the-wire size in bytes (IP + transport headers plus
    /// payload), used for serialization delay on capacity-limited links.
    pub fn wire_size(&self) -> usize {
        match &self.transport {
            Transport::Udp { payload, .. } => 28 + payload.len(),
            Transport::Icmp(_) => 64,
        }
    }
}

/// Transport content of a packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Transport {
    /// UDP datagram.
    Udp {
        /// Source port.
        src_port: u16,
        /// Destination port.
        dst_port: u16,
        /// Application payload bytes.
        payload: Vec<u8>,
    },
    /// ICMP message.
    Icmp(IcmpMsg),
}

/// ICMP messages used by probing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IcmpMsg {
    /// Echo request (`ping`, and TTL-limited traceroute probes).
    EchoRequest {
        /// Identifier chosen by the prober; unique per outstanding probe.
        ident: u64,
        /// Sequence number within a probe train.
        seq: u16,
    },
    /// Echo reply.
    EchoReply {
        /// Identifier copied from the request.
        ident: u64,
        /// Sequence copied from the request.
        seq: u16,
    },
    /// TTL expired in transit; carries enough of the original packet for the
    /// prober to correlate.
    TimeExceeded {
        /// Identification of the expired packet.
        original: ProbeKey,
    },
    /// Destination or port unreachable.
    DestUnreachable {
        /// Identification of the rejected packet.
        original: ProbeKey,
    },
}

/// Identification of an "original datagram" inside an ICMP error, enough
/// for the original sender to correlate the error with its probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProbeKey {
    /// Original source address.
    pub src: Ipv4Addr,
    /// Original destination address.
    pub dst: Ipv4Addr,
    /// ICMP identifier (zero for UDP probes).
    pub ident: u64,
    /// ICMP sequence (zero for UDP probes).
    pub seq: u16,
    /// UDP ports of the original packet, if it was UDP.
    pub udp_ports: Option<(u16, u16)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
        Ipv4Addr::new(a, b, c, d)
    }

    #[test]
    fn udp_constructor() {
        let p = Packet::udp(ip(10, 0, 0, 1), 4096, ip(8, 8, 8, 8), 53, vec![1, 2, 3]);
        assert_eq!(p.ttl, DEFAULT_TTL);
        match &p.transport {
            Transport::Udp {
                src_port,
                dst_port,
                payload,
            } => {
                assert_eq!(*src_port, 4096);
                assert_eq!(*dst_port, 53);
                assert_eq!(payload.len(), 3);
            }
            _ => panic!("not udp"),
        }
    }

    #[test]
    fn probe_key_for_echo() {
        let p = Packet::echo_request(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 77, 3);
        let k = p.probe_key();
        assert_eq!(k.ident, 77);
        assert_eq!(k.seq, 3);
        assert_eq!(k.src, ip(1, 1, 1, 1));
        assert!(k.udp_ports.is_none());
    }

    #[test]
    fn probe_key_for_udp() {
        let p = Packet::udp(ip(1, 1, 1, 1), 5000, ip(2, 2, 2, 2), 53, vec![]);
        let k = p.probe_key();
        assert_eq!(k.udp_ports, Some((5000, 53)));
    }
}

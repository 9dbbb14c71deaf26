//! EDNS0 (RFC 6891) options, including the Client Subnet option
//! (RFC 7871) — the mechanism the paper's conclusion points toward for
//! fixing resolver-based mislocalization ("we have started to explore
//! alternative approaches for improving CDN performance through better
//! client localization", §9).

use crate::error::WireError;
use std::net::Ipv4Addr;

/// EDNS option code for Client Subnet.
pub const OPTION_CLIENT_SUBNET: u16 = 8;
/// Address family code for IPv4 in ECS.
pub const ECS_FAMILY_IPV4: u16 = 1;

/// A parsed EDNS option.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EdnsOption {
    /// RFC 7871 Client Subnet (IPv4 only; this simulation is v4-only).
    ClientSubnet {
        /// Prefix length the sender vouches for.
        source_prefix_len: u8,
        /// Prefix length the responder used (0 in queries).
        scope_prefix_len: u8,
        /// The (truncated) client address.
        addr: Ipv4Addr,
    },
    /// Any other option, preserved opaquely.
    Unknown {
        /// Option code.
        code: u16,
        /// Raw option payload.
        data: Vec<u8>,
    },
}

impl EdnsOption {
    /// A query-side ECS option for `addr/prefix_len`.
    pub fn client_subnet(addr: Ipv4Addr, prefix_len: u8) -> Self {
        EdnsOption::ClientSubnet {
            source_prefix_len: prefix_len.min(32),
            scope_prefix_len: 0,
            addr: mask_v4(addr, prefix_len),
        }
    }
}

fn mask_v4(addr: Ipv4Addr, len: u8) -> Ipv4Addr {
    let len = len.min(32);
    let mask: u32 = if len == 0 { 0 } else { u32::MAX << (32 - len) };
    Ipv4Addr::from(u32::from(addr) & mask)
}

/// Encodes a list of EDNS options into OPT RDATA bytes.
pub fn encode_options(options: &[EdnsOption]) -> Vec<u8> {
    let mut out = Vec::new();
    for opt in options {
        match opt {
            EdnsOption::ClientSubnet {
                source_prefix_len,
                scope_prefix_len,
                addr,
            } => {
                let addr_bytes = source_prefix_len.div_ceil(8) as usize;
                out.extend_from_slice(&OPTION_CLIENT_SUBNET.to_be_bytes());
                out.extend_from_slice(&((4 + addr_bytes) as u16).to_be_bytes());
                out.extend_from_slice(&ECS_FAMILY_IPV4.to_be_bytes());
                out.push(*source_prefix_len);
                out.push(*scope_prefix_len);
                out.extend_from_slice(&addr.octets()[..addr_bytes]);
            }
            EdnsOption::Unknown { code, data } => {
                out.extend_from_slice(&code.to_be_bytes());
                out.extend_from_slice(&(data.len() as u16).to_be_bytes());
                out.extend_from_slice(data);
            }
        }
    }
    out
}

/// Decodes OPT RDATA bytes into EDNS options.
pub fn decode_options(bytes: &[u8]) -> Result<Vec<EdnsOption>, WireError> {
    let mut options = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        if pos + 4 > bytes.len() {
            return Err(WireError::Truncated {
                context: "edns option header",
            });
        }
        let code = u16::from_be_bytes([bytes[pos], bytes[pos + 1]]);
        let len = u16::from_be_bytes([bytes[pos + 2], bytes[pos + 3]]) as usize;
        pos += 4;
        if pos + len > bytes.len() {
            return Err(WireError::Truncated {
                context: "edns option body",
            });
        }
        let body = &bytes[pos..pos + len];
        pos += len;
        if code == OPTION_CLIENT_SUBNET {
            if body.len() < 4 {
                return Err(WireError::BadRdata("ecs option too short"));
            }
            let family = u16::from_be_bytes([body[0], body[1]]);
            if family != ECS_FAMILY_IPV4 {
                options.push(EdnsOption::Unknown {
                    code,
                    data: body.to_vec(),
                });
                continue;
            }
            let source_prefix_len = body[2];
            let scope_prefix_len = body[3];
            let addr_bytes = &body[4..];
            if addr_bytes.len() != source_prefix_len.div_ceil(8) as usize || addr_bytes.len() > 4 {
                return Err(WireError::BadRdata("ecs address length mismatch"));
            }
            let mut octets = [0u8; 4];
            octets[..addr_bytes.len()].copy_from_slice(addr_bytes);
            options.push(EdnsOption::ClientSubnet {
                source_prefix_len,
                scope_prefix_len,
                addr: Ipv4Addr::from(octets),
            });
        } else {
            options.push(EdnsOption::Unknown {
                code,
                data: body.to_vec(),
            });
        }
    }
    Ok(options)
}

/// Default EDNS0 UDP payload size our endpoints advertise.
pub const DEFAULT_UDP_PAYLOAD_SIZE: u16 = 4096;

/// Classic (pre-EDNS) UDP message limit (RFC 1035 §4.2.1).
pub const CLASSIC_UDP_LIMIT: usize = 512;

impl crate::message::Message {
    /// The EDNS0 UDP payload size advertised by this message's OPT record
    /// (the OPT's CLASS field, RFC 6891 §6.1.2), if any.
    pub fn edns_udp_size(&self) -> Option<u16> {
        self.additionals.iter().find_map(|rr| {
            if matches!(rr.rdata, crate::rdata::RData::Opt(_)) {
                Some(rr.class.code())
            } else {
                None
            }
        })
    }

    /// Adds (or keeps) an OPT record advertising `size` as the supported
    /// UDP payload size. Preserves existing OPT options (e.g. ECS).
    pub fn advertise_udp_size(&mut self, size: u16) {
        for rr in self.additionals.iter_mut() {
            if matches!(rr.rdata, crate::rdata::RData::Opt(_)) {
                rr.class = crate::rdata::RecordClass::from_code(size);
                return;
            }
        }
        let mut rr = crate::message::ResourceRecord::new(
            crate::name::DnsName::root(),
            0,
            crate::rdata::RData::Opt(Vec::new()),
        );
        rr.class = crate::rdata::RecordClass::from_code(size);
        self.additionals.push(rr);
    }

    /// Truncates this message for a UDP path limited to `limit` bytes:
    /// if the encoding exceeds the limit, all records are dropped and the
    /// TC bit is set, telling the client to retry with more capacity
    /// (RFC 1035 §6.2 semantics).
    pub fn truncate_for(&mut self, limit: usize) -> bool {
        match self.encode() {
            Ok(encoded) if encoded.len() > limit => {
                self.strip_for_tc();
                true
            }
            _ => false,
        }
    }

    /// Encodes this message for a UDP path limited to `limit` bytes: the
    /// bytes of [`Message::truncate_for`] followed by [`Message::encode`],
    /// from one encoding when the message fits. Only a message truncated to
    /// its header and questions is encoded a second time.
    pub fn encode_within(&mut self, limit: usize) -> Result<Vec<u8>, WireError> {
        let encoded = self.encode()?;
        if encoded.len() <= limit {
            return Ok(encoded);
        }
        self.strip_for_tc();
        self.encode()
    }

    /// Drops every record and sets TC (RFC 1035 §6.2).
    fn strip_for_tc(&mut self) {
        self.answers.clear();
        self.authorities.clear();
        self.additionals.clear();
        self.header.flags.truncated = true;
    }

    /// The ECS option carried in this message's OPT record, if any.
    pub fn client_subnet(&self) -> Option<(Ipv4Addr, u8, u8)> {
        for rr in &self.additionals {
            if let crate::rdata::RData::Opt(bytes) = &rr.rdata {
                if let Ok(options) = decode_options(bytes) {
                    for opt in options {
                        if let EdnsOption::ClientSubnet {
                            source_prefix_len,
                            scope_prefix_len,
                            addr,
                        } = opt
                        {
                            return Some((addr, source_prefix_len, scope_prefix_len));
                        }
                    }
                }
            }
        }
        None
    }

    /// Attaches (or replaces) an ECS option announcing `addr/prefix_len`.
    pub fn set_client_subnet(&mut self, addr: Ipv4Addr, prefix_len: u8) {
        self.set_ecs_raw(addr, prefix_len, 0);
    }

    /// Attaches (or replaces) an ECS option with an explicit scope (used by
    /// authoritative responders to state the granularity of their answer).
    pub fn set_ecs_raw(&mut self, addr: Ipv4Addr, source: u8, scope: u8) {
        self.additionals
            .retain(|rr| !matches!(rr.rdata, crate::rdata::RData::Opt(_)));
        let rdata = crate::rdata::RData::Opt(encode_options(&[EdnsOption::ClientSubnet {
            source_prefix_len: source.min(32),
            scope_prefix_len: scope.min(32),
            addr: mask_v4(addr, source),
        }]));
        // OPT owner is the root; the TTL field carries EDNS flags (zeroed)
        // and the CLASS field advertises the supported UDP payload size.
        let mut rr = crate::message::ResourceRecord::new(crate::name::DnsName::root(), 0, rdata);
        rr.class = crate::rdata::RecordClass::from_code(DEFAULT_UDP_PAYLOAD_SIZE);
        self.additionals.push(rr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_ecs_roundtrips_through_the_wire() {
        use crate::builder::QueryBuilder;
        use crate::message::Message;
        use crate::rdata::RecordType;
        let mut q = QueryBuilder::new(9, "m.yelp.com", RecordType::A)
            .build()
            .unwrap();
        assert!(q.client_subnet().is_none());
        q.set_client_subnet(Ipv4Addr::new(100, 1, 7, 200), 24);
        let decoded = Message::decode(&q.encode().unwrap()).unwrap();
        assert_eq!(
            decoded.client_subnet(),
            Some((Ipv4Addr::new(100, 1, 7, 0), 24, 0))
        );
        // Setting again replaces rather than duplicates.
        let mut q2 = decoded;
        q2.set_client_subnet(Ipv4Addr::new(10, 0, 0, 1), 16);
        assert_eq!(q2.additionals.len(), 1);
        assert_eq!(
            q2.client_subnet(),
            Some((Ipv4Addr::new(10, 0, 0, 0), 16, 0))
        );
    }

    #[test]
    fn ecs_scope_is_carried() {
        use crate::builder::QueryBuilder;
        use crate::rdata::RecordType;
        let mut r = QueryBuilder::new(9, "m.yelp.com", RecordType::A)
            .build()
            .unwrap();
        r.set_ecs_raw(Ipv4Addr::new(100, 1, 7, 0), 24, 24);
        assert_eq!(
            r.client_subnet(),
            Some((Ipv4Addr::new(100, 1, 7, 0), 24, 24))
        );
    }

    #[test]
    fn udp_size_advertisement_roundtrips() {
        use crate::builder::QueryBuilder;
        use crate::message::Message;
        use crate::rdata::RecordType;
        let mut q = QueryBuilder::new(2, "m.yelp.com", RecordType::A)
            .build()
            .unwrap();
        assert_eq!(q.edns_udp_size(), None);
        q.advertise_udp_size(4096);
        let decoded = Message::decode(&q.encode().unwrap()).unwrap();
        assert_eq!(decoded.edns_udp_size(), Some(4096));
        // Setting ECS afterwards keeps (replaces) one OPT with the size.
        let mut q2 = decoded;
        q2.set_client_subnet(Ipv4Addr::new(10, 0, 0, 1), 24);
        assert_eq!(q2.edns_udp_size(), Some(DEFAULT_UDP_PAYLOAD_SIZE));
        assert!(q2.client_subnet().is_some());
    }

    #[test]
    fn truncate_for_sets_tc_and_strips_records() {
        use crate::builder::{QueryBuilder, ResponseBuilder};
        use crate::rdata::{RData, RecordType};
        let q = QueryBuilder::new(5, "big.test", RecordType::Txt)
            .build()
            .unwrap();
        let mut resp = ResponseBuilder::for_query(&q).build();
        for i in 0..20 {
            resp.answers.push(crate::message::ResourceRecord::new(
                crate::name::DnsName::parse("big.test").unwrap(),
                60,
                RData::Txt(vec![format!("{i:0>60}")]),
            ));
        }
        assert!(resp.encode().unwrap().len() > 512);
        let truncated = resp.truncate_for(512);
        assert!(truncated);
        assert!(resp.header.flags.truncated);
        assert!(resp.answers.is_empty());
        assert!(resp.encode().unwrap().len() <= 512);
        // Small messages are untouched.
        let mut small = ResponseBuilder::for_query(&q).build();
        assert!(!small.truncate_for(512));
        assert!(!small.header.flags.truncated);
    }

    #[test]
    fn ecs_roundtrip() {
        let opts = vec![EdnsOption::client_subnet(Ipv4Addr::new(100, 1, 7, 200), 24)];
        let bytes = encode_options(&opts);
        let decoded = decode_options(&bytes).unwrap();
        assert_eq!(
            decoded,
            vec![EdnsOption::ClientSubnet {
                source_prefix_len: 24,
                scope_prefix_len: 0,
                addr: Ipv4Addr::new(100, 1, 7, 0), // host bits masked
            }]
        );
    }

    #[test]
    fn ecs_truncates_address_to_prefix_bytes() {
        let opts = vec![EdnsOption::client_subnet(Ipv4Addr::new(10, 20, 30, 40), 16)];
        let bytes = encode_options(&opts);
        // code(2) + len(2) + family(2) + lens(2) + 2 address bytes.
        assert_eq!(bytes.len(), 10);
        let decoded = decode_options(&bytes).unwrap();
        match decoded[0] {
            EdnsOption::ClientSubnet { addr, .. } => {
                assert_eq!(addr, Ipv4Addr::new(10, 20, 0, 0))
            }
            _ => panic!("not ecs"),
        }
    }

    #[test]
    fn unknown_options_are_preserved() {
        let opts = vec![
            EdnsOption::Unknown {
                code: 10, // cookie
                data: vec![1, 2, 3, 4, 5, 6, 7, 8],
            },
            EdnsOption::client_subnet(Ipv4Addr::new(8, 8, 8, 0), 24),
        ];
        let bytes = encode_options(&opts);
        let decoded = decode_options(&bytes).unwrap();
        assert_eq!(decoded.len(), 2);
        assert_eq!(decoded[0], opts[0]);
    }

    #[test]
    fn rejects_truncated_options() {
        assert!(decode_options(&[0, 8, 0, 9, 0]).is_err());
        assert!(decode_options(&[0, 8]).is_err());
        // ECS with wrong address length.
        let bad = [0, 8, 0, 5, 0, 1, 24, 0, 1]; // /24 but 1 address byte
        assert!(decode_options(&bad).is_err());
    }

    #[test]
    fn zero_prefix_means_any() {
        let opts = vec![EdnsOption::client_subnet(Ipv4Addr::new(1, 2, 3, 4), 0)];
        let bytes = encode_options(&opts);
        let decoded = decode_options(&bytes).unwrap();
        match decoded[0] {
            EdnsOption::ClientSubnet {
                source_prefix_len,
                addr,
                ..
            } => {
                assert_eq!(source_prefix_len, 0);
                assert_eq!(addr, Ipv4Addr::new(0, 0, 0, 0));
            }
            _ => panic!("not ecs"),
        }
    }

    #[test]
    fn non_ipv4_family_falls_back_to_unknown() {
        // family 2 (IPv6) — preserved as Unknown rather than rejected.
        let raw = [0u8, 8, 0, 4, 0, 2, 0, 0];
        let decoded = decode_options(&raw).unwrap();
        assert!(matches!(decoded[0], EdnsOption::Unknown { code: 8, .. }));
    }

    #[test]
    fn empty_rdata_is_no_options() {
        assert_eq!(decode_options(&[]).unwrap(), vec![]);
    }
}

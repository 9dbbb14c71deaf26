//! Record types, classes, and typed RDATA.

use crate::error::WireError;
use crate::message::{Cursor, NameEncoder};
use crate::name::DnsName;
use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};

/// DNS record types modeled by this implementation.
///
/// Unknown type codes survive decode/encode as [`RecordType::Unknown`], so
/// the codec is lossless for records it does not interpret.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RecordType {
    /// IPv4 host address.
    A,
    /// Authoritative name server.
    Ns,
    /// Canonical name (alias).
    Cname,
    /// Start of authority.
    Soa,
    /// Domain name pointer (reverse lookups).
    Ptr,
    /// Mail exchange.
    Mx,
    /// Free-form text; used by our whoami probes.
    Txt,
    /// IPv6 host address.
    Aaaa,
    /// EDNS0 pseudo-record.
    Opt,
    /// Any other type code, preserved opaquely.
    Unknown(u16),
}

impl RecordType {
    /// The 16-bit wire code.
    pub fn code(self) -> u16 {
        match self {
            RecordType::A => 1,
            RecordType::Ns => 2,
            RecordType::Cname => 5,
            RecordType::Soa => 6,
            RecordType::Ptr => 12,
            RecordType::Mx => 15,
            RecordType::Txt => 16,
            RecordType::Aaaa => 28,
            RecordType::Opt => 41,
            RecordType::Unknown(c) => c,
        }
    }

    /// Maps a wire code to a type, preserving unknown codes.
    pub fn from_code(code: u16) -> Self {
        match code {
            1 => RecordType::A,
            2 => RecordType::Ns,
            5 => RecordType::Cname,
            6 => RecordType::Soa,
            12 => RecordType::Ptr,
            15 => RecordType::Mx,
            16 => RecordType::Txt,
            28 => RecordType::Aaaa,
            41 => RecordType::Opt,
            c => RecordType::Unknown(c),
        }
    }
}

impl fmt::Display for RecordType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordType::A => write!(f, "A"),
            RecordType::Ns => write!(f, "NS"),
            RecordType::Cname => write!(f, "CNAME"),
            RecordType::Soa => write!(f, "SOA"),
            RecordType::Ptr => write!(f, "PTR"),
            RecordType::Mx => write!(f, "MX"),
            RecordType::Txt => write!(f, "TXT"),
            RecordType::Aaaa => write!(f, "AAAA"),
            RecordType::Opt => write!(f, "OPT"),
            RecordType::Unknown(c) => write!(f, "TYPE{c}"),
        }
    }
}

/// DNS record classes. Only `IN` is used by the simulation but the codec is
/// faithful to the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecordClass {
    /// The Internet class.
    In,
    /// Any other class code, preserved opaquely.
    Unknown(u16),
}

impl RecordClass {
    /// The 16-bit wire code.
    pub fn code(self) -> u16 {
        match self {
            RecordClass::In => 1,
            RecordClass::Unknown(c) => c,
        }
    }

    /// Maps a wire code to a class.
    pub fn from_code(code: u16) -> Self {
        match code {
            1 => RecordClass::In,
            c => RecordClass::Unknown(c),
        }
    }
}

/// SOA record contents (RFC 1035 §3.3.13).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SoaData {
    /// Primary name server for the zone.
    pub mname: DnsName,
    /// Mailbox of the person responsible for the zone.
    pub rname: DnsName,
    /// Zone serial number.
    pub serial: u32,
    /// Refresh interval in seconds.
    pub refresh: u32,
    /// Retry interval in seconds.
    pub retry: u32,
    /// Expiry limit in seconds.
    pub expire: u32,
    /// Minimum/negative-caching TTL in seconds.
    pub minimum: u32,
}

/// Typed record data.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RData {
    /// IPv4 address.
    A(Ipv4Addr),
    /// IPv6 address.
    Aaaa(Ipv6Addr),
    /// Name server host.
    Ns(DnsName),
    /// Alias target.
    Cname(DnsName),
    /// Reverse pointer target.
    Ptr(DnsName),
    /// Mail exchange: preference then host.
    Mx(u16, DnsName),
    /// Text strings (each at most 255 bytes on the wire).
    Txt(Vec<String>),
    /// Start of authority.
    Soa(SoaData),
    /// EDNS0 options, stored opaquely.
    Opt(Vec<u8>),
    /// Unknown record data, stored opaquely with its type code.
    Unknown(u16, Vec<u8>),
}

impl RData {
    /// The record type this data belongs to.
    pub fn record_type(&self) -> RecordType {
        match self {
            RData::A(_) => RecordType::A,
            RData::Aaaa(_) => RecordType::Aaaa,
            RData::Ns(_) => RecordType::Ns,
            RData::Cname(_) => RecordType::Cname,
            RData::Ptr(_) => RecordType::Ptr,
            RData::Mx(..) => RecordType::Mx,
            RData::Txt(_) => RecordType::Txt,
            RData::Soa(_) => RecordType::Soa,
            RData::Opt(_) => RecordType::Opt,
            RData::Unknown(code, _) => RecordType::Unknown(*code),
        }
    }

    /// Returns the IPv4 address for A records, `None` otherwise.
    pub fn as_a(&self) -> Option<Ipv4Addr> {
        match self {
            RData::A(ip) => Some(*ip),
            _ => None,
        }
    }

    /// Returns the CNAME target, `None` otherwise.
    pub fn as_cname(&self) -> Option<&DnsName> {
        match self {
            RData::Cname(n) => Some(n),
            _ => None,
        }
    }

    /// Encodes this RDATA (without the RDLENGTH prefix) into `enc`.
    ///
    /// Names inside RDATA of the classic types (NS, CNAME, PTR, SOA, MX) are
    /// eligible for compression per RFC 3597 §4 ("well-known" types only).
    pub(crate) fn encode(&self, enc: &mut NameEncoder) -> Result<(), WireError> {
        match self {
            RData::A(ip) => enc.put_bytes(&ip.octets()),
            RData::Aaaa(ip) => enc.put_bytes(&ip.octets()),
            RData::Ns(n) | RData::Cname(n) | RData::Ptr(n) => enc.put_name(n),
            RData::Mx(pref, host) => {
                enc.put_u16(*pref);
                enc.put_name(host);
            }
            RData::Txt(strings) => {
                if strings.is_empty() {
                    // RFC 1035 requires at least one character-string.
                    enc.put_bytes(&[0]);
                }
                for s in strings {
                    let bytes = s.as_bytes();
                    if bytes.len() > 255 {
                        return Err(WireError::BadRdata("txt string over 255 bytes"));
                    }
                    enc.put_bytes(&[bytes.len() as u8]);
                    enc.put_bytes(bytes);
                }
            }
            RData::Soa(soa) => {
                enc.put_name(&soa.mname);
                enc.put_name(&soa.rname);
                enc.put_u32(soa.serial);
                enc.put_u32(soa.refresh);
                enc.put_u32(soa.retry);
                enc.put_u32(soa.expire);
                enc.put_u32(soa.minimum);
            }
            RData::Opt(bytes) | RData::Unknown(_, bytes) => enc.put_bytes(bytes),
        }
        Ok(())
    }

    /// Decodes RDATA of `rtype` from exactly `rdlen` bytes at the cursor.
    pub(crate) fn decode(
        cur: &mut Cursor<'_>,
        rtype: RecordType,
        rdlen: usize,
    ) -> Result<RData, WireError> {
        let start = cur.pos();
        let end = start
            .checked_add(rdlen)
            .ok_or(WireError::Truncated { context: "rdata" })?;
        if end > cur.len() {
            return Err(WireError::Truncated { context: "rdata" });
        }
        let data = match rtype {
            RecordType::A => {
                let o = cur.take(4, "A rdata")?;
                RData::A(Ipv4Addr::new(o[0], o[1], o[2], o[3]))
            }
            RecordType::Aaaa => {
                let o = cur.take(16, "AAAA rdata")?;
                let mut b = [0u8; 16];
                b.copy_from_slice(o);
                RData::Aaaa(Ipv6Addr::from(b))
            }
            RecordType::Ns => RData::Ns(cur.read_name()?),
            RecordType::Cname => RData::Cname(cur.read_name()?),
            RecordType::Ptr => RData::Ptr(cur.read_name()?),
            RecordType::Mx => {
                let pref = cur.read_u16("MX preference")?;
                RData::Mx(pref, cur.read_name()?)
            }
            RecordType::Txt => {
                let mut strings = Vec::new();
                while cur.pos() < end {
                    let len = cur.read_u8("TXT length")? as usize;
                    let bytes = cur.take(len, "TXT string")?;
                    strings.push(String::from_utf8_lossy(bytes).into_owned());
                }
                RData::Txt(strings)
            }
            RecordType::Soa => {
                let mname = cur.read_name()?;
                let rname = cur.read_name()?;
                RData::Soa(SoaData {
                    mname,
                    rname,
                    serial: cur.read_u32("SOA serial")?,
                    refresh: cur.read_u32("SOA refresh")?,
                    retry: cur.read_u32("SOA retry")?,
                    expire: cur.read_u32("SOA expire")?,
                    minimum: cur.read_u32("SOA minimum")?,
                })
            }
            RecordType::Opt => RData::Opt(cur.take(rdlen, "OPT rdata")?.to_vec()),
            RecordType::Unknown(code) => {
                RData::Unknown(code, cur.take(rdlen, "unknown rdata")?.to_vec())
            }
        };
        let consumed = cur.pos() - start;
        if consumed != rdlen {
            return Err(WireError::RdataLengthMismatch {
                declared: rdlen,
                consumed,
            });
        }
        Ok(data)
    }
}

impl fmt::Display for RData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RData::A(ip) => write!(f, "{ip}"),
            RData::Aaaa(ip) => write!(f, "{ip}"),
            RData::Ns(n) => write!(f, "{n}"),
            RData::Cname(n) => write!(f, "{n}"),
            RData::Ptr(n) => write!(f, "{n}"),
            RData::Mx(p, h) => write!(f, "{p} {h}"),
            RData::Txt(s) => write!(f, "{:?}", s),
            RData::Soa(s) => write!(
                f,
                "{} {} {} {} {} {} {}",
                s.mname, s.rname, s.serial, s.refresh, s.retry, s.expire, s.minimum
            ),
            RData::Opt(b) => write!(f, "OPT({} bytes)", b.len()),
            RData::Unknown(code, b) => write!(f, "TYPE{code}({} bytes)", b.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_codes_roundtrip() {
        for t in [
            RecordType::A,
            RecordType::Ns,
            RecordType::Cname,
            RecordType::Soa,
            RecordType::Ptr,
            RecordType::Mx,
            RecordType::Txt,
            RecordType::Aaaa,
            RecordType::Opt,
            RecordType::Unknown(9999),
        ] {
            assert_eq!(RecordType::from_code(t.code()), t);
        }
    }

    #[test]
    fn unknown_codes_are_preserved() {
        assert_eq!(RecordType::from_code(257), RecordType::Unknown(257));
        assert_eq!(RecordClass::from_code(3), RecordClass::Unknown(3));
        assert_eq!(RecordClass::from_code(1), RecordClass::In);
    }

    #[test]
    fn rdata_type_mapping() {
        assert_eq!(
            RData::A(Ipv4Addr::new(1, 2, 3, 4)).record_type(),
            RecordType::A
        );
        assert_eq!(RData::Txt(vec!["x".into()]).record_type(), RecordType::Txt);
        assert_eq!(RData::Unknown(300, vec![]).record_type().code(), 300);
    }

    #[test]
    fn accessors() {
        let a = RData::A(Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(a.as_a(), Some(Ipv4Addr::new(10, 0, 0, 1)));
        assert!(a.as_cname().is_none());
        let target = DnsName::parse("cdn.example.net").unwrap();
        let c = RData::Cname(target.clone());
        assert_eq!(c.as_cname(), Some(&target));
        assert!(c.as_a().is_none());
    }
}

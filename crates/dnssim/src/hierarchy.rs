//! Builders for the global DNS hierarchy: a root zone, TLD zones, and
//! delegations down to authoritative servers.

use crate::zone::Zone;
use dnswire::name::DnsName;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Assembles the root and TLD zones from a set of domain delegations.
///
/// ```
/// use dnssim::hierarchy::HierarchyBuilder;
/// use std::net::Ipv4Addr;
///
/// let mut h = HierarchyBuilder::new();
/// h.add_tld("com", Ipv4Addr::new(192, 5, 6, 30));
/// h.add_domain("example.com", Ipv4Addr::new(198, 51, 100, 53));
/// let built = h.build();
/// assert_eq!(built.tlds.len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct HierarchyBuilder {
    /// tld label -> server address.
    tlds: BTreeMap<String, Ipv4Addr>,
    /// domain -> authoritative server address.
    domains: BTreeMap<String, Ipv4Addr>,
}

/// The assembled zones, ready to be installed on authoritative servers.
#[derive(Debug)]
pub struct BuiltHierarchy {
    /// The root zone (install on the root server).
    pub root: Zone,
    /// TLD zones with the address of the server that should host each.
    pub tlds: Vec<(String, Ipv4Addr, Zone)>,
}

/// The rightmost label of `name` — its key in the TLD table. Empty for the
/// root, which no table holds, so the callers' registration checks reject it.
fn tld_label(name: &DnsName) -> String {
    name.labels()
        .last()
        .map(|l| String::from_utf8_lossy(l).into_owned())
        .unwrap_or_default()
}

impl HierarchyBuilder {
    /// An empty hierarchy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a TLD served at `addr`.
    pub fn add_tld(&mut self, label: &str, addr: Ipv4Addr) -> &mut Self {
        self.tlds.insert(label.to_string(), addr);
        self
    }

    /// Delegates `domain` (e.g. `example.com`) to an authoritative server at
    /// `addr`. The TLD must have been registered first.
    pub fn add_domain(&mut self, domain: &str, addr: Ipv4Addr) -> &mut Self {
        #[expect(
            clippy::expect_used,
            reason = "builder over the static zone catalog; an invalid name must abort topology construction, not limp on"
        )]
        let name = DnsName::parse(domain).expect("valid domain");
        let tld = tld_label(&name);
        assert!(
            self.tlds.contains_key(&tld),
            "TLD {tld} not registered before domain {domain}"
        );
        self.domains.insert(domain.to_string(), addr);
        self
    }

    /// Produces the root and TLD zones.
    pub fn build(self) -> BuiltHierarchy {
        let mut root = Zone::new(DnsName::root());
        let mut tld_zones: BTreeMap<String, Zone> = BTreeMap::new();
        for (label, addr) in &self.tlds {
            #[expect(
                clippy::expect_used,
                reason = "builder over the static zone catalog; an invalid name must abort topology construction, not limp on"
            )]
            let tld_name = DnsName::parse(label).expect("valid tld");
            #[expect(
                clippy::expect_used,
                reason = "\"ns\" is a literal, always a valid label"
            )]
            let ns_host = tld_name.child("ns").expect("ns label");
            root.delegate(tld_name.clone(), vec![(ns_host, *addr)]);
            tld_zones.insert(label.clone(), Zone::new(tld_name));
        }
        for (domain, addr) in &self.domains {
            #[expect(
                clippy::expect_used,
                reason = "builder over the static zone catalog; an invalid name must abort topology construction, not limp on"
            )]
            let name = DnsName::parse(domain).expect("valid domain");
            let tld = tld_label(&name);
            #[expect(
                clippy::expect_used,
                reason = "add_domain asserted the TLD was registered, so its zone exists"
            )]
            let zone = tld_zones.get_mut(&tld).expect("tld zone exists");
            #[expect(
                clippy::expect_used,
                reason = "\"ns1\" is a literal, always a valid label"
            )]
            let ns_host = name.child("ns1").expect("ns1 label");
            zone.delegate(name, vec![(ns_host, *addr)]);
        }
        BuiltHierarchy {
            root,
            tlds: tld_zones
                .into_iter()
                .map(|(label, zone)| {
                    let addr = self.tlds[&label];
                    (label, addr, zone)
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnswire::message::Rcode;
    use dnswire::rdata::{RData, RecordType};

    fn n(s: &str) -> DnsName {
        DnsName::parse(s).unwrap()
    }

    fn ip(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
        Ipv4Addr::new(a, b, c, d)
    }

    #[test]
    fn root_refers_to_tld() {
        let mut h = HierarchyBuilder::new();
        h.add_tld("com", ip(192, 5, 6, 30));
        h.add_domain("example.com", ip(198, 51, 100, 53));
        let built = h.build();
        let out = built.root.lookup(&n("www.example.com"), RecordType::A);
        assert_eq!(out.rcode, Rcode::NoError);
        assert!(!out.authoritative);
        assert_eq!(out.additionals[0].rdata.as_a(), Some(ip(192, 5, 6, 30)));
    }

    #[test]
    fn tld_refers_to_domain() {
        let mut h = HierarchyBuilder::new();
        h.add_tld("com", ip(192, 5, 6, 30));
        h.add_domain("example.com", ip(198, 51, 100, 53));
        let built = h.build();
        let (_, addr, com) = &built.tlds[0];
        assert_eq!(*addr, ip(192, 5, 6, 30));
        let out = com.lookup(&n("www.example.com"), RecordType::A);
        assert!(!out.authoritative);
        assert_eq!(out.additionals[0].rdata.as_a(), Some(ip(198, 51, 100, 53)));
        assert!(matches!(out.authorities[0].rdata, RData::Ns(_)));
    }

    #[test]
    fn multiple_tlds_and_domains() {
        let mut h = HierarchyBuilder::new();
        h.add_tld("com", ip(192, 5, 6, 30));
        h.add_tld("net", ip(192, 5, 6, 31));
        h.add_tld("example", ip(192, 5, 6, 32));
        h.add_domain("buzzfeed.com", ip(198, 51, 100, 1));
        h.add_domain("provider.net", ip(198, 51, 100, 2));
        h.add_domain("probe.example", ip(198, 51, 100, 3));
        let built = h.build();
        assert_eq!(built.tlds.len(), 3);
        let out = built.root.lookup(&n("m.provider.net"), RecordType::A);
        assert_eq!(out.additionals[0].rdata.as_a(), Some(ip(192, 5, 6, 31)));
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn domain_requires_tld() {
        let mut h = HierarchyBuilder::new();
        h.add_domain("example.com", ip(1, 2, 3, 4));
    }
}

//! The CDN's authoritative mapping zone: answers domain queries with a
//! CNAME into the provider's namespace plus short-TTL A records for the
//! replicas selected for the querying resolver.

use crate::cdn::Cdn;
use dnssim::authority::DynamicZone;
use dnssim::zone::ZoneAnswer;
use dnswire::message::ResourceRecord;
use dnswire::name::DnsName;
use dnswire::rdata::{RData, RecordType};
use netsim::engine::ServiceCtx;
use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Dynamic zone serving one customer zone from one CDN.
pub struct MappingZone {
    /// Zone apex (e.g. `buzzfeed.com`).
    origin: DnsName,
    /// The provider's edge namespace (e.g. `edge.cdn-a.example`).
    edge_suffix: DnsName,
    /// The CDN doing the selection.
    cdn: Arc<Cdn>,
}

impl MappingZone {
    /// A mapping zone for `origin` served by `cdn` with edge names under
    /// `edge_suffix`.
    pub fn new(origin: DnsName, edge_suffix: DnsName, cdn: Arc<Cdn>) -> Self {
        MappingZone {
            origin,
            edge_suffix,
            cdn,
        }
    }

    /// The stable edge host name for a queried name (what the CNAME points
    /// at — `e<hash>.edge.cdn-a.example`).
    ///
    /// The label is in every CNAME answer, so what feeds its hash is part of
    /// the replay contract and is spelled out here, not left to whatever
    /// `DnsName`'s `Hash` happens to write: the label count, then each label
    /// behind its length — the stream the recorded replies were made with.
    fn edge_name(&self, qname: &DnsName) -> DnsName {
        let mut h = DefaultHasher::new();
        h.write_usize(qname.label_count());
        for label in qname.labels() {
            h.write_usize(label.len());
            h.write(label);
        }
        let label = format!("e{:08x}", h.finish() as u32);
        // detlint: allow(D9) -- the label is a fixed 9-byte lowercase-hex
        // literal, always a legal DNS label under any suffix short enough
        // to be a DnsName itself; child() cannot fail on it.
        self.edge_suffix.child(&label).expect("edge label is valid")
    }
}

impl DynamicZone for MappingZone {
    fn origin(&self) -> &DnsName {
        &self.origin
    }

    fn answer(
        &mut self,
        qname: &DnsName,
        qtype: RecordType,
        resolver: Ipv4Addr,
        ecs: Option<(Ipv4Addr, u8)>,
        _ctx: &mut ServiceCtx<'_>,
    ) -> ZoneAnswer {
        let mut out = ZoneAnswer::empty();
        if qtype != RecordType::A && qtype != RecordType::Cname {
            return out; // NODATA for types we do not serve
        }
        let edge = self.edge_name(qname);
        out.answers.push(ResourceRecord::new(
            qname.clone(),
            self.cdn.config.cname_ttl,
            RData::Cname(edge.clone()),
        ));
        if qtype == RecordType::A {
            // ECS (when announced) localizes the *client*, not the
            // resolver — the §9 fix for everything this paper measured.
            let locate_by = ecs.map(|(addr, _)| addr).unwrap_or(resolver);
            for addr in self.cdn.select(locate_by) {
                out.answers.push(ResourceRecord::new(
                    edge.clone(),
                    self.cdn.config.record_ttl,
                    RData::A(addr),
                ));
            }
            if ecs.is_some() {
                out.ecs_scope = Some(24);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdn::{CdnConfig, Replica};
    use dnswire::message::Rcode;
    use netsim::topo::Coord;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ip(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
        Ipv4Addr::new(a, b, c, d)
    }

    fn n(s: &str) -> DnsName {
        DnsName::parse(s).unwrap()
    }

    fn zone() -> MappingZone {
        let replicas: Vec<Replica> = (0..10)
            .map(|i| Replica {
                addr: ip(90, 0, i as u8, 1),
                coord: Coord {
                    x_km: i as f64 * 400.0,
                    y_km: 0.0,
                },
            })
            .collect();
        let cdn = Arc::new(Cdn::new(CdnConfig::new("cdn-a"), replicas));
        MappingZone::new(n("buzzfeed.com"), n("edge.cdn-a.example"), cdn)
    }

    #[test]
    fn edge_labels_are_pinned() {
        // Read off replies recorded before `DnsName` went flat (quick world,
        // seed 2014); a changed label changes every CDN answer on the wire.
        let z = zone();
        for (qname, edge) in [
            ("m.facebook.com", "e1b6b5b0f.edge.cdn-a.example"),
            ("www.buzzfeed.com", "e5f56e9d0.edge.cdn-a.example"),
            ("M.Yelp.COM", "ee8d43786.edge.cdn-a.example"),
        ] {
            assert_eq!(z.edge_name(&n(qname)), n(edge));
        }
    }

    fn answer(z: &mut MappingZone, qname: &str, qtype: RecordType, from: Ipv4Addr) -> ZoneAnswer {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx = ServiceCtx::new(netsim::time::SimTime::ZERO, ip(198, 51, 100, 1), &mut rng);
        z.answer(&n(qname), qtype, from, None, &mut ctx)
    }

    #[test]
    fn serves_cname_plus_a_records() {
        let mut z = zone();
        let out = answer(
            &mut z,
            "www.buzzfeed.com",
            RecordType::A,
            ip(100, 110, 0, 1),
        );
        assert_eq!(out.rcode, Rcode::NoError);
        assert!(matches!(out.answers[0].rdata, RData::Cname(_)));
        let a_count = out
            .answers
            .iter()
            .filter(|rr| rr.record_type() == RecordType::A)
            .count();
        assert_eq!(a_count, 2); // top_k default
                                // CNAME long TTL, A records short TTL (Fig. 7's mechanism).
        assert_eq!(out.answers[0].ttl, 300);
        assert_eq!(out.answers[1].ttl, 30);
    }

    #[test]
    fn edge_name_is_stable_per_qname() {
        let mut z = zone();
        let a = answer(&mut z, "www.buzzfeed.com", RecordType::A, ip(1, 1, 1, 1));
        let b = answer(&mut z, "www.buzzfeed.com", RecordType::A, ip(2, 2, 2, 2));
        assert_eq!(a.answers[0].rdata, b.answers[0].rdata);
        let c = answer(&mut z, "img.buzzfeed.com", RecordType::A, ip(1, 1, 1, 1));
        assert_ne!(a.answers[0].rdata, c.answers[0].rdata);
    }

    #[test]
    fn selection_depends_on_resolver_prefix() {
        let mut z = zone();
        let a = answer(
            &mut z,
            "www.buzzfeed.com",
            RecordType::A,
            ip(100, 110, 0, 1),
        );
        let b = answer(
            &mut z,
            "www.buzzfeed.com",
            RecordType::A,
            ip(100, 110, 0, 2),
        );
        assert_eq!(a.answers, b.answers, "same /24 -> same mapping");
    }

    #[test]
    fn cname_query_returns_only_cname() {
        let mut z = zone();
        let out = answer(
            &mut z,
            "www.buzzfeed.com",
            RecordType::Cname,
            ip(1, 1, 1, 1),
        );
        assert_eq!(out.answers.len(), 1);
        assert!(matches!(out.answers[0].rdata, RData::Cname(_)));
    }

    #[test]
    fn other_types_get_nodata() {
        let mut z = zone();
        let out = answer(&mut z, "www.buzzfeed.com", RecordType::Txt, ip(1, 1, 1, 1));
        assert!(out.answers.is_empty());
        assert_eq!(out.rcode, Rcode::NoError);
    }
}

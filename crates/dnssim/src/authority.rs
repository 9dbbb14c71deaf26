//! The authoritative DNS server service: static zones, dynamic zones
//! (CDN mapping logic plugs in here), and the *whoami* probe zone used to
//! discover external-facing resolvers (the Mao et al. technique from §3.2).

use crate::zone::{Zone, ZoneAnswer};
use dnswire::builder::ResponseBuilder;
use dnswire::message::{Message, Question, Rcode, ResourceRecord};
use dnswire::name::DnsName;
use dnswire::rdata::{RData, RecordType};
use netsim::engine::{Egress, ServiceCtx, UdpService};
use netsim::time::SimDuration;
use std::net::Ipv4Addr;

/// Well-known DNS port.
pub const DNS_PORT: u16 = 53;

/// Server-side processing time per query.
const PROC_DELAY: SimDuration = SimDuration::from_micros(200);

/// A zone whose answers are computed per query. The CDN's replica-mapping
/// authority implements this; so does the whoami probe zone.
///
/// `Send` for the same reason as `netsim`'s `UdpService`: authoritative
/// servers (and the engines owning them) migrate across campaign threads.
pub trait DynamicZone: Send {
    /// The zone apex this authority serves.
    fn origin(&self) -> &DnsName;

    /// Answers one question. `resolver` is the address the query arrived
    /// from — for CDNs this is the LDNS they localize the client by, which
    /// is the paper's entire subject. `ecs` carries the RFC 7871 client
    /// subnet when the resolver announced one (§9's future-work fix).
    fn answer(
        &mut self,
        qname: &DnsName,
        qtype: RecordType,
        resolver: Ipv4Addr,
        ecs: Option<(Ipv4Addr, u8)>,
        ctx: &mut ServiceCtx<'_>,
    ) -> ZoneAnswer;
}

/// The whoami zone: any A/TXT query under its origin is answered with the
/// querying resolver's address, exposing the external-facing LDNS to the
/// measurement client. TTL is zero so every probe sees the live resolver.
#[derive(Debug)]
pub struct WhoamiZone {
    origin: DnsName,
}

impl WhoamiZone {
    /// A whoami zone rooted at `origin` (e.g. `whoami.aqualab.example`).
    pub fn new(origin: DnsName) -> Self {
        WhoamiZone { origin }
    }
}

impl DynamicZone for WhoamiZone {
    fn origin(&self) -> &DnsName {
        &self.origin
    }

    fn answer(
        &mut self,
        qname: &DnsName,
        qtype: RecordType,
        resolver: Ipv4Addr,
        _ecs: Option<(Ipv4Addr, u8)>,
        ctx: &mut ServiceCtx<'_>,
    ) -> ZoneAnswer {
        let mut answers = Vec::new();
        match qtype {
            RecordType::A => {
                answers.push(ResourceRecord::new(qname.clone(), 0, RData::A(resolver)));
            }
            RecordType::Txt => {
                answers.push(ResourceRecord::new(
                    qname.clone(),
                    0,
                    RData::Txt(vec![format!("resolver={resolver} t={}", ctx.now.as_secs())]),
                ));
            }
            _ => {}
        }
        ZoneAnswer {
            answers,
            ..ZoneAnswer::empty()
        }
    }
}

/// An authoritative server hosting static and dynamic zones.
pub struct AuthoritativeServer {
    zones: Vec<Zone>,
    dynamic: Vec<Box<dyn DynamicZone>>,
}

impl AuthoritativeServer {
    /// An empty server.
    pub fn new() -> Self {
        AuthoritativeServer {
            zones: Vec::new(),
            dynamic: Vec::new(),
        }
    }

    /// Adds a static zone.
    pub fn add_zone(&mut self, zone: Zone) -> &mut Self {
        self.zones.push(zone);
        self
    }

    /// Adds a dynamic zone.
    pub fn add_dynamic(&mut self, zone: Box<dyn DynamicZone>) -> &mut Self {
        self.dynamic.push(zone);
        self
    }

    /// Longest-origin-match across static and dynamic zones. Returns
    /// (is_dynamic, index).
    fn best_zone(&self, qname: &DnsName) -> Option<(bool, usize)> {
        let mut best: Option<(bool, usize, usize)> = None; // (dynamic, idx, labels)
        for (i, z) in self.zones.iter().enumerate() {
            if qname.is_under(z.origin()) {
                let l = z.origin().label_count();
                if best.map(|(_, _, bl)| l > bl).unwrap_or(true) {
                    best = Some((false, i, l));
                }
            }
        }
        for (i, z) in self.dynamic.iter().enumerate() {
            if qname.is_under(z.origin()) {
                let l = z.origin().label_count();
                if best.map(|(_, _, bl)| l > bl).unwrap_or(true) {
                    best = Some((true, i, l));
                }
            }
        }
        best.map(|(d, i, _)| (d, i))
    }

    fn respond(
        &mut self,
        query: &Message,
        q: &Question,
        querier: Ipv4Addr,
        ctx: &mut ServiceCtx<'_>,
    ) -> Message {
        let ecs = query
            .client_subnet()
            .filter(|(_, source, _)| *source > 0)
            .map(|(addr, source, _)| (addr, source));
        let answer = match self.best_zone(&q.qname) {
            Some((false, i)) => self.zones[i].lookup(&q.qname, q.qtype),
            Some((true, i)) => self.dynamic[i].answer(&q.qname, q.qtype, querier, ecs, ctx),
            None => ZoneAnswer {
                rcode: Rcode::Refused,
                authoritative: false,
                ..ZoneAnswer::empty()
            },
        };
        let mut b = ResponseBuilder::for_query(query)
            .authoritative(answer.authoritative)
            .rcode(answer.rcode);
        for rr in answer.answers {
            b = b.answer(rr);
        }
        for rr in answer.authorities {
            b = b.authority(rr);
        }
        for rr in answer.additionals {
            b = b.additional(rr);
        }
        let mut msg = b.build();
        // Echo ECS with the answer's scope (RFC 7871 §7.2.2).
        if let (Some((addr, source)), Some(scope)) = (ecs, answer.ecs_scope) {
            msg.set_ecs_raw(addr, source, scope);
        }
        msg
    }
}

impl Default for AuthoritativeServer {
    fn default() -> Self {
        Self::new()
    }
}

impl UdpService for AuthoritativeServer {
    fn handle(
        &mut self,
        ctx: &mut ServiceCtx<'_>,
        from: Ipv4Addr,
        from_port: u16,
        payload: &[u8],
    ) -> Vec<Egress> {
        let Ok(query) = Message::decode(payload) else {
            // Unparseable: answer FORMERR with whatever id we can salvage.
            let id = if payload.len() >= 2 {
                u16::from_be_bytes([payload[0], payload[1]])
            } else {
                0
            };
            let resp = ResponseBuilder::new(id).rcode(Rcode::FormErr).build();
            #[expect(
                clippy::expect_used,
                reason = "encode of a FormErr reply the server itself just built; it cannot exceed wire limits"
            )]
            let bytes = resp.encode().expect("formerr encodes");
            return vec![Egress::reply(from, from_port, bytes, PROC_DELAY)];
        };
        if query.header.flags.response {
            return Vec::new(); // stray response; ignore
        }
        let Some(q) = query.questions.first().cloned() else {
            let resp = ResponseBuilder::for_query(&query)
                .rcode(Rcode::FormErr)
                .build();
            #[expect(
                clippy::expect_used,
                reason = "encode of a FormErr reply the server itself just built; it cannot exceed wire limits"
            )]
            let bytes = resp.encode().expect("formerr encodes");
            return vec![Egress::reply(from, from_port, bytes, PROC_DELAY)];
        };
        let mut resp = self.respond(&query, &q, from, ctx);
        // RFC 6891: stay within the requester's advertised UDP capacity
        // (512 bytes for non-EDNS queriers), setting TC when we cannot.
        let limit = query
            .edns_udp_size()
            .map(|s| s as usize)
            .unwrap_or(dnswire::edns::CLASSIC_UDP_LIMIT)
            .max(dnswire::edns::CLASSIC_UDP_LIMIT);
        #[expect(
            clippy::expect_used,
            reason = "an answer from the server's own zones encodes, and truncated to its question it fits any UDP capacity"
        )]
        let bytes = resp.encode_within(limit).expect("response encodes");
        vec![Egress::reply(from, from_port, bytes, PROC_DELAY)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnswire::builder::QueryBuilder;
    use netsim::time::SimTime;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn n(s: &str) -> DnsName {
        DnsName::parse(s).unwrap()
    }

    fn ip(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
        Ipv4Addr::new(a, b, c, d)
    }

    fn run(server: &mut AuthoritativeServer, query: &Message, from: Ipv4Addr) -> Message {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx = ServiceCtx::new(
            SimTime::from_micros(5_000_000),
            ip(198, 51, 100, 53),
            &mut rng,
        );
        let out = server.handle(&mut ctx, from, 4096, &query.encode().unwrap());
        assert_eq!(out.len(), 1);
        Message::decode(&out[0].payload).unwrap()
    }

    fn server() -> AuthoritativeServer {
        let mut z = Zone::new(n("example.com"));
        z.add_a(n("www.example.com"), 300, ip(192, 0, 2, 1));
        let mut s = AuthoritativeServer::new();
        s.add_zone(z);
        s.add_dynamic(Box::new(WhoamiZone::new(n("whoami.probe.example"))));
        s
    }

    #[test]
    fn answers_static_zone() {
        let mut s = server();
        let q = QueryBuilder::new(7, "www.example.com", RecordType::A)
            .build()
            .unwrap();
        let resp = run(&mut s, &q, ip(10, 0, 0, 1));
        assert_eq!(resp.header.id, 7);
        assert!(resp.header.flags.authoritative);
        assert_eq!(resp.answer_addrs(), vec![ip(192, 0, 2, 1)]);
    }

    #[test]
    fn whoami_reports_the_querier() {
        let mut s = server();
        let q = QueryBuilder::new(8, "x123.whoami.probe.example", RecordType::A)
            .build()
            .unwrap();
        let resolver = ip(66, 174, 92, 10);
        let resp = run(&mut s, &q, resolver);
        assert_eq!(resp.answer_addrs(), vec![resolver]);
        assert_eq!(resp.answers[0].ttl, 0);
    }

    #[test]
    fn whoami_txt_variant() {
        let mut s = server();
        let q = QueryBuilder::new(9, "y.whoami.probe.example", RecordType::Txt)
            .build()
            .unwrap();
        let resp = run(&mut s, &q, ip(1, 2, 3, 4));
        match &resp.answers[0].rdata {
            RData::Txt(strings) => assert!(strings[0].contains("1.2.3.4")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn refuses_foreign_names() {
        let mut s = server();
        let q = QueryBuilder::new(1, "www.google.com", RecordType::A)
            .build()
            .unwrap();
        let resp = run(&mut s, &q, ip(10, 0, 0, 1));
        assert_eq!(resp.header.rcode, Rcode::Refused);
    }

    #[test]
    fn garbage_gets_formerr() {
        let mut s = server();
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx = ServiceCtx::new(SimTime::ZERO, ip(198, 51, 100, 53), &mut rng);
        let out = s.handle(&mut ctx, ip(1, 1, 1, 1), 9, &[0xAB, 0xCD, 0xEF]);
        let resp = Message::decode(&out[0].payload).unwrap();
        assert_eq!(resp.header.rcode, Rcode::FormErr);
        assert_eq!(resp.header.id, 0xABCD);
    }

    #[test]
    fn ignores_stray_responses() {
        let mut s = server();
        let q = QueryBuilder::new(7, "www.example.com", RecordType::A)
            .build()
            .unwrap();
        let mut as_response = q.clone();
        as_response.header.flags.response = true;
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx = ServiceCtx::new(SimTime::ZERO, ip(198, 51, 100, 53), &mut rng);
        let out = s.handle(&mut ctx, ip(1, 1, 1, 1), 9, &as_response.encode().unwrap());
        assert!(out.is_empty());
    }

    #[test]
    fn longest_origin_match_wins() {
        let mut outer = Zone::new(n("example"));
        outer.add_a(n("probe.example"), 60, ip(203, 0, 113, 1));
        let mut s = AuthoritativeServer::new();
        s.add_zone(outer);
        s.add_dynamic(Box::new(WhoamiZone::new(n("whoami.probe.example"))));
        let q = QueryBuilder::new(4, "z.whoami.probe.example", RecordType::A)
            .build()
            .unwrap();
        let resp = run(&mut s, &q, ip(9, 9, 9, 9));
        // Dynamic (deeper) zone answered, not the static outer zone.
        assert_eq!(resp.answer_addrs(), vec![ip(9, 9, 9, 9)]);
    }
}

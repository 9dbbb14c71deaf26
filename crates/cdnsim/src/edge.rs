//! The provider's own edge zone: serves A queries for the CNAME targets
//! (`e<hash>.edge.cdn-a.example`) when a resolver re-resolves an edge name
//! after the A records expired but the CNAME is still cached.

use crate::cdn::{Cdn, RECORD_TTL};
use dnssim::authority::DynamicZone;
use dnssim::zone::ZoneAnswer;
use dnswire::message::ResourceRecord;
use dnswire::name::DnsName;
use dnswire::rdata::{RData, RecordType};
use netsim::engine::ServiceCtx;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Dynamic zone for a provider's edge namespace.
pub struct EdgeZone {
    origin: DnsName,
    cdn: Arc<Cdn>,
}

impl EdgeZone {
    /// An edge zone rooted at `origin` (e.g. `edge.cdn-a.example`).
    pub fn new(origin: DnsName, cdn: Arc<Cdn>) -> Self {
        EdgeZone { origin, cdn }
    }
}

impl DynamicZone for EdgeZone {
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
        if qtype == RecordType::A {
            let locate_by = ecs.map(|(addr, _)| addr).unwrap_or(resolver);
            for addr in self.cdn.select(locate_by) {
                out.answers.push(ResourceRecord::new(
                    qname.clone(),
                    RECORD_TTL,
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
    use crate::cdn::Replica;
    use netsim::topo::Coord;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn edge_zone_answers_any_child_with_selection() {
        let cdn = Arc::new(Cdn::new(
            "cdn-a",
            vec![
                Replica {
                    addr: Ipv4Addr::new(90, 0, 0, 1),
                    coord: Coord::default(),
                },
                Replica {
                    addr: Ipv4Addr::new(90, 0, 1, 1),
                    coord: Coord {
                        x_km: 100.0,
                        y_km: 0.0,
                    },
                },
            ],
        ));
        let mut z = EdgeZone::new(DnsName::parse("edge.cdn-a.example").unwrap(), cdn);
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx = ServiceCtx::new(
            netsim::time::SimTime::ZERO,
            Ipv4Addr::new(9, 9, 9, 9),
            &mut rng,
        );
        let out = z.answer(
            &DnsName::parse("e12345678.edge.cdn-a.example").unwrap(),
            RecordType::A,
            Ipv4Addr::new(8, 8, 8, 8),
            None,
            &mut ctx,
        );
        assert_eq!(out.answers.len(), 2);
        let txt = z.answer(
            &DnsName::parse("e12345678.edge.cdn-a.example").unwrap(),
            RecordType::Txt,
            Ipv4Addr::new(8, 8, 8, 8),
            None,
            &mut ctx,
        );
        assert!(txt.answers.is_empty());
    }
}

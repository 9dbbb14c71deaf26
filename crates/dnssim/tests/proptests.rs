//! Property-based tests for dnssim: cache invariants, the forwarder's
//! byte-level cache hits, and zone lookup totality over arbitrary inputs.

use dnssim::cache::{AmbientModel, CacheOutcome, DnsCache};
use dnssim::forwarder::{Forwarder, UpstreamPolicy};
use dnssim::zone::Zone;
use dnswire::builder::QueryBuilder;
use dnswire::message::{Flags, Header, Message, MessageView, Question, Rcode, ResourceRecord};
use dnswire::name::DnsName;
use dnswire::rdata::{RData, RecordClass, RecordType, SoaData};
use netsim::engine::{ServiceCtx, UdpService};
use netsim::time::{SimDuration, SimTime};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::Ipv4Addr;

fn arb_label() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z0-9][a-z0-9-]{0,12}").expect("literal regex")
}

fn arb_name() -> impl Strategy<Value = DnsName> {
    proptest::collection::vec(arb_label(), 1..4).prop_map(|ls| {
        DnsName::from_labels(ls.iter().map(|l| l.as_bytes())).expect("labels match the LDH regex")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cache_never_serves_expired_entries_without_ambient(
        name in arb_name(),
        ttl_s in 1u64..600,
        probe_offset_s in 0u64..1200,
    ) {
        let mut cache = DnsCache::new(64, SimDuration::from_secs(3600));
        let t0 = SimTime::from_micros(1);
        let rr = ResourceRecord::new(name.clone(), ttl_s as u32, RData::A(Ipv4Addr::new(1, 2, 3, 4)));
        cache.insert(
            (name.clone(), RecordType::A, None),
            vec![rr],
            Rcode::NoError,
            SimDuration::from_secs(ttl_s),
            t0,
        );
        let probe = t0 + SimDuration::from_secs(probe_offset_s);
        let out = cache.lookup(&(name, RecordType::A, None), probe);
        if probe_offset_s < ttl_s {
            prop_assert!(matches!(out, CacheOutcome::Hit { .. }), "fresh entry missed");
        } else {
            prop_assert_eq!(out, CacheOutcome::Miss, "expired entry served");
        }
    }

    #[test]
    fn cache_hit_ttls_never_exceed_remaining_lifetime(
        name in arb_name(),
        ttl_s in 2u64..600,
        probe_frac in 0.0f64..0.99,
    ) {
        let mut cache = DnsCache::new(64, SimDuration::from_secs(3600));
        let t0 = SimTime::from_micros(1);
        let rr = ResourceRecord::new(name.clone(), ttl_s as u32, RData::A(Ipv4Addr::new(1, 2, 3, 4)));
        cache.insert(
            (name.clone(), RecordType::A, None),
            vec![rr],
            Rcode::NoError,
            SimDuration::from_secs(ttl_s),
            t0,
        );
        let elapsed = (ttl_s as f64 * probe_frac) as u64;
        let probe = t0 + SimDuration::from_secs(elapsed);
        if let CacheOutcome::Hit { records, .. } = cache.lookup(&(name, RecordType::A, None), probe) {
            for r in records {
                prop_assert!(r.ttl as u64 <= ttl_s - elapsed, "rebased TTL too long");
            }
        } else {
            prop_assert!(false, "fresh entry missed");
        }
    }

    #[test]
    fn cache_respects_capacity(names in proptest::collection::vec(arb_name(), 1..80)) {
        let cap = 16;
        let mut cache = DnsCache::new(cap, SimDuration::from_secs(3600));
        let t0 = SimTime::from_micros(1);
        for name in names {
            cache.insert(
                (name, RecordType::A, None),
                vec![],
                Rcode::NoError,
                SimDuration::from_secs(60),
                t0,
            );
            prop_assert!(cache.len() <= cap + 1, "capacity exceeded: {}", cache.len());
        }
    }

    #[test]
    fn ambient_warm_fraction_approximates_ttl_over_period(
        ttl_s in 10u64..120,
        period_mult in 2u64..8,
        phase_s in 0u64..1000,
    ) {
        let period_s = ttl_s * period_mult;
        let ambient = AmbientModel {
            period: SimDuration::from_secs(period_s),
            phase: SimDuration::from_secs(phase_s),
        };
        let samples = 4000;
        let warm = (0..samples)
            .filter(|i| {
                ambient.is_warm(
                    SimTime::from_micros(i * 1_777_777),
                    SimDuration::from_secs(ttl_s),
                )
            })
            .count();
        let frac = warm as f64 / samples as f64;
        let expect = 1.0 / period_mult as f64;
        prop_assert!((frac - expect).abs() < 0.1, "warm {frac:.2} vs expected {expect:.2}");
    }

    #[test]
    fn zone_lookup_is_total_and_consistent(
        zone_apex in arb_label(),
        records in proptest::collection::vec((arb_label(), any::<[u8; 4]>()), 0..12),
        queries in proptest::collection::vec(arb_label(), 1..12),
    ) {
        let apex = DnsName::parse(&format!("{zone_apex}.test")).unwrap();
        let mut zone = Zone::new(apex.clone());
        let mut inserted = std::collections::BTreeSet::new();
        for (label, octets) in &records {
            let name = apex.child(label).unwrap();
            zone.add_a(name.clone(), 60, Ipv4Addr::from(*octets));
            inserted.insert(name);
        }
        for q in queries {
            let qname = apex.child(&q).unwrap();
            let out = zone.lookup(&qname, RecordType::A);
            if inserted.contains(&qname) {
                prop_assert_eq!(out.rcode, Rcode::NoError);
                prop_assert!(!out.answers.is_empty(), "existing name had no answers");
                for rr in &out.answers {
                    prop_assert_eq!(&rr.name, &qname);
                }
            } else {
                prop_assert_eq!(out.rcode, Rcode::NxDomain);
                prop_assert!(out.answers.is_empty());
                prop_assert!(!out.authorities.is_empty(), "negative without SOA");
            }
        }
    }

    #[test]
    fn a_forwarder_cache_hit_is_the_reply_the_record_cache_would_encode(
        chain in proptest::collection::vec(arb_name(), 1..4),
        addrs in proptest::collection::vec(any::<[u8; 4]>(), 1..4),
        ttls in proptest::collection::vec(1u32..120, 8),
        nxdomain in any::<bool>(),
        extra_sections in any::<bool>(),
        rd in (any::<bool>(), any::<bool>()),
        qclass in (0usize..3, 0usize..3),
        hit_id in any::<u16>(),
        shout in any::<bool>(),
        probe in (any::<bool>(), 0u64..150_000_000),
        ambient in (any::<bool>(), 60u64..400, 0u64..400),
    ) {
        let case = HitCase {
            chain,
            addrs,
            ttls,
            nxdomain,
            extra_sections,
            rd,
            qclass: ([1, 3, 255][qclass.0], [1, 3, 255][qclass.1]),
            hit_id,
            shout,
            // Half the probes land inside the first two seconds.
            probe_us: if probe.0 { probe.1 % 2_000_000 } else { probe.1 },
            ambient: ambient.0.then(|| AmbientModel {
                period: SimDuration::from_secs(ambient.1),
                phase: SimDuration::from_secs(ambient.2),
            }),
        };
        let (got, expected) = case.run();
        // Every entry lives at least a second.
        prop_assert!(got.is_some() || case.probe_us >= 1_000_000, "a fresh entry missed");
        prop_assert_eq!(got, expected);
    }
}

/// One forwarder cache exchange: a client query that misses and is
/// relayed, the upstream response the forwarder absorbs, and a second
/// client query `probe_us` later.
struct HitCase {
    /// The question's name, then each CNAME target in turn.
    chain: Vec<DnsName>,
    /// A records at the end of the chain.
    addrs: Vec<[u8; 4]>,
    /// Received TTLs, one per answer record (cycled).
    ttls: Vec<u32>,
    nxdomain: bool,
    /// The response also carries authority, additional and OPT records.
    extra_sections: bool,
    /// RD bits of the first and the second query.
    rd: (bool, bool),
    /// QCLASS codes of the first and the second query.
    qclass: (u16, u16),
    hit_id: u16,
    /// The second query spells its name in upper case.
    shout: bool,
    probe_us: u64,
    ambient: Option<AmbientModel>,
}

const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 9, 9, 9);
const UPSTREAM: Ipv4Addr = Ipv4Addr::new(66, 174, 0, 1);
const CAPACITY: usize = 64;
const MAX_TTL: SimDuration = SimDuration::from_secs(3600);

impl HitCase {
    /// The forwarder's reply to the second query, and the reply the
    /// record cache predicts: the forwarder's former hit path, which
    /// looked the records up, built a `Message` and encoded it. `None`
    /// where the query goes upstream instead.
    fn run(&self) -> (Option<Vec<u8>>, Option<Vec<u8>>) {
        let mut fwd = Forwarder::new(vec![UPSTREAM], UpstreamPolicy::Sticky).with_cache(
            CAPACITY,
            MAX_TTL,
            self.ambient,
        );
        let mut rng = StdRng::seed_from_u64(7);
        let t0 = SimTime::from_micros(1_000_000);
        let mut handle = |at: SimTime, from: Ipv4Addr, payload: &[u8]| {
            let mut ctx = ServiceCtx::new(at, Ipv4Addr::new(10, 5, 0, 1), &mut rng);
            fwd.handle(&mut ctx, from, 5555, payload)
        };

        let first = self.query(0x4242, self.rd.0, self.qclass.0, false);
        let relayed = handle(t0, CLIENT, &first);
        let relayed = Message::decode(&relayed[0].payload).expect("relayed query decodes");
        let response = self.response(&relayed).encode().expect("response encodes");
        let back = handle(t0, UPSTREAM, &response);
        assert_eq!(back[0].dst, CLIENT, "the response is relayed back");

        let probe = t0 + SimDuration::from_micros(self.probe_us);
        let second = self.query(self.hit_id, self.rd.1, self.qclass.1, self.shout);
        let out = handle(probe, CLIENT, &second);
        let got = (out[0].dst == CLIENT).then(|| out[0].payload.clone());
        (got, self.oracle(&response, &second, t0, probe))
    }

    fn query(&self, id: u16, rd: bool, qclass: u16, shout: bool) -> Vec<u8> {
        let mut q = QueryBuilder::new(id, self.chain[0].to_string(), RecordType::A)
            .recursion_desired(rd)
            .build()
            .expect("query builds");
        q.questions[0].qclass = RecordClass::from_code(qclass);
        let mut bytes = q.encode().expect("query encodes");
        if shout {
            // Length octets are below 64, so only label letters change.
            let end = 12 + self.chain[0].wire_len();
            bytes[12..end].make_ascii_uppercase();
        }
        bytes
    }

    /// The upstream's answer to `relayed`, encoder output as in the sim.
    fn response(&self, relayed: &Message) -> Message {
        let mut msg = Message::new(Header {
            id: relayed.header.id,
            opcode: relayed.header.opcode,
            flags: Flags {
                response: true,
                authoritative: self.extra_sections,
                truncated: false,
                recursion_desired: relayed.header.flags.recursion_desired,
                recursion_available: true,
            },
            rcode: if self.nxdomain {
                Rcode::NxDomain
            } else {
                Rcode::NoError
            },
        });
        msg.questions = relayed.questions.clone();
        let mut ttls = self.ttls.iter().copied().cycle();
        let mut ttl = || ttls.next().unwrap_or(60);
        for pair in self.chain.windows(2) {
            msg.answers.push(ResourceRecord::new(
                pair[0].clone(),
                ttl(),
                RData::Cname(pair[1].clone()),
            ));
        }
        let end = self.chain.last().expect("a chain has a name");
        for &a in &self.addrs {
            msg.answers
                .push(ResourceRecord::new(end.clone(), ttl(), RData::A(a.into())));
        }
        if self.extra_sections {
            let zone = end.parent().unwrap_or_else(DnsName::root);
            let ns = zone.child("ns1").expect("a valid child");
            msg.authorities.push(ResourceRecord::new(
                zone.clone(),
                3600,
                RData::Ns(ns.clone()),
            ));
            msg.authorities.push(ResourceRecord::new(
                zone.clone(),
                300,
                RData::Soa(SoaData {
                    mname: ns.clone(),
                    rname: zone.clone(),
                    serial: 1,
                    refresh: 3600,
                    retry: 600,
                    expire: 86_400,
                    minimum: 30,
                }),
            ));
            msg.additionals.push(ResourceRecord::new(
                ns,
                3600,
                RData::A(Ipv4Addr::new(192, 0, 2, 53)),
            ));
            msg.set_client_subnet(Ipv4Addr::new(100, 64, 3, 0), 24);
            msg.advertise_udp_size(1232);
        }
        msg
    }

    /// What the forwarder answered before its cache kept bytes: the
    /// response decoded into records and cached as such, then a hit built
    /// as a `Message` from the query and the rebased records, and encoded.
    fn oracle(
        &self,
        response: &[u8],
        query: &[u8],
        t0: SimTime,
        probe: SimTime,
    ) -> Option<Vec<u8>> {
        let mut cache = DnsCache::new(CAPACITY, MAX_TTL);
        if let Some(a) = self.ambient {
            cache = cache.with_ambient(a);
        }
        let msg = Message::decode(response).expect("response decodes");
        let q = msg.questions.first().expect("one question");
        let key = (q.qname.clone(), q.qtype, None);
        match msg.header.rcode {
            Rcode::NoError if !msg.answers.is_empty() => {
                let ttl = msg.answers.iter().map(|rr| rr.ttl).min().unwrap_or(0);
                if ttl > 0 {
                    let ttl = SimDuration::from_secs(u64::from(ttl));
                    cache.insert(key.clone(), msg.answers.clone(), Rcode::NoError, ttl, t0);
                }
            }
            Rcode::NxDomain => {
                let ttl = SimDuration::from_secs(30);
                cache.insert(key.clone(), Vec::new(), Rcode::NxDomain, ttl, t0);
            }
            _ => {}
        }
        let view = MessageView::new(query).expect("a header");
        let (qname, qtype, qclass) = view.question().expect("parses").expect("a question");
        let key = (qname.to_name(), qtype, None);
        let CacheOutcome::Hit { records, rcode } = cache.lookup(&key, probe) else {
            return None;
        };
        let mut header = Header::query(view.id());
        header.flags.response = true;
        header.flags.recursion_desired = view.recursion_desired();
        header.flags.recursion_available = true;
        header.rcode = rcode;
        let mut out = Message::new(header);
        out.questions.push(Question {
            qname: key.0,
            qtype,
            qclass,
        });
        out.answers = records;
        Some(out.encode().expect("the hit encodes"))
    }
}

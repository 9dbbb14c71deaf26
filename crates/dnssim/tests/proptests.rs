//! Property-based tests for dnssim: cache invariants and zone lookup
//! totality over arbitrary inputs.

use dnssim::cache::{AmbientModel, CacheOutcome, DnsCache};
use dnssim::zone::Zone;
use dnswire::message::{Rcode, ResourceRecord};
use dnswire::name::DnsName;
use dnswire::rdata::{RData, RecordType};
use netsim::time::{SimDuration, SimTime};
use proptest::prelude::*;
use std::net::Ipv4Addr;

#[expect(clippy::expect_used, reason = "strategy helper over a literal regex")]
fn arb_label() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z0-9][a-z0-9-]{0,12}").expect("literal regex")
}

#[expect(clippy::expect_used, reason = "labels come from the LDH regex above")]
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
        let mut inserted = std::collections::HashSet::new();
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
}

//! Cross-substrate integration tests exercising the world directly (no
//! campaign): end-to-end resolution through carrier tiers, middlebox
//! semantics across the assembled topology, anycast behaviour, and CDN
//! mapping properties.
//!
//! Device-level traffic runs on the device's own carrier shard (device 0
//! lives on shard 0); backbone knowledge tables are read through
//! `world.backbone`.

use behind_the_curtain::dnssim::client::{resolve, whoami};
use behind_the_curtain::dnswire::name::DnsName;
use behind_the_curtain::dnswire::rdata::RecordType;
use behind_the_curtain::measure::{build_world, World, WorldConfig, GOOGLE_VIP, OPENDNS_VIP};
use behind_the_curtain::netsim::addr::Prefix;

fn world() -> World {
    build_world(WorldConfig::quick(808))
}

fn n(s: &str) -> DnsName {
    DnsName::parse(s).unwrap()
}

#[test]
fn device_resolves_every_catalog_domain_via_all_resolvers() {
    let mut w = world();
    let (node, configured) = {
        let d = w.device(0);
        (d.node, d.configured_dns)
    };
    let domains: Vec<DnsName> = w
        .backbone
        .catalog
        .iter()
        .map(|e| e.domain.clone())
        .collect();
    for resolver in [configured, GOOGLE_VIP, OPENDNS_VIP] {
        for domain in &domains {
            let lookup = resolve(&mut w.shards[0].net, node, resolver, domain, RecordType::A);
            assert!(
                lookup.ok() && !lookup.addrs().is_empty(),
                "{domain} via {resolver} failed: {lookup:?}"
            );
        }
    }
}

#[test]
fn cdn_answers_carry_cname_and_short_ttls() {
    let mut w = world();
    let (node, configured) = {
        let d = w.device(0);
        (d.node, d.configured_dns)
    };
    let lookup = resolve(
        &mut w.shards[0].net,
        node,
        configured,
        &n("www.buzzfeed.com"),
        RecordType::A,
    );
    let resp = lookup.response.expect("answered");
    let canon = resp.canonical_name(&n("www.buzzfeed.com"));
    assert!(
        canon.to_string().contains("edge.cdn-"),
        "canonical {canon} not in a CDN edge zone"
    );
    // A records carry CDN-short TTLs (<= 60s).
    for rr in resp
        .answers
        .iter()
        .filter(|rr| rr.record_type() == RecordType::A)
    {
        assert!(rr.ttl <= 60, "A ttl {} too long", rr.ttl);
    }
}

#[test]
fn replicas_returned_differ_between_resolver_slash24s() {
    // The /24-keyed mapping: two resolvers in different /24s usually get
    // different replica sets for the same domain.
    let w = world();
    let cdn = &w.backbone.cdns[0].cdn;
    let ext: Vec<_> = w
        .carrier(0)
        .external_resolvers
        .iter()
        .map(|&(_, a)| a)
        .collect();
    let mut distinct_sets = std::collections::BTreeSet::new();
    for &addr in &ext {
        distinct_sets.insert(cdn.select(addr));
    }
    let prefixes: std::collections::BTreeSet<_> =
        ext.iter().map(|&a| Prefix::slash24_of(a)).collect();
    assert!(
        distinct_sets.len() > 1,
        "all resolvers map to one replica set"
    );
    assert!(distinct_sets.len() <= prefixes.len(), "more sets than /24s");
}

#[test]
fn public_dns_sites_are_measured_carrier_blocks_are_not() {
    let w = world();
    let cdn = &w.backbone.cdns[0].cdn;
    for site in &w.backbone.public_dns[0].sites {
        assert!(cdn.is_measured(site.egress_addrs[0]));
    }
    for &(_, addr) in &w.carrier(0).external_resolvers {
        assert!(!cdn.is_measured(addr), "{addr} should be unmeasurable");
    }
}

#[test]
fn whoami_via_public_dns_reveals_site_egress_not_vip() {
    let mut w = world();
    let node = w.device(0).node;
    let probe_zone = w.backbone.probe_zone.clone();
    let (lookup, ext) = whoami(&mut w.shards[0].net, node, GOOGLE_VIP, &probe_zone);
    assert!(lookup.ok());
    let ext = ext.expect("external discovered");
    assert_ne!(ext, GOOGLE_VIP);
    // The discovered address belongs to one of the Google site /24s.
    assert!(
        w.backbone.public_dns[0]
            .sites
            .iter()
            .any(|s| s.prefix.contains(ext)),
        "{ext} not in any Google site prefix"
    );
}

#[test]
fn devices_behind_nat_expose_only_gateway_addresses() {
    let mut w = world();
    let device_ip = w.device(0).ip;
    let node = w.device(0).node;
    // The device's private address must never be reachable from outside.
    let uni = w.backbone.university;
    let uni_addr = w.shards[0].net.topo().node(uni).primary_addr();
    let report = w.shards[0].net.ping_train(uni, device_ip, 2);
    assert!(!report.reachable(), "device pingable from the internet");
    // But the device can reach out, via its gateway's public address.
    let out = w.shards[0].net.ping_train(node, uni_addr, 2);
    assert!(out.reachable(), "device cannot reach the internet");
}

#[test]
fn device_traceroute_shows_egress_then_backbone_and_hides_the_core() {
    let mut w = world();
    let node = w.device(0).node;
    let carrier = w.device(0).carrier;
    let replica = w.backbone.cdns[0].replicas[0].1;
    let trace = w.shards[0].net.traceroute(node, replica, 20);
    assert!(trace.reached, "replica unreachable: {trace:?}");
    let hops = trace.responding_hops();
    // First responding hop is the carrier egress (the MPLS core before it
    // is silent), then backbone/replica addresses.
    let public = w.carrier(carrier).public_prefix;
    assert!(
        public.contains(hops[0]),
        "first hop {} not a carrier address",
        hops[0]
    );
    assert!(
        hops.iter().skip(1).all(|h| !public.contains(*h)),
        "multiple carrier hops visible despite MPLS: {hops:?}"
    );
}

#[test]
fn google_anycast_latency_tracks_nearest_site() {
    let mut w = world();
    // Per-device VIP ping should be close to the best unicast site ping.
    let node = w.device(0).node;
    let vip = w.shards[0].net.ping_train(node, GOOGLE_VIP, 3);
    let vip_rtt = vip.min_rtt().expect("vip answers").as_millis_f64();
    let best_site = w.backbone.public_dns[0]
        .sites
        .iter()
        .map(|s| s.egress_addrs[0])
        .collect::<Vec<_>>();
    let mut best = f64::MAX;
    for addr in best_site {
        if let Some(r) = w.shards[0].net.ping_train(node, addr, 1).min_rtt() {
            best = best.min(r.as_millis_f64());
        }
    }
    assert!(
        vip_rtt < best * 1.8 + 10.0,
        "vip {vip_rtt}ms vs best site {best}ms"
    );
}

#[test]
fn world_scales_with_config() {
    let small = build_world(WorldConfig::quick(1));
    let full = build_world(WorldConfig {
        seed: 1,
        ..WorldConfig::default()
    });
    assert!(full.device_count() > small.device_count() * 4);
    assert!(
        full.node_count() > small.node_count(),
        "full world not larger"
    );
    assert_eq!(full.device_count(), 158);
}

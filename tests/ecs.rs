//! Integration tests for the RFC 7871 (EDNS Client-Subnet) extension — the
//! paper's §9 future-work fix, implemented end-to-end.

use behind_the_curtain::analysis::relative_replica_latency;
use behind_the_curtain::dnssim::client::resolve;
use behind_the_curtain::dnswire::name::DnsName;
use behind_the_curtain::dnswire::rdata::RecordType;
use behind_the_curtain::measure::{
    build_world, run_campaign, CampaignConfig, Dataset, ResolverKind, WorldConfig,
};

fn world_with(ecs: bool, seed: u64) -> behind_the_curtain::measure::World {
    let mut config = WorldConfig::quick(seed);
    config.ecs = ecs;
    build_world(config)
}

#[test]
fn ecs_resolution_returns_the_site_accurate_replicas() {
    let mut w = world_with(true, 4242);
    let (node, configured, site) = {
        let d = w.device(0);
        (d.node, d.configured_dns, d.site)
    };
    let carrier = w.device(0).carrier;
    let egress = w.carrier(carrier).sites[site].egress_addr;
    let domain = DnsName::parse("www.buzzfeed.com").unwrap();
    let lookup = resolve(
        &mut w.shards[0].net,
        node,
        configured,
        &domain,
        RecordType::A,
    );
    assert!(lookup.ok());
    // The answer must match what the CDN would pick for the client's egress
    // subnet — i.e. the mapping keyed on the *client*, not the resolver.
    let provider = w
        .backbone
        .catalog
        .iter()
        .find(|e| e.domain == domain)
        .expect("in catalog")
        .provider;
    let expected = w.backbone.cdns[provider].cdn.select(egress);
    let mut got = lookup.addrs();
    let mut want = expected.clone();
    got.sort();
    want.sort();
    assert_eq!(got, want, "ECS answer != client-subnet selection");
    assert!(w.backbone.cdns[provider].cdn.is_measured(egress));
}

#[test]
fn without_ecs_selection_keys_on_the_resolver() {
    let mut w = world_with(false, 4242);
    let (node, configured, site) = {
        let d = w.device(0);
        (d.node, d.configured_dns, d.site)
    };
    let carrier = w.device(0).carrier;
    let egress = w.carrier(carrier).sites[site].egress_addr;
    // Baseline world: the CDN has no knowledge of egress subnets.
    assert!(!w.backbone.cdns[0].cdn.is_measured(egress));
    let domain = DnsName::parse("www.buzzfeed.com").unwrap();
    let lookup = resolve(
        &mut w.shards[0].net,
        node,
        configured,
        &domain,
        RecordType::A,
    );
    assert!(lookup.ok());
}

#[test]
fn ecs_partitions_the_resolver_cache_by_subnet() {
    // Two devices on the same carrier behind different gateways must not
    // be served each other's cached CDN answers.
    let mut w = world_with(true, 77);
    let carrier = 3; // Verizon: single sticky external, shared by devices
    let device_idxs = w.devices_of(carrier);
    let mut answers = std::collections::BTreeMap::new();
    let domain = DnsName::parse("m.yelp.com").unwrap();
    for &di in device_idxs.iter().take(6) {
        let (shard, local) = w.locate_device(di);
        let (node, configured, site) = {
            let d = &w.shards[shard].devices[local];
            (d.node, d.configured_dns, d.site)
        };
        let lookup = resolve(
            &mut w.shards[shard].net,
            node,
            configured,
            &domain,
            RecordType::A,
        );
        assert!(lookup.ok());
        let mut addrs = lookup.addrs();
        addrs.sort();
        answers.insert(site, addrs);
    }
    // Devices at different sites get site-specific answers when the sites
    // are far enough apart (at least two distinct answers across sites).
    if answers.len() >= 3 {
        let distinct: std::collections::BTreeSet<_> = answers.values().collect();
        assert!(
            distinct.len() >= 2,
            "all sites got one cached answer: cache not ECS-partitioned"
        );
    }
}

#[test]
fn ecs_collapses_the_public_dns_replica_advantage() {
    let run = |ecs: bool| -> Dataset {
        let mut world = world_with(ecs, 31337);
        run_campaign(&mut world, &CampaignConfig::quick())
    };
    let base = run(false);
    let with_ecs = run(true);
    // Aggregate the strictly-better share across carriers.
    let strictly = |ds: &Dataset| -> f64 {
        let mut total = 0.0;
        for c in 0..ds.carrier_names.len() {
            total += relative_replica_latency(ds, c, ResolverKind::Google).fraction_leq(-1e-9);
        }
        total / ds.carrier_names.len() as f64
    };
    let b = strictly(&base);
    let e = strictly(&with_ecs);
    assert!(
        e < b * 0.7,
        "ECS did not reduce public DNS's strictly-better share: {b:.2} -> {e:.2}"
    );
}

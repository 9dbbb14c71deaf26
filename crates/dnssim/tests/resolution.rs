//! End-to-end resolution tests: a client node, a forwarder, a recursive
//! resolver, and a full root → TLD → authoritative hierarchy on a simulated
//! network.

use dnssim::authority::{AuthoritativeServer, WhoamiZone, DNS_PORT};
use dnssim::cache::AmbientModel;
use dnssim::client::{exchange, resolve, resolve_with, whoami, ClientPolicy};
use dnssim::forwarder::{Forwarder, UpstreamPolicy};
use dnssim::hierarchy::HierarchyBuilder;
use dnssim::recursive::{RecursiveResolver, ResolverConfig};
use dnssim::zone::Zone;
use dnswire::message::{Message, Rcode};
use dnswire::name::DnsName;
use dnswire::rdata::RecordType;
use netsim::engine::Network;
use netsim::latency::LatencyModel;
use netsim::time::SimDuration;
use netsim::topo::{Asn, Coord, NodeId, NodeKind, Topology};
use std::net::Ipv4Addr;

fn ip(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
    Ipv4Addr::new(a, b, c, d)
}

#[expect(clippy::expect_used, reason = "test helper over literal names")]
fn n(s: &str) -> DnsName {
    DnsName::parse(s).expect("test names are valid")
}

struct World {
    net: Network,
    client: NodeId,
    forwarder_addr: Ipv4Addr,
    resolver_addr: Ipv4Addr,
}

/// client -- fwd -- resolver -- hub -- {root, tld(com/example), auth, probe}
fn build_world(ambient: Option<AmbientModel>) -> World {
    let mut t = Topology::new();
    let hub = t.add_node(
        "hub",
        NodeKind::Router,
        Asn(100),
        Coord::default(),
        vec![ip(203, 0, 0, 1)],
    );
    let client = t.add_node(
        "client",
        NodeKind::Host,
        Asn(1),
        Coord::default(),
        vec![ip(10, 0, 0, 1)],
    );
    let fwd = t.add_node(
        "fwd",
        NodeKind::Host,
        Asn(1),
        Coord::default(),
        vec![ip(10, 0, 53, 1)],
    );
    let rsl = t.add_node(
        "resolver",
        NodeKind::Host,
        Asn(2),
        Coord::default(),
        vec![ip(66, 174, 0, 1)],
    );
    let root = t.add_node(
        "root",
        NodeKind::Host,
        Asn(100),
        Coord::default(),
        vec![ip(198, 41, 0, 4)],
    );
    let tld_com = t.add_node(
        "tld-com",
        NodeKind::Host,
        Asn(100),
        Coord::default(),
        vec![ip(192, 5, 6, 30)],
    );
    let tld_example = t.add_node(
        "tld-example",
        NodeKind::Host,
        Asn(100),
        Coord::default(),
        vec![ip(192, 5, 6, 32)],
    );
    let auth = t.add_node(
        "auth",
        NodeKind::Host,
        Asn(200),
        Coord::default(),
        vec![ip(198, 51, 100, 53)],
    );
    let probe = t.add_node(
        "probe-adns",
        NodeKind::Host,
        Asn(300),
        Coord::default(),
        vec![ip(198, 51, 200, 53)],
    );

    t.add_link(client, fwd, LatencyModel::constant_ms(5));
    t.add_link(fwd, rsl, LatencyModel::constant_ms(10));
    t.add_link(rsl, hub, LatencyModel::constant_ms(5));
    t.add_link(client, hub, LatencyModel::constant_ms(40)); // direct path for public use
    for server in [root, tld_com, tld_example, auth, probe] {
        t.add_link(server, hub, LatencyModel::constant_ms(5));
    }

    let mut net = Network::new(t, 2014);

    // Hierarchy.
    let mut h = HierarchyBuilder::new();
    h.add_tld("com", ip(192, 5, 6, 30));
    h.add_tld("example", ip(192, 5, 6, 32));
    h.add_domain("buzzfeed.com", ip(198, 51, 100, 53));
    h.add_domain("probe.example", ip(198, 51, 200, 53));
    let built = h.build();

    let mut root_srv = AuthoritativeServer::new();
    root_srv.add_zone(built.root);
    net.register_service(root, DNS_PORT, Box::new(root_srv));

    for (label, _, zone) in built.tlds {
        let mut srv = AuthoritativeServer::new();
        srv.add_zone(zone);
        let node = if label == "com" { tld_com } else { tld_example };
        net.register_service(node, DNS_PORT, Box::new(srv));
    }

    // buzzfeed.com zone with a CNAME into the same zone.
    let mut z = Zone::new(n("buzzfeed.com"));
    z.add_cname(n("www.buzzfeed.com"), 30, n("edge.buzzfeed.com"));
    z.add_a(n("edge.buzzfeed.com"), 30, ip(192, 0, 2, 10));
    z.add_a(n("edge.buzzfeed.com"), 30, ip(192, 0, 2, 11));
    let mut auth_srv = AuthoritativeServer::new();
    auth_srv.add_zone(z);
    net.register_service(auth, DNS_PORT, Box::new(auth_srv));

    // The measurement probe ADNS with the whoami zone.
    let mut probe_srv = AuthoritativeServer::new();
    probe_srv.add_dynamic(Box::new(WhoamiZone::new(n("whoami.probe.example"))));
    net.register_service(probe, DNS_PORT, Box::new(probe_srv));

    // Recursive resolver.
    let mut cfg = ResolverConfig::new(vec![ip(198, 41, 0, 4)]);
    cfg.ambient = ambient;
    net.register_service(rsl, DNS_PORT, Box::new(RecursiveResolver::new(cfg)));

    // Client-facing forwarder.
    net.register_service(
        fwd,
        DNS_PORT,
        Box::new(Forwarder::new(
            vec![ip(66, 174, 0, 1)],
            UpstreamPolicy::Sticky,
        )),
    );

    World {
        net,
        client,
        forwarder_addr: ip(10, 0, 53, 1),
        resolver_addr: ip(66, 174, 0, 1),
    }
}

#[test]
fn full_recursive_resolution_with_cname_chain() {
    let mut w = build_world(None);
    let lookup = resolve(
        &mut w.net,
        w.client,
        w.forwarder_addr,
        &n("www.buzzfeed.com"),
        RecordType::A,
    );
    assert!(lookup.ok(), "lookup failed: {lookup:?}");
    let addrs = lookup.addrs();
    assert_eq!(addrs, vec![ip(192, 0, 2, 10), ip(192, 0, 2, 11)]);
    let response = lookup.response.as_ref().unwrap();
    assert_eq!(
        response.canonical_name(&n("www.buzzfeed.com")),
        n("edge.buzzfeed.com")
    );
    // Cold resolution walks client->fwd->resolver->root->tld->auth.
    let ms = lookup.elapsed.unwrap().as_millis_f64();
    assert!(ms > 80.0, "cold resolution too fast: {ms}ms");
}

#[test]
fn second_lookup_is_served_from_cache() {
    let mut w = build_world(None);
    let cold = resolve(
        &mut w.net,
        w.client,
        w.forwarder_addr,
        &n("www.buzzfeed.com"),
        RecordType::A,
    );
    let warm = resolve(
        &mut w.net,
        w.client,
        w.forwarder_addr,
        &n("www.buzzfeed.com"),
        RecordType::A,
    );
    assert!(cold.ok() && warm.ok());
    let (c, h) = (
        cold.elapsed.unwrap().as_millis_f64(),
        warm.elapsed.unwrap().as_millis_f64(),
    );
    // Warm skips root/tld/auth: only client->fwd->resolver round trip (~30ms).
    assert!(h < c / 2.0, "warm {h}ms vs cold {c}ms");
    assert!(warm.addrs() == cold.addrs());
}

#[test]
fn cache_expires_after_ttl() {
    let mut w = build_world(None);
    let _ = resolve(
        &mut w.net,
        w.client,
        w.forwarder_addr,
        &n("www.buzzfeed.com"),
        RecordType::A,
    );
    // Move past the 30s TTL.
    let later = w.net.now() + SimDuration::from_secs(120);
    w.net.skip_to(later);
    let again = resolve(
        &mut w.net,
        w.client,
        w.forwarder_addr,
        &n("www.buzzfeed.com"),
        RecordType::A,
    );
    let ms = again.elapsed.unwrap().as_millis_f64();
    // The A record expired so the resolver must go back upstream — but the
    // long-TTL NS/glue survive, so it asks the authoritative server directly
    // (faster than the fully cold root→TLD walk, slower than a cache hit).
    assert!(ms > 45.0, "expected an upstream resolution, got {ms}ms");
    assert!(
        ms < 80.0,
        "expected the root/TLD walk to be skipped, got {ms}ms"
    );
}

#[test]
fn ambient_model_keeps_popular_records_warm() {
    // Period == TTL -> the imaginary refresher always re-queried within TTL,
    // so stale entries are always warm.
    let ambient = AmbientModel {
        period: SimDuration::from_secs(30),
        phase: SimDuration::ZERO,
    };
    let mut w = build_world(Some(ambient));
    let _ = resolve(
        &mut w.net,
        w.client,
        w.forwarder_addr,
        &n("www.buzzfeed.com"),
        RecordType::A,
    );
    let later = w.net.now() + SimDuration::from_secs(3600);
    w.net.skip_to(later);
    let again = resolve(
        &mut w.net,
        w.client,
        w.forwarder_addr,
        &n("www.buzzfeed.com"),
        RecordType::A,
    );
    let ms = again.elapsed.unwrap().as_millis_f64();
    assert!(ms < 40.0, "expected warm-path resolution, got {ms}ms");
}

#[test]
fn nxdomain_propagates_and_negative_caches() {
    let mut w = build_world(None);
    let miss = resolve(
        &mut w.net,
        w.client,
        w.forwarder_addr,
        &n("nope.buzzfeed.com"),
        RecordType::A,
    );
    let resp = miss.response.expect("response arrived");
    assert_eq!(resp.header.rcode, Rcode::NxDomain);
    let cold_ms = miss.elapsed.unwrap().as_millis_f64();
    // Negative cache makes the second miss fast.
    let again = resolve(
        &mut w.net,
        w.client,
        w.forwarder_addr,
        &n("nope.buzzfeed.com"),
        RecordType::A,
    );
    let warm_ms = again.elapsed.unwrap().as_millis_f64();
    assert_eq!(again.response.unwrap().header.rcode, Rcode::NxDomain);
    assert!(warm_ms < cold_ms / 2.0, "warm {warm_ms} cold {cold_ms}");
}

#[test]
fn whoami_reveals_external_resolver_not_forwarder() {
    let mut w = build_world(None);
    let (lookup, external) = whoami(
        &mut w.net,
        w.client,
        w.forwarder_addr,
        &n("whoami.probe.example"),
    );
    assert!(lookup.ok());
    // The device is configured with the forwarder, but the ADNS saw the
    // external recursive resolver — the paper's indirect-resolution finding.
    assert_eq!(external, Some(w.resolver_addr));
    assert_ne!(external, Some(w.forwarder_addr));
}

#[test]
fn whoami_nonces_defeat_caching() {
    let mut w = build_world(None);
    let (a, ext_a) = whoami(
        &mut w.net,
        w.client,
        w.forwarder_addr,
        &n("whoami.probe.example"),
    );
    let (b, ext_b) = whoami(
        &mut w.net,
        w.client,
        w.forwarder_addr,
        &n("whoami.probe.example"),
    );
    assert!(a.ok() && b.ok());
    assert_eq!(ext_a, ext_b);
    // Both lookups must have taken the full path (no cache hit on nonce).
    let (ta, tb) = (
        a.elapsed.unwrap().as_millis_f64(),
        b.elapsed.unwrap().as_millis_f64(),
    );
    assert!(
        tb > ta * 0.4,
        "second whoami suspiciously fast: {tb} vs {ta}"
    );
}

#[test]
fn direct_resolver_query_skips_the_forwarder() {
    let mut w = build_world(None);
    let direct = resolve(
        &mut w.net,
        w.client,
        w.resolver_addr,
        &n("www.buzzfeed.com"),
        RecordType::A,
    );
    assert!(direct.ok());
    assert_eq!(direct.addrs().len(), 2);
}

#[test]
fn unknown_domain_gets_refused_rcode_from_hierarchy() {
    let mut w = build_world(None);
    let lookup = resolve(
        &mut w.net,
        w.client,
        w.forwarder_addr,
        &n("www.unknown-tld.zz"),
        RecordType::A,
    );
    // The root has no .zz delegation: NXDOMAIN from the root propagates.
    let resp = lookup.response.expect("resolved to an error");
    assert_eq!(resp.header.rcode, Rcode::NxDomain);
}

#[test]
fn big_answers_truncate_for_non_edns_clients() {
    use dnswire::builder::QueryBuilder;
    use dnswire::message::Message;
    use netsim::engine::FlowResult;

    let mut w = build_world(None);
    // Install a zone with an oversized TXT RRset on the authoritative
    // server's node (a separate apex the hierarchy already delegates:
    // reuse buzzfeed.com's server via a direct query).
    let auth_addr = ip(198, 51, 100, 53);
    let auth_node = w.net.topo().owner_of(auth_addr).unwrap();
    let mut srv = dnssim::authority::AuthoritativeServer::new();
    let mut z = dnssim::zone::Zone::new(n("big.example"));
    for i in 0..20 {
        z.add(dnswire::message::ResourceRecord::new(
            n("fat.big.example"),
            60,
            dnswire::rdata::RData::Txt(vec![format!("{i:0>60}")]),
        ));
    }
    srv.add_zone(z);
    let _ = w
        .net
        .unregister_service(auth_node, dnssim::authority::DNS_PORT);
    w.net
        .register_service(auth_node, dnssim::authority::DNS_PORT, Box::new(srv));

    let ask = |w: &mut World, edns: bool| -> Message {
        let mut q = QueryBuilder::new(9, "fat.big.example", RecordType::Txt)
            .build()
            .unwrap();
        if edns {
            q.advertise_udp_size(4096);
        }
        let flow = w.net.udp_request(
            w.client,
            auth_addr,
            dnssim::authority::DNS_PORT,
            q.encode().unwrap(),
            netsim::time::SimDuration::from_secs(3),
        );
        match w.net.run_until(flow).result {
            FlowResult::Response { payload, .. } => Message::decode(&payload).unwrap(),
            other => panic!("no response: {other:?}"),
        }
    };
    // Classic 512-byte querier: truncated, empty, TC set.
    let classic = ask(&mut w, false);
    assert!(classic.header.flags.truncated, "TC not set");
    assert!(classic.answers.is_empty());
    // EDNS querier advertising 4096: the full RRset.
    let edns = ask(&mut w, true);
    assert!(!edns.header.flags.truncated);
    assert_eq!(edns.answers.len(), 20);
}

#[test]
fn resolver_retries_past_an_unresponsive_root() {
    // Same world, but the resolver's root hints start with a blackhole.
    let mut w = build_world(None);
    let mut cfg = ResolverConfig::new(vec![ip(203, 0, 113, 99), ip(198, 41, 0, 4)]);
    cfg.inflight_deadline = netsim::time::SimDuration::from_millis(800);
    let rsl_node = w.net.topo().owner_of(w.resolver_addr).unwrap();
    let old = w
        .net
        .unregister_service(rsl_node, dnssim::authority::DNS_PORT);
    assert!(old.is_some());
    w.net.register_service(
        rsl_node,
        dnssim::authority::DNS_PORT,
        Box::new(RecursiveResolver::new(cfg)),
    );
    let lookup = resolve(
        &mut w.net,
        w.client,
        w.forwarder_addr,
        &n("www.buzzfeed.com"),
        RecordType::A,
    );
    // The first attempt times out after 800 ms (the resolver's timer
    // fires), then the retry against the live root succeeds while the
    // client is still waiting.
    assert!(lookup.ok(), "retry did not rescue the lookup: {lookup:?}");
    assert!(lookup.elapsed.unwrap() > netsim::time::SimDuration::from_millis(800));
    assert_eq!(lookup.addrs().len(), 2);
}

#[test]
fn resolution_is_deterministic() {
    let run = || {
        let mut w = build_world(None);
        let l = resolve(
            &mut w.net,
            w.client,
            w.forwarder_addr,
            &n("www.buzzfeed.com"),
            RecordType::A,
        );
        (l.elapsed.map(|e| e.as_micros()), l.addrs())
    };
    assert_eq!(run(), run());
}

/// The classic ladder's two faces agree on twin worlds: what `resolve_with`
/// decodes is the decode of the bytes `exchange` hands back, and those
/// bytes are canonical encoder output. Through the forwarder and straight
/// to the resolver; cold, warm, NXDOMAIN and whoami nonces.
#[test]
fn resolve_with_decodes_the_byte_exchange() {
    let mut decoded = build_world(None);
    let mut raw = build_world(None);
    let names = [
        "www.buzzfeed.com",
        "www.buzzfeed.com",
        "nope.buzzfeed.com",
        "x0123456789abcdef.whoami.probe.example",
        "www.unknown-tld.zz",
    ];
    for resolver in [decoded.forwarder_addr, decoded.resolver_addr] {
        for name in names {
            let qname = n(name);
            let lookup = resolve_with(
                &mut decoded.net,
                decoded.client,
                resolver,
                &qname,
                RecordType::A,
                &ClientPolicy::classic(),
            );
            let bytes = exchange(&mut raw.net, raw.client, resolver, &qname, RecordType::A);
            let reply = bytes.reply.as_deref().expect("answered");
            let msg = Message::decode(reply).expect("reply decodes");
            assert_eq!(
                msg.encode().expect("re-encodes"),
                reply,
                "{name} via {resolver}"
            );
            assert_eq!(lookup.response, Some(msg), "{name} via {resolver}");
            assert_eq!(lookup.outcome, bytes.outcome);
            assert_eq!(lookup.elapsed, bytes.elapsed);
            assert_eq!(lookup.sent_at, bytes.sent_at);
        }
    }
}

//! Carrier topology construction: gateway sites, the MPLS-opaque core,
//! NAT/firewall at egress, and the carrier's DNS infrastructure.
//!
//! The layout follows Fig. 1's LTE architecture: many gateway (PGW) sites,
//! each with a radio aggregation node and an egress router, interconnected
//! by a label-switched core that traceroute cannot see through.

use crate::profile::{CarrierProfile, ClientFacing};
use dnssim::authority::DNS_PORT;
use dnssim::cache::AmbientModel;
use dnssim::forwarder::{Forwarder, UpstreamPolicy};
use dnssim::recursive::{RecursiveResolver, ResolverConfig, ServerFaults};
use dnssim::tcp::{TcpDnsServer, DNS_TCP_PORT};
use netsim::addr::{AddrAllocator, Prefix};
use netsim::engine::Network;
use netsim::latency::LatencyModel;
use netsim::middlebox::{Firewall, Nat};
use netsim::time::SimDuration;
use netsim::topo::{Asn, Coord, NodeId, NodeKind, PingPolicy, Topology};
use rand::rngs::StdRng;
use rand::Rng;
use std::net::Ipv4Addr;

/// A rectangular service region on the simulation map.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoRegion {
    /// West edge (km).
    pub x_km: f64,
    /// North edge (km).
    pub y_km: f64,
    /// Width (km).
    pub width_km: f64,
    /// Height (km).
    pub height_km: f64,
}

impl GeoRegion {
    /// The continental-US-sized region used by the US carriers.
    pub fn us() -> Self {
        GeoRegion {
            x_km: 0.0,
            y_km: 0.0,
            width_km: 4200.0,
            height_km: 2500.0,
        }
    }

    /// The South Korea region, placed a trans-Pacific distance away.
    pub fn south_korea() -> Self {
        GeoRegion {
            x_km: 9500.0,
            y_km: 500.0,
            width_km: 350.0,
            height_km: 420.0,
        }
    }

    /// Region centre.
    pub fn center(&self) -> Coord {
        Coord {
            x_km: self.x_km + self.width_km / 2.0,
            y_km: self.y_km + self.height_km / 2.0,
        }
    }

    /// Deterministic grid placement of `i` out of `n` points, with jitter.
    pub fn spot(&self, i: usize, n: usize, rng: &mut StdRng) -> Coord {
        let cols = (n as f64).sqrt().ceil().max(1.0).floor() as usize;
        let rows = n.div_ceil(cols);
        let col = i % cols;
        let row = i / cols;
        let jx: f64 = rng.gen_range(-0.2..0.2);
        let jy: f64 = rng.gen_range(-0.2..0.2);
        Coord {
            x_km: self.x_km + (col as f64 + 0.5 + jx) / cols as f64 * self.width_km,
            y_km: self.y_km + (row as f64 + 0.5 + jy) / rows.max(1) as f64 * self.height_km,
        }
    }
}

/// One gateway (PGW) site.
#[derive(Debug, Clone)]
pub struct GatewaySite {
    /// Site location.
    pub coord: Coord,
    /// Radio aggregation node (devices attach here; MPLS-transparent).
    pub agg: NodeId,
    /// Egress router with NAT + firewall and a public address.
    pub egress: NodeId,
    /// The egress router's public address (also the NAT pool address).
    pub egress_addr: Ipv4Addr,
    /// Anycast forwarder instance at this site, if the carrier uses an
    /// anycast client-facing tier.
    pub forwarder: Option<NodeId>,
}

/// Everything built for one carrier, needed by the device and service
/// layers.
#[derive(Debug)]
pub struct CarrierNet {
    /// The profile this carrier was built from.
    pub profile: CarrierProfile,
    /// Carrier index (drives the address plan).
    pub index: usize,
    /// Gateway sites.
    pub sites: Vec<GatewaySite>,
    /// The MPLS hub interconnecting all sites (transparent).
    pub hub: NodeId,
    /// Addresses devices get configured with as their resolver.
    pub client_facing_addrs: Vec<Ipv4Addr>,
    /// Unicast forwarder nodes with their locations (empty for anycast
    /// carriers, whose forwarders live on the sites).
    pub forwarder_nodes: Vec<(NodeId, Ipv4Addr, Coord)>,
    /// External recursive resolvers.
    pub external_resolvers: Vec<(NodeId, Ipv4Addr)>,
    /// Per-site upstream sets for anycast carriers (indexed like `sites`);
    /// `None` for carriers whose forwarders share one pool.
    pub site_upstreams: Option<Vec<Vec<Ipv4Addr>>>,
    /// Per-site device address pools (`10.<idx>.<2s>.0/23` for site `s`),
    /// so a device's /24 identifies its gateway region — the property an
    /// ECS deployment needs.
    pub site_allocs: Vec<AddrAllocator>,
    /// Prefix protected by the carrier's firewalls (private side).
    pub private_prefix: Prefix,
    /// Public prefix of the carrier.
    pub public_prefix: Prefix,
}

impl CarrierNet {
    /// Picks a configured resolver address for a (re)attaching device. The
    /// bearer assigns a regional forwarder for unicast carriers (closest to
    /// the device's site, with occasional mis-assignment) and a random VIP
    /// for anycast carriers.
    pub fn pick_configured_dns(&self, rng: &mut StdRng, at: Coord) -> Ipv4Addr {
        if self.forwarder_nodes.is_empty() || rng.gen_bool(0.1) {
            return self.client_facing_addrs[rng.gen_range(0..self.client_facing_addrs.len())];
        }
        self.forwarder_nodes
            .iter()
            .min_by(|a, b| a.2.distance_km(&at).total_cmp(&b.2.distance_km(&at)))
            .map(|&(_, addr, _)| addr)
            .expect("nonempty checked")
    }

    /// Index of the gateway site nearest to `coord`.
    pub fn nearest_site(&self, coord: Coord) -> usize {
        self.sites
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                a.coord
                    .distance_km(&coord)
                    .total_cmp(&b.coord.distance_km(&coord))
            })
            .map(|(i, _)| i)
            .expect("carrier has sites")
    }

    /// All prefixes the firewall protects.
    pub fn protected_prefixes(&self) -> Vec<Prefix> {
        vec![self.private_prefix, self.public_prefix]
    }

    /// Allocates a device address from a site's pool.
    pub fn alloc_device_ip(&mut self, site: usize) -> Ipv4Addr {
        self.site_allocs[site].alloc()
    }

    /// Releases a device address back to its site pool.
    pub fn release_device_ip(&mut self, addr: Ipv4Addr) {
        let site = (addr.octets()[2] / 2) as usize;
        if let Some(alloc) = self.site_allocs.get_mut(site) {
            alloc.release(addr);
        }
    }

    /// The RFC 7871 announcement map the carrier's resolvers use when ECS
    /// is deployed: each device /24 maps to its site's public egress
    /// subnet (the NAT-aware translation a real deployment needs).
    pub fn ecs_map(&self) -> std::collections::BTreeMap<Prefix, Ipv4Addr> {
        let mut map = std::collections::BTreeMap::new();
        for (s, alloc) in self.site_allocs.iter().enumerate() {
            let base = alloc.prefix().network().octets();
            let egress = self.sites[s].egress_addr;
            for half in 0..2u8 {
                let client24 = Prefix::new(Ipv4Addr::new(base[0], base[1], base[2] + half, 0), 24);
                map.insert(client24, egress);
            }
        }
        map
    }
}

/// First octet of a carrier's public /8.
fn public_octet(index: usize) -> u8 {
    100 + index as u8
}

/// Builds the carrier's nodes and links into `topo`. Services are installed
/// later via [`install_carrier_services`] once the `Network` exists.
pub fn build_carrier(
    topo: &mut Topology,
    index: usize,
    profile: CarrierProfile,
    region: GeoRegion,
    backbone: &[(NodeId, Coord)],
    rng: &mut StdRng,
) -> CarrierNet {
    assert!(!backbone.is_empty(), "carrier needs backbone attachment");
    assert!(index < 100, "address plan supports < 100 carriers");
    let asn = Asn(profile.asn);
    let pub8 = public_octet(index);
    let private_prefix: Prefix = format!("10.{index}.0.0/16").parse().expect("valid prefix");
    let public_prefix: Prefix = format!("{pub8}.0.0.0/8").parse().expect("valid prefix");
    assert!(
        profile.gateway_count <= 62,
        "address plan supports <= 62 sites"
    );
    let site_allocs: Vec<AddrAllocator> = (0..profile.gateway_count)
        .map(|s| {
            AddrAllocator::new(
                format!("10.{index}.{}.0/23", 2 * s)
                    .parse()
                    .expect("valid site pool"),
            )
        })
        .collect();

    let center = region.center();
    let hub = topo.add_node(
        format!("{}-mpls-hub", profile.name),
        NodeKind::TransparentRouter,
        asn,
        center,
        vec![Ipv4Addr::new(10, index as u8, 254, 1)],
    );

    // Gateway sites.
    let mut sites = Vec::with_capacity(profile.gateway_count);
    for s in 0..profile.gateway_count {
        let coord = region.spot(s, profile.gateway_count, rng);
        let agg = topo.add_node(
            format!("{}-agg-{s}", profile.name),
            NodeKind::TransparentRouter,
            asn,
            coord,
            vec![Ipv4Addr::new(10, index as u8, 255, (s + 1) as u8)],
        );
        let egress_addr = Ipv4Addr::new(pub8, 1, s as u8, 1);
        let egress = topo.add_node(
            format!("{}-pgw-{s}", profile.name),
            NodeKind::Router,
            asn,
            coord,
            vec![egress_addr],
        );
        topo.add_link(agg, egress, LatencyModel::constant_ms(1));
        // Site to MPLS core: latency grows with distance to the hub.
        let hub_dist = coord.distance_km(&center);
        topo.add_link(agg, hub, LatencyModel::wired(hub_dist));
        // Egress to a backbone POP. Peering is imperfect: usually the
        // nearest POP, sometimes a farther one (the detours Zarifis et al.
        // diagnosed), and always through a transit hop that costs extra
        // latency — this is why public DNS sits farther than the carrier's
        // own resolvers (Fig. 11).
        let mut pops: Vec<(NodeId, f64)> = backbone
            .iter()
            .map(|(n, c)| (*n, c.distance_km(&coord)))
            .collect();
        pops.sort_by(|a, b| a.1.total_cmp(&b.1));
        let roll: f64 = rng.gen();
        let pick = if roll < 0.6 || pops.len() == 1 {
            0
        } else if roll < 0.85 || pops.len() == 2 {
            1
        } else {
            2
        };
        let (pop, pop_dist) = pops[pick.min(pops.len() - 1)];
        let mut latency = LatencyModel::wired(pop_dist);
        latency.base += SimDuration::from_millis(15);
        topo.add_link(egress, pop, latency);
        sites.push(GatewaySite {
            coord,
            agg,
            egress,
            egress_addr,
            forwarder: None,
        });
    }

    // External recursive resolvers. Colocated carriers place them beside
    // the client-facing tier; others spread them over regional data centres
    // near the gateway sites (resolvers cluster at egress points — Xu et
    // al.). Reaching them still hairpins through the MPLS core, which is
    // what separates the curves in Fig. 4. Note the /24 plan: consecutive
    // externals rotate over the /24s, so one /24 mixes resolvers from
    // *different regions* — the ambiguity behind §4.5's "a change of
    // resolver can result in the association of a mobile client with a
    // completely different (and distant!) egress point".
    let ext_asn = profile.dns.external_asn.map(Asn).unwrap_or(asn);
    let s24s = profile.dns.external_slash24s.max(1);
    let mut external_resolvers = Vec::with_capacity(profile.dns.external_count);
    for j in 0..profile.dns.external_count {
        let addr = Ipv4Addr::new(pub8, (110 + (j % s24s)) as u8, 0, (1 + j / s24s) as u8);
        let coord = if profile.dns.colocated_external {
            center
        } else {
            sites[j % sites.len()].coord
        };
        let node = topo.add_node(
            format!("{}-ldns-ext-{j}", profile.name),
            NodeKind::Host,
            ext_asn,
            coord,
            vec![addr],
        );
        let d = coord.distance_km(&center);
        topo.add_link(node, hub, LatencyModel::wired(d.max(50.0)));
        external_resolvers.push((node, addr));
    }

    // Client-facing tier.
    let mut client_facing_addrs = Vec::new();
    let mut forwarder_nodes = Vec::new();
    let mut site_upstreams = None;
    match profile.dns.client_facing {
        ClientFacing::Anycast { vips } => {
            // One forwarder instance per site; VIPs are anycast over them.
            let mut per_site = Vec::with_capacity(sites.len());
            for (s, site) in sites.iter_mut().enumerate() {
                let inst_addr = Ipv4Addr::new(pub8, 53, s as u8, 1);
                let node = topo.add_node(
                    format!("{}-ldns-cf-{s}", profile.name),
                    NodeKind::Host,
                    asn,
                    site.coord,
                    vec![inst_addr],
                );
                topo.add_link(node, site.agg, LatencyModel::constant_ms(1));
                site.forwarder = Some(node);
                // This site's upstream subset, spanning multiple /24s so
                // lease churn crosses prefixes (§4.5).
                let ups: Vec<Ipv4Addr> = external_resolvers
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| j % sites_len_hint(profile.gateway_count) == s)
                    .map(|(_, (_, a))| *a)
                    .collect();
                let ups = if ups.is_empty() {
                    vec![external_resolvers[s % external_resolvers.len()].1]
                } else {
                    ups
                };
                per_site.push(ups);
            }
            for v in 0..vips {
                client_facing_addrs.push(Ipv4Addr::new(pub8, 0, 0, (v + 1) as u8));
            }
            site_upstreams = Some(per_site);
        }
        ClientFacing::Unicast { count } => {
            for i in 0..count {
                let addr = Ipv4Addr::new(pub8, 53, 0, (i + 1) as u8);
                if profile.dns.colocated_external {
                    // SK Telecom-style: client-facing beside the externals
                    // at the central DC (near-equal latencies in Fig. 4).
                    let node = topo.add_node(
                        format!("{}-ldns-cf-{i}", profile.name),
                        NodeKind::Host,
                        asn,
                        center,
                        vec![addr],
                    );
                    topo.add_link(node, hub, LatencyModel::constant_ms(1));
                    client_facing_addrs.push(addr);
                    forwarder_nodes.push((node, addr, center));
                } else {
                    // Client-facing resolvers live in gateway data centres,
                    // close to the radio — which is why the carrier's own
                    // DNS answers faster than public DNS (Fig. 13).
                    let host_site = i * sites.len() / count;
                    let site = &sites[host_site];
                    let node = topo.add_node(
                        format!("{}-ldns-cf-{i}", profile.name),
                        NodeKind::Host,
                        asn,
                        site.coord,
                        vec![addr],
                    );
                    topo.add_link(node, site.agg, LatencyModel::constant_ms(1));
                    client_facing_addrs.push(addr);
                    forwarder_nodes.push((node, addr, site.coord));
                }
            }
        }
    }

    CarrierNet {
        profile,
        index,
        sites,
        hub,
        client_facing_addrs,
        forwarder_nodes,
        external_resolvers,
        site_upstreams,
        site_allocs,
        private_prefix,
        public_prefix,
    }
}

fn sites_len_hint(n: usize) -> usize {
    n.max(1)
}

/// Installs the carrier's middleboxes, services, and anycast after the
/// `Network` has been created.
pub fn install_carrier_services(
    net: &mut Network,
    carrier: &CarrierNet,
    roots: &[Ipv4Addr],
    ambient_period: Option<SimDuration>,
    ecs: bool,
    faults: ServerFaults,
) {
    let ecs_map = if ecs {
        carrier.ecs_map()
    } else {
        Default::default()
    };
    let protected = carrier.protected_prefixes();
    // Middleboxes and ping allowlists on every egress gateway.
    let reachable: Vec<Ipv4Addr> = carrier
        .external_resolvers
        .iter()
        .take(carrier.profile.dns.external_ping_reachable)
        .map(|(_, a)| *a)
        .collect();
    for site in &carrier.sites {
        let mut fw = Firewall::new(protected.clone());
        for &addr in &reachable {
            fw.allow_ping_to(addr);
        }
        let node = net.topo_mut().node_mut(site.egress);
        node.firewall = Some(fw);
        node.nat = Some(Nat::new(vec![carrier.private_prefix], site.egress_addr));
    }

    // External recursive resolvers.
    for (j, (node, addr)) in carrier.external_resolvers.iter().enumerate() {
        let mut cfg = ResolverConfig::new(roots.to_vec());
        cfg.egress_addrs = vec![*addr];
        cfg.faults = faults;
        if let Some(period) = ambient_period {
            cfg.ambient = Some(AmbientModel {
                period,
                phase: SimDuration::from_micros(
                    (j as u64 * 7_919 + carrier.index as u64 * 104_729) * 1_000,
                ),
            });
        }
        net.register_service(*node, DNS_PORT, Box::new(RecursiveResolver::new(cfg)));
        // Inside-ping behaviour: Verizon-style tiered externals ignore
        // carrier-internal probes but answer the outside world (§4.2).
        let policy = if carrier.profile.dns.external_asn.is_some() {
            PingPolicy::NotFrom(protected.clone())
        } else if carrier.profile.name == "LG U+" {
            PingPolicy::Never
        } else {
            PingPolicy::Always
        };
        net.topo_mut().node_mut(*node).answers_ping = policy;
    }

    let policy = &carrier.profile.dns.policy;

    // Client-facing resolvers cache answers; their ambient phase differs
    // from the externals' so warmth is not artificially correlated.
    let fwd_cache = |idx: usize| {
        ambient_period.map(|period| AmbientModel {
            period,
            phase: SimDuration::from_micros(
                (idx as u64 * 13_003 + carrier.index as u64 * 50_021 + 7_777) * 1_000,
            ),
        })
    };
    match (&carrier.site_upstreams, carrier.forwarder_nodes.is_empty()) {
        (Some(per_site), _) => {
            // Anycast carriers: one forwarder per site over its subset.
            for (s, site) in carrier.sites.iter().enumerate() {
                let node = site.forwarder.expect("anycast site has forwarder");
                let instance_addr = net.topo().node(node).primary_addr();
                net.register_service(
                    node,
                    DNS_PORT,
                    Box::new(
                        Forwarder::new(per_site[s].clone(), policy.clone())
                            .with_egress(instance_addr)
                            .with_cache(50_000, SimDuration::from_hours(24), fwd_cache(s))
                            .with_ecs_map(ecs_map.clone()),
                    ),
                );
                // DNS-over-TCP fallback endpoint, relaying to the
                // co-located forwarder. Event-free until a client connects.
                net.register_service(node, DNS_TCP_PORT, Box::new(TcpDnsServer::new()));
            }
            let instances: Vec<NodeId> = carrier
                .sites
                .iter()
                .map(|s| s.forwarder.expect("anycast site has forwarder"))
                .collect();
            for &vip in &carrier.client_facing_addrs {
                net.add_anycast(vip, instances.clone());
            }
        }
        (None, false) => {
            for (i, (node, _, _)) in carrier.forwarder_nodes.iter().enumerate() {
                let upstreams = match policy {
                    // Tiered-sticky carriers pin forwarder i to external i.
                    UpstreamPolicy::Sticky => {
                        let (_, ext) =
                            carrier.external_resolvers[i % carrier.external_resolvers.len()];
                        vec![ext]
                    }
                    // Pool carriers share the whole pool, rotated so each
                    // forwarder's primary (first entry) differs.
                    _ => {
                        let n = carrier.external_resolvers.len();
                        (0..n)
                            .map(|k| carrier.external_resolvers[(i + k) % n].1)
                            .collect()
                    }
                };
                net.register_service(
                    *node,
                    DNS_PORT,
                    Box::new(
                        Forwarder::new(upstreams, policy.clone())
                            .with_cache(50_000, SimDuration::from_hours(24), fwd_cache(i + 100))
                            .with_ecs_map(ecs_map.clone()),
                    ),
                );
                net.register_service(*node, DNS_TCP_PORT, Box::new(TcpDnsServer::new()));
            }
        }
        (None, true) => unreachable!("carrier without any client-facing tier"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::six_carriers;
    use rand::SeedableRng;

    fn backbone(topo: &mut Topology) -> Vec<(NodeId, Coord)> {
        let mut pops = Vec::new();
        for i in 0..4 {
            let coord = Coord {
                x_km: 500.0 + i as f64 * 1000.0,
                y_km: 1200.0,
            };
            let node = topo.add_node(
                format!("pop-{i}"),
                NodeKind::Router,
                Asn(3356),
                coord,
                vec![Ipv4Addr::new(80, 0, i as u8, 1)],
            );
            if let Some(&(prev, _)) = pops.last() {
                topo.add_wired_link(prev, node);
            }
            pops.push((node, coord));
        }
        pops
    }

    #[test]
    fn builds_all_six_carriers_without_address_collisions() {
        let mut topo = Topology::new();
        let pops = backbone(&mut topo);
        let mut rng = StdRng::seed_from_u64(1);
        for (i, p) in six_carriers().into_iter().enumerate() {
            let region = match p.country {
                crate::profile::Country::Us => GeoRegion::us(),
                crate::profile::Country::SouthKorea => GeoRegion::south_korea(),
            };
            let c = build_carrier(&mut topo, i, p, region, &pops, &mut rng);
            assert_eq!(c.sites.len(), c.profile.gateway_count);
            assert_eq!(c.external_resolvers.len(), c.profile.dns.external_count);
            assert!(!c.client_facing_addrs.is_empty());
        }
        // > 400 nodes built with unique addresses (add_node would panic on
        // duplicates).
        assert!(topo.node_count() > 400, "{} nodes", topo.node_count());
    }

    #[test]
    fn external_slash24_plan_matches_profile() {
        let mut topo = Topology::new();
        let pops = backbone(&mut topo);
        let mut rng = StdRng::seed_from_u64(2);
        let profiles = six_carriers();
        for (i, p) in profiles.into_iter().enumerate() {
            let region = match p.country {
                crate::profile::Country::Us => GeoRegion::us(),
                crate::profile::Country::SouthKorea => GeoRegion::south_korea(),
            };
            let expected = p.dns.external_slash24s.min(p.dns.external_count);
            let c = build_carrier(&mut topo, i, p, region, &pops, &mut rng);
            let prefixes: std::collections::HashSet<Prefix> = c
                .external_resolvers
                .iter()
                .map(|(_, a)| Prefix::slash24_of(*a))
                .collect();
            assert_eq!(prefixes.len(), expected, "{}", c.profile.name);
        }
    }

    #[test]
    fn anycast_carriers_have_per_site_forwarders() {
        let mut topo = Topology::new();
        let pops = backbone(&mut topo);
        let mut rng = StdRng::seed_from_u64(3);
        let att = six_carriers().remove(0);
        let c = build_carrier(&mut topo, 0, att, GeoRegion::us(), &pops, &mut rng);
        assert!(c.site_upstreams.is_some());
        assert!(c.sites.iter().all(|s| s.forwarder.is_some()));
        let per_site = c.site_upstreams.as_ref().unwrap();
        // Each site's upstream set spans more than one /24 so lease churn
        // crosses prefixes.
        let multi = per_site
            .iter()
            .filter(|ups| {
                ups.iter()
                    .map(|a| Prefix::slash24_of(*a))
                    .collect::<std::collections::HashSet<_>>()
                    .len()
                    > 1
            })
            .count();
        assert!(multi > per_site.len() / 2, "{multi}/{}", per_site.len());
    }

    #[test]
    fn nearest_site_is_sane() {
        let mut topo = Topology::new();
        let pops = backbone(&mut topo);
        let mut rng = StdRng::seed_from_u64(4);
        let vz = six_carriers().remove(3);
        let c = build_carrier(&mut topo, 3, vz, GeoRegion::us(), &pops, &mut rng);
        for (s, site) in c.sites.iter().enumerate() {
            assert_eq!(c.nearest_site(site.coord), s);
        }
    }

    #[test]
    fn install_services_wires_everything() {
        let mut topo = Topology::new();
        let pops = backbone(&mut topo);
        let root = topo.add_node(
            "root",
            NodeKind::Host,
            Asn(42),
            Coord::default(),
            vec![Ipv4Addr::new(198, 41, 0, 4)],
        );
        topo.add_wired_link(root, pops[0].0);
        let mut rng = StdRng::seed_from_u64(5);
        let vz = six_carriers().remove(3);
        let c = build_carrier(&mut topo, 3, vz, GeoRegion::us(), &pops, &mut rng);
        let mut net = Network::new(topo, 7);
        install_carrier_services(
            &mut net,
            &c,
            &[Ipv4Addr::new(198, 41, 0, 4)],
            Some(SimDuration::from_secs(75)),
            false,
            ServerFaults::default(),
        );
        // Egress nodes now carry NAT and firewall.
        for site in &c.sites {
            let node = net.topo().node(site.egress);
            assert!(node.firewall.is_some());
            assert!(node.nat.is_some());
        }
        // External resolvers reject carrier-internal pings (Verizon).
        let (ext_node, _) = c.external_resolvers[0];
        assert!(matches!(
            net.topo().node(ext_node).answers_ping,
            PingPolicy::NotFrom(_)
        ));
    }
}

//! World assembly: the simulated internet the measurement campaign runs
//! against — backbone, DNS hierarchy, probe ADNS, public DNS deployments,
//! CDNs, the six carriers, and the device fleet.
//!
//! The world is split into a shared, immutable [`Backbone`] (topology
//! template, zone data, CDN knowledge tables) and one [`CarrierShard`] per
//! carrier. Each shard owns a complete discrete-event engine cloned from the
//! template plus its carrier's devices and a private RNG stream derived from
//! the master seed and the carrier index. Experiments only ever touch the
//! device's own carrier, so shards never communicate: the campaign can run
//! them on any number of threads and produce bit-identical results.

use cdnsim::catalog::{mobile_domains, CatalogEntry, PROVIDER_COUNT, PROVIDER_NAMES};
use cdnsim::cdn::{Cdn, Replica};
use cdnsim::edge::EdgeZone;
use cdnsim::mapping::MappingZone;
use cellsim::build::{build_carrier, install_carrier_services, CarrierNet, GeoRegion};
use cellsim::device::{create_devices, Device};
use cellsim::profile::{six_carriers, CarrierProfile, Country};
use dnssim::authority::{AuthoritativeServer, WhoamiZone, DNS_PORT};
use dnssim::hierarchy::HierarchyBuilder;
use dnssim::recursive::{RecursiveResolver, ResolverConfig, ServerFaults};
use dnssim::tcp::{TcpDnsServer, DNS_TCP_PORT};
use dnssim::zone::Zone;
use dnswire::name::DnsName;
use netsim::addr::Prefix;
use netsim::engine::Network;
use netsim::fault::{FaultPlan, LinkFault, Spike, Window};
use netsim::route::CoreRoutes;
use netsim::tcplite::TcpHttpServer;
use netsim::time::SimDuration;
use netsim::topo::{Asn, Coord, NodeId, NodeKind, Topology};
use netsim::HTTP_PORT;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// World-level tuning.
#[derive(Debug, Clone, PartialEq)]
pub struct WorldConfig {
    /// Master seed; every run with the same config is bit-identical.
    pub seed: u64,
    /// Fleet scaling (1.0 = Table 1's 158 clients).
    pub fleet_scale: f64,
    /// Gateway scaling (1.0 = §5.2's LTE-era counts; ~0.1 approximates the
    /// 4–6 egress points of the Xu et al. 3G era for ablations).
    pub gateway_scale: f64,
    /// Ambient cache-warmth period divided by record TTL controls the
    /// first-lookup hit rate (None disables the model; see `dnssim::cache`).
    pub ambient_period: Option<SimDuration>,
    /// Deploy the paper's §9 future-work fix: carrier resolvers announce
    /// RFC 7871 client subnets (NAT-aware), and CDNs geolocate the carrier
    /// egress /24s from their server logs. Off by default — the paper's
    /// world.
    pub ecs: bool,
    /// Build the pre-LTE world of Xu et al. (SIGMETRICS'11): 4–6 gateways
    /// per carrier and no LTE radio — the baseline §2 argues has been
    /// overtaken.
    pub three_g_era: bool,
    /// Deterministic fault injection profile. `None` (the default) makes
    /// zero RNG draws and leaves every output byte-identical to a
    /// fault-free build; the other profiles layer chaos on the links and
    /// carrier resolvers and switch experiments to the hardened client.
    pub fault_profile: FaultProfile,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            seed: 2014,
            fleet_scale: 1.0,
            gateway_scale: 1.0,
            // `cdnsim::cdn::RECORD_TTL` 30 s / period 37.5 s ≈ 80% warm — Fig. 7's ~20% miss.
            ambient_period: Some(SimDuration::from_micros(37_500_000)),
            ecs: false,
            three_g_era: false,
            fault_profile: FaultProfile::None,
        }
    }
}

impl WorldConfig {
    /// A small world for tests and quick benches: reduced fleet and
    /// gateway counts, same structure.
    pub fn quick(seed: u64) -> Self {
        WorldConfig {
            seed,
            fleet_scale: 0.15,
            gateway_scale: 0.35,
            ..WorldConfig::default()
        }
    }
}

/// A named bundle of fault-injection parameters. Profiles are the only
/// supported way to turn chaos on: they pin every knob so a profile name
/// plus a seed fully determines the failure schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultProfile {
    /// No faults. Zero RNG draws on every fault path; outputs are
    /// byte-identical to a build without the fault layer.
    #[default]
    None,
    /// The cellular baseline: light Bernoulli link loss, periodic gateway
    /// maintenance outages, bufferbloat latency spikes, and occasional
    /// carrier-resolver SERVFAILs / forced truncations / blackouts.
    Cellular,
    /// Everything in `Cellular`, turned up, plus faults on the public
    /// resolvers — for exercising failover and the failure taxonomy.
    Stress,
}

impl FaultProfile {
    /// Parses a CLI profile name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "none" => Some(FaultProfile::None),
            "cellular" => Some(FaultProfile::Cellular),
            "stress" => Some(FaultProfile::Stress),
            _ => None,
        }
    }

    /// The profile's CLI name.
    pub fn label(&self) -> &'static str {
        match self {
            FaultProfile::None => "none",
            FaultProfile::Cellular => "cellular",
            FaultProfile::Stress => "stress",
        }
    }

    /// Whether any fault is configured (drives the classic/hardened
    /// client-policy switch).
    pub fn is_active(&self) -> bool {
        !matches!(self, FaultProfile::None)
    }

    /// The link-level fault applied globally to the shard's engine.
    pub fn link_fault(&self) -> Option<LinkFault> {
        let outage = |period_h: u64, offset_min: u64, dur_s: u64| Window {
            period: SimDuration::from_secs(period_h * 3_600),
            offset: SimDuration::from_secs(offset_min * 60),
            duration: SimDuration::from_secs(dur_s),
        };
        match self {
            FaultProfile::None => None,
            FaultProfile::Cellular => Some(LinkFault {
                loss: 0.012,
                outage: Some(outage(6, 90, 40)),
                spike: Some(Spike {
                    window: outage(3, 20, 120),
                    factor_x1000: 3_000,
                    extra: SimDuration::from_millis(150),
                }),
            }),
            FaultProfile::Stress => Some(LinkFault {
                loss: 0.03,
                outage: Some(outage(3, 45, 90)),
                spike: Some(Spike {
                    window: outage(2, 10, 300),
                    factor_x1000: 5_000,
                    extra: SimDuration::from_millis(400),
                }),
            }),
        }
    }

    /// Fault knobs for the carriers' own resolver pools.
    pub fn carrier_resolver_faults(&self) -> ServerFaults {
        let blackout = |period_h: u64, offset_h: u64, dur_s: u64| Window {
            period: SimDuration::from_secs(period_h * 3_600),
            offset: SimDuration::from_secs(offset_h * 3_600),
            duration: SimDuration::from_secs(dur_s),
        };
        match self {
            FaultProfile::None => ServerFaults::default(),
            FaultProfile::Cellular => ServerFaults {
                servfail_prob: 0.02,
                truncate_prob: 0.04,
                unresponsive: Some(blackout(8, 5, 30)),
            },
            FaultProfile::Stress => ServerFaults {
                servfail_prob: 0.06,
                truncate_prob: 0.08,
                unresponsive: Some(blackout(4, 1, 120)),
            },
        }
    }

    /// Fault knobs for the public (Google-like / OpenDNS-like) resolvers.
    /// Only `Stress` faults them — under `Cellular` they stay clean so
    /// failover has somewhere to land.
    pub fn public_resolver_faults(&self) -> ServerFaults {
        match self {
            FaultProfile::Stress => ServerFaults {
                servfail_prob: 0.02,
                truncate_prob: 0.02,
                unresponsive: None,
            },
            _ => ServerFaults::default(),
        }
    }
}

/// One public-DNS deployment (Google-like or OpenDNS-like).
#[derive(Debug)]
pub struct PublicDns {
    /// Display name.
    pub name: &'static str,
    /// The anycast VIP devices are pointed at.
    pub vip: Ipv4Addr,
    /// Site nodes with their egress addresses (each site is one /24).
    pub sites: Vec<PublicSite>,
}

/// One public-DNS site.
#[derive(Debug)]
pub struct PublicSite {
    /// The site's node.
    pub node: NodeId,
    /// Its /24.
    pub prefix: Prefix,
    /// Egress addresses upstream queries rotate over.
    pub egress_addrs: Vec<Ipv4Addr>,
    /// Location.
    pub coord: Coord,
}

/// One CDN provider deployment.
#[derive(Debug)]
pub struct CdnNet {
    /// Provider index into `PROVIDER_NAMES`.
    pub provider: usize,
    /// The selection logic (shared with the mapping zones).
    pub cdn: Arc<Cdn>,
    /// Replica nodes with their addresses.
    pub replicas: Vec<(NodeId, Ipv4Addr)>,
    /// The provider's ADNS node and address.
    pub adns: (NodeId, Ipv4Addr),
}

/// Seed-stream lanes: every independent RNG stream in the world derives its
/// seed from `(master, lane, index)` so streams never alias across lanes or
/// carriers. Public so the host-plane serving crates (`serve`, `loadgen`)
/// can derive their query-mix streams from the same master seed without
/// declaring lanes of their own (detlint D8 keeps declarations here).
pub mod lane {
    /// Backbone assembly (CDN POP placement jitter).
    pub const BACKBONE: u64 = 0;
    /// Per-carrier topology/device construction.
    pub const CARRIER: u64 = 1;
    /// Per-shard campaign stream (churn, bearer reassignment).
    pub const CAMPAIGN: u64 = 2;
    /// Per-shard engine seed: the services' and clients' RNG, and the seed
    /// of the per-hop keyed loss and latency draws (`netsim::draw`).
    pub const ENGINE: u64 = 3;
    /// Per-shard fault-injection seed (chaos Bernoulli draws, keyed per
    /// hop). A dedicated lane so enabling faults perturbs no other draw.
    pub const FAULT: u64 = 4;
    /// Per-shard device-rotation stream (§5.2 egress-coverage nudge). A
    /// dedicated lane so the nudge never perturbs churn or engine draws.
    pub const ROTATION: u64 = 5;
    /// Per-carrier serving-plane query-mix stream (loadgen scripts). A
    /// dedicated lane so live serving never perturbs campaign replay.
    pub const SERVE: u64 = 6;
    /// Per-carrier wire-chaos stream (loadgen adversarial mutations:
    /// bit-flips, garbage datagrams, floods, TCP frame abuse). A dedicated
    /// lane so enabling chaos never perturbs the scripted query mix.
    pub const WIRE_CHAOS: u64 = 7;
}

/// Derives an independent seed for `(lane, index)` from the master seed
/// (SplitMix64 finalizer over a lane/index-keyed state).
pub fn derive_seed(master: u64, lane: u64, index: u64) -> u64 {
    let mut z = master
        ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The immutable part of the world, shared (via `Arc`) by every carrier
/// shard: the full topology template, the DNS hierarchy's zone data, CDN
/// deployments with their knowledge tables, and the public-DNS plan.
///
/// Nothing here is ever mutated after [`build_world`] returns, so shards on
/// different threads can read it concurrently without synchronization.
pub struct Backbone {
    /// Configuration the world was built from.
    pub config: WorldConfig,
    /// The complete topology (backbone + hierarchy + public DNS + CDNs +
    /// all six carriers and their devices). Each shard's engine runs on a
    /// clone of this template.
    pub template: Topology,
    /// Routes over the template's core graph, shared by every shard's engine.
    pub routes: Arc<CoreRoutes>,
    /// Domain catalog (Table 2).
    pub catalog: Vec<CatalogEntry>,
    /// The whoami probe zone (queried with nonce labels).
    pub probe_zone: DnsName,
    /// The university vantage point (Table 4 probes).
    pub university: NodeId,
    /// Root server hint.
    pub roots: Vec<Ipv4Addr>,
    /// Public DNS services: `[0]` Google-like, `[1]` OpenDNS-like.
    pub public_dns: Vec<PublicDns>,
    /// CDN providers (knowledge tables behind `Arc`, shared by all shards).
    pub cdns: Vec<CdnNet>,
    /// Root server node and zone.
    root: (NodeId, Zone),
    /// TLD server nodes and zones.
    tlds: Vec<(NodeId, Zone)>,
    /// Probe ADNS node and its static apex zone.
    probe: (NodeId, Zone),
}

impl Backbone {
    /// Creates a fresh engine for shard `index`: the topology template is
    /// cloned and every shard-independent service (DNS hierarchy, probe
    /// ADNS, CDN authorities and replicas, public-DNS resolvers + anycast)
    /// is instantiated on it. Carrier services are installed by the caller.
    fn spawn_engine(&self, index: usize) -> Network {
        let mut net = Network::with_routes(
            self.template.clone(),
            derive_seed(self.config.seed, lane::ENGINE, index as u64),
            Arc::clone(&self.routes),
        );

        // Chaos layer: the plan keys its draws by its own seed lane, so
        // shards with no faults configured are byte-identical to a build
        // without the fault module.
        if let Some(fault) = self.config.fault_profile.link_fault() {
            net.install_fault_plan(FaultPlan::new(
                derive_seed(self.config.seed, lane::FAULT, index as u64),
                fault,
            ));
        }

        // DNS hierarchy.
        let mut root_srv = AuthoritativeServer::new();
        root_srv.add_zone(self.root.1.clone());
        net.register_service(self.root.0, DNS_PORT, Box::new(root_srv));
        for (node, zone) in &self.tlds {
            let mut srv = AuthoritativeServer::new();
            srv.add_zone(zone.clone());
            net.register_service(*node, DNS_PORT, Box::new(srv));
        }

        // Probe ADNS: whoami dynamic zone under a static apex.
        let mut probe_srv = AuthoritativeServer::new();
        probe_srv.add_zone(self.probe.1.clone());
        probe_srv.add_dynamic(Box::new(WhoamiZone::new(self.probe_zone.clone())));
        net.register_service(self.probe.0, DNS_PORT, Box::new(probe_srv));

        // CDNs: mapping + edge zones over the shared knowledge tables,
        // replica HTTP servers.
        for cdn_net in &self.cdns {
            let p = cdn_net.provider;
            let mut adns = AuthoritativeServer::new();
            for entry in self.catalog.iter().filter(|e| e.provider == p) {
                #[expect(
                    clippy::expect_used,
                    reason = "zone name is a static format literal, always parseable"
                )]
                let suffix = DnsName::parse(&format!("edge.{}.example", PROVIDER_NAMES[p]))
                    .expect("valid edge suffix");
                adns.add_dynamic(Box::new(MappingZone::new(
                    entry.zone.clone(),
                    suffix,
                    Arc::clone(&cdn_net.cdn),
                )));
            }
            #[expect(
                clippy::expect_used,
                reason = "zone name is a static format literal, always parseable"
            )]
            let edge_zone = DnsName::parse(&format!("edge.{}.example", PROVIDER_NAMES[p]))
                .expect("valid edge zone");
            adns.add_dynamic(Box::new(EdgeZone::new(edge_zone, Arc::clone(&cdn_net.cdn))));
            net.register_service(cdn_net.adns.0, DNS_PORT, Box::new(adns));
            for &(node, _) in &cdn_net.replicas {
                // TTFB over TCP-lite pays the real handshake, the request
                // and the think time.
                net.register_service(
                    node,
                    HTTP_PORT,
                    Box::new(TcpHttpServer::new(PAGE_BYTES, SimDuration::from_millis(8))),
                );
            }
        }

        // Public DNS recursive resolvers + anycast VIPs. Each site also
        // answers DNS-over-TCP (registration is event-free until queried,
        // so fault-free runs are unaffected).
        let public_faults = self.config.fault_profile.public_resolver_faults();
        for pd in &self.public_dns {
            for site in &pd.sites {
                let mut cfg = ResolverConfig::new(self.roots.clone());
                cfg.egress_addrs = site.egress_addrs.clone();
                cfg.faults = public_faults;
                if let Some(period) = self.config.ambient_period {
                    cfg.ambient = Some(dnssim::cache::AmbientModel {
                        period,
                        phase: SimDuration::from_micros(
                            site.prefix.network().octets()[2] as u64 * 4_999_999,
                        ),
                    });
                }
                net.register_service(site.node, DNS_PORT, Box::new(RecursiveResolver::new(cfg)));
                net.register_service(site.node, DNS_TCP_PORT, Box::new(TcpDnsServer::new()));
            }
            net.add_anycast(pd.vip, pd.sites.iter().map(|s| s.node).collect());
        }

        net
    }
}

/// One carrier's slice of the world: a full engine (cloned from the
/// backbone template, with this carrier's services and middleboxes
/// installed), the carrier's network plan, its devices, and a private
/// campaign RNG stream.
pub struct CarrierShard {
    /// Carrier index (position in [`World::shards`]).
    pub index: usize,
    /// This shard's discrete-event engine.
    pub net: Network,
    /// The carrier built on this shard.
    pub carrier: CarrierNet,
    /// This carrier's devices (`Device::id` stays fleet-global).
    pub devices: Vec<Device>,
    /// Campaign-level RNG (stream derived from the master seed and the
    /// carrier index; distinct from the engine's).
    pub rng: StdRng,
    /// Rotation RNG for the daily egress-coverage nudge (its own seed lane,
    /// so carriers with full coverage never consume a draw).
    pub rotation_rng: StdRng,
}

/// The assembled world: the shared backbone plus one shard per carrier.
pub struct World {
    /// Immutable shared state.
    pub backbone: Arc<Backbone>,
    /// Per-carrier shards, in canonical carrier order.
    pub shards: Vec<CarrierShard>,
}

/// Well-known public DNS VIPs.
pub const GOOGLE_VIP: Ipv4Addr = Ipv4Addr::new(8, 8, 8, 8);
/// OpenDNS VIP.
pub const OPENDNS_VIP: Ipv4Addr = Ipv4Addr::new(208, 67, 222, 222);

/// Size of every replica's index page. It fits one TCP-lite segment, so a
/// GET is the handshake, the request, one data segment and the teardown:
/// TTFB is all the study reads of it, and body segments would add only
/// events.
const PAGE_BYTES: usize = 1024;
const _: () = assert!(PAGE_BYTES <= netsim::tcplite::MSS);

/// Backbone POP locations: a US mesh plus a Korean cluster.
fn backbone_coords() -> Vec<Coord> {
    let mut v = Vec::new();
    // 12 US metros on the carrier map (0..4200 x 0..2500).
    let us = [
        (250.0, 600.0),   // Seattle-ish
        (300.0, 1500.0),  // Bay Area
        (500.0, 1900.0),  // LA
        (1300.0, 1800.0), // Phoenix/Dallas corridor west
        (1900.0, 1900.0), // Dallas
        (1700.0, 1000.0), // Denver
        (2500.0, 800.0),  // Chicago
        (2700.0, 1700.0), // Atlanta
        (3300.0, 2100.0), // Miami
        (3500.0, 900.0),  // DC
        (3700.0, 700.0),  // NYC
        (3400.0, 500.0),  // Boston
    ];
    for (x, y) in us {
        v.push(Coord { x_km: x, y_km: y });
    }
    // 3 Korean POPs.
    let kr = [(9600.0, 600.0), (9700.0, 800.0), (9750.0, 700.0)];
    for (x, y) in kr {
        v.push(Coord { x_km: x, y_km: y });
    }
    v
}

/// Number of US POPs in [`backbone_coords`].
const US_POPS: usize = 12;

/// Builds the complete world: the backbone topology once, then the six
/// carrier shards (engine clone + services) concurrently — shard assembly
/// is pure per carrier, so the thread interleaving cannot affect the
/// result.
pub fn build_world(config: WorldConfig) -> World {
    let mut rng = StdRng::seed_from_u64(derive_seed(config.seed, lane::BACKBONE, 0));
    let mut topo = Topology::new();

    // --- Backbone ---
    let coords = backbone_coords();
    let mut pops: Vec<(NodeId, Coord)> = Vec::new();
    for (i, &coord) in coords.iter().enumerate() {
        let node = topo.add_node(
            format!("pop-{i}"),
            NodeKind::Router,
            Asn(3356),
            coord,
            vec![Ipv4Addr::new(80, 0, i as u8, 1)],
        );
        pops.push((node, coord));
    }
    // US ring + chords.
    for i in 0..US_POPS {
        let (a, _) = pops[i];
        let (b, _) = pops[(i + 1) % US_POPS];
        topo.add_wired_link(a, b);
    }
    for &(i, j) in &[(0usize, 6usize), (1, 4), (4, 9), (6, 10), (2, 4)] {
        topo.add_wired_link(pops[i].0, pops[j].0);
    }
    // Korean triangle + two trans-Pacific links.
    for &(i, j) in &[(12usize, 13usize), (13, 14), (12, 14)] {
        topo.add_wired_link(pops[i].0, pops[j].0);
    }
    topo.add_wired_link(pops[0].0, pops[12].0);
    topo.add_wired_link(pops[1].0, pops[13].0);

    let us_pops: Vec<(NodeId, Coord)> = pops[..US_POPS].to_vec();
    let kr_pops: Vec<(NodeId, Coord)> = pops[US_POPS..].to_vec();

    // --- DNS hierarchy servers ---
    let root_addr = Ipv4Addr::new(198, 41, 0, 4);
    let root_node = topo.add_node(
        "root-dns",
        NodeKind::Host,
        Asn(397),
        pops[9].1,
        vec![root_addr],
    );
    topo.add_link(root_node, pops[9].0, netsim::LatencyModel::constant_ms(1));

    let tld_specs = [
        ("com", Ipv4Addr::new(192, 5, 6, 30), 6),
        ("org", Ipv4Addr::new(192, 5, 6, 31), 10),
        ("example", Ipv4Addr::new(192, 5, 6, 32), 9),
    ];
    let mut tld_nodes = Vec::new();
    for (label, addr, pop) in tld_specs {
        let node = topo.add_node(
            format!("tld-{label}"),
            NodeKind::Host,
            Asn(397),
            pops[pop].1,
            vec![addr],
        );
        topo.add_link(node, pops[pop].0, netsim::LatencyModel::constant_ms(1));
        tld_nodes.push((label, addr, node));
    }

    // Probe ADNS (whoami) near the university.
    let probe_addr = Ipv4Addr::new(198, 51, 200, 53);
    let probe_node = topo.add_node(
        "probe-adns",
        NodeKind::Host,
        Asn(103),
        pops[6].1,
        vec![probe_addr],
    );
    topo.add_link(probe_node, pops[6].0, netsim::LatencyModel::constant_ms(1));

    // University vantage point (Northwestern-ish, near Chicago POP).
    let university = topo.add_node(
        "university",
        NodeKind::Host,
        Asn(103),
        pops[6].1,
        vec![Ipv4Addr::new(129, 105, 5, 5)],
    );
    topo.add_link(university, pops[6].0, netsim::LatencyModel::constant_ms(1));

    // --- Public DNS sites ---
    /// (name, vip, sites, addrs per site, first two octets, KR site share).
    /// Google runs ~30 /24 clusters (the paper's count), OpenDNS 16.
    type PublicPlan = (&'static str, Ipv4Addr, usize, u8, [u8; 2], usize);
    let public_plans: [PublicPlan; 2] = [
        ("GoogleDNS", GOOGLE_VIP, 30, 6, [173, 194], 5),
        ("OpenDNS", OPENDNS_VIP, 16, 4, [204, 194], 3),
    ];
    let mut public_dns: Vec<PublicDns> = Vec::new();
    for (name, vip, site_count, per_site, octets, kr_share) in public_plans {
        let mut sites = Vec::new();
        for s in 0..site_count {
            let (pop, coord) = if site_count - s <= kr_share {
                kr_pops[s % kr_pops.len()]
            } else {
                us_pops[s % us_pops.len()]
            };
            #[expect(
                clippy::expect_used,
                reason = "the format string constructs a syntactically valid /24 prefix"
            )]
            let prefix: Prefix = format!("{}.{}.{}.0/24", octets[0], octets[1], s)
                .parse()
                .expect("valid site prefix");
            let egress_addrs: Vec<Ipv4Addr> =
                (1..=per_site).map(|k| prefix.addr(k as u32)).collect();
            let node = topo.add_node(
                format!("{name}-site-{s}"),
                NodeKind::Host,
                Asn(15169),
                coord,
                egress_addrs.clone(),
            );
            topo.add_link(node, pop, netsim::LatencyModel::constant_ms(1));
            sites.push(PublicSite {
                node,
                prefix,
                egress_addrs,
                coord,
            });
        }
        public_dns.push(PublicDns { name, vip, sites });
    }

    // --- CDN replicas and ADNS ---
    let catalog = mobile_domains();
    let provider_pops = [30usize, 20, 25, 8];
    let provider_kr = [6usize, 4, 5, 0];
    let mut cdn_plans = Vec::new();
    for p in 0..PROVIDER_COUNT {
        let mut replicas = Vec::new();
        let mut replica_nodes = Vec::new();
        for s in 0..provider_pops[p] {
            let (pop, base) = if provider_pops[p] - s <= provider_kr[p] {
                kr_pops[s % kr_pops.len()]
            } else {
                us_pops[(s + p) % us_pops.len()]
            };
            // Spread POPs around the metro.
            let coord = Coord {
                x_km: base.x_km + rng.gen_range(-60.0..60.0),
                y_km: base.y_km + rng.gen_range(-60.0..60.0),
            };
            let addr = Ipv4Addr::new(90 + p as u8, 0, s as u8, 1);
            let node = topo.add_node(
                format!("{}-pop-{s}", PROVIDER_NAMES[p]),
                NodeKind::Host,
                Asn(20940 + p as u32),
                coord,
                vec![addr],
            );
            topo.add_wired_link(node, pop);
            replica_nodes.push((node, addr));
            replicas.push(Replica { addr, coord });
        }
        let adns_addr = Ipv4Addr::new(90 + p as u8, 53, 0, 1);
        let adns_pop = us_pops[(4 + p) % us_pops.len()];
        let adns_node = topo.add_node(
            format!("{}-adns", PROVIDER_NAMES[p]),
            NodeKind::Host,
            Asn(20940 + p as u32),
            adns_pop.1,
            vec![adns_addr],
        );
        topo.add_link(adns_node, adns_pop.0, netsim::LatencyModel::constant_ms(1));
        cdn_plans.push((replicas, replica_nodes, adns_node, adns_addr));
    }

    // --- Carriers ---
    // Each carrier's nodes (and devices) are built with its own derived RNG
    // stream, so a carrier's layout depends only on the master seed and its
    // index — the property that lets shards be reassembled independently.
    let mut carrier_profiles = six_carriers();
    if config.three_g_era {
        carrier_profiles = carrier_profiles
            .into_iter()
            .map(|p| p.as_three_g())
            .collect();
    }
    for p in carrier_profiles.iter_mut() {
        p.client_count = ((p.client_count as f64 * config.fleet_scale).round() as usize).max(1);
        p.gateway_count = ((p.gateway_count as f64 * config.gateway_scale).round() as usize).max(2);
    }
    let mut carriers = Vec::new();
    let mut device_groups: Vec<Vec<Device>> = Vec::new();
    let mut next_device_id = 0usize;
    for (i, profile) in carrier_profiles.into_iter().enumerate() {
        let mut crng = StdRng::seed_from_u64(derive_seed(config.seed, lane::CARRIER, i as u64));
        let region = match profile.country {
            Country::Us => GeoRegion::us(),
            Country::SouthKorea => GeoRegion::south_korea(),
        };
        let backbone = match profile.country {
            Country::Us => &us_pops,
            Country::SouthKorea => &kr_pops,
        };
        let mut carrier = build_carrier(&mut topo, i, profile, region, backbone, &mut crng);
        let devices = create_devices(&mut topo, &mut carrier, next_device_id, &mut crng);
        next_device_id += devices.len();
        carriers.push(carrier);
        device_groups.push(devices);
    }

    // --- Hierarchy zones ---
    let mut h = HierarchyBuilder::new();
    for (label, addr, _) in &tld_nodes {
        h.add_tld(label, *addr);
    }
    h.add_domain("probe.example", probe_addr);
    for entry in &catalog {
        let (_, _, _, adns_addr) = &cdn_plans[entry.provider];
        h.add_domain(&entry.zone.to_string(), *adns_addr);
    }
    for p in 0..PROVIDER_COUNT {
        let (_, _, _, adns_addr) = &cdn_plans[p];
        h.add_domain(&format!("{}.example", PROVIDER_NAMES[p]), *adns_addr);
    }
    let built = h.build();
    let tlds: Vec<(NodeId, Zone)> = built
        .tlds
        .into_iter()
        .map(|(label, _, zone)| {
            #[expect(
                clippy::expect_used,
                reason = "tld_nodes was built from the same TLD list being mapped here"
            )]
            let (_, _, node) = tld_nodes
                .iter()
                .find(|(l, _, _)| *l == label)
                .expect("tld node exists");
            (*node, zone)
        })
        .collect();

    // Probe apex (static part; the whoami zone is dynamic per engine).
    #[expect(clippy::expect_used, reason = "static zone-name literals always parse")]
    let probe_zone = DnsName::parse("whoami.probe.example").expect("valid probe zone");
    #[expect(clippy::expect_used, reason = "static zone-name literals always parse")]
    let mut probe_apex = Zone::new(DnsName::parse("probe.example").expect("valid"));
    #[expect(clippy::expect_used, reason = "static zone-name literals always parse")]
    let apex_name = DnsName::parse("probe.example").expect("valid");
    probe_apex.add_a(apex_name, 3600, probe_addr);

    // --- CDN knowledge tables (immutable once built, shared by shards) ---
    let mut cdns = Vec::new();
    for (p, (replicas, replica_nodes, adns_node, adns_addr)) in cdn_plans.into_iter().enumerate() {
        let mut cdn = Cdn::new(PROVIDER_NAMES[p], replicas);
        // Measured prefixes: public-DNS site /24s and the university.
        for pd in &public_dns {
            for site in &pd.sites {
                cdn.add_measured(site.prefix, site.coord);
            }
        }
        cdn.add_measured(Prefix::slash24_of(Ipv4Addr::new(129, 105, 5, 5)), pops[6].1);
        // Under an ECS deployment, CDNs learn the carrier egress /24s'
        // locations from their own server logs (those NAT addresses appear
        // as HTTP clients every day).
        if config.ecs {
            for carrier in &carriers {
                for site in &carrier.sites {
                    cdn.add_measured(Prefix::slash24_of(site.egress_addr), site.coord);
                }
            }
        }
        // Coarse believed-centroids for the unprobeable carrier blocks: the
        // carrier's main peering metro.
        for carrier in &carriers {
            let centroid = match carrier.profile.country {
                Country::Us => us_pops[4].1, // Dallas-ish
                Country::SouthKorea => kr_pops[0].1,
            };
            let first_octet = carrier.public_prefix.network().octets()[0];
            cdn.add_coarse_centroid(first_octet, centroid);
            // Geo-database anchor per resolver /24: the true location of
            // the prefix's first member. Regionally right for that member,
            // and distant for the members from other regions sharing the
            // /24 — the paper's mis-association mechanism.
            let mut seen: std::collections::BTreeSet<Prefix> = std::collections::BTreeSet::new();
            for &(node, addr) in &carrier.external_resolvers {
                let prefix = Prefix::slash24_of(addr);
                if seen.insert(prefix) {
                    cdn.add_prefix_anchor(prefix, topo.node(node).coord);
                }
            }
        }
        cdns.push(CdnNet {
            provider: p,
            cdn: Arc::new(cdn),
            replicas: replica_nodes,
            adns: (adns_node, adns_addr),
        });
    }

    let backbone = Arc::new(Backbone {
        routes: Arc::new(CoreRoutes::build(&topo)),
        template: topo,
        catalog,
        probe_zone,
        university,
        roots: vec![root_addr],
        public_dns,
        cdns,
        root: (root_node, built.root),
        tlds,
        probe: (probe_node, probe_apex),
        config,
    });

    // --- Shards ---
    // Assembled concurrently: each shard's engine, services, and RNG depend
    // only on the backbone and the carrier index.
    let shards: Vec<CarrierShard> = std::thread::scope(|scope| {
        let handles: Vec<_> = carriers
            .into_iter()
            .zip(device_groups)
            .enumerate()
            .map(|(i, (carrier, devices))| {
                let backbone = &backbone;
                scope.spawn(move || make_shard(backbone, i, carrier, devices))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                #[expect(
                    clippy::expect_used,
                    reason = "join() propagates a shard worker's panic instead of silently \
                              dropping its devices"
                )]
                let shard = h.join().expect("shard assembly panicked");
                shard
            })
            .collect()
    });

    World { backbone, shards }
}

/// Assembles one carrier shard: engine clone + shared services + this
/// carrier's services/middleboxes, plus the initial bearer-churn schedule.
fn make_shard(
    backbone: &Backbone,
    index: usize,
    carrier: CarrierNet,
    mut devices: Vec<Device>,
) -> CarrierShard {
    let config = &backbone.config;
    let mut net = backbone.spawn_engine(index);
    install_carrier_services(
        &mut net,
        &carrier,
        &backbone.roots,
        config.ambient_period,
        config.ecs,
        config.fault_profile.carrier_resolver_faults(),
    );

    // Schedule each device's first IP-reassignment from the shard's own
    // campaign stream.
    let mut rng = StdRng::seed_from_u64(derive_seed(config.seed, lane::CAMPAIGN, index as u64));
    for d in devices.iter_mut() {
        let mean = carrier.profile.ip_reassign_mean.as_micros();
        let jitter: f64 = -rng.gen_range(1e-9_f64..1.0_f64).ln();
        d.next_ip_change =
            netsim::SimTime::ZERO + SimDuration::from_micros((mean as f64 * jitter).floor() as u64);
    }

    CarrierShard {
        index,
        net,
        carrier,
        devices,
        rng,
        rotation_rng: StdRng::seed_from_u64(derive_seed(config.seed, lane::ROTATION, index as u64)),
    }
}

impl World {
    /// Configuration the world was built from.
    pub fn config(&self) -> &WorldConfig {
        &self.backbone.config
    }

    /// Number of carriers (= shards).
    pub fn carrier_count(&self) -> usize {
        self.shards.len()
    }

    /// The network plan of one carrier.
    pub fn carrier(&self, index: usize) -> &CarrierNet {
        &self.shards[index].carrier
    }

    /// Carrier index by name.
    pub fn carrier_index(&self, name: &str) -> Option<usize> {
        self.shards
            .iter()
            .position(|s| s.carrier.profile.name == name)
    }

    /// The profile of a carrier.
    pub fn profile(&self, carrier: usize) -> &CarrierProfile {
        &self.shards[carrier].carrier.profile
    }

    /// Total device count across all shards.
    pub fn device_count(&self) -> usize {
        self.shards.iter().map(|s| s.devices.len()).sum()
    }

    /// The device with fleet-global index `idx` (devices are numbered
    /// carrier-major, in shard order).
    pub fn device(&self, idx: usize) -> &Device {
        let (shard, local) = self.locate_device(idx);
        &self.shards[shard].devices[local]
    }

    /// Maps a fleet-global device index to `(shard, local)` coordinates.
    pub fn locate_device(&self, idx: usize) -> (usize, usize) {
        let mut offset = 0;
        for (s, shard) in self.shards.iter().enumerate() {
            if idx < offset + shard.devices.len() {
                return (s, idx - offset);
            }
            offset += shard.devices.len();
        }
        #[expect(
            clippy::panic,
            reason = "a fleet-global device index out of range is a caller bug; clamping would \
                      attribute records to the wrong device"
        )]
        {
            panic!("device index {idx} out of range ({} devices)", offset);
        }
    }

    /// Fleet-global indices of the devices on one carrier.
    pub fn devices_of(&self, carrier: usize) -> Vec<usize> {
        let offset: usize = self.shards[..carrier].iter().map(|s| s.devices.len()).sum();
        (offset..offset + self.shards[carrier].devices.len()).collect()
    }

    /// Node count of the (per-shard) topology.
    pub fn node_count(&self) -> usize {
        self.backbone.template.node_count()
    }

    /// Engine events dispatched across all shards.
    pub fn total_events(&self) -> u64 {
        self.shards.iter().map(|s| s.net.stats.events).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_world_builds() {
        let w = build_world(WorldConfig::quick(7));
        assert_eq!(w.shards.len(), 6);
        assert!(w.device_count() > 0);
        assert_eq!(w.backbone.public_dns.len(), 2);
        assert_eq!(w.backbone.cdns.len(), 4);
        assert_eq!(w.backbone.catalog.len(), 9);
    }

    #[test]
    fn full_world_matches_paper_scale() {
        let w = build_world(WorldConfig::default());
        assert_eq!(w.device_count(), 158);
        let us_gateways: usize = w
            .shards
            .iter()
            .filter(|s| s.carrier.profile.country == Country::Us)
            .map(|s| s.carrier.sites.len())
            .sum();
        assert_eq!(us_gateways, 11 + 45 + 62 + 49);
        assert_eq!(w.backbone.public_dns[0].sites.len(), 30);
    }

    #[test]
    fn world_is_deterministic() {
        let a = build_world(WorldConfig::quick(3));
        let b = build_world(WorldConfig::quick(3));
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.device_count(), b.device_count());
        for (x, y) in a
            .shards
            .iter()
            .flat_map(|s| &s.devices)
            .zip(b.shards.iter().flat_map(|s| &s.devices))
        {
            assert_eq!(x.ip, y.ip);
            assert_eq!(x.configured_dns, y.configured_dns);
        }
    }

    #[test]
    fn device_ids_are_fleet_global_and_carrier_major() {
        let w = build_world(WorldConfig::quick(9));
        let mut expected = 0usize;
        for shard in &w.shards {
            for d in &shard.devices {
                assert_eq!(d.id, expected);
                assert_eq!(d.carrier, shard.index);
                expected += 1;
            }
        }
        assert_eq!(expected, w.device_count());
        // locate_device inverts the global numbering.
        for g in 0..w.device_count() {
            assert_eq!(w.device(g).id, g);
        }
    }

    #[test]
    fn seed_lanes_do_not_alias() {
        let mut seen = std::collections::BTreeSet::new();
        for lane in 0..5u64 {
            for idx in 0..6u64 {
                assert!(seen.insert(derive_seed(2014, lane, idx)));
            }
        }
        // Distinct master seeds shift every lane.
        assert_ne!(derive_seed(1, 0, 0), derive_seed(2, 0, 0));
    }
}

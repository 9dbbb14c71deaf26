//! Topology: nodes, links, geography, and autonomous-system tagging.

use crate::addr::Prefix;
use crate::hash::FastMap;
use crate::latency::LatencyModel;
use crate::middlebox::{Firewall, Nat};
use std::net::Ipv4Addr;

/// Who a node answers ICMP echo requests from.
#[derive(Debug, Clone, PartialEq)]
pub enum PingPolicy {
    /// Answer everyone (default).
    Always,
    /// Answer nobody.
    Never,
    /// Answer only sources inside one of these prefixes.
    OnlyFrom(Vec<Prefix>),
    /// Answer everyone except sources inside these prefixes (Verizon's
    /// external resolvers answer the outside world but not carrier-internal
    /// clients — §4.2 vs Table 4).
    NotFrom(Vec<Prefix>),
}

impl PingPolicy {
    /// Whether a probe from `src` gets an answer.
    pub fn answers(&self, src: Ipv4Addr) -> bool {
        match self {
            PingPolicy::Always => true,
            PingPolicy::Never => false,
            PingPolicy::OnlyFrom(ps) => ps.iter().any(|p| p.contains(src)),
            PingPolicy::NotFrom(ps) => !ps.iter().any(|p| p.contains(src)),
        }
    }
}

/// Index of a node in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Autonomous system number, used for egress detection and the paper's
/// observation that Verizon's tiered resolvers live in different ASes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Asn(pub u32);

/// A point on the simulation's 2-D map, in kilometres.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Coord {
    /// East–west position.
    pub x_km: f64,
    /// North–south position.
    pub y_km: f64,
}

impl Coord {
    /// Euclidean distance in kilometres.
    pub fn distance_km(&self, other: &Coord) -> f64 {
        let dx = self.x_km - other.x_km;
        let dy = self.y_km - other.y_km;
        (dx * dx + dy * dy).sqrt()
    }
}

/// What role a node plays. Only behaviourally relevant distinctions are
/// encoded; everything else is configuration on the node itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// An end host (device, server, vantage point).
    Host,
    /// A router that decrements TTL and answers ICMP errors.
    Router,
    /// An MPLS-style label-switched router: forwards without decrementing
    /// TTL and never answers probes — the tunnelling the paper observed
    /// hiding carrier structure (§4.2).
    TransparentRouter,
}

/// A node and all its static configuration.
#[derive(Debug, Clone)]
pub struct Node {
    /// Identifier (index into the topology's node vector).
    pub id: NodeId,
    /// Human-readable label for traces and debugging.
    pub label: String,
    /// Role.
    pub kind: NodeKind,
    /// Addresses owned by this node. The first is its primary address.
    pub addrs: Vec<Ipv4Addr>,
    /// AS this node belongs to.
    pub asn: Asn,
    /// Geographic position.
    pub coord: Coord,
    /// ICMP echo answering policy.
    pub answers_ping: PingPolicy,
    /// Stateful firewall, if this node polices traffic through it.
    pub firewall: Option<Firewall>,
    /// NAT, if this node translates traffic through it.
    pub nat: Option<Nat>,
}

impl Node {
    /// Primary address (panics if the node has none — a build error).
    pub fn primary_addr(&self) -> Ipv4Addr {
        self.addrs[0]
    }
}

/// A bidirectional link.
#[derive(Debug, Clone)]
pub struct Link {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Latency distribution, sampled per traversal (each direction
    /// independently).
    pub latency: LatencyModel,
    /// Per-traversal loss probability (radio links lose packets; wired
    /// links default to zero).
    pub loss: f64,
    /// Link capacity in bits/second. `None` = infinite (no serialization
    /// delay, no queueing) — the default for core links, where our packet
    /// volumes never approach saturation. Radio links set this.
    pub bandwidth_bps: Option<u64>,
}

/// The static network graph.
#[derive(Debug, Default, Clone)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// adjacency[node] = list of (neighbor, link index)
    adjacency: Vec<Vec<(NodeId, usize)>>,
    addr_map: FastMap<Ipv4Addr, NodeId>,
}

impl Topology {
    /// An empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node; addresses must be globally unique within the topology.
    pub fn add_node(
        &mut self,
        label: impl Into<String>,
        kind: NodeKind,
        asn: Asn,
        coord: Coord,
        addrs: Vec<Ipv4Addr>,
    ) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        for &a in &addrs {
            let prior = self.addr_map.insert(a, id);
            assert!(prior.is_none(), "duplicate address {a}");
        }
        self.nodes.push(Node {
            id,
            label: label.into(),
            kind,
            addrs,
            asn,
            coord,
            answers_ping: PingPolicy::Always,
            firewall: None,
            nat: None,
        });
        self.adjacency.push(Vec::new());
        id
    }

    /// Replaces one of a node's addresses (device IP reassignment — the
    /// ephemeral cellular addressing of Balakrishnan et al.). The old
    /// address is released.
    pub fn replace_addr(&mut self, node: NodeId, old: Ipv4Addr, new: Ipv4Addr) {
        let owner = self.addr_map.remove(&old);
        assert_eq!(owner, Some(node), "{old} not owned by {node:?}");
        let prior = self.addr_map.insert(new, node);
        assert!(prior.is_none(), "duplicate address {new}");
        let addrs = &mut self.nodes[node.index()].addrs;
        // addr_map and node.addrs are kept in lockstep; ownership of `old`
        // was asserted above, so absence here means internal corruption
        // that must not be silently ignored.
        let slot = addrs.iter().position(|a| *a == old);
        assert!(slot.is_some(), "{old} missing from {node:?} addr list");
        if let Some(i) = slot {
            addrs[i] = new;
        }
    }

    /// Connects two nodes with the given latency model.
    pub fn add_link(&mut self, a: NodeId, b: NodeId, latency: LatencyModel) -> usize {
        assert_ne!(a, b, "self-link on {a:?}");
        let idx = self.links.len();
        self.links.push(Link {
            a,
            b,
            latency,
            loss: 0.0,
            bandwidth_bps: None,
        });
        self.adjacency[a.index()].push((b, idx));
        self.adjacency[b.index()].push((a, idx));
        idx
    }

    /// Connects two nodes with a wired link sized by their geographic
    /// distance.
    pub fn add_wired_link(&mut self, a: NodeId, b: NodeId) -> usize {
        let d = self.nodes[a.index()]
            .coord
            .distance_km(&self.nodes[b.index()].coord);
        self.add_link(a, b, LatencyModel::wired(d))
    }

    /// Replaces the latency model of a link (used by the cellular layer when
    /// a device's radio technology changes).
    pub fn set_link_latency(&mut self, link: usize, latency: LatencyModel) {
        self.links[link].latency = latency;
    }

    /// Sets a link's per-traversal loss probability.
    pub fn set_link_loss(&mut self, link: usize, loss: f64) {
        self.links[link].loss = loss.clamp(0.0, 1.0);
    }

    /// Sets a link's capacity (`None` = infinite).
    pub fn set_link_bandwidth(&mut self, link: usize, bps: Option<u64>) {
        self.links[link].bandwidth_bps = bps.map(|b| b.max(1));
    }

    /// Moves one end of a link to a different node; engines go through
    /// [`crate::engine::Network::rehome_stub`], which keeps routes valid.
    pub(crate) fn rewire_link(&mut self, link: usize, keep: NodeId, new_peer: NodeId) {
        assert_ne!(keep, new_peer, "self-link on {keep:?}");
        let (old_a, old_b) = {
            let l = &self.links[link];
            (l.a, l.b)
        };
        assert!(
            old_a == keep || old_b == keep,
            "link {link} does not touch {keep:?}"
        );
        let old_peer = if old_a == keep { old_b } else { old_a };
        self.adjacency[old_peer.index()].retain(|&(_, li)| li != link);
        self.adjacency[keep.index()].retain(|&(_, li)| li != link);
        self.links[link].a = keep;
        self.links[link].b = new_peer;
        self.adjacency[keep.index()].push((new_peer, link));
        self.adjacency[new_peer.index()].push((keep, link));
    }

    /// Node accessor.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Mutable node accessor.
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.index()]
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Link accessor.
    pub fn link(&self, idx: usize) -> &Link {
        &self.links[idx]
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Neighbors of a node with the connecting link index.
    pub fn neighbors(&self, id: NodeId) -> &[(NodeId, usize)] {
        &self.adjacency[id.index()]
    }

    /// Which node owns an address.
    pub fn owner_of(&self, addr: Ipv4Addr) -> Option<NodeId> {
        self.addr_map.get(&addr).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
        Ipv4Addr::new(a, b, c, d)
    }

    fn two_node_topo() -> (Topology, NodeId, NodeId) {
        let mut t = Topology::new();
        let a = t.add_node(
            "a",
            NodeKind::Host,
            Asn(100),
            Coord {
                x_km: 0.0,
                y_km: 0.0,
            },
            vec![ip(10, 0, 0, 1)],
        );
        let b = t.add_node(
            "b",
            NodeKind::Router,
            Asn(200),
            Coord {
                x_km: 300.0,
                y_km: 400.0,
            },
            vec![ip(10, 0, 0, 2)],
        );
        t.add_wired_link(a, b);
        (t, a, b)
    }

    #[test]
    fn builds_and_indexes() {
        let (t, a, b) = two_node_topo();
        assert_eq!(t.node_count(), 2);
        assert_eq!(t.owner_of(ip(10, 0, 0, 1)), Some(a));
        assert_eq!(t.owner_of(ip(10, 0, 0, 2)), Some(b));
        assert_eq!(t.owner_of(ip(9, 9, 9, 9)), None);
        assert_eq!(t.neighbors(a).len(), 1);
        assert_eq!(t.neighbors(b)[0].0, a);
    }

    #[test]
    fn wired_link_uses_distance() {
        let (t, ..) = two_node_topo();
        // distance = 500 km -> propagation 2500 µs, plus jitter mean
        assert!(t.link(0).latency.mean_micros() >= 2500);
    }

    #[test]
    #[should_panic(expected = "duplicate address")]
    fn rejects_duplicate_addresses() {
        let mut t = Topology::new();
        t.add_node(
            "a",
            NodeKind::Host,
            Asn(1),
            Coord::default(),
            vec![ip(1, 1, 1, 1)],
        );
        t.add_node(
            "b",
            NodeKind::Host,
            Asn(1),
            Coord::default(),
            vec![ip(1, 1, 1, 1)],
        );
    }

    #[test]
    fn distance_math() {
        let a = Coord {
            x_km: 0.0,
            y_km: 0.0,
        };
        let b = Coord {
            x_km: 3.0,
            y_km: 4.0,
        };
        assert!((a.distance_km(&b) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn replace_addr_swaps_ownership() {
        let (mut t, a, _) = two_node_topo();
        t.replace_addr(a, ip(10, 0, 0, 1), ip(10, 0, 0, 99));
        assert_eq!(t.owner_of(ip(10, 0, 0, 1)), None);
        assert_eq!(t.owner_of(ip(10, 0, 0, 99)), Some(a));
        assert_eq!(t.node(a).primary_addr(), ip(10, 0, 0, 99));
    }

    #[test]
    fn rewire_link_moves_endpoint() {
        let mut t = Topology::new();
        let a = t.add_node(
            "a",
            NodeKind::Host,
            Asn(1),
            Coord::default(),
            vec![ip(10, 0, 0, 1)],
        );
        let b = t.add_node(
            "b",
            NodeKind::Router,
            Asn(1),
            Coord::default(),
            vec![ip(10, 0, 0, 2)],
        );
        let c = t.add_node(
            "c",
            NodeKind::Router,
            Asn(1),
            Coord::default(),
            vec![ip(10, 0, 0, 3)],
        );
        let link = t.add_link(a, b, crate::latency::LatencyModel::constant_ms(1));
        t.rewire_link(link, a, c);
        assert_eq!(t.neighbors(a), &[(c, link)]);
        assert!(t.neighbors(b).is_empty());
        assert_eq!(t.neighbors(c), &[(a, link)]);
        assert_eq!(t.link(link).a, a);
        assert_eq!(t.link(link).b, c);
    }
}

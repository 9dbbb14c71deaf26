//! Shortest-path routing over mean link latency, on the *core* graph.
//!
//! A *stub* (a degree-1 node on a degree-≥2 neighbour: a device, a CDN
//! replica, a public-DNS site) is never an interior hop, and Dijkstra from it
//! is Dijkstra from its attachment shifted by a constant, so every tie-break
//! holds. The table covers the other, *core*, nodes only; a stub's attachment
//! and link weight are read live, so re-homing one recomputes nothing and
//! engines on one core graph share one table.

use crate::topo::{NodeId, Topology};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Marks a stub in the core-index map and a missing hop in the table.
const NONE: u32 = u32::MAX;

/// Next-hop entry: the neighbor to forward to and the link index used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NextHop {
    /// Neighbor node.
    pub node: NodeId,
    /// Link carrying the packet there.
    pub link: usize,
}

/// Distance and next hop between every ordered pair of core nodes.
#[derive(Debug)]
pub struct CoreRoutes {
    /// core_of[node] = core index, `NONE` for a stub.
    core_of: Vec<u32>,
    /// Number of core nodes.
    n: usize,
    /// table[dst * n + src] = (µs distance, next node, link) from core `src`
    /// toward core `dst`; `(u64::MAX, NONE, NONE)` when unreachable.
    table: Vec<(u64, u32, u32)>,
}

impl CoreRoutes {
    /// Classifies every node as core or stub and runs Dijkstra from every
    /// core destination over the links between core nodes.
    pub fn build(topo: &Topology) -> Self {
        let mut core_of = vec![NONE; topo.node_count()];
        let mut core = Vec::new();
        for v in topo.nodes().iter().map(|n| n.id) {
            if !matches!(topo.neighbors(v), [(peer, _)] if topo.neighbors(*peer).len() >= 2) {
                core_of[v.index()] = core.len() as u32;
                core.push(v);
            }
        }
        let n = core.len();
        let weights: Vec<u64> = topo
            .links()
            .iter()
            .map(|l| l.latency.mean_micros().max(1))
            .collect();
        let mut table = vec![(u64::MAX, NONE, NONE); n * n];
        // Keyed by core index, which orders like the node id it stands for.
        let mut heap = BinaryHeap::new();
        for dst in 0..n {
            let row = &mut table[dst * n..(dst + 1) * n];
            row[dst].0 = 0;
            heap.push(Reverse((0, dst)));
            while let Some(Reverse((d, u))) = heap.pop() {
                if d > row[u].0 {
                    continue;
                }
                for &(v, link) in topo.neighbors(core[u]) {
                    let (v, nd) = (core_of[v.index()] as usize, d + weights[link]);
                    if v != NONE as usize && nd < row[v].0 {
                        // From v, the first hop toward dst is u over `link`.
                        row[v] = (nd, core[u].0, link as u32);
                        heap.push(Reverse((nd, v)));
                    }
                }
            }
        }
        CoreRoutes { core_of, n, table }
    }

    /// Number of core nodes.
    pub fn core_count(&self) -> usize {
        self.n
    }

    /// Whether `node` is core (a stub is not).
    pub fn is_core(&self, node: NodeId) -> bool {
        self.core_of[node.index()] != NONE
    }

    /// Where `node` meets the core: its core index, plus, for a stub, the hop
    /// over its one link.
    fn anchor(&self, topo: &Topology, node: NodeId) -> (usize, Option<NextHop>) {
        let stub = (!self.is_core(node)).then(|| {
            let (node, link) = topo.neighbors(node)[0];
            NextHop { node, link }
        });
        let at = stub.map_or(node, |hop| hop.node);
        (self.core_of[at.index()] as usize, stub)
    }

    /// Mean-latency distance in microseconds from `src` to `dst`: the core
    /// distance plus the live weight of each stub link at either end
    /// (`u64::MAX` when unreachable, `0` for `src == dst`).
    pub fn dist(&self, topo: &Topology, src: NodeId, dst: NodeId) -> u64 {
        let weight = |stub: Option<NextHop>| {
            stub.map_or(0, |h| topo.link(h.link).latency.mean_micros().max(1))
        };
        let ((from, src_stub), (to, dst_stub)) = (self.anchor(topo, src), self.anchor(topo, dst));
        match self.table[to * self.n + from].0 {
            _ if src == dst => 0,
            u64::MAX => u64::MAX,
            d => d + weight(src_stub) + weight(dst_stub),
        }
    }

    /// Next hop from `src` toward `dst`; `None` when unreachable or when
    /// `src == dst`.
    pub fn next_hop(&self, topo: &Topology, src: NodeId, dst: NodeId) -> Option<NextHop> {
        let ((from, src_stub), (to, dst_stub)) = (self.anchor(topo, src), self.anchor(topo, dst));
        let (d, next, next_link) = self.table[to * self.n + from];
        match (src_stub, dst_stub) {
            _ if src == dst => None,
            // A stub leaves over its one link whenever dst is reachable.
            (Some(hop), _) => (d != u64::MAX).then_some(hop),
            // dst is a stub hanging off src.
            (None, Some(hop)) if from == to => Some(NextHop { node: dst, ..hop }),
            _ => (next != NONE).then_some(NextHop {
                node: NodeId(next),
                link: next_link as usize,
            }),
        }
    }

    /// The reachable instance nearest to `from`, ties to the lowest node
    /// id; `None` when none is reachable.
    pub fn nearest(&self, topo: &Topology, from: NodeId, instances: &[NodeId]) -> Option<NodeId> {
        instances
            .iter()
            .map(|&n| (self.dist(topo, from, n), n))
            .filter(|&(d, _)| d != u64::MAX)
            .min()
            .map(|(_, n)| n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::LatencyModel;
    use crate::topo::{Asn, Coord, NodeKind};
    use std::net::Ipv4Addr;

    fn node(t: &mut Topology, i: u8) -> NodeId {
        t.add_node(
            format!("n{i}"),
            NodeKind::Router,
            Asn(1),
            Coord::default(),
            vec![Ipv4Addr::new(10, 0, 0, i)],
        )
    }

    /// The full node path from `src` to `dst` (inclusive of both), if any.
    fn path(rt: &CoreRoutes, t: &Topology, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        let mut path = vec![src];
        while *path.last()? != dst {
            path.push(rt.next_hop(t, *path.last()?, dst)?.node);
            assert!(path.len() <= t.node_count(), "routing loop");
        }
        Some(path)
    }

    #[test]
    fn line_topology_routes_through_middle() {
        let mut t = Topology::new();
        let a = node(&mut t, 1);
        let b = node(&mut t, 2);
        let c = node(&mut t, 3);
        t.add_link(a, b, LatencyModel::constant_ms(1));
        t.add_link(b, c, LatencyModel::constant_ms(1));
        let rt = CoreRoutes::build(&t);
        // a and c are stubs on b.
        assert_eq!((rt.core_count(), rt.is_core(b)), (1, true));
        assert_eq!(rt.next_hop(&t, a, c).unwrap().node, b);
        assert_eq!(rt.next_hop(&t, c, a).unwrap().node, b);
        assert_eq!(rt.next_hop(&t, b, c).unwrap().node, c);
        assert_eq!(path(&rt, &t, a, c).unwrap(), vec![a, b, c]);
    }

    #[test]
    fn prefers_lower_latency_path() {
        let mut t = Topology::new();
        let a = node(&mut t, 1);
        let b = node(&mut t, 2);
        let c = node(&mut t, 3);
        // Direct a-c is slow; a-b-c is fast.
        t.add_link(a, c, LatencyModel::constant_ms(100));
        t.add_link(a, b, LatencyModel::constant_ms(1));
        t.add_link(b, c, LatencyModel::constant_ms(1));
        let rt = CoreRoutes::build(&t);
        assert_eq!(rt.next_hop(&t, a, c).unwrap().node, b);
    }

    #[test]
    fn unreachable_is_none() {
        let mut t = Topology::new();
        let a = node(&mut t, 1);
        let b = node(&mut t, 2);
        let rt = CoreRoutes::build(&t);
        assert!(rt.next_hop(&t, a, b).is_none());
        assert_eq!(rt.dist(&t, a, b), u64::MAX);
        assert_eq!(rt.dist(&t, a, a), 0);
        assert!(path(&rt, &t, a, b).is_none());
        // A stub cannot reach past its own island either.
        let s = node(&mut t, 3);
        let c = node(&mut t, 4);
        t.add_link(s, a, LatencyModel::constant_ms(1));
        t.add_link(a, c, LatencyModel::constant_ms(1));
        let rt = CoreRoutes::build(&t);
        assert!(!rt.is_core(s));
        assert!(rt.next_hop(&t, s, b).is_none());
        assert_eq!(rt.nearest(&t, s, &[b]), None);
    }

    #[test]
    fn self_route_is_none() {
        let mut t = Topology::new();
        let a = node(&mut t, 1);
        let rt = CoreRoutes::build(&t);
        assert!(rt.next_hop(&t, a, a).is_none());
        assert_eq!(path(&rt, &t, a, a).unwrap(), vec![a]);
    }

    #[test]
    fn larger_mesh_is_fully_connected() {
        let mut t = Topology::new();
        let nodes: Vec<NodeId> = (1..=20).map(|i| node(&mut t, i)).collect();
        // Ring plus a few chords.
        for i in 0..20 {
            t.add_link(nodes[i], nodes[(i + 1) % 20], LatencyModel::constant_ms(1));
        }
        t.add_link(nodes[0], nodes[10], LatencyModel::constant_ms(1));
        let rt = CoreRoutes::build(&t);
        for &s in &nodes {
            for &d in &nodes {
                assert!(path(&rt, &t, s, d).is_some());
            }
        }
        // Chord shortens the long way around.
        let p = path(&rt, &t, nodes[0], nodes[10]).unwrap();
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn dist_matches_path_cost() {
        let mut t = Topology::new();
        let a = node(&mut t, 1);
        let b = node(&mut t, 2);
        let c = node(&mut t, 3);
        t.add_link(a, b, LatencyModel::constant_ms(3));
        let bc = t.add_link(b, c, LatencyModel::constant_ms(4));
        let rt = CoreRoutes::build(&t);
        assert_eq!(rt.dist(&t, a, a), 0);
        assert_eq!(rt.dist(&t, a, b), 3_000);
        assert_eq!(rt.dist(&t, a, c), 7_000);
        // A stub link's weight is read live.
        t.set_link_latency(bc, LatencyModel::constant_ms(9));
        assert_eq!(rt.dist(&t, a, c), 12_000);
        let d = node(&mut t, 4); // isolated
        let rt = CoreRoutes::build(&t);
        assert_eq!(rt.dist(&t, a, d), u64::MAX);
    }
}

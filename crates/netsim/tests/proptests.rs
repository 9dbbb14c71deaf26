//! Property-based tests for netsim: routing invariants over random
//! connected graphs, core routes against the all-pairs oracle under stub
//! re-homing, prefix algebra, NAT translation round-trips, and latency-model
//! bounds.

use netsim::addr::Prefix;
use netsim::engine::Network;
use netsim::latency::{LatencyModel, LogNormal};
use netsim::middlebox::Nat;
use netsim::packet::Packet;
use netsim::route::{CoreRoutes, NextHop};
use netsim::time::SimDuration;
use netsim::topo::{Asn, Coord, NodeId, NodeKind, Topology};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::net::Ipv4Addr;
use std::sync::Arc;

fn add_node(t: &mut Topology) -> NodeId {
    let i = t.node_count();
    t.add_node(
        format!("n{i}"),
        NodeKind::Router,
        Asn(1),
        Coord::default(),
        vec![Ipv4Addr::new(10, 0, (i / 250) as u8, (i % 250) as u8 + 1)],
    )
}

fn ms(w: u64) -> LatencyModel {
    LatencyModel::constant_ms(w)
}

/// A random connected topology: a spanning chain plus random extra edges,
/// with random stubs (degree-1 leaves) hung off random chain nodes. Returns
/// the topology and its node count.
fn arb_topology() -> impl Strategy<Value = (Topology, usize)> {
    (
        2usize..24,
        proptest::collection::vec((any::<u8>(), any::<u8>(), 1u64..50), 0..30),
        proptest::collection::vec((any::<u8>(), 1u64..50), 0..12),
    )
        .prop_map(|(n, extra, stubs)| {
            let mut t = Topology::new();
            let nodes: Vec<NodeId> = (0..n).map(|_| add_node(&mut t)).collect();
            for i in 1..n {
                t.add_link(nodes[i - 1], nodes[i], LatencyModel::constant_ms(1));
            }
            for (a, b, w) in extra {
                let (a, b) = (a as usize % n, b as usize % n);
                if a != b {
                    t.add_link(nodes[a], nodes[b], ms(w));
                }
            }
            for (at, w) in stubs {
                let stub = add_node(&mut t);
                t.add_link(stub, nodes[at as usize % n], ms(w));
            }
            let count = t.node_count();
            (t, count)
        })
}

/// The all-pairs table over every node, stubs included, that
/// [`CoreRoutes`] replaces: Dijkstra from every destination over mean link
/// latencies. The reference the core table must agree with.
struct Dense {
    n: usize,
    /// next[dst * n + src] = hop from src toward dst.
    next: Vec<Option<NextHop>>,
    /// dist[dst * n + src] in µs, `u64::MAX` when unreachable.
    dist: Vec<u64>,
}

impl Dense {
    fn build(topo: &Topology) -> Self {
        let n = topo.node_count();
        let mut next = vec![None; n * n];
        let mut dist_table = vec![u64::MAX; n * n];
        let mut dist = vec![u64::MAX; n];
        let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
        for dst in 0..n {
            dist.fill(u64::MAX);
            dist[dst] = 0;
            heap.push(Reverse((0, dst as u32)));
            while let Some(Reverse((d, u))) = heap.pop() {
                if d > dist[u as usize] {
                    continue;
                }
                for &(v, link) in topo.neighbors(NodeId(u)) {
                    let nd = d + topo.link(link).latency.mean_micros().max(1);
                    if nd < dist[v.index()] {
                        dist[v.index()] = nd;
                        next[dst * n + v.index()] = Some(NextHop {
                            node: NodeId(u),
                            link,
                        });
                        heap.push(Reverse((nd, v.0)));
                    }
                }
            }
            dist_table[dst * n..(dst + 1) * n].copy_from_slice(&dist);
        }
        Dense {
            n,
            next,
            dist: dist_table,
        }
    }

    fn next_hop(&self, src: NodeId, dst: NodeId) -> Option<NextHop> {
        if src == dst {
            return None;
        }
        self.next[dst.index() * self.n + src.index()]
    }

    fn dist(&self, src: NodeId, dst: NodeId) -> u64 {
        self.dist[dst.index() * self.n + src.index()]
    }

    /// The engine's anycast pick as it was made over this table.
    fn nearest(&self, from: NodeId, instances: &[NodeId]) -> Option<NodeId> {
        instances
            .iter()
            .copied()
            .filter(|&n| n == from || self.next_hop(from, n).is_some())
            .min_by_key(|&n| (self.dist(from, n), n))
    }
}

/// The full node path from `src` to `dst` (inclusive of both), if any.
fn path(rt: &CoreRoutes, topo: &Topology, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
    let mut path = vec![src];
    let mut cur = src;
    while cur != dst {
        cur = rt.next_hop(topo, cur, dst)?.node;
        path.push(cur);
        if path.len() > topo.node_count() {
            return None;
        }
    }
    Some(path)
}

/// Asserts that `routes` answers every ordered pair, and every anycast pick
/// over `instance_sets`, exactly as a dense table rebuilt on `topo` does.
fn assert_matches_oracle(routes: &CoreRoutes, topo: &Topology, instance_sets: &[Vec<u16>]) {
    let oracle = Dense::build(topo);
    let n = topo.node_count();
    let nodes: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
    for &s in &nodes {
        for &d in &nodes {
            assert_eq!(
                routes.next_hop(topo, s, d),
                oracle.next_hop(s, d),
                "{s:?}->{d:?}"
            );
            assert_eq!(routes.dist(topo, s, d), oracle.dist(s, d), "{s:?}->{d:?}");
        }
        for set in instance_sets {
            let instances: Vec<NodeId> = set.iter().map(|&i| nodes[i as usize % n]).collect();
            assert_eq!(
                routes.nearest(topo, s, &instances),
                oracle.nearest(s, &instances),
                "anycast from {s:?} over {instances:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn routing_always_terminates_at_destination((topo, n) in arb_topology()) {
        let rt = CoreRoutes::build(&topo);
        for s in 0..n {
            for d in 0..n {
                let (src, dst) = (NodeId(s as u32), NodeId(d as u32));
                prop_assert!(rt.dist(&topo, src, dst) < u64::MAX, "connected graph must be fully reachable");
                let path = path(&rt, &topo, src, dst).expect("path exists");
                prop_assert_eq!(*path.first().unwrap(), src);
                prop_assert_eq!(*path.last().unwrap(), dst);
                prop_assert!(path.len() <= n, "path visits a node twice");
            }
        }
    }

    #[test]
    fn routing_distance_is_symmetric_and_triangular((topo, n) in arb_topology()) {
        let rt = CoreRoutes::build(&topo);
        let dist = |a, b| rt.dist(&topo, a, b);
        for s in 0..n {
            for d in 0..n {
                let (a, b) = (NodeId(s as u32), NodeId(d as u32));
                prop_assert_eq!(dist(a, b), dist(b, a), "symmetric weights");
                // Triangle inequality through every intermediate node.
                for m in 0..n {
                    let mid = NodeId(m as u32);
                    prop_assert!(
                        dist(a, b) <= dist(a, mid).saturating_add(dist(mid, b)),
                        "triangle violated"
                    );
                }
            }
        }
    }

    #[test]
    fn core_routes_match_the_dense_oracle_under_stub_rehoming(
        (topo, _) in arb_topology(),
        ops in proptest::collection::vec((any::<u16>(), any::<u16>(), 0u64..40), 0..8),
        instance_sets in proptest::collection::vec(
            proptest::collection::vec(any::<u16>(), 1..4),
            1..4,
        ),
    ) {
        // Degenerate cases: an isolated node and a two-node component.
        let mut topo = topo;
        let isolated = add_node(&mut topo);
        let (y, z) = (add_node(&mut topo), add_node(&mut topo));
        topo.add_link(y, z, ms(3));
        let routes = Arc::new(CoreRoutes::build(&topo));
        prop_assert!(routes.is_core(isolated) && routes.is_core(y) && routes.is_core(z));
        let (stubs, core): (Vec<NodeId>, Vec<NodeId>) = (0..topo.node_count() as u32)
            .map(NodeId)
            .partition(|&v| !routes.is_core(v));
        let mut net = Network::with_routes(topo, 1, Arc::clone(&routes));
        assert_matches_oracle(&routes, net.topo(), &instance_sets);
        if stubs.is_empty() {
            return;
        }
        // Each step re-homes a stub onto a core node or, one time in four,
        // retunes a stub link to w ms, which the core table reads live; the
        // oracle is rebuilt every time.
        for (s, c, w) in ops {
            let stub = stubs[s as usize % stubs.len()];
            let link = net.topo().neighbors(stub)[0].1;
            if w < 30 {
                net.rehome_stub(link, stub, core[c as usize % core.len()]);
            } else {
                net.topo_mut().set_link_latency(link, ms(w));
            }
            assert_matches_oracle(&routes, net.topo(), &instance_sets);
        }
    }

    #[test]
    fn prefix_contains_its_own_addresses(octets in any::<[u8; 4]>(), len in 0u8..=32) {
        let addr = Ipv4Addr::from(octets);
        let p = Prefix::new(addr, len);
        prop_assert!(p.contains(addr));
        prop_assert!(p.contains(p.network()));
        // The i-th address is inside for small i.
        if p.size() > 1 {
            prop_assert!(p.contains(p.addr(1)));
        }
        // A /len prefix of the network address is the same prefix.
        prop_assert_eq!(Prefix::new(p.network(), len), p);
    }

    #[test]
    fn nat_round_trips_arbitrary_udp_flows(
        inside_host in 1u8..=250,
        port in 1024u16..60000,
        dst in any::<[u8; 4]>(),
    ) {
        let dst = Ipv4Addr::from(dst);
        // Keep the destination outside the inside prefix.
        prop_assume!(dst.octets()[0] != 10);
        let mut nat = Nat::new(vec!["10.0.0.0/8".parse().unwrap()], Ipv4Addr::new(66, 1, 1, 1));
        let src = Ipv4Addr::new(10, 3, 9, inside_host);
        let out = Packet::udp(src, port, dst, 53, vec![1]);
        let xlated = nat.translate(out).expect("outbound translates");
        prop_assert_eq!(xlated.src, Ipv4Addr::new(66, 1, 1, 1));
        let pub_port = match xlated.transport {
            netsim::packet::Transport::Udp { src_port, .. } => src_port,
            _ => unreachable!(),
        };
        let back = Packet::udp(dst, 53, Ipv4Addr::new(66, 1, 1, 1), pub_port, vec![2]);
        let restored = nat.translate(back).expect("inbound restores");
        prop_assert_eq!(restored.dst, src);
        match restored.transport {
            netsim::packet::Transport::Udp { dst_port, .. } => prop_assert_eq!(dst_port, port),
            _ => unreachable!(),
        }
    }

    #[test]
    fn latency_models_never_sample_below_their_floor(
        mean_ms in 1u64..500,
        floor_ms in 0u64..100,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let log = LatencyModel {
            base: SimDuration::from_millis(floor_ms),
            jitter: Some(LogNormal {
                mu: (mean_ms as f64 * 1000.0).max(1.0).ln(),
                sigma: 0.7,
            }),
        };
        for _ in 0..64 {
            prop_assert!(log.sample(&mut rng) >= SimDuration::from_millis(floor_ms));
        }
    }

    #[test]
    fn sim_time_arithmetic_is_consistent(a in 0u64..1_000_000_000, d in 0u64..1_000_000_000) {
        use netsim::time::SimTime;
        let t = SimTime::from_micros(a);
        let dur = SimDuration::from_micros(d);
        let t2 = t + dur;
        prop_assert_eq!(t2 - t, dur);
        prop_assert_eq!(t2.since(t), dur);
        prop_assert_eq!(t.since(t2), SimDuration::ZERO);
    }
}

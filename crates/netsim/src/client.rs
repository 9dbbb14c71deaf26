//! High-level probing drivers built on the transaction API: multi-probe
//! ping, traceroute, and a TCP-lite HTTP GET matching the paper's
//! time-to-first-byte measurements.

use crate::engine::{FlowResult, Network};
use crate::tcplite::{TcpFetch, TcpFetchOutcome};
use crate::time::{SimDuration, SimTime};
use crate::topo::NodeId;
use std::net::Ipv4Addr;

/// Default per-probe timeout used by the measurement suite.
pub const PROBE_TIMEOUT: SimDuration = SimDuration::from_secs(3);

/// Result of a ping train.
#[derive(Debug, Clone, PartialEq)]
pub struct PingReport {
    /// Target address.
    pub target: Ipv4Addr,
    /// RTT of each answered probe.
    pub rtts: Vec<SimDuration>,
    /// Probes sent.
    pub sent: u32,
}

impl PingReport {
    /// Whether any probe was answered.
    pub fn reachable(&self) -> bool {
        !self.rtts.is_empty()
    }

    /// Minimum RTT (the usual latency estimator), if any probe answered.
    pub fn min_rtt(&self) -> Option<SimDuration> {
        self.rtts.iter().copied().min()
    }

    /// Fraction of probes lost.
    pub fn loss(&self) -> f64 {
        1.0 - self.rtts.len() as f64 / self.sent.max(1) as f64
    }
}

/// One hop of a traceroute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceHop {
    /// TTL used for the probe.
    pub ttl: u8,
    /// Responding address, or `None` for a silent hop (`* * *`).
    pub addr: Option<Ipv4Addr>,
    /// RTT when answered.
    pub rtt: Option<SimDuration>,
}

/// A complete traceroute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceReport {
    /// Target address.
    pub target: Ipv4Addr,
    /// Hops in TTL order; stops after the destination answers or `max_ttl`.
    pub hops: Vec<TraceHop>,
    /// Whether the destination itself answered.
    pub reached: bool,
}

impl TraceReport {
    /// Addresses of responding hops, in order.
    pub fn responding_hops(&self) -> Vec<Ipv4Addr> {
        self.hops.iter().filter_map(|h| h.addr).collect()
    }
}

impl Network {
    /// Sends `count` sequential echo probes and collects RTTs.
    pub fn ping_train(&mut self, node: NodeId, target: Ipv4Addr, count: u32) -> PingReport {
        let mut rtts = Vec::new();
        for _ in 0..count {
            let flow = self.ping(node, target, PROBE_TIMEOUT);
            let out = self.run_until(flow);
            if matches!(out.result, FlowResult::EchoReply { .. }) {
                rtts.push(out.rtt());
            }
        }
        PingReport {
            target,
            rtts,
            sent: count,
        }
    }

    /// Classic UDP traceroute: TTL-limited datagrams to high ports.
    /// Intermediate routers answer with TimeExceeded; the destination
    /// answers with port-unreachable. Using UDP (as the traceroute tool
    /// does) matters here: cellular firewalls that allowlist ICMP echo to a
    /// resolver still drop UDP probes, which is how Table 4's traceroute
    /// column comes out all-zero.
    pub fn traceroute(&mut self, node: NodeId, target: Ipv4Addr, max_ttl: u8) -> TraceReport {
        let mut hops = Vec::new();
        let mut reached = false;
        for ttl in 1..=max_ttl {
            let flow = self.udp_probe_ttl(
                node,
                target,
                TRACEROUTE_BASE_PORT + ttl as u16,
                ttl,
                PROBE_TIMEOUT,
            );
            let out = self.run_until(flow);
            match out.result {
                FlowResult::TimeExceeded { from } => {
                    hops.push(TraceHop {
                        ttl,
                        addr: Some(from),
                        rtt: Some(out.rtt()),
                    });
                }
                FlowResult::Unreachable { from } | FlowResult::EchoReply { from } => {
                    hops.push(TraceHop {
                        ttl,
                        addr: Some(from),
                        rtt: Some(out.rtt()),
                    });
                    reached = from == target;
                    break;
                }
                FlowResult::Response { from, .. } => {
                    // A service actually answered the probe datagram.
                    hops.push(TraceHop {
                        ttl,
                        addr: Some(from),
                        rtt: Some(out.rtt()),
                    });
                    reached = from == target;
                    break;
                }
                // `Unknown` cannot occur for a flow created just above, but
                // a silent hop is the honest rendering if it ever does.
                FlowResult::TimedOut | FlowResult::Unknown => {
                    hops.push(TraceHop {
                        ttl,
                        addr: None,
                        rtt: None,
                    });
                }
            }
        }
        TraceReport {
            target,
            hops,
            reached,
        }
    }
}

/// Well-known HTTP port, where `tcplite::TcpHttpServer` listens.
pub const HTTP_PORT: u16 = 80;

/// Base destination port for UDP traceroute probes (the traceroute tool's
/// classic 33434).
pub const TRACEROUTE_BASE_PORT: u16 = 33_434;

/// Result of a TCP-lite HTTP GET.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpGetReport {
    /// Whether the full page arrived.
    pub success: bool,
    /// Time to first response byte (handshake + request + think time).
    pub ttfb: Option<SimDuration>,
    /// Total fetch time.
    pub total: Option<SimDuration>,
    /// Bytes received.
    pub bytes: usize,
}

impl Network {
    /// Fetches a page over TCP-lite: a real three-way handshake, request,
    /// segmented response with retransmission, and FIN teardown. This is
    /// the transfer the measurement suite's TTFB numbers come from.
    pub fn tcp_get(
        &mut self,
        node: NodeId,
        server: Ipv4Addr,
        path: &str,
        timeout: SimDuration,
    ) -> TcpGetReport {
        let start = self.now();
        let request = format!("GET {path}").into_bytes();
        let outcome = self.tcp_fetch(node, server, HTTP_PORT, request, start + timeout, |o, _| o);
        match outcome {
            Some(o) if o.success => TcpGetReport {
                success: true,
                ttfb: o.first_byte_at.map(|t| t.since(start)),
                total: o.done_at.map(|t| t.since(start)),
                bytes: o.bytes,
            },
            Some(o) => TcpGetReport {
                success: false,
                ttfb: o.first_byte_at.map(|t| t.since(start)),
                total: None,
                bytes: o.bytes,
            },
            None => TcpGetReport {
                success: false,
                ttfb: None,
                total: None,
                bytes: 0,
            },
        }
    }

    /// Runs one TCP-lite fetch of `request` from `node` to
    /// `server:server_port`: registers it on a fresh client port and kicks
    /// it, steps until it concludes or the clock passes `deadline`, then
    /// unregisters it. `read` sees the outcome and the response bytes;
    /// `None` when the fetch never concluded.
    pub fn tcp_fetch<R>(
        &mut self,
        node: NodeId,
        server: Ipv4Addr,
        server_port: u16,
        request: Vec<u8>,
        deadline: SimTime,
        read: impl FnOnce(TcpFetchOutcome, &[u8]) -> R,
    ) -> Option<R> {
        let port = self.alloc_client_port(node);
        let fetch = TcpFetch::new(server, server_port, request);
        self.register_service(node, port, Box::new(fetch));
        self.kick_service(node, port);
        let result = loop {
            if let Some(f) = self.service_as::<TcpFetch>(node, port) {
                if let Some(o) = f.outcome {
                    break Some(read(o, &f.data));
                }
            }
            if self.now() > deadline || !self.step() {
                break None;
            }
        };
        self.unregister_service(node, port);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::LatencyModel;
    use crate::topo::{Asn, Coord, NodeKind, Topology};

    fn ip(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
        Ipv4Addr::new(a, b, c, d)
    }

    fn network() -> (Network, NodeId, Ipv4Addr) {
        let mut t = Topology::new();
        let a = t.add_node(
            "a",
            NodeKind::Host,
            Asn(1),
            Coord::default(),
            vec![ip(10, 0, 0, 1)],
        );
        let r1 = t.add_node(
            "r1",
            NodeKind::Router,
            Asn(1),
            Coord::default(),
            vec![ip(10, 0, 0, 2)],
        );
        let r2 = t.add_node(
            "r2",
            NodeKind::Router,
            Asn(2),
            Coord::default(),
            vec![ip(10, 0, 0, 3)],
        );
        let b = t.add_node(
            "b",
            NodeKind::Host,
            Asn(2),
            Coord::default(),
            vec![ip(10, 0, 0, 4)],
        );
        t.add_link(a, r1, LatencyModel::constant_ms(2));
        t.add_link(r1, r2, LatencyModel::constant_ms(3));
        t.add_link(r2, b, LatencyModel::constant_ms(2));
        (Network::new(t, 99), a, ip(10, 0, 0, 4))
    }

    #[test]
    fn ping_train_collects_rtts() {
        let (mut net, a, target) = network();
        let report = net.ping_train(a, target, 3);
        assert_eq!(report.sent, 3);
        assert_eq!(report.rtts.len(), 3);
        assert!(report.reachable());
        assert_eq!(report.loss(), 0.0);
        // 2*(2+3+2)=14ms nominal
        let m = report.min_rtt().unwrap().as_millis_f64();
        assert!((14.0..15.0).contains(&m), "min rtt {m}");
    }

    #[test]
    fn traceroute_walks_the_path() {
        let (mut net, a, target) = network();
        let report = net.traceroute(a, target, 16);
        assert!(report.reached);
        assert_eq!(
            report.responding_hops(),
            vec![ip(10, 0, 0, 2), ip(10, 0, 0, 3), ip(10, 0, 0, 4)]
        );
        // RTTs increase monotonically with constant-latency links.
        let rtts: Vec<_> = report.hops.iter().filter_map(|h| h.rtt).collect();
        assert!(rtts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn ping_unreachable_target_reports_loss() {
        let (mut net, a, _) = network();
        let report = net.ping_train(a, ip(203, 0, 113, 1), 2);
        assert!(!report.reachable());
        assert_eq!(report.loss(), 1.0);
        assert!(report.min_rtt().is_none());
    }
}

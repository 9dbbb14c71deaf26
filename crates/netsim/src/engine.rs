//! The discrete-event engine: event queue, hop-by-hop forwarding,
//! middlebox traversal, service dispatch, and client transaction tracking.
//!
//! Following the event-driven design the guides recommend, every protocol
//! endpoint is a state machine ([`UdpService`]) that reacts to datagrams and
//! returns egress actions; the engine owns all shared state, so there is no
//! interior mutability on the hot path and runs are bit-deterministic from
//! the seed.

use crate::draw::{
    mix, splitmix, HopRng, HOP_SEED, TAG_ECHO, TAG_EXPIRED, TAG_FLOW, TAG_TICK, TAG_UNREACHABLE,
};
use crate::hash::{FastMap, FastSet};
use crate::packet::{IcmpMsg, Packet, ProbeKey, Transport};
use crate::queue::{Event, EventHeap, EventQueue};
use crate::route::CoreRoutes;
use crate::time::{SimDuration, SimTime};
use crate::topo::{NodeId, NodeKind, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Identifier of a client transaction (an outstanding probe or request).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u64);

/// Result of a completed client transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowResult {
    /// A UDP response arrived.
    Response {
        /// Address the response came from.
        from: Ipv4Addr,
        /// Response payload.
        payload: Vec<u8>,
    },
    /// An ICMP echo reply arrived.
    EchoReply {
        /// Address the reply came from.
        from: Ipv4Addr,
    },
    /// An ICMP time-exceeded arrived (traceroute hop discovery).
    TimeExceeded {
        /// Router that reported the expiry.
        from: Ipv4Addr,
    },
    /// An ICMP destination-unreachable arrived.
    Unreachable {
        /// Node that reported it.
        from: Ipv4Addr,
    },
    /// No answer before the deadline.
    TimedOut,
    /// The engine was asked about a flow it is not tracking (already
    /// polled, or a foreign id). Distinguished from [`FlowResult::TimedOut`]
    /// so drivers cannot mistake a bookkeeping error for a real timeout.
    Unknown,
}

/// A completed transaction with timing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowOutcome {
    /// When the request left the client.
    pub sent_at: SimTime,
    /// When the completion was recorded.
    pub completed_at: SimTime,
    /// What happened.
    pub result: FlowResult,
}

impl FlowOutcome {
    /// Round-trip time (completion minus send).
    pub fn rtt(&self) -> SimDuration {
        self.completed_at.since(self.sent_at)
    }

    /// Whether the flow produced any answer at all.
    pub fn answered(&self) -> bool {
        !matches!(self.result, FlowResult::TimedOut | FlowResult::Unknown)
    }
}

/// Outgoing datagram requested by a service.
#[derive(Debug, Clone)]
pub struct Egress {
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Destination port.
    pub dst_port: u16,
    /// Payload bytes.
    pub payload: Vec<u8>,
    /// Extra processing delay before the datagram leaves the node.
    pub delay: SimDuration,
    /// Source address override. `None` sends from the address the service
    /// was queried on; public-DNS sites use this to recurse from their
    /// per-site egress address rather than the anycast VIP.
    pub src_addr: Option<Ipv4Addr>,
}

impl Egress {
    /// A reply to the datagram's sender, from the queried address.
    pub fn reply(dst: Ipv4Addr, dst_port: u16, payload: Vec<u8>, delay: SimDuration) -> Self {
        Egress {
            dst,
            dst_port,
            payload,
            delay,
            src_addr: None,
        }
    }

    /// Sets the source address override.
    pub fn from_addr(mut self, src: Ipv4Addr) -> Self {
        self.src_addr = Some(src);
        self
    }
}

/// Context handed to a service while it processes a datagram or a timer
/// tick.
pub struct ServiceCtx<'a> {
    /// Current simulation time.
    pub now: SimTime,
    /// The local address the datagram was addressed to (matters for
    /// anycast: the service sees which identity was queried). For timer
    /// ticks this is the node's primary address.
    pub local_addr: Ipv4Addr,
    /// Deterministic RNG shared by the whole simulation's services and
    /// clients. Link loss and latency never draw from it (see
    /// [`crate::draw`]).
    pub rng: &'a mut StdRng,
    /// The [`UdpService::tick`] requested through [`ServiceCtx::wake_at`]
    /// (smoltcp-style `poll_at`). The engine reads it after each
    /// `handle`/`tick` call.
    wake: Option<SimTime>,
}

impl<'a> ServiceCtx<'a> {
    /// A context for one service call at `now` with no wake-up requested.
    pub fn new(now: SimTime, local_addr: Ipv4Addr, rng: &'a mut StdRng) -> Self {
        ServiceCtx {
            now,
            local_addr,
            rng,
            wake: None,
        }
    }

    /// Requests a [`UdpService::tick`] at `at`, but never sooner than 1 ms
    /// from now: a deadline that is already due is looked at again on the
    /// next tick instead of in a zero-delay loop. The last call wins.
    pub fn wake_at(&mut self, at: SimTime) {
        self.wake = Some(at.max(self.now + SimDuration::from_millis(1)));
    }

    /// The wake-up requested so far, if any.
    pub(crate) fn wake(&self) -> Option<SimTime> {
        self.wake
    }
}

/// A UDP protocol endpoint (DNS server, resolver, HTTP-lite server, …).
///
/// All datagrams addressed to the service's port are delivered to
/// [`UdpService::handle`], *including responses to queries the service sent
/// upstream from that same port* — services are full state machines.
///
/// Services are `Send` so whole engines (and the services they own) can be
/// moved across threads — the measurement campaign runs one engine per
/// carrier shard on a scoped thread pool.
pub trait UdpService: Send {
    /// Processes one datagram and returns any datagrams to send.
    fn handle(
        &mut self,
        ctx: &mut ServiceCtx<'_>,
        from: Ipv4Addr,
        from_port: u16,
        payload: &[u8],
    ) -> Vec<Egress>;

    /// Timer callback, fired when the service requested a wake-up via
    /// [`ServiceCtx::wake_at`]. Default: do nothing.
    fn tick(&mut self, ctx: &mut ServiceCtx<'_>) -> Vec<Egress> {
        let _ = ctx;
        Vec::new()
    }

    /// Downcast hook so drivers can inspect a registered service's state
    /// (e.g. a TCP-lite fetch in progress). Default: not inspectable.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

/// Counters describing what the network did; used by tests and diagnostics.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct NetStats {
    /// Events dispatched.
    pub events: u64,
    /// Hop-by-hop forwards performed.
    pub forwards: u64,
    /// Local deliveries.
    pub delivered: u64,
    /// Packets dropped by a firewall.
    pub firewall_drops: u64,
    /// Inbound packets dropped for missing NAT state.
    pub nat_drops: u64,
    /// Packets that expired in transit.
    pub ttl_expired: u64,
    /// Packets with no route or no owner.
    pub unreachable: u64,
    /// Client transactions that timed out.
    pub timeouts: u64,
    /// Packets lost on lossy links.
    pub link_losses: u64,
    /// Packets dropped by an installed fault plan (chaos loss + outages).
    pub fault_drops: u64,
    /// `Arrive` events dispatched.
    pub arrives: u64,
    /// `Send` events dispatched.
    pub sends: u64,
    /// `ServiceTick` events dispatched.
    pub service_ticks: u64,
    /// Flow deadlines that fired (the flow's deadline was reached before
    /// it completed; compare `timeouts`, which counts only the subset where
    /// the flow was still pending).
    pub flow_timeouts: u64,
    /// Flow deadlines withdrawn undispatched because their flow completed
    /// early.
    pub flow_timeouts_cancelled: u64,
    /// Most events ever waiting to dispatch: queued events plus armed flow
    /// deadlines.
    pub queue_high_water: u64,
}

impl NetStats {
    /// Folds every counter into an [`obs::Registry`], labelled with
    /// `labels` (typically the owning shard's carrier). Counter names are
    /// the `net.*` family; the queue high-water lands in a gauge.
    pub fn export(&self, reg: &mut obs::Registry, labels: &[(&'static str, &str)]) {
        reg.inc_by("net.events", labels, self.events);
        reg.inc_by("net.forwards", labels, self.forwards);
        reg.inc_by("net.delivered", labels, self.delivered);
        reg.inc_by("net.timeouts", labels, self.timeouts);
        let by_kind: [(&str, u64); 4] = [
            ("arrive", self.arrives),
            ("send", self.sends),
            ("service_tick", self.service_ticks),
            ("flow_timeout", self.flow_timeouts),
        ];
        for (kind, n) in by_kind {
            let mut kl: Vec<(&'static str, &str)> = labels.to_vec();
            kl.push(("kind", kind));
            reg.inc_by("net.events_by_kind", &kl, n);
        }
        // The fired/cancelled split: `net.flow_timeouts` counts deadlines
        // that actually dispatched, `net.flow_timeouts_cancelled` the ones
        // withdrawn because their flow completed first. Their sum is every
        // deadline ever armed.
        reg.inc_by("net.flow_timeouts", labels, self.flow_timeouts);
        reg.inc_by(
            "net.flow_timeouts_cancelled",
            labels,
            self.flow_timeouts_cancelled,
        );
        let by_cause: [(&str, u64); 6] = [
            ("firewall", self.firewall_drops),
            ("nat", self.nat_drops),
            ("ttl_expired", self.ttl_expired),
            ("unreachable", self.unreachable),
            ("link_loss", self.link_losses),
            ("fault", self.fault_drops),
        ];
        for (cause, n) in by_cause {
            let mut cl: Vec<(&'static str, &str)> = labels.to_vec();
            cl.push(("cause", cause));
            reg.inc_by("net.drops_by_cause", &cl, n);
        }
        reg.gauge_set("net.queue_depth", labels, self.queue_high_water);
    }
}

#[derive(Debug)]
enum EventKind {
    /// A packet arriving at a node from the network: full middlebox
    /// processing and TTL handling applies.
    Arrive { node: NodeId, packet: Packet },
    /// A packet originated by the node itself: no TTL decrement and no
    /// middlebox traversal at the origin (hosts do not firewall themselves).
    Send { node: NodeId, packet: Packet },
    /// Timer tick requested by a service.
    ServiceTick { node: NodeId, port: u16 },
}

#[derive(Debug)]
struct Pending {
    node: NodeId,
    sent_at: SimTime,
    /// Demux keys to clean up on completion.
    port: Option<u16>,
    ident: Option<u64>,
    /// This flow's key in [`Network::deadlines`], withdrawn when the flow
    /// completes before it.
    deadline: (SimTime, u64),
}

/// A registered service, with what keys the draws of the packets it sends
/// on a timer tick.
struct Registered {
    service: Box<dyn UdpService>,
    /// Registration number, unique within the [`Network`].
    id: u64,
    /// Ticks dispatched to this registration so far.
    ticks: u64,
}

/// Per-hop forwarding/processing delay added on top of link latency.
const NODE_PROC_DELAY: SimDuration = SimDuration::from_micros(50);

/// Ephemeral port range for client transactions.
const EPHEMERAL_LO: u16 = 32_768;
const EPHEMERAL_HI: u16 = 60_999;

/// The simulated network: topology + routes + services + event queue.
pub struct Network {
    topo: Topology,
    routes: Arc<CoreRoutes>,
    anycast: FastMap<Ipv4Addr, Vec<NodeId>>,
    /// The instance each `(node, anycast address)` forwards toward, as
    /// [`CoreRoutes::nearest`] answered it. Cleared by whatever can change
    /// a distance: `topo_mut`, `rehome_stub`, `add_anycast`.
    nearest: FastMap<(NodeId, Ipv4Addr), Option<NodeId>>,
    services: FastMap<(NodeId, u16), Registered>,
    /// The id the next [`Network::register_service`] hands out.
    next_registration: u64,
    /// The instants at which each `(node, port)` has a `ServiceTick`
    /// queued: at most one tick per service and instant. Membership-checked
    /// only.
    wakes: FastSet<(NodeId, u16, SimTime)>,
    queue: EventHeap<EventKind>,
    /// Every pending flow's deadline by `(time, seq)`. Almost every one is
    /// withdrawn when its flow completes, so deadlines stay out of the
    /// event queue, which cannot remove an event; `step` dispatches
    /// whichever of the two holds the earlier key.
    deadlines: BTreeMap<(SimTime, u64), FlowId>,
    /// The seq of the next event or deadline, shared by both.
    seq: u64,
    now: SimTime,
    /// Services' and clients' RNG. Per-hop draws come from `draw_seed`.
    rng: StdRng,
    /// Seed of every per-hop draw (see [`crate::draw`]).
    draw_seed: u64,
    pending: FastMap<FlowId, Pending>,
    port_index: FastMap<(NodeId, u16), FlowId>,
    ident_index: FastMap<u64, FlowId>,
    /// Completed-but-unpolled outcomes. BTree so the drain API returns in
    /// flow order; bounded by callers via [`Network::take_completed_before`].
    completed: BTreeMap<FlowId, FlowOutcome>,
    next_flow: u64,
    next_port: u16,
    /// Per (link, direction) transmit-queue occupancy: when the link is
    /// next free. Only consulted for capacity-limited links.
    link_busy_until: Vec<[SimTime; 2]>,
    /// Optional fault-injection plan with its own RNG lane; `None` costs
    /// nothing and leaves the engine stream untouched.
    fault: Option<crate::fault::FaultPlan>,
    /// Activity counters.
    pub stats: NetStats,
}

impl Network {
    /// Wraps a finished topology; routes are computed immediately.
    pub fn new(topo: Topology, seed: u64) -> Self {
        let routes = Arc::new(CoreRoutes::build(&topo));
        Self::with_routes(topo, seed, routes)
    }

    /// Wraps a finished topology with a (shareable) table of its core routes.
    pub fn with_routes(topo: Topology, seed: u64, routes: Arc<CoreRoutes>) -> Self {
        let link_busy_until = vec![[SimTime::ZERO; 2]; topo.links().len()];
        Network {
            topo,
            routes,
            anycast: FastMap::default(),
            nearest: FastMap::default(),
            services: FastMap::default(),
            next_registration: 0,
            wakes: FastSet::default(),
            queue: EventHeap::new(),
            deadlines: BTreeMap::new(),
            seq: 0,
            now: SimTime::ZERO,
            rng: StdRng::seed_from_u64(seed),
            draw_seed: splitmix(seed ^ HOP_SEED),
            pending: FastMap::default(),
            port_index: FastMap::default(),
            ident_index: FastMap::default(),
            completed: BTreeMap::new(),
            next_flow: 1,
            next_port: EPHEMERAL_LO,
            link_busy_until,
            fault: None,
            stats: NetStats::default(),
        }
    }

    /// Installs a fault-injection plan. The plan keys its draws by its own
    /// seed lane and each hop's key, so runs without one are byte-identical
    /// to builds without the fault subsystem at all.
    pub fn install_fault_plan(&mut self, plan: crate::fault::FaultPlan) {
        self.fault = Some(plan);
    }

    /// The installed fault plan, if any (for stats inspection).
    pub fn fault_plan(&self) -> Option<&crate::fault::FaultPlan> {
        self.fault.as_ref()
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Read access to the topology.
    pub fn topo(&self) -> &Topology {
        &self.topo
    }

    /// Mutable access to the topology, for retuning links and node
    /// configuration. The route table is fixed at construction: the one
    /// shape change it follows is [`Network::rehome_stub`].
    pub fn topo_mut(&mut self) -> &mut Topology {
        self.nearest.clear();
        &mut self.topo
    }

    /// Moves `stub`'s one link onto core node `new_peer` (a bearer re-homing
    /// to another gateway). Routes read it live: nothing is recomputed.
    pub fn rehome_stub(&mut self, link: usize, stub: NodeId, new_peer: NodeId) {
        assert!(!self.routes.is_core(stub), "{stub:?} is not a stub");
        assert!(self.routes.is_core(new_peer), "{new_peer:?} is not core");
        self.topo.rewire_link(link, stub, new_peer);
        self.nearest.clear();
    }

    /// The deterministic RNG of services and clients (for layers above that
    /// need randomness in the same stream). Drawing from it moves no link
    /// sample.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Declares `addr` an anycast address served by `instances`. Each
    /// router forwards toward its nearest instance, as BGP anycast would.
    pub fn add_anycast(&mut self, addr: Ipv4Addr, instances: Vec<NodeId>) {
        assert!(
            self.topo.owner_of(addr).is_none(),
            "{addr} already unicast-owned"
        );
        assert!(!instances.is_empty(), "anycast {addr} with no instances");
        self.anycast.insert(addr, instances);
        self.nearest.clear();
    }

    /// Registers a service on `(node, port)`.
    pub fn register_service(&mut self, node: NodeId, port: u16, service: Box<dyn UdpService>) {
        let id = self.next_registration;
        self.next_registration += 1;
        let registered = Registered {
            service,
            id,
            ticks: 0,
        };
        let prior = self.services.insert((node, port), registered);
        assert!(prior.is_none(), "duplicate service on {node:?}:{port}");
    }

    /// Removes a service, returning it.
    pub fn unregister_service(&mut self, node: NodeId, port: u16) -> Option<Box<dyn UdpService>> {
        self.services.remove(&(node, port)).map(|r| r.service)
    }

    /// Schedules an immediate [`UdpService::tick`] for a service (used to
    /// start client-side state machines such as TCP-lite fetches).
    pub fn kick_service(&mut self, node: NodeId, port: u16) {
        self.schedule_wake(self.now, node, port);
    }

    /// Inspects a registered service's concrete state via its
    /// [`UdpService::as_any`] hook.
    pub fn service_as<T: 'static>(&self, node: NodeId, port: u16) -> Option<&T> {
        self.services
            .get(&(node, port))?
            .service
            .as_any()?
            .downcast_ref::<T>()
    }

    /// Allocates an ephemeral port with no service and no pending
    /// transaction on `node` (for client-side service state machines).
    pub fn alloc_client_port(&mut self, node: NodeId) -> u16 {
        self.alloc_port(node)
    }

    /// Enqueues an event.
    fn schedule(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.next_seq();
        self.queue.push(Event {
            time: at.max(self.now),
            seq,
            kind,
        });
        self.note_depth();
    }

    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Raises the queue high-water to the events and deadlines now waiting.
    fn note_depth(&mut self) {
        let depth = (self.queue.len() + self.deadlines.len()) as u64;
        self.stats.queue_high_water = self.stats.queue_high_water.max(depth);
    }

    /// Queues a `ServiceTick` for `(node, port)` at `at`, unless one is
    /// already queued for that instant. The queued one dispatches first, so
    /// it is the tick that does the work: by the time a second tick at the
    /// same instant ran, the first (or a `handle` in between) would already
    /// have expired every deadline before `at`, and anything it re-armed
    /// would be due later. A tick left over from an unregistered service
    /// still counts: it reaches whatever is registered there when it fires.
    fn schedule_wake(&mut self, at: SimTime, node: NodeId, port: u16) {
        let at = at.max(self.now);
        if self.wakes.insert((node, port, at)) {
            self.schedule(at, EventKind::ServiceTick { node, port });
        }
    }

    fn alloc_flow(&mut self) -> FlowId {
        let id = FlowId(self.next_flow);
        self.next_flow += 1;
        id
    }

    fn alloc_port(&mut self, node: NodeId) -> u16 {
        // Skip ports with an outstanding transaction or a registered
        // service on this node.
        for _ in 0..=(EPHEMERAL_HI - EPHEMERAL_LO) {
            let p = self.next_port;
            self.next_port = if p >= EPHEMERAL_HI {
                EPHEMERAL_LO
            } else {
                p + 1
            };
            if !self.port_index.contains_key(&(node, p)) && !self.services.contains_key(&(node, p))
            {
                return p;
            }
        }
        #[expect(
            clippy::panic,
            reason = "exhausting the full 16k-port ephemeral range on one node means the caller \
                      leaked flows; continuing would hand out a duplicate port and silently \
                      corrupt transaction matching"
        )]
        {
            panic!("ephemeral ports exhausted on {node:?}");
        }
    }

    /// Sends a UDP request from `node` and tracks it as a transaction.
    pub fn udp_request(
        &mut self,
        node: NodeId,
        dst: Ipv4Addr,
        dst_port: u16,
        payload: Vec<u8>,
        timeout: SimDuration,
    ) -> FlowId {
        let flow = self.alloc_flow();
        let src_port = self.alloc_port(node);
        let src = self.topo.node(node).primary_addr();
        let packet = Packet::udp(src, src_port, dst, dst_port, payload);
        self.port_index.insert((node, src_port), flow);
        self.open_flow(flow, node, packet, timeout, Some(src_port), None)
    }

    /// Sends a TTL-limited UDP probe (one traceroute step) from `node`.
    pub fn udp_probe_ttl(
        &mut self,
        node: NodeId,
        dst: Ipv4Addr,
        dst_port: u16,
        ttl: u8,
        timeout: SimDuration,
    ) -> FlowId {
        let flow = self.alloc_flow();
        let src_port = self.alloc_port(node);
        let src = self.topo.node(node).primary_addr();
        let mut packet = Packet::udp(src, src_port, dst, dst_port, b"probe".to_vec());
        packet.ttl = ttl;
        self.port_index.insert((node, src_port), flow);
        self.open_flow(flow, node, packet, timeout, Some(src_port), None)
    }

    /// Sends an ICMP echo request (one ping probe) from `node`.
    pub fn ping(&mut self, node: NodeId, dst: Ipv4Addr, timeout: SimDuration) -> FlowId {
        self.probe_ttl(node, dst, crate::packet::DEFAULT_TTL, timeout)
    }

    /// Sends an ICMP echo request with an explicit TTL (traceroute probe).
    pub fn probe_ttl(
        &mut self,
        node: NodeId,
        dst: Ipv4Addr,
        ttl: u8,
        timeout: SimDuration,
    ) -> FlowId {
        let flow = self.alloc_flow();
        // Upper 48 bits carry the flow id through NAT rewrites of the low 16.
        let ident = (flow.0 << 16) | (flow.0 & 0xFFFF);
        let src = self.topo.node(node).primary_addr();
        let mut packet = Packet::echo_request(src, dst, ident, 0);
        packet.ttl = ttl;
        self.ident_index.insert(flow.0, flow);
        self.open_flow(flow, node, packet, timeout, None, Some(flow.0))
    }

    /// Sends `flow`'s first packet from `node` now and tracks the flow as
    /// pending, under a deadline `timeout` from now that takes the seq
    /// after the send's.
    fn open_flow(
        &mut self,
        flow: FlowId,
        node: NodeId,
        mut packet: Packet,
        timeout: SimDuration,
        port: Option<u16>,
        ident: Option<u64>,
    ) -> FlowId {
        packet.draw = mix(TAG_FLOW, flow.0);
        self.schedule(self.now, EventKind::Send { node, packet });
        let deadline = (self.now + timeout, self.next_seq());
        self.deadlines.insert(deadline, flow);
        self.note_depth();
        self.pending.insert(
            flow,
            Pending {
                node,
                sent_at: self.now,
                port,
                ident,
                deadline,
            },
        );
        flow
    }

    /// Number of completed-but-unpolled outcomes currently retained.
    pub fn completed_len(&self) -> usize {
        self.completed.len()
    }

    /// Drains and returns every completed-but-unpolled outcome recorded at
    /// or before `t`, in flow order. Campaign drivers call this between
    /// experiments so outcomes nobody polls cannot accumulate for the life
    /// of a shard.
    pub fn take_completed_before(&mut self, t: SimTime) -> Vec<(FlowId, FlowOutcome)> {
        let mut taken = Vec::new();
        self.completed.retain(|&flow, outcome| {
            if outcome.completed_at <= t {
                taken.push((flow, outcome.clone()));
                false
            } else {
                true
            }
        });
        taken
    }

    /// Runs the engine until `flow` completes. A pending flow always does,
    /// by its deadline at the latest. A flow that is neither pending nor
    /// completed (already polled, or a foreign id) reports
    /// [`FlowResult::Unknown`] at once, without dispatching anything.
    pub fn run_until(&mut self, flow: FlowId) -> FlowOutcome {
        let pending = self.pending.contains_key(&flow);
        loop {
            if let Some(outcome) = self.completed.remove(&flow) {
                return outcome;
            }
            if !pending || !self.step() {
                return FlowOutcome {
                    sent_at: self.now,
                    completed_at: self.now,
                    result: FlowResult::Unknown,
                };
            }
        }
    }

    /// Runs until all the given flows complete; returns outcomes in order.
    pub fn run_until_all(&mut self, flows: &[FlowId]) -> Vec<FlowOutcome> {
        flows.iter().map(|&f| self.run_until(f)).collect()
    }

    /// Dispatches one event or flow deadline, whichever has the earlier
    /// `(time, seq)`. Returns `false` when neither is left.
    // detlint: hot
    pub fn step(&mut self) -> bool {
        let deadline_first = match (self.queue.next_key(), self.deadlines.first_key_value()) {
            (None, None) => return false,
            (Some(event), Some((&deadline, _))) => deadline < event,
            (Some(_), None) => false,
            (None, Some(_)) => true,
        };
        if deadline_first {
            self.expire_deadline();
            return true;
        }
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        debug_assert!(ev.time >= self.now, "time went backwards");
        self.now = ev.time;
        self.stats.events += 1;
        match ev.kind {
            EventKind::Arrive { node, packet } => {
                self.stats.arrives += 1;
                self.on_arrive(node, packet);
            }
            EventKind::Send { node, packet } => {
                self.stats.sends += 1;
                self.on_send(node, packet);
            }
            EventKind::ServiceTick { node, port } => {
                self.stats.service_ticks += 1;
                self.wakes.remove(&(node, port, ev.time));
                let local_addr = self.topo.node(node).primary_addr();
                self.run_service(node, port, local_addr, None, |service, ctx| {
                    service.tick(ctx)
                });
            }
        }
        true
    }

    /// Dispatches the earliest flow deadline: its flow times out.
    // detlint: hot
    fn expire_deadline(&mut self) {
        let Some(((time, _), flow)) = self.deadlines.pop_first() else {
            return;
        };
        debug_assert!(time >= self.now, "time went backwards");
        self.now = time;
        self.stats.events += 1;
        self.stats.flow_timeouts += 1;
        if self.complete(flow, FlowResult::TimedOut) {
            self.stats.timeouts += 1;
        }
    }

    /// The instant of the earliest event or deadline.
    fn next_time(&self) -> Option<SimTime> {
        let event = self.queue.next_key().map(|(time, _)| time);
        let deadline = self.deadlines.first_key_value().map(|(&(time, _), _)| time);
        match (event, deadline) {
            (Some(e), Some(d)) => Some(e.min(d)),
            (e, d) => e.or(d),
        }
    }

    /// Dispatches every event scheduled for the next occupied instant as
    /// one batch, including events scheduled *into* that instant while it
    /// is being drained. Returns the number dispatched (0 when idle).
    // detlint: hot
    pub fn step_batch(&mut self) -> u64 {
        let Some(t) = self.next_time() else {
            return 0;
        };
        let mut n = 0;
        while self.next_time() == Some(t) {
            if !self.step() {
                break;
            }
            n += 1;
        }
        n
    }

    /// Processes all events scheduled at or before `t` in per-instant
    /// batches, then advances the clock to `t`. Used by campaign drivers to
    /// pace experiments.
    pub fn skip_to(&mut self, t: SimTime) {
        while let Some(next) = self.next_time() {
            if next > t {
                break;
            }
            self.step_batch();
        }
        if t > self.now {
            self.now = t;
        }
    }

    /// Drains the queue completely (bounded by `max_events` as a safety
    /// valve); returns the number of events processed.
    pub fn run_to_quiescence(&mut self, max_events: u64) -> u64 {
        let mut n = 0;
        while n < max_events && self.step() {
            n += 1;
        }
        n
    }

    /// Records a pending flow's outcome and withdraws its deadline, unless
    /// that deadline is what is firing. Returns `false` when `flow` was not
    /// pending.
    fn complete(&mut self, flow: FlowId, result: FlowResult) -> bool {
        let Some(p) = self.pending.remove(&flow) else {
            return false;
        };
        if let Some(port) = p.port {
            self.port_index.remove(&(p.node, port));
        }
        if let Some(ident) = p.ident {
            self.ident_index.remove(&ident);
        }
        if self.deadlines.remove(&p.deadline).is_some() {
            self.stats.flow_timeouts_cancelled += 1;
        }
        self.completed.insert(
            flow,
            FlowOutcome {
                sent_at: p.sent_at,
                completed_at: self.now,
                result,
            },
        );
        true
    }

    /// Resolves a destination address to a node, honoring anycast from the
    /// viewpoint of `from`.
    fn resolve_dst(&mut self, from: NodeId, dst: Ipv4Addr) -> Option<NodeId> {
        if let Some(node) = self.topo.owner_of(dst) {
            return Some(node);
        }
        if let Some(&nearest) = self.nearest.get(&(from, dst)) {
            return nearest;
        }
        let instances = self.anycast.get(&dst)?;
        let nearest = self.routes.nearest(&self.topo, from, instances);
        self.nearest.insert((from, dst), nearest);
        nearest
    }

    /// Whether `addr` terminates at `node`: one of the node's own
    /// addresses, or an anycast address with an instance there.
    fn is_local(&self, node: NodeId, addr: Ipv4Addr) -> bool {
        self.topo.node(node).addrs.contains(&addr)
            || self
                .anycast
                .get(&addr)
                .is_some_and(|inst| inst.contains(&node))
    }

    fn on_arrive(&mut self, node: NodeId, mut packet: Packet) {
        // 1. Un-NAT inbound packets addressed to this node's NAT pool, so the
        //    firewall sees inside-view addresses.
        let inbound_nat = self
            .topo
            .node(node)
            .nat
            .as_ref()
            .is_some_and(|nat| nat.public_addr() == packet.dst);
        if inbound_nat {
            if let Some(nat) = self.topo.node_mut(node).nat.as_mut() {
                match nat.translate(packet) {
                    Some(p) => packet = p,
                    None => {
                        self.stats.nat_drops += 1;
                        return;
                    }
                }
            }
        }
        // 2. Firewall.
        let now = self.now;
        if let Some(fw) = self.topo.node_mut(node).firewall.as_mut() {
            if fw.check(&packet, now) == crate::middlebox::Verdict::Drop {
                self.stats.firewall_drops += 1;
                return;
            }
        }
        // 3. Local delivery (NAT-in already restored inside addresses).
        if self.is_local(node, packet.dst) {
            self.deliver(node, packet);
            return;
        }
        // 4. TTL handling happens before outbound NAT so ICMP errors carry
        //    the original (inside) source and route back to the prober —
        //    this is what makes egress routers visible to traceroute.
        let kind = self.topo.node(node).kind;
        if kind != NodeKind::TransparentRouter {
            if packet.ttl <= 1 {
                self.stats.ttl_expired += 1;
                self.send_icmp_error(node, &packet, true);
                return;
            }
            packet.ttl -= 1;
        }
        // 5. NAT outbound.
        if let Some(nat) = self.topo.node_mut(node).nat.as_mut() {
            match nat.translate(packet) {
                Some(p) => packet = p,
                None => {
                    self.stats.nat_drops += 1;
                    return;
                }
            }
        }
        // 6. Transmit (TTL already handled).
        self.transmit(node, packet);
    }

    fn deliver(&mut self, node: NodeId, packet: Packet) {
        self.stats.delivered += 1;
        match packet.transport {
            Transport::Icmp(IcmpMsg::EchoRequest { ident, seq }) => {
                if self.topo.node(node).answers_ping.answers(packet.src) {
                    let reply = Packet {
                        src: packet.dst,
                        dst: packet.src,
                        ttl: crate::packet::DEFAULT_TTL,
                        transport: Transport::Icmp(IcmpMsg::EchoReply { ident, seq }),
                        draw: mix(TAG_ECHO, packet.draw),
                    };
                    let at = self.now + NODE_PROC_DELAY;
                    self.schedule(
                        at,
                        EventKind::Send {
                            node,
                            packet: reply,
                        },
                    );
                }
            }
            Transport::Icmp(IcmpMsg::EchoReply { ident, .. }) => {
                let key = ident >> 16;
                if let Some(&flow) = self.ident_index.get(&key) {
                    let from = packet.src;
                    self.complete(flow, FlowResult::EchoReply { from });
                }
            }
            Transport::Icmp(IcmpMsg::TimeExceeded { original }) => {
                let from = packet.src;
                if let Some(flow) = self.flow_for_original(node, &original) {
                    self.complete(flow, FlowResult::TimeExceeded { from });
                }
            }
            Transport::Icmp(IcmpMsg::DestUnreachable { original }) => {
                let from = packet.src;
                if let Some(flow) = self.flow_for_original(node, &original) {
                    self.complete(flow, FlowResult::Unreachable { from });
                }
            }
            Transport::Udp {
                src_port,
                dst_port,
                payload,
            } => {
                let from = packet.src;
                let handled = self.run_service(
                    node,
                    dst_port,
                    packet.dst,
                    Some(packet.draw),
                    |service, ctx| service.handle(ctx, from, src_port, &payload),
                );
                if handled {
                    return;
                }
                if let Some(&flow) = self.port_index.get(&(node, dst_port)) {
                    self.complete(flow, FlowResult::Response { from, payload });
                } else {
                    // Closed port: unreachable back to sender.
                    let key = ProbeKey {
                        src: packet.src,
                        dst: packet.dst,
                        ident: 0,
                        seq: 0,
                        udp_ports: Some((src_port, dst_port)),
                    };
                    let err = Packet {
                        src: packet.dst,
                        dst: packet.src,
                        ttl: crate::packet::DEFAULT_TTL,
                        transport: Transport::Icmp(IcmpMsg::DestUnreachable { original: key }),
                        draw: mix(TAG_UNREACHABLE, packet.draw),
                    };
                    let at = self.now + NODE_PROC_DELAY;
                    self.schedule(at, EventKind::Send { node, packet: err });
                }
            }
        }
    }

    fn flow_for_original(&self, node: NodeId, original: &ProbeKey) -> Option<FlowId> {
        match original.udp_ports {
            Some((src_port, _)) => self.port_index.get(&(node, src_port)).copied(),
            None => self.ident_index.get(&(original.ident >> 16)).copied(),
        }
    }

    /// Runs `call` on the service bound to `(node, port)`, in place, with
    /// the engine RNG, then sends its egress and queues the wake-up it
    /// asked for. `handled_draw` is the draw of the packet being handled,
    /// `None` on a timer tick; egress `i` draws `mix(cause, i)` from it.
    /// Returns `false`, doing nothing, when no service is bound there (a
    /// tick that outlived its service).
    fn run_service(
        &mut self,
        node: NodeId,
        port: u16,
        local_addr: Ipv4Addr,
        handled_draw: Option<u64>,
        call: impl FnOnce(&mut dyn UdpService, &mut ServiceCtx<'_>) -> Vec<Egress>,
    ) -> bool {
        let Some(registered) = self.services.get_mut(&(node, port)) else {
            return false;
        };
        let cause = handled_draw.unwrap_or_else(|| {
            let tick = mix(TAG_TICK ^ registered.id, registered.ticks);
            registered.ticks += 1;
            tick
        });
        let mut ctx = ServiceCtx::new(self.now, local_addr, &mut self.rng);
        let egress = call(registered.service.as_mut(), &mut ctx);
        if let Some(at) = ctx.wake() {
            self.schedule_wake(at, node, port);
        }
        for (i, e) in (0u64..).zip(egress) {
            let src = e.src_addr.unwrap_or(local_addr);
            debug_assert!(
                self.is_local(node, src),
                "service egress from unowned address {src}"
            );
            let mut out = Packet::udp(src, port, e.dst, e.dst_port, e.payload);
            out.draw = mix(cause, i);
            let at = self.now + NODE_PROC_DELAY + e.delay;
            self.schedule(at, EventKind::Send { node, packet: out });
        }
        true
    }

    /// Handles a locally originated packet: local delivery or transmission
    /// without TTL decrement.
    fn on_send(&mut self, node: NodeId, packet: Packet) {
        if self.is_local(node, packet.dst) {
            self.deliver(node, packet);
        } else {
            self.transmit(node, packet);
        }
    }

    /// Picks the next hop toward the destination and schedules arrival.
    fn transmit(&mut self, node: NodeId, packet: Packet) {
        let Some(dst_node) = self.resolve_dst(node, packet.dst) else {
            self.stats.unreachable += 1;
            self.send_icmp_error(node, &packet, false);
            return;
        };
        if dst_node == node {
            // Anycast resolved to ourselves (possible when the instance set
            // includes this node but the address check missed it).
            self.deliver(node, packet);
            return;
        }
        let Some(hop) = self.routes.next_hop(&self.topo, node, dst_node) else {
            self.stats.unreachable += 1;
            self.send_icmp_error(node, &packet, false);
            return;
        };
        self.stats.forwards += 1;
        let hop_key =
            splitmix(self.draw_seed ^ packet.draw ^ ((hop.link as u64) << 32 | u64::from(node.0)));
        let mut draws = HopRng::new(hop_key);
        // The first word decides link loss whether or not the link is lossy,
        // so a latency sample never depends on the loss setting.
        let link = self.topo.link(hop.link);
        if draws.gen::<f64>() < link.loss {
            self.stats.link_losses += 1;
            return;
        }
        if let Some(plan) = self.fault.as_mut() {
            if plan.should_drop(self.now, hop_key) {
                self.stats.fault_drops += 1;
                return;
            }
        }
        let latency = link.latency.sample(&mut draws);
        let latency = match self.fault.as_mut() {
            Some(plan) => latency + plan.extra_latency(self.now, latency),
            None => latency,
        };
        // Capacity-limited links serialize packets and queue behind earlier
        // transmissions in the same direction.
        let depart = if let Some(bps) = link.bandwidth_bps {
            let dir = usize::from(link.a != node);
            let busy = &mut self.link_busy_until[hop.link][dir];
            let start = (*busy).max(self.now);
            let ser_us = (packet.wire_size() as u64 * 8 * 1_000_000) / bps;
            let done = start + SimDuration::from_micros(ser_us.max(1));
            *busy = done;
            done
        } else {
            self.now
        };
        let at = depart + latency + NODE_PROC_DELAY;
        self.schedule(
            at,
            EventKind::Arrive {
                node: hop.node,
                packet,
            },
        );
    }

    /// Emits TimeExceeded (`expired == true`) or DestUnreachable back to the
    /// offending packet's source. Hosts and routers answer; transparent
    /// routers never do (they cannot expire TTLs either).
    fn send_icmp_error(&mut self, node: NodeId, offending: &Packet, expired: bool) {
        // Never answer an ICMP error with another error.
        if matches!(
            offending.transport,
            Transport::Icmp(IcmpMsg::TimeExceeded { .. })
                | Transport::Icmp(IcmpMsg::DestUnreachable { .. })
        ) {
            return;
        }
        let original = offending.probe_key();
        let (msg, tag) = if expired {
            (IcmpMsg::TimeExceeded { original }, TAG_EXPIRED)
        } else {
            (IcmpMsg::DestUnreachable { original }, TAG_UNREACHABLE)
        };
        let err = Packet {
            src: self.topo.node(node).primary_addr(),
            dst: offending.src,
            ttl: crate::packet::DEFAULT_TTL,
            transport: Transport::Icmp(msg),
            draw: mix(tag, offending.draw),
        };
        let at = self.now + NODE_PROC_DELAY;
        self.schedule(at, EventKind::Send { node, packet: err });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::LatencyModel;
    use crate::topo::{Asn, Coord, NodeKind};

    fn ip(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
        Ipv4Addr::new(a, b, c, d)
    }

    /// host A -- r1 -- r2 -- host B
    fn line_network() -> (Network, NodeId, NodeId, NodeId, NodeId) {
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
        t.add_link(a, r1, LatencyModel::constant_ms(5));
        t.add_link(r1, r2, LatencyModel::constant_ms(10));
        t.add_link(r2, b, LatencyModel::constant_ms(5));
        (Network::new(t, 1), a, r1, r2, b)
    }

    #[test]
    fn ping_round_trip_time() {
        let (mut net, a, _, _, _) = line_network();
        let flow = net.ping(a, ip(10, 0, 0, 4), SimDuration::from_secs(5));
        let out = net.run_until(flow);
        assert!(matches!(out.result, FlowResult::EchoReply { from } if from == ip(10, 0, 0, 4)));
        // 2 * (5+10+5) ms plus small proc delays.
        let rtt = out.rtt().as_millis_f64();
        assert!((40.0..42.0).contains(&rtt), "rtt {rtt}");
    }

    #[test]
    fn ping_unanswered_when_host_ignores_icmp() {
        let (mut net, a, _, _, b) = line_network();
        net.topo_mut().node_mut(b).answers_ping = crate::topo::PingPolicy::Never;
        let flow = net.ping(a, ip(10, 0, 0, 4), SimDuration::from_millis(200));
        let out = net.run_until(flow);
        assert_eq!(out.result, FlowResult::TimedOut);
        assert_eq!(net.stats.timeouts, 1);
    }

    #[test]
    fn traceroute_probe_discovers_hop() {
        let (mut net, a, _, _, _) = line_network();
        let flow = net.probe_ttl(a, ip(10, 0, 0, 4), 2, SimDuration::from_secs(5));
        let out = net.run_until(flow);
        // TTL 2: expires at r2 (a does not decrement its own originations —
        // the first decrement happens at r1).
        match out.result {
            FlowResult::TimeExceeded { from } => assert_eq!(from, ip(10, 0, 0, 3)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn udp_to_closed_port_is_unreachable() {
        let (mut net, a, _, _, _) = line_network();
        let flow = net.udp_request(a, ip(10, 0, 0, 4), 9999, vec![1], SimDuration::from_secs(5));
        let out = net.run_until(flow);
        assert!(matches!(out.result, FlowResult::Unreachable { from } if from == ip(10, 0, 0, 4)));
    }

    /// A parrot service that echoes payloads back reversed.
    struct Parrot;
    impl UdpService for Parrot {
        fn handle(
            &mut self,
            _ctx: &mut ServiceCtx<'_>,
            from: Ipv4Addr,
            from_port: u16,
            payload: &[u8],
        ) -> Vec<Egress> {
            let mut p = payload.to_vec();
            p.reverse();
            vec![Egress::reply(
                from,
                from_port,
                p,
                SimDuration::from_micros(100),
            )]
        }
    }

    #[test]
    fn udp_service_round_trip() {
        let (mut net, a, _, _, b) = line_network();
        net.register_service(b, 53, Box::new(Parrot));
        let flow = net.udp_request(
            a,
            ip(10, 0, 0, 4),
            53,
            vec![1, 2, 3],
            SimDuration::from_secs(5),
        );
        let out = net.run_until(flow);
        match out.result {
            FlowResult::Response { from, payload } => {
                assert_eq!(from, ip(10, 0, 0, 4));
                assert_eq!(payload, vec![3, 2, 1]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn anycast_routes_to_nearest_instance() {
        // a -1- r -40- r2, with instance `near` on r and `far`, `mid` on r2.
        let mut t = Topology::new();
        let host = |t: &mut Topology, name: &str, asn: u32, addr: Ipv4Addr| {
            t.add_node(name, NodeKind::Host, Asn(asn), Coord::default(), vec![addr])
        };
        let a = host(&mut t, "a", 1, ip(10, 0, 0, 1));
        let r = t.add_node(
            "r",
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
        let near = host(&mut t, "near", 2, ip(10, 0, 1, 1));
        let far = host(&mut t, "far", 2, ip(10, 0, 2, 1));
        let mid = host(&mut t, "mid", 2, ip(10, 0, 3, 1));
        let a_link = t.add_link(a, r, LatencyModel::constant_ms(1));
        t.add_link(r, r2, LatencyModel::constant_ms(40));
        t.add_link(r, near, LatencyModel::constant_ms(10));
        let far_link = t.add_link(r2, far, LatencyModel::constant_ms(5));
        t.add_link(r2, mid, LatencyModel::constant_ms(20));
        let mut net = Network::new(t, 7);
        net.add_anycast(ip(8, 8, 8, 8), vec![near, far, mid]);
        let ping_vip = |net: &mut Network| {
            let flow = net.ping(a, ip(8, 8, 8, 8), SimDuration::from_secs(5));
            let out = net.run_until(flow);
            match out.result {
                FlowResult::EchoReply { from } => assert_eq!(from, ip(8, 8, 8, 8)),
                other => panic!("unexpected {other:?}"),
            }
            out.rtt().as_millis_f64()
        };
        // From r, `near` answers: ~2*(1+10) = 22 ms, not 92 or 122 ms.
        let rtt = ping_vip(&mut net);
        assert!((22.0..25.0).contains(&rtt), "rtt {rtt}");
        // The sender re-homes onto r2: `far` is nearest now, ~2*(1+5).
        net.rehome_stub(a_link, a, r2);
        let rtt = ping_vip(&mut net);
        assert!((12.0..15.0).contains(&rtt), "rtt {rtt}");
        // `far` moves onto r: from r2 `mid` is nearest, ~2*(1+20) = 42 ms.
        // Routing on the earlier answers (`far` at r2, `near` at r) would
        // take ~2*(1+40+10) = 102 ms.
        net.rehome_stub(far_link, far, r);
        let rtt = ping_vip(&mut net);
        assert!((42.0..45.0).contains(&rtt), "rtt {rtt}");
    }

    #[test]
    fn transparent_router_hides_from_traceroute() {
        let mut t = Topology::new();
        let a = t.add_node(
            "a",
            NodeKind::Host,
            Asn(1),
            Coord::default(),
            vec![ip(10, 0, 0, 1)],
        );
        let lsr = t.add_node(
            "mpls",
            NodeKind::TransparentRouter,
            Asn(1),
            Coord::default(),
            vec![ip(10, 0, 0, 2)],
        );
        let b = t.add_node(
            "b",
            NodeKind::Host,
            Asn(1),
            Coord::default(),
            vec![ip(10, 0, 0, 3)],
        );
        t.add_link(a, lsr, LatencyModel::constant_ms(1));
        t.add_link(lsr, b, LatencyModel::constant_ms(1));
        let mut net = Network::new(t, 3);
        // TTL 1 passes straight through the LSR and reaches b.
        let flow = net.probe_ttl(a, ip(10, 0, 0, 3), 1, SimDuration::from_secs(5));
        let out = net.run_until(flow);
        assert!(matches!(out.result, FlowResult::EchoReply { from } if from == ip(10, 0, 0, 3)));
    }

    #[test]
    fn skip_to_advances_clock() {
        let (mut net, ..) = line_network();
        assert_eq!(net.now(), SimTime::ZERO);
        net.skip_to(SimTime::from_micros(5_000_000));
        assert_eq!(net.now().as_secs(), 5);
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let (mut net, a, ..) = line_network();
            let flow = net.ping(a, ip(10, 0, 0, 4), SimDuration::from_secs(5));
            let out = net.run_until(flow);
            (out.rtt().as_micros(), net.stats.clone())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn bandwidth_serializes_and_queues() {
        // 1 Mbit/s link: a 1028-byte datagram serializes in ~8.2 ms; ten
        // of them queue behind each other.
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
            NodeKind::Host,
            Asn(1),
            Coord::default(),
            vec![ip(10, 0, 0, 2)],
        );
        let link = t.add_link(a, b, LatencyModel::constant_ms(1));
        t.set_link_bandwidth(link, Some(1_000_000));
        let mut net = Network::new(t, 5);
        net.register_service(b, 7, Box::new(Parrot));
        let flows: Vec<FlowId> = (0..10)
            .map(|_| {
                net.udp_request(
                    a,
                    ip(10, 0, 0, 2),
                    7,
                    vec![0u8; 1000],
                    SimDuration::from_secs(10),
                )
            })
            .collect();
        let outcomes = net.run_until_all(&flows);
        let rtts: Vec<f64> = outcomes.iter().map(|o| o.rtt().as_millis_f64()).collect();
        // First packet: ~8.2 ms serialization + 1 ms latency each way plus
        // the small reply. Last packet queues behind nine others.
        assert!(rtts[0] > 8.0, "first rtt {}", rtts[0]);
        assert!(
            rtts[9] > rtts[0] + 8.0 * 8.0,
            "no queueing: first {} last {}",
            rtts[0],
            rtts[9]
        );
    }

    #[test]
    fn infinite_bandwidth_does_not_queue() {
        let (mut net, a, ..) = line_network();
        let flows: Vec<FlowId> = (0..5)
            .map(|_| net.ping(a, ip(10, 0, 0, 4), SimDuration::from_secs(5)))
            .collect();
        let outcomes = net.run_until_all(&flows);
        let spread = outcomes
            .iter()
            .map(|o| o.rtt().as_millis_f64())
            .fold((f64::MAX, f64::MIN), |(lo, hi), r| (lo.min(r), hi.max(r)));
        assert!(spread.1 - spread.0 < 1.0, "unexpected queueing {spread:?}");
    }

    #[test]
    fn one_ping_pays_three_forwards_each_way() {
        let (mut net, a, ..) = line_network();
        let flow = net.ping(a, ip(10, 0, 0, 4), SimDuration::from_secs(5));
        net.run_until(flow);
        net.run_to_quiescence(1_000);
        let s = &net.stats;
        // A's send plus r1 and r2 forward the request; B's send plus r2 and
        // r1 forward the reply: 3 + 3.
        assert_eq!(s.forwards, 6);
        // Request arrives at r1, r2, B; reply at r2, r1, A.
        assert_eq!(s.arrives, 6);
        // The request at B and the reply at A.
        assert_eq!(s.delivered, 2);
        // The request originates at A, the reply at B.
        assert_eq!(s.sends, 2);
        // Nothing else runs: the reply cancels the flow's timeout.
        assert_eq!(s.events, 8);
    }

    #[test]
    fn run_to_quiescence_is_bounded() {
        let (mut net, a, ..) = line_network();
        net.ping(a, ip(10, 0, 0, 4), SimDuration::from_secs(5));
        let n = net.run_to_quiescence(10_000);
        assert!(n > 0);
        assert!(!net.step());
    }

    #[test]
    fn completed_outcomes_are_drainable_and_bounded() {
        let (mut net, a, ..) = line_network();
        // Fire pings without ever polling them: the outcomes land in
        // `completed` and stay there (the leak this API exists to stop).
        for _ in 0..10 {
            net.ping(a, ip(10, 0, 0, 4), SimDuration::from_secs(5));
        }
        net.run_to_quiescence(100_000);
        assert_eq!(net.completed_len(), 10);
        let half_way = net.take_completed_before(SimTime::from_micros(0)).len();
        assert_eq!(half_way, 0, "nothing completed at t=0");
        let drained = net.take_completed_before(net.now());
        assert_eq!(drained.len(), 10);
        assert_eq!(net.completed_len(), 0);
        // Drained outcomes arrive in flow order and carry real results.
        for w in drained.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
        assert!(drained.iter().all(|(_, o)| o.answered()));
    }

    #[test]
    fn early_completion_cancels_the_timeout_event() {
        let (mut net, a, ..) = line_network();
        let flow = net.ping(a, ip(10, 0, 0, 4), SimDuration::from_secs(5));
        let out = net.run_until(flow);
        assert!(out.answered());
        assert_eq!(net.stats.flow_timeouts_cancelled, 1);
        // The cancelled timeout is reaped, not dispatched: draining the
        // rest of the run fires no timeout events at all.
        net.run_to_quiescence(100_000);
        assert_eq!(net.stats.flow_timeouts, 0);
        assert_eq!(net.stats.timeouts, 0);
    }

    #[test]
    fn a_reply_in_the_deadline_microsecond_times_out() {
        let rtt = {
            let (mut net, a, ..) = line_network();
            let flow = net.ping(a, ip(10, 0, 0, 4), SimDuration::from_secs(5));
            net.run_until(flow).rtt()
        };
        // The deadline was filed before the reply existed, so its seq is
        // older and it dispatches first within the shared microsecond.
        let (mut net, a, ..) = line_network();
        let flow = net.ping(a, ip(10, 0, 0, 4), rtt);
        let out = net.run_until(flow);
        assert_eq!(out.result, FlowResult::TimedOut);
        assert_eq!(out.rtt(), rtt);
        assert_eq!((net.stats.flow_timeouts, net.stats.timeouts), (1, 1));
        assert_eq!(net.stats.flow_timeouts_cancelled, 0);
        // One microsecond more and the reply wins.
        let (mut net, a, ..) = line_network();
        let flow = net.ping(a, ip(10, 0, 0, 4), rtt + SimDuration::from_micros(1));
        assert!(net.run_until(flow).answered());
        assert_eq!(net.stats.flow_timeouts_cancelled, 1);
    }

    #[test]
    fn queue_high_water_counts_a_pending_deadline() {
        let (mut net, a, ..) = line_network();
        net.ping(a, ip(10, 0, 0, 4), SimDuration::from_secs(5));
        // The echo request's `Send` and the flow's deadline.
        assert_eq!(net.stats.queue_high_water, 2);
        net.run_to_quiescence(1_000);
        // In flight, the request or reply is never queued beside more than
        // the deadline.
        assert_eq!(net.stats.queue_high_water, 2);
    }

    #[test]
    fn real_timeouts_still_fire_and_count() {
        let (mut net, a, _, _, b) = line_network();
        net.topo_mut().node_mut(b).answers_ping = crate::topo::PingPolicy::Never;
        let flow = net.ping(a, ip(10, 0, 0, 4), SimDuration::from_millis(200));
        let out = net.run_until(flow);
        assert_eq!(out.result, FlowResult::TimedOut);
        assert_eq!(net.stats.flow_timeouts, 1);
        assert_eq!(net.stats.timeouts, 1);
        assert_eq!(net.stats.flow_timeouts_cancelled, 0);
    }

    #[test]
    fn run_until_foreign_flow_reports_unknown_not_timeout() {
        let (mut net, a, ..) = line_network();
        let flow = net.ping(a, ip(10, 0, 0, 4), SimDuration::from_secs(5));
        let first = net.run_until(flow);
        assert!(first.answered());
        // A second ping still in flight while the bogus ids are asked for.
        let pending = net.ping(a, ip(10, 0, 0, 4), SimDuration::from_secs(5));
        let (events, now) = (net.stats.events, net.now());
        // Same id again (already polled) and a fabricated id: both must be
        // typed Unknown at once, not a fake instant TimedOut, and must not
        // run the simulation on past the pending ping.
        for bogus in [flow, FlowId(999_999)] {
            let out = net.run_until(bogus);
            assert_eq!(out.result, FlowResult::Unknown);
            assert!(!out.answered());
            assert_eq!(out.rtt(), SimDuration::ZERO);
            assert_eq!((net.stats.events, net.now()), (events, now));
        }
        assert!(net.run_until(pending).answered());
        // And no timeout was counted for any of them.
        assert_eq!(net.stats.timeouts, 0);
    }

    #[test]
    fn rehomed_stub_is_routed_over_its_new_link() {
        let (mut net, a, _, r2, _) = line_network();
        net.rehome_stub(0, a, r2);
        let flow = net.ping(a, ip(10, 0, 0, 4), SimDuration::from_secs(5));
        let out = net.run_until(flow);
        assert!(matches!(out.result, FlowResult::EchoReply { .. }));
        // 2 * (5+5) ms: the 10 ms r1-r2 link is off the path now.
        let rtt = out.rtt().as_millis_f64();
        assert!((20.0..22.0).contains(&rtt), "rtt {rtt}");
    }

    #[test]
    #[should_panic(expected = "is not a stub")]
    fn rehoming_a_core_link_panics() {
        let (mut net, _, r1, _, b) = line_network();
        net.rehome_stub(1, r1, b);
    }

    #[test]
    #[should_panic(expected = "is not core")]
    fn rehoming_onto_a_stub_panics() {
        let (mut net, a, _, _, b) = line_network();
        net.rehome_stub(0, a, b);
    }

    // Timer coalescing. The engine keeps one tick per service and instant;
    // the reference scheduler below keeps every requested wake. A
    // resolver-shaped service must not be able to tell the two apart.

    use proptest::prelude::*;
    use rand::Rng;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// One call a service saw: when, which entry point, the payloads it
    /// sent and the values it drew from the engine RNG.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Call {
        at: SimTime,
        tick: bool,
        egress: Vec<Vec<u8>>,
        draws: Vec<u64>,
    }

    impl Call {
        /// A call that changed something; the rest are no-op ticks.
        fn productive(&self) -> bool {
            !self.tick || !self.egress.is_empty() || !self.draws.is_empty()
        }
    }

    /// Resolver-shaped: each datagram opens an entry due its first byte in
    /// ms from now. Expiry is strict (`deadline < now`), as the resolver's
    /// is; an expired entry retries once, due after an RNG draw, then
    /// fails. Every `handle` and `tick` re-arms for the earliest deadline.
    #[derive(Default)]
    struct Expirer {
        /// `(deadline, id, retries left)`.
        pending: Vec<(SimTime, u8, u8)>,
        next_id: u8,
        log: Vec<Call>,
    }

    /// Where the expirer's retries and failures go: a closed port on its
    /// own host, so they cost no link and no RNG draw.
    const SINK_PORT: u16 = 9;

    /// Host `b` of [`line_network`], where the expirer runs.
    const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 4);
    /// A datagram from host `a` lands on `b` this many µs after it is sent:
    /// three constant links (no RNG draw) plus 50 µs per hop.
    const A_TO_B: u64 = 20_150;
    /// ... and is queued on `b`'s side when `r2` forwards it, this many µs
    /// before it lands.
    const LAST_HOP: u64 = 5_050;

    impl Expirer {
        fn call(&mut self, ctx: &mut ServiceCtx<'_>, opened_in_ms: Option<u8>) -> Vec<Egress> {
            let now = ctx.now;
            let mut egress = Vec::new();
            let mut draws = Vec::new();
            let (due, kept): (Vec<_>, Vec<_>) = std::mem::take(&mut self.pending)
                .into_iter()
                .partition(|p| p.0 < now);
            self.pending = kept;
            for (_, id, retries) in due {
                if retries > 0 {
                    let ms = ctx.rng.gen_range(0..4u64);
                    draws.push(ms);
                    self.pending
                        .push((now + SimDuration::from_millis(ms), id, retries - 1));
                    egress.push(vec![b'r', id]);
                } else {
                    egress.push(vec![b'f', id]);
                }
            }
            if let Some(ms) = opened_in_ms {
                let at = now + SimDuration::from_millis(u64::from(ms));
                self.pending.push((at, self.next_id, 1));
                self.next_id = self.next_id.wrapping_add(1);
            }
            if let Some(&(earliest, ..)) = self.pending.iter().min() {
                ctx.wake_at(earliest);
            }
            self.log.push(Call {
                at: now,
                tick: opened_in_ms.is_none(),
                egress: egress.clone(),
                draws,
            });
            let sink = ctx.local_addr;
            egress
                .into_iter()
                .map(|p| Egress::reply(sink, SINK_PORT, p, SimDuration::ZERO))
                .collect()
        }
    }

    impl UdpService for Expirer {
        fn handle(
            &mut self,
            ctx: &mut ServiceCtx<'_>,
            _from: Ipv4Addr,
            _from_port: u16,
            payload: &[u8],
        ) -> Vec<Egress> {
            self.call(ctx, Some(payload[0]))
        }

        fn tick(&mut self, ctx: &mut ServiceCtx<'_>) -> Vec<Egress> {
            self.call(ctx, None)
        }

        fn as_any(&self) -> Option<&dyn std::any::Any> {
            Some(self)
        }
    }

    /// Sends `sends` (`(µs, deadline offset in ms)`, ascending) from host
    /// `a` to an [`Expirer`] on host `b` through the engine. Returns the
    /// expirer's log and the ticks dispatched.
    fn through_engine(seed: u64, sends: &[(u64, u8)]) -> (Vec<Call>, u64) {
        let (mut net, a, _, _, b) = line_network();
        *net.rng() = StdRng::seed_from_u64(seed);
        net.register_service(b, 53, Box::new(Expirer::default()));
        for &(us, ms) in sends {
            net.skip_to(SimTime::from_micros(us));
            net.udp_request(a, B, 53, vec![ms], SimDuration::from_millis(1));
        }
        net.run_to_quiescence(1_000_000);
        let log = net.service_as::<Expirer>(b, 53).map(|e| e.log.clone());
        (log.unwrap_or_default(), net.stats.service_ticks)
    }

    /// The same run with uncoalesced timers, without the engine: every
    /// requested wake is its own tick. Calls run in engine order: by
    /// instant, then by when each was queued, then in queueing order. A
    /// datagram is queued when `r2` forwards it, a tick when the call that
    /// asked for it returns. On a 500 µs send grid those two moments never
    /// coincide (they sit 100 and 150 µs into a step), so datagrams and
    /// ticks landing on one instant run in either order, as queued.
    fn through_reference(seed: u64, sends: &[(u64, u8)]) -> (Vec<Call>, u64) {
        let mut svc = Expirer::default();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut queue: BinaryHeap<_> = sends
            .iter()
            .enumerate()
            .map(|(k, &(us, ms))| Reverse((us + A_TO_B, us + A_TO_B - LAST_HOP, k, Some(ms))))
            .collect();
        let mut queued = sends.len();
        let mut ticks = 0;
        while let Some(Reverse((us, _, _, datagram))) = queue.pop() {
            let mut ctx = ServiceCtx::new(SimTime::from_micros(us), B, &mut rng);
            match datagram {
                Some(ms) => svc.handle(&mut ctx, B, 40_000, &[ms]),
                None => {
                    ticks += 1;
                    svc.tick(&mut ctx)
                }
            };
            if let Some(at) = ctx.wake() {
                queue.push(Reverse((at.as_micros(), us, queued, None)));
                queued += 1;
            }
        }
        (svc.log, ticks)
    }

    fn productive(log: &[Call]) -> Vec<Call> {
        log.iter().filter(|c| c.productive()).cloned().collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Coalescing is exact: the same productive calls at the same sim
        /// times, with the same egress and the same RNG draws, for strictly
        /// fewer ticks. Sends sit on a 500 µs grid and deadlines on a 1 ms
        /// grid, so datagrams, deadlines and ticks collide often. The
        /// opening pair arms one deadline twice, so there is always a
        /// duplicate wake to drop.
        #[test]
        fn coalesced_wakes_do_the_same_work_as_every_wake(
            seed in any::<u64>(),
            first in 0u8..5,
            steps in proptest::collection::vec((0u64..8, 0u8..5), 0..40),
        ) {
            let mut sends = vec![(0, first), (0, first)];
            let mut us = 0;
            for (gap, ms) in steps {
                us += gap * 500;
                sends.push((us, ms));
            }
            let (engine, engine_ticks) = through_engine(seed, &sends);
            let (reference, reference_ticks) = through_reference(seed, &sends);
            prop_assert_eq!(productive(&engine), productive(&reference));
            prop_assert!(
                engine_ticks < reference_ticks,
                "{engine_ticks} ticks, reference {reference_ticks}"
            );
        }
    }

    #[test]
    fn three_handles_arming_one_deadline_get_one_tick() {
        let (log, _) = through_engine(1, &[(0, 2), (0, 2), (0, 2)]);
        let at = |ms: u64| SimTime::from_micros(A_TO_B + ms * 1_000);
        let ticks_at = |t| log.iter().filter(|c| c.tick && c.at == t).count();
        assert_eq!(ticks_at(at(2)), 1, "{log:?}");
        // Expiry is strict: the three entries expire on the next tick, 1 ms
        // on, and each retries.
        assert_eq!(ticks_at(at(3)), 1, "{log:?}");
        let retries = log.iter().find(|c| c.at == at(3)).map(|c| c.egress.len());
        assert_eq!(retries, Some(3));
        let (reference, _) = through_reference(1, &[(0, 2), (0, 2), (0, 2)]);
        assert_eq!(
            reference.iter().filter(|c| c.tick && c.at == at(2)).count(),
            3
        );
    }

    #[test]
    fn a_tick_outliving_its_service_reaches_the_one_registered_after_it() {
        let (mut net, a, ..) = line_network();
        net.register_service(a, 7, Box::new(Expirer::default()));
        net.kick_service(a, 7);
        let old = net.unregister_service(a, 7);
        net.register_service(a, 7, Box::new(Expirer::default()));
        net.kick_service(a, 7);
        net.run_to_quiescence(1_000);
        // The stale tick fires once, into the new service; the new kick for
        // the same instant rides on it.
        assert_eq!(net.stats.service_ticks, 1);
        let new_log = net.service_as::<Expirer>(a, 7).map(|e| e.log.len());
        assert_eq!(new_log, Some(1));
        let old = old.and_then(|s| s.as_any()?.downcast_ref::<Expirer>().map(|e| e.log.len()));
        assert_eq!(old, Some(0));
    }

    // Keyed draws (`crate::draw`): a packet's link samples follow from its
    // cause alone, and no two causes share a draw.

    /// host a -- r -- host b over heavy-tailed links.
    fn lognormal_line() -> (Network, NodeId) {
        let mut t = Topology::new();
        let mut host = |name, kind, last| {
            t.add_node(
                name,
                kind,
                Asn(1),
                Coord::default(),
                vec![ip(10, 0, 0, last)],
            )
        };
        let a = host("a", NodeKind::Host, 1);
        let r = host("r", NodeKind::Router, 2);
        let b = host("b", NodeKind::Host, 3);
        let jitter = || LatencyModel {
            base: SimDuration::from_millis(1),
            jitter: Some(crate::latency::LogNormal {
                mu: 8.0,
                sigma: 1.0,
            }),
        };
        t.add_link(a, r, jitter());
        t.add_link(r, b, jitter());
        (Network::new(t, 11), a)
    }

    #[test]
    fn drawing_from_the_engine_rng_moves_no_link_sample() {
        let rtts = |draw_between: bool| -> Vec<SimDuration> {
            let (mut net, a) = lognormal_line();
            (0..20)
                .map(|_| {
                    if draw_between {
                        let _: u64 = net.rng().gen();
                    }
                    let flow = net.ping(a, ip(10, 0, 0, 3), SimDuration::from_secs(120));
                    net.run_until(flow).rtt()
                })
                .collect()
        };
        let plain = rtts(false);
        assert_eq!(plain, rtts(true));
        // Real samples, not a constant path.
        assert!(plain.windows(2).any(|w| w[0] != w[1]), "{plain:?}");
    }

    /// Runs `net` to quiescence and returns every packet a node sent, with
    /// the node.
    fn sent_packets(net: &mut Network) -> Vec<(NodeId, Packet)> {
        let mut sent = Vec::new();
        while let Some(ev) = net.queue.pop() {
            if let EventKind::Send { node, packet } = &ev.kind {
                sent.push((*node, packet.clone()));
            }
            // Back at the head (same time, same seq) for `step` to run.
            net.queue.push(ev);
            net.step();
        }
        sent
    }

    /// The draws of the UDP datagrams `node` sent from `port`.
    fn draws_from(sent: &[(NodeId, Packet)], node: NodeId, port: u16) -> Vec<u64> {
        sent.iter()
            .filter(|(n, p)| {
                *n == node
                    && matches!(p.transport, Transport::Udp { src_port, .. } if src_port == port)
            })
            .map(|(_, p)| p.draw)
            .collect()
    }

    /// Sends the same datagram on each of `left` ticks, 1 ms apart.
    struct Ticker {
        left: u8,
    }

    impl UdpService for Ticker {
        fn handle(
            &mut self,
            _ctx: &mut ServiceCtx<'_>,
            _from: Ipv4Addr,
            _from_port: u16,
            _payload: &[u8],
        ) -> Vec<Egress> {
            Vec::new()
        }

        fn tick(&mut self, ctx: &mut ServiceCtx<'_>) -> Vec<Egress> {
            if self.left == 0 {
                return Vec::new();
            }
            self.left -= 1;
            ctx.wake_at(ctx.now + SimDuration::from_millis(1));
            let to = ip(10, 0, 0, 1);
            vec![Egress::reply(
                to,
                SINK_PORT,
                b"same".to_vec(),
                SimDuration::ZERO,
            )]
        }
    }

    #[test]
    fn successive_ticks_send_with_distinct_draws() {
        let (mut net, _, _, _, b) = line_network();
        net.register_service(b, 7, Box::new(Ticker { left: 2 }));
        net.kick_service(b, 7);
        let sent = sent_packets(&mut net);
        let draws = draws_from(&sent, b, 7);
        assert_eq!(draws.len(), 2, "{sent:?}");
        assert_ne!(draws[0], draws[1]);
    }

    #[test]
    fn replies_to_two_copies_of_one_request_draw_differently() {
        let (mut net, a, _, _, b) = line_network();
        net.register_service(b, 53, Box::new(Parrot));
        for _ in 0..2 {
            net.udp_request(a, B, 53, vec![1, 2, 3], SimDuration::from_secs(5));
        }
        let sent = sent_packets(&mut net);
        let replies = draws_from(&sent, b, 53);
        assert_eq!(replies.len(), 2, "{sent:?}");
        assert_ne!(replies[0], replies[1]);
    }
}

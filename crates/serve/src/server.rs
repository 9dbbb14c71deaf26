//! The socket front end: one UDP socket and one TCP listener per carrier
//! shard, all feeding a single bridge thread that owns the [`ServeCore`].
//!
//! Ordering contract (what makes the wire ground-truth-checkable): per
//! carrier, queries are processed in arrival order. A loopback UDP socket
//! pair delivers datagrams FIFO, each socket has exactly one receive
//! thread, and an `mpsc` channel preserves per-producer order — so a load
//! generator that sends one-at-a-time per carrier knows exactly the
//! injection sequence the core saw, and can replay it into a truth core.
//! Cross-carrier interleaving is unconstrained and irrelevant: shards are
//! independent engines.
//!
//! Hostile-wire posture: the bridge classifies every input before paying
//! for sim work. Malformed inputs earn FORMERR/NOTIMP (or a typed silent
//! drop) straight from the pure reject path; well-formed queries pass
//! through [`Admission`] and may earn a header-only REFUSED when the
//! carrier is over its inflight bound or token rate. TCP connections get
//! per-connection defenses: an idle timeout, a max frame size, slow-read
//! (slowloris) eviction, a bounded pipeline buffer, and a bounded wait to
//! write each reply. On [`DnsServer::
//! stop`] the bridge drains everything already enqueued before exiting,
//! so in-flight queries complete and nothing is silently dropped.

use crate::admit::{Admission, AdmitConfig, Verdict};
use crate::clock::WallClock;
use crate::core::{classify, control_reply, ServeCore, Served, Transport, WireClass};
use crate::endpoints::{CarrierEndpoint, Endpoints};
use dnssim::{frame, split_frame};
use dnswire::message::Rcode;
use measure::WorldConfig;
use obs::Registry;
use std::io::{ErrorKind, Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// How long blocking socket reads wait before re-checking the stop flag.
const POLL: Duration = Duration::from_millis(50);
/// TCP read poll interval: short, so connection deadlines are enforced
/// promptly even while a peer dribbles nothing.
const TCP_READ_POLL: Duration = Duration::from_millis(100);
/// A connection with *no* buffered bytes may sit quiet this long before
/// it is evicted (a well-behaved stub holds at most one exchange open).
const TCP_IDLE_TIMEOUT: Duration = Duration::from_secs(10);
/// A connection with a *partial frame* buffered must complete it within
/// this deadline or be evicted — the slowloris defense: a writer cannot
/// hold a thread by dribbling one byte per poll.
pub const FRAME_DEADLINE: Duration = Duration::from_secs(1);
/// Largest UDP query datagram we accept.
const MAX_UDP_QUERY: usize = 4096;
/// Largest TCP query frame we accept. DNS *queries* are small; a peer
/// declaring more than this in its length prefix is evicted before we
/// buffer a byte of the body (the 65,535 wire maximum is for answers).
const MAX_TCP_FRAME: usize = 4096;
/// Largest buffered backlog per connection (bounded pipelining): more
/// unserved bytes than this and the connection is evicted as a flood.
/// A peer that pipelines and never reads its answers is a flood too: a
/// reply the socket cannot take within [`FRAME_DEADLINE`] evicts it, so
/// it cannot hold its connection thread forever.
const MAX_CONN_BUF: usize = 16 * 1024;
/// After stop, the bridge keeps serving whatever is still being enqueued
/// until the channel stays quiet this long…
const DRAIN_POLL: Duration = Duration::from_millis(100);
/// …or this hard deadline elapses.
const DRAIN_DEADLINE: Duration = Duration::from_secs(3);

enum Event {
    Udp {
        shard: usize,
        peer: SocketAddr,
        data: Vec<u8>,
    },
    Tcp {
        shard: usize,
        data: Vec<u8>,
        reply: mpsc::Sender<Vec<u8>>,
    },
    Shutdown,
}

/// TCP eviction tallies, bumped from per-connection threads and folded
/// into the report registry at stop.
#[derive(Debug, Default)]
struct TcpGuards {
    idle: AtomicU64,
    slow_read: AtomicU64,
    oversized: AtomicU64,
    flood: AtomicU64,
    bad_frame: AtomicU64,
}

impl TcpGuards {
    fn counts(&self) -> [(&'static str, u64); 5] {
        [
            ("idle", self.idle.load(Ordering::SeqCst)),
            ("slow-read", self.slow_read.load(Ordering::SeqCst)),
            ("oversized", self.oversized.load(Ordering::SeqCst)),
            ("flood", self.flood.load(Ordering::SeqCst)),
            ("bad-frame", self.bad_frame.load(Ordering::SeqCst)),
        ]
    }
}

/// What the bridge thread hands back when the server stops.
#[derive(Debug)]
pub struct ServeReport {
    /// Wire queries resolved through the sim (UDP + TCP).
    pub answered: u64,
    /// Wire inputs dropped with a typed reason (too short, stray
    /// response, bad shard) — counted, never accidental.
    pub errors: u64,
    /// Malformed inputs answered FORMERR/NOTIMP without touching the sim.
    pub rejected: u64,
    /// Well-formed queries shed (REFUSED) by admission control.
    pub shed: u64,
    /// Queries served during the post-stop drain phase.
    pub drained: u64,
    /// TCP connections evicted by per-connection defenses.
    pub evicted: u64,
    /// Engine events dispatched across all shards while serving.
    pub events: u64,
    /// True when the bridge thread died instead of reporting — any soak
    /// that sees this must fail loudly.
    pub panicked: bool,
    /// The core's sim-plane registry (queries, outcomes, sim latency)
    /// plus the server-plane counters (shed, evictions, drain).
    pub registry: Registry,
}

/// A running DNS server: sockets bound, threads live. Obtain endpoints
/// via [`DnsServer::endpoints`], drive traffic, then [`DnsServer::stop`].
pub struct DnsServer {
    endpoints: Endpoints,
    stop: Arc<AtomicBool>,
    answered: Arc<AtomicU64>,
    guards: Arc<TcpGuards>,
    tx: mpsc::Sender<Event>,
    bridge: std::thread::JoinHandle<ServeReport>,
    io_threads: Vec<std::thread::JoinHandle<()>>,
}

impl DnsServer {
    /// Builds the world and binds one UDP socket + one TCP listener per
    /// carrier on `bind` (port 0 = kernel-assigned, the loopback default).
    pub fn start(config: WorldConfig, bind: Ipv4Addr) -> std::io::Result<DnsServer> {
        let core = ServeCore::new(config.clone());
        let stop = Arc::new(AtomicBool::new(false));
        let answered = Arc::new(AtomicU64::new(0));
        let guards = Arc::new(TcpGuards::default());
        let (tx, rx) = mpsc::channel::<Event>();

        // Per-shard backlog gauges: producers increment at enqueue, the
        // bridge decrements at dequeue; the bridge reads them to shed.
        let inflight: Arc<Vec<AtomicU64>> = Arc::new(
            (0..core.carrier_count())
                .map(|_| AtomicU64::new(0))
                .collect(),
        );
        let clock = WallClock::new();
        let admission = Admission::per_carrier(&admit_configs(&core), clock.now_us());

        // Bind every socket before starting any thread, so a failed bind
        // leaves nothing running.
        let mut carriers = Vec::new();
        let mut udp_socks = Vec::new();
        let mut listeners = Vec::new();
        for shard in 0..core.carrier_count() {
            let udp = UdpSocket::bind((bind, 0))?;
            udp.set_read_timeout(Some(POLL))?;
            let tcp = TcpListener::bind((bind, 0))?;
            tcp.set_nonblocking(true)?;
            carriers.push(CarrierEndpoint {
                index: shard,
                name: core.carrier_name(shard).to_string(),
                udp: udp.local_addr()?,
                tcp: tcp.local_addr()?,
                devices: core.carrier_devices(shard),
            });
            listeners.push((udp.try_clone()?, tcp));
            udp_socks.push(udp);
        }

        // The bridge starts first and (see `stop`) exits last. A process
        // that restarts the server then hands the next bridge the malloc
        // arena the last one grew, instead of growing another arena for
        // each restart.
        let endpoints = Endpoints { config, carriers };
        let bstop = Arc::clone(&stop);
        let banswered = Arc::clone(&answered);
        let binflight = Arc::clone(&inflight);
        let bridge = std::thread::spawn(move || {
            bridge_loop(core, udp_socks, rx, bstop, banswered, binflight, admission)
        });

        let mut io_threads = Vec::new();
        for (shard, (udp_rx_sock, tcp)) in listeners.into_iter().enumerate() {
            let utx = tx.clone();
            let ustop = Arc::clone(&stop);
            let uinflight = Arc::clone(&inflight);
            io_threads.push(std::thread::spawn(move || {
                udp_recv_loop(shard, udp_rx_sock, utx, ustop, uinflight)
            }));

            let ttx = tx.clone();
            let tstop = Arc::clone(&stop);
            let tinflight = Arc::clone(&inflight);
            let tguards = Arc::clone(&guards);
            io_threads.push(std::thread::spawn(move || {
                tcp_accept_loop(shard, tcp, ttx, tstop, tinflight, tguards)
            }));
        }

        Ok(DnsServer {
            endpoints,
            stop,
            answered,
            guards,
            tx,
            bridge,
            io_threads,
        })
    }

    /// Where each carrier is listening, plus the exact world config.
    pub fn endpoints(&self) -> &Endpoints {
        &self.endpoints
    }

    /// Wire queries answered so far.
    pub fn answered(&self) -> u64 {
        self.answered.load(Ordering::SeqCst)
    }

    /// Stops the server gracefully: quiesces the socket threads, lets the
    /// bridge drain everything already enqueued (in-flight queries still
    /// get their answers), joins every thread, and returns the report.
    pub fn stop(self) -> ServeReport {
        self.stop.store(true, Ordering::SeqCst);
        // Socket threads exit at their next poll tick; joining them first
        // means no *new* UDP work arrives during the drain.
        for t in self.io_threads {
            let _ = t.join();
        }
        // Wake the bridge even if no traffic is flowing, then drop our
        // sender so a fully-quiesced channel reads as disconnected.
        let _ = self.tx.send(Event::Shutdown);
        drop(self.tx);
        let mut report = match self.bridge.join() {
            Ok(report) => report,
            Err(_) => ServeReport {
                answered: self.answered.load(Ordering::SeqCst),
                errors: 0,
                rejected: 0,
                shed: 0,
                drained: 0,
                evicted: 0,
                events: 0,
                panicked: true,
                registry: Registry::default(),
            },
        };
        // Fold TCP eviction tallies (bumped on detached conn threads)
        // into the final registry.
        for (reason, n) in self.guards.counts() {
            if n > 0 {
                report
                    .registry
                    .inc_by("serve.conn_evicted", &[("reason", reason)], n);
                report.evicted += n;
            }
        }
        report
    }
}

/// Admission sizing: each carrier by its device count against the
/// fleet's mean per carrier.
fn admit_configs(core: &ServeCore) -> Vec<AdmitConfig> {
    let devices: Vec<usize> = (0..core.carrier_count())
        .map(|s| core.carrier_devices(s))
        .collect();
    let mean = devices.iter().sum::<usize>() / devices.len().max(1);
    devices
        .iter()
        .map(|&d| AdmitConfig::for_carrier(d, mean))
        .collect()
}

fn udp_recv_loop(
    shard: usize,
    sock: UdpSocket,
    tx: mpsc::Sender<Event>,
    stop: Arc<AtomicBool>,
    inflight: Arc<Vec<AtomicU64>>,
) {
    let mut buf = [0u8; MAX_UDP_QUERY];
    while !stop.load(Ordering::SeqCst) {
        match sock.recv_from(&mut buf) {
            Ok((n, peer)) => {
                let event = Event::Udp {
                    shard,
                    peer,
                    data: buf[..n].to_vec(),
                };
                inflight[shard].fetch_add(1, Ordering::SeqCst);
                if tx.send(event).is_err() {
                    break;
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => break,
        }
    }
}

fn tcp_accept_loop(
    shard: usize,
    listener: TcpListener,
    tx: mpsc::Sender<Event>,
    stop: Arc<AtomicBool>,
    inflight: Arc<Vec<AtomicU64>>,
    guards: Arc<TcpGuards>,
) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let ctx = tx.clone();
                let cstop = Arc::clone(&stop);
                let cinflight = Arc::clone(&inflight);
                let cguards = Arc::clone(&guards);
                // One thread per connection: TCP queries are rare (TC
                // retries and chaos probes), so this stays tiny under
                // soak — and the per-connection defenses below bound how
                // long a hostile peer can hold its thread.
                std::thread::spawn(move || {
                    tcp_conn_loop(shard, stream, ctx, cstop, cinflight, cguards)
                });
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(_) => break,
        }
    }
}

fn tcp_conn_loop(
    shard: usize,
    mut stream: TcpStream,
    tx: mpsc::Sender<Event>,
    stop: Arc<AtomicBool>,
    inflight: Arc<Vec<AtomicU64>>,
    guards: Arc<TcpGuards>,
) {
    if stream.set_read_timeout(Some(TCP_READ_POLL)).is_err()
        || stream.set_write_timeout(Some(FRAME_DEADLINE)).is_err()
    {
        return;
    }
    let mut buf = Vec::new();
    let mut chunk = [0u8; 2048];
    let clock = WallClock::new();
    let mut last_progress = clock.now_us();
    while !stop.load(Ordering::SeqCst) {
        // Bounded pipelining: a peer may not buffer more backlog than
        // MAX_CONN_BUF unserved bytes.
        if buf.len() > MAX_CONN_BUF {
            guards.flood.fetch_add(1, Ordering::SeqCst);
            return;
        }
        // Frame-size cap, enforced from the length prefix alone so an
        // oversized declaration is evicted before its body is buffered.
        if buf.len() >= 2 {
            let declared = u16::from_be_bytes([buf[0], buf[1]]) as usize;
            if declared > MAX_TCP_FRAME {
                guards.oversized.fetch_add(1, Ordering::SeqCst);
                return;
            }
        }
        // Serve every complete frame currently buffered.
        loop {
            match split_frame(&buf) {
                Ok(Some((payload, consumed))) => {
                    let data = payload.to_vec();
                    buf.drain(..consumed);
                    let (rtx, rrx) = mpsc::channel();
                    inflight[shard].fetch_add(1, Ordering::SeqCst);
                    if tx
                        .send(Event::Tcp {
                            shard,
                            data,
                            reply: rtx,
                        })
                        .is_err()
                    {
                        return;
                    }
                    let Ok(reply) = rrx.recv() else { return };
                    // An empty reply marks a typed drop (stray response,
                    // sub-header frame): close, like a resolver dropping
                    // a garbage stream. FORMERR/NOTIMP/REFUSED are real
                    // replies and keep the connection open.
                    if reply.is_empty() {
                        return;
                    }
                    let Ok(framed) = frame(&reply) else { return };
                    match stream.write_all(&framed) {
                        Ok(()) => {}
                        Err(e)
                            if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
                        {
                            guards.flood.fetch_add(1, Ordering::SeqCst);
                            return;
                        }
                        Err(_) => return,
                    }
                    last_progress = clock.now_us();
                }
                Ok(None) => break,
                // Unrecoverable framing (zero-length prefix): drop the
                // connection, mirroring the sim relay's typed rejection.
                Err(_) => {
                    guards.bad_frame.fetch_add(1, Ordering::SeqCst);
                    return;
                }
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // client closed
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                last_progress = clock.now_us();
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                let quiet = Duration::from_micros(clock.now_us() - last_progress);
                if !buf.is_empty() && quiet >= FRAME_DEADLINE {
                    // Slowloris: a partial frame this stale never
                    // completes honestly.
                    guards.slow_read.fetch_add(1, Ordering::SeqCst);
                    return;
                }
                if buf.is_empty() && quiet >= TCP_IDLE_TIMEOUT {
                    guards.idle.fetch_add(1, Ordering::SeqCst);
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// Per-event bridge bookkeeping shared between the live loop and the
/// drain phase.
struct BridgeState {
    core: ServeCore,
    udp_socks: Vec<UdpSocket>,
    admission: Admission,
    clock: WallClock,
    answered: Arc<AtomicU64>,
    inflight: Arc<Vec<AtomicU64>>,
    errors: u64,
    rejected: u64,
    shed: u64,
}

impl BridgeState {
    /// Serves one event end to end: classification, admission, core
    /// handling, and the wire write.
    fn serve(&mut self, event: Event) {
        let (shard, data, via): (usize, Vec<u8>, Via) = match event {
            Event::Udp { shard, peer, data } => (shard, data, Via::Udp(peer)),
            Event::Tcp { shard, data, reply } => (shard, data, Via::Tcp(reply)),
            Event::Shutdown => return,
        };
        // This event is leaving the queue; the load() below therefore
        // reads the backlog *including* this event.
        let depth = self
            .inflight
            .get(shard)
            .map(|g| g.fetch_sub(1, Ordering::SeqCst))
            .unwrap_or(0);

        // Admission applies only to well-formed queries: rejects are
        // answered from the pure path at negligible cost, so garbage
        // cannot burn the tokens that meter real sim work.
        let class = classify(&data);
        if class == WireClass::WellFormed {
            if let Verdict::Shed(reason) = self.admission.admit(shard, self.clock.now_us(), depth) {
                self.shed += 1;
                self.core
                    .registry
                    .inc("serve.shed", &[("reason", reason.label())]);
                if let Some(refused) = control_reply(&data, Rcode::Refused) {
                    self.send(shard, via, refused);
                }
                return;
            }
        }

        let transport = match via {
            Via::Udp(_) => Transport::Udp,
            Via::Tcp(_) => Transport::Tcp,
        };
        match self.core.handle(shard, transport, &data) {
            Served::Reply(bytes) => {
                // The verdict, plus the one reject it cannot see: a query
                // that passes the precheck but fails the full decode earns
                // a header-only FORMERR. Sim replies echo the question, so
                // they are never header-only.
                if matches!(class, WireClass::Reject(_)) || bytes.len() == 12 {
                    self.rejected += 1;
                } else {
                    self.answered.fetch_add(1, Ordering::SeqCst);
                }
                self.send(shard, via, bytes);
            }
            Served::Drop(_) => {
                self.errors += 1;
                // For TCP, an empty reply tells the conn thread to close.
                if let Via::Tcp(reply) = via {
                    let _ = reply.send(Vec::new());
                }
            }
        }
    }

    fn send(&self, shard: usize, via: Via, bytes: Vec<u8>) {
        match via {
            Via::Udp(peer) => {
                if let Some(sock) = self.udp_socks.get(shard) {
                    let _ = sock.send_to(&bytes, peer);
                }
            }
            Via::Tcp(reply) => {
                let _ = reply.send(bytes);
            }
        }
    }
}

enum Via {
    Udp(SocketAddr),
    Tcp(mpsc::Sender<Vec<u8>>),
}

fn bridge_loop(
    core: ServeCore,
    udp_socks: Vec<UdpSocket>,
    rx: mpsc::Receiver<Event>,
    stop: Arc<AtomicBool>,
    answered: Arc<AtomicU64>,
    inflight: Arc<Vec<AtomicU64>>,
    admission: Admission,
) -> ServeReport {
    let mut state = BridgeState {
        core,
        udp_socks,
        admission,
        clock: WallClock::new(),
        answered,
        inflight,
        errors: 0,
        rejected: 0,
        shed: 0,
    };
    loop {
        match rx.recv_timeout(POLL) {
            Ok(Event::Shutdown) => break,
            Ok(event) => state.serve(event),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    // Graceful drain: keep serving whatever was already enqueued (or is
    // still being finished by live TCP connection threads) until the
    // channel goes quiet or the hard deadline passes. In-flight queries
    // complete; nothing is silently dropped.
    let drained = drain_remaining(&mut state, &rx);
    if drained > 0 {
        state
            .core
            .registry
            .inc_by("serve.drain_completed", &[], drained);
    }
    ServeReport {
        answered: state.answered.load(Ordering::SeqCst),
        errors: state.errors,
        rejected: state.rejected,
        shed: state.shed,
        drained,
        evicted: 0, // folded in by stop() from the connection guards
        events: state.core.total_events(),
        panicked: false,
        registry: state.core.registry,
    }
}

/// Serves every event still reachable on `rx` until the channel stays
/// quiet for [`DRAIN_POLL`] or [`DRAIN_DEADLINE`] elapses. Returns how
/// many events were served in the drain phase.
fn drain_remaining(state: &mut BridgeState, rx: &mpsc::Receiver<Event>) -> u64 {
    let deadline = state.clock.now_us() + DRAIN_DEADLINE.as_micros() as u64;
    let mut drained = 0u64;
    while state.clock.now_us() < deadline {
        match rx.recv_timeout(DRAIN_POLL) {
            Ok(Event::Shutdown) => continue,
            Ok(event) => {
                state.serve(event);
                drained += 1;
            }
            Err(mpsc::RecvTimeoutError::Timeout) => break,
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    drained
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_serves_everything_already_enqueued() {
        let config = WorldConfig::quick(3);
        let core = ServeCore::new(config.clone());
        let carriers = core.carrier_count();
        let answered = Arc::new(AtomicU64::new(0));
        let inflight: Arc<Vec<AtomicU64>> =
            Arc::new((0..carriers).map(|_| AtomicU64::new(0)).collect());
        let clock = WallClock::new();
        let admission = Admission::new(AdmitConfig::unthrottled(), carriers, clock.now_us());
        let mut state = BridgeState {
            core,
            udp_socks: Vec::new(),
            admission,
            clock,
            answered: Arc::clone(&answered),
            inflight: Arc::clone(&inflight),
            errors: 0,
            rejected: 0,
            shed: 0,
        };

        // Enqueue three TCP queries and a shutdown marker, then drain.
        let (tx, rx) = mpsc::channel::<Event>();
        let mut rxs = Vec::new();
        let wire = {
            let mut q =
                dnswire::builder::QueryBuilder::new(5, "m.yelp.com", dnswire::RecordType::A)
                    .recursion_desired(true)
                    .build()
                    .unwrap();
            q.advertise_udp_size(dnswire::edns::DEFAULT_UDP_PAYLOAD_SIZE);
            q.encode().unwrap()
        };
        for _ in 0..3 {
            let (rtx, rrx) = mpsc::channel();
            inflight[0].fetch_add(1, Ordering::SeqCst);
            tx.send(Event::Tcp {
                shard: 0,
                data: wire.clone(),
                reply: rtx,
            })
            .unwrap();
            rxs.push(rrx);
        }
        tx.send(Event::Shutdown).unwrap();
        drop(tx);

        let drained = drain_remaining(&mut state, &rx);
        assert_eq!(drained, 3, "every enqueued query must be served");
        assert_eq!(answered.load(Ordering::SeqCst), 3);
        for rrx in rxs {
            let reply = rrx.recv().expect("drained reply");
            assert!(!reply.is_empty(), "drained queries still get answers");
        }
    }
}

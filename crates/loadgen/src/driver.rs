//! The wire driver: sends scripted queries to a live server over real
//! loopback sockets (one thread per carrier, strictly one exchange in
//! flight per carrier so the server's per-shard injection order is exactly
//! the driver's send order), optionally interleaved with planned chaos,
//! then — in verify mode — replays the recorded transcript into a
//! ground-truth [`ServeCore`] and compares every answer byte-for-byte.
//!
//! The transcript is a flat per-carrier sequence of *exchanges*: every
//! datagram or TCP frame that reached the server's bridge, scripted or
//! chaos, in send order. Verification walks it with one rule: a
//! header-only REFUSED ([`serve::is_shed_reply`]) was shed by the front
//! end before touching the sim, so it is skipped; every other exchange is
//! replayed through [`ServeCore::handle`] and, when a reply was captured,
//! must match byte-for-byte. TCP connections the server *evicts*
//! (oversized frames, stalled writers) never produce an exchange at all —
//! the defense fires before the bridge sees anything.

use dnssim::{frame, require_frame};
use dnswire::message::Message;
use obs::Registry;
use serve::{
    classify, is_shed_reply, Clock, Endpoints, ServeCore, Transport, WallClock, WireClass,
};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{TcpStream, UdpSocket};
use std::time::Duration;

use crate::chaos::{plan_carrier, ChaosAction, ChaosProfile};
use crate::script::Script;

/// How long the driver waits for a UDP answer before resending. Generous:
/// the bridge serves carriers round-robin and a sim resolution can take a
/// few hundred microseconds of host work.
const WIRE_TIMEOUT: Duration = Duration::from_secs(5);
/// Resends of one query before the run is declared wedged.
const MAX_SENDS: u32 = 3;
/// How long the driver waits on replies owed to chaos traffic. Shorter
/// than [`WIRE_TIMEOUT`]: chaos is opportunistic, and a missing reply is
/// counted, not retried.
const CHAOS_TIMEOUT: Duration = Duration::from_secs(3);
/// A scripted query answered with a shed marker is retried (the overload
/// is transient — a flood draining) up to this many times.
const MAX_SHED_RETRIES: u32 = 50;
/// Pause between shed retries, letting the carrier's backlog drain.
const SHED_BACKOFF: Duration = Duration::from_millis(2);
/// How long an evicted TCP probe waits for the server to close it.
const EVICT_WAIT: Duration = Duration::from_secs(4);
/// Pause after each chunk of a split TCP query: long enough that the
/// server reads the frame in pieces, far inside its progress deadline
/// (`serve::FRAME_DEADLINE`, 1 s), so the split costs the soak little
/// wall time.
const SPLIT_GAP: Duration = Duration::from_millis(3);

/// Driver knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct DriverConfig {
    /// Total target queries/second across all carriers (None = flat out).
    pub qps: Option<u64>,
    /// Replay the transcript into a ground-truth core and compare.
    pub verify: bool,
    /// Wire-chaos profile interleaved with the scripted mix.
    pub chaos: ChaosProfile,
}

/// One wire exchange that reached the server's bridge: the exact bytes
/// sent, the transport, and the reply captured (None = timed out, or a
/// typed silent drop the driver predicted via [`classify`]).
#[derive(Debug, Clone)]
struct Exchange {
    wire: Vec<u8>,
    transport: Transport,
    reply: Option<Vec<u8>>,
}

/// Per-scripted-query summary (latency/outcome accounting; the exchanges
/// themselves live in the flat transcript).
#[derive(Debug, Clone)]
struct ScriptOutcome {
    /// Sends that got no reply before [`WIRE_TIMEOUT`].
    timeouts: u32,
    /// Final answer arrived (shed markers don't count).
    answered: bool,
    /// The UDP answer was truncated and retried over TCP.
    tc_retry: bool,
    /// First send → final answer, wall micros.
    latency_us: u64,
    /// Rcode label of the final answer, `"timeout"`, or `"shed"`.
    label: &'static str,
}

/// Everything one carrier thread recorded.
#[derive(Debug, Default)]
struct CarrierLog {
    exchanges: Vec<Exchange>,
    scripted: Vec<ScriptOutcome>,
    chaos_injected: BTreeMap<&'static str, u64>,
    shed_replies: u64,
    shed_retries: u64,
    evictions_observed: u64,
    chaos_unanswered: u64,
}

/// Aggregated results of a run.
#[derive(Debug)]
pub struct RunStats {
    /// Wire sends that reached the bridge (scripted sends, TC retries,
    /// and chaos datagrams/frames; evicted TCP probes are not counted —
    /// the front end ate them).
    pub sent: u64,
    /// Scripted queries that got a final answer.
    pub answered: u64,
    /// TC-bit answers retried over TCP.
    pub tc_retries: u64,
    /// UDP sends that timed out on the wire.
    pub wire_timeouts: u64,
    /// Ground-truth mismatches (0 unless `verify`; any nonzero is a bug).
    pub mismatches: u64,
    /// Chaos actions injected, total.
    pub chaos_injected: u64,
    /// Header-only REFUSED markers observed (front-end shedding).
    pub shed_replies: u64,
    /// Scripted queries resent because their first answer was a shed.
    pub shed_retries: u64,
    /// Hostile TCP probes the server evicted (connection closed without
    /// an answer — the defense working).
    pub evictions_observed: u64,
    /// Chaos sends owed a reply that never got one.
    pub chaos_unanswered: u64,
    /// Wire rcode taxonomy (`noerror`, `servfail`, ...) plus `timeout`.
    pub outcomes: BTreeMap<String, u64>,
    /// Wall-clock round-trip latencies, micros, in completion order.
    pub latencies_us: Vec<u64>,
    /// Wall seconds the wire phase took.
    pub wall_secs: f64,
    /// Host-side counters mirroring the fields above (profile export).
    pub registry: Registry,
}

impl RunStats {
    /// Achieved queries/second over the wire phase.
    pub fn qps(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.answered as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    /// The `p`-th percentile latency in micros (sorts a copy).
    pub fn latency_percentile_us(&self, p: u64) -> u64 {
        if self.latencies_us.is_empty() {
            return 0;
        }
        let mut sorted = self.latencies_us.clone();
        sorted.sort_unstable();
        let idx = ((sorted.len() as u64 - 1) * p / 100) as usize;
        sorted[idx]
    }
}

/// Drives `script` against the server at `eps`. With `cfg.verify`, builds
/// a ground-truth [`ServeCore`] from `eps.config` and replays the wire
/// transcript into it, counting byte mismatches.
pub fn run(eps: &Endpoints, script: &Script, cfg: &DriverConfig) -> std::io::Result<RunStats> {
    let clock = WallClock::new();
    let carriers = eps.carriers.len().max(1) as u64;
    let per_carrier_qps = cfg.qps.map(|q| (q / carriers).max(1));

    let start_us = clock.now_us();
    let mut logs: Vec<CarrierLog> = Vec::new();
    std::thread::scope(|scope| -> std::io::Result<()> {
        let mut handles = Vec::new();
        for (shard, queries) in script.per_carrier.iter().enumerate() {
            let ep = &eps.carriers[shard];
            let clock_ref = &clock;
            let plan = plan_carrier(cfg.chaos, eps.config.seed, shard, queries);
            handles.push(
                scope.spawn(move || drive_carrier(ep, queries, &plan, per_carrier_qps, clock_ref)),
            );
        }
        for h in handles {
            match h.join() {
                Ok(Ok(t)) => logs.push(t),
                Ok(Err(e)) => return Err(e),
                Err(_) => return Err(std::io::Error::other("carrier driver thread panicked")),
            }
        }
        Ok(())
    })?;
    let wall_secs = (clock.now_us() - start_us) as f64 / 1e6;

    // Aggregate the wire view.
    let mut stats = RunStats {
        sent: 0,
        answered: 0,
        tc_retries: 0,
        wire_timeouts: 0,
        mismatches: 0,
        chaos_injected: 0,
        shed_replies: 0,
        shed_retries: 0,
        evictions_observed: 0,
        chaos_unanswered: 0,
        outcomes: BTreeMap::new(),
        latencies_us: Vec::new(),
        wall_secs,
        registry: Registry::default(),
    };
    let mut chaos_kinds: BTreeMap<&'static str, u64> = BTreeMap::new();
    for log in &logs {
        stats.sent += log.exchanges.len() as u64;
        stats.shed_replies += log.shed_replies;
        stats.shed_retries += log.shed_retries;
        stats.evictions_observed += log.evictions_observed;
        stats.chaos_unanswered += log.chaos_unanswered;
        for (&kind, &n) in &log.chaos_injected {
            stats.chaos_injected += n;
            *chaos_kinds.entry(kind).or_insert(0) += n;
        }
        for out in &log.scripted {
            stats.wire_timeouts += out.timeouts as u64;
            if out.tc_retry {
                stats.tc_retries += 1;
            }
            if out.answered {
                stats.answered += 1;
                stats.latencies_us.push(out.latency_us);
            }
            *stats.outcomes.entry(out.label.to_string()).or_insert(0) += 1;
        }
    }

    if cfg.verify {
        stats.mismatches = verify(eps, &logs);
    }

    let reg = &mut stats.registry;
    reg.inc_by("loadgen.sent", &[], stats.sent);
    reg.inc_by("loadgen.answered", &[], stats.answered);
    reg.inc_by("loadgen.tc_retries", &[], stats.tc_retries);
    reg.inc_by("loadgen.wire_timeouts", &[], stats.wire_timeouts);
    reg.inc_by("loadgen.mismatches", &[], stats.mismatches);
    for (kind, n) in chaos_kinds {
        reg.inc_by("loadgen.chaos_injected", &[("kind", kind)], n);
    }
    if stats.shed_retries > 0 {
        reg.inc_by("loadgen.shed_retries", &[], stats.shed_retries);
    }
    for &us in &stats.latencies_us {
        reg.observe_us("loadgen.latency_us", &[], us);
    }
    Ok(stats)
}

fn rcode_label(m: &Message) -> &'static str {
    use dnswire::message::Rcode;
    match m.header.rcode {
        Rcode::NoError => "noerror",
        Rcode::ServFail => "servfail",
        Rcode::NxDomain => "nxdomain",
        Rcode::Refused => "refused",
        _ => "other",
    }
}

/// One carrier's wire loop: strictly one exchange in flight, so the
/// server's per-shard injection order is exactly this thread's send
/// order — chaos included.
fn drive_carrier(
    ep: &serve::CarrierEndpoint,
    queries: &[crate::script::PlannedQuery],
    plan: &[Vec<ChaosAction>],
    qps: Option<u64>,
    clock: &WallClock,
) -> std::io::Result<CarrierLog> {
    let sock = UdpSocket::bind("127.0.0.1:0")?;
    sock.connect(ep.udp)?;
    sock.set_read_timeout(Some(WIRE_TIMEOUT))?;
    let mut buf = [0u8; 65_535];
    let mut log = CarrierLog::default();
    let epoch = clock.now_us();
    for (i, q) in queries.iter().enumerate() {
        for action in plan.get(i).map(Vec::as_slice).unwrap_or(&[]) {
            *log.chaos_injected.entry(action.kind()).or_insert(0) += 1;
            run_chaos(action, ep, &sock, &mut buf, &mut log)?;
        }
        if let Some(rate) = qps {
            clock.sleep_until(epoch + i as u64 * 1_000_000 / rate);
        }
        let sent_at = clock.now_us();
        let mut outcome = ScriptOutcome {
            timeouts: 0,
            answered: false,
            tc_retry: false,
            latency_us: 0,
            label: "timeout",
        };
        let mut retries = 0u32;
        let udp_reply = loop {
            let reply = udp_exchange(&sock, &mut buf, &q.wire, q.id, WIRE_TIMEOUT, &mut log)?;
            match &reply {
                None => {
                    outcome.timeouts += 1;
                    if outcome.timeouts >= MAX_SENDS {
                        break None;
                    }
                }
                Some(bytes) if is_shed_reply(bytes) => {
                    // Admission shed us: transient by construction (a
                    // flood draining) — back off briefly and retry.
                    log.shed_replies += 1;
                    if retries >= MAX_SHED_RETRIES {
                        outcome.label = "shed";
                        break None;
                    }
                    retries += 1;
                    log.shed_retries += 1;
                    std::thread::sleep(SHED_BACKOFF);
                }
                Some(_) => break reply,
            }
        };
        // TC bit set → retry the identical query over TCP, like a stub.
        let truncated = udp_reply
            .as_ref()
            .and_then(|b| Message::decode(b).ok())
            .is_some_and(|m| m.header.flags.truncated);
        let tcp_reply = if truncated {
            outcome.tc_retry = true;
            let r = tcp_retry(ep, &q.wire).ok();
            log.exchanges.push(Exchange {
                wire: q.wire.clone(),
                transport: Transport::Tcp,
                reply: r.clone(),
            });
            r
        } else {
            None
        };
        if let Some(bytes) = tcp_reply.as_ref().or(udp_reply.as_ref()) {
            outcome.answered = true;
            outcome.latency_us = clock.now_us() - sent_at;
            outcome.label = match Message::decode(bytes) {
                Ok(m) => rcode_label(&m),
                Err(_) => "undecodable",
            };
        }
        log.scripted.push(outcome);
    }
    Ok(log)
}

/// Sends `wire` once on `sock` and waits up to `timeout` for a reply
/// whose transaction id matches, discarding stale datagrams. Records the
/// exchange (reply included) in `log` and returns the reply.
fn udp_exchange(
    sock: &UdpSocket,
    buf: &mut [u8],
    wire: &[u8],
    id: u16,
    timeout: Duration,
    log: &mut CarrierLog,
) -> std::io::Result<Option<Vec<u8>>> {
    sock.set_read_timeout(Some(timeout))?;
    sock.send(wire)?;
    let mut reply = None;
    loop {
        match sock.recv(buf) {
            Ok(n) => {
                let id_matches =
                    dnswire::message::MessageView::new(&buf[..n]).is_ok_and(|v| v.id() == id);
                if id_matches {
                    reply = Some(buf[..n].to_vec());
                    break;
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                break;
            }
            Err(e) => return Err(e),
        }
    }
    log.exchanges.push(Exchange {
        wire: wire.to_vec(),
        transport: Transport::Udp,
        reply: reply.clone(),
    });
    Ok(reply)
}

/// Executes one chaos action, recording whatever reached the bridge.
fn run_chaos(
    action: &ChaosAction,
    ep: &serve::CarrierEndpoint,
    sock: &UdpSocket,
    buf: &mut [u8],
    log: &mut CarrierLog,
) -> std::io::Result<()> {
    match action {
        ChaosAction::UdpGarbage(bytes) | ChaosAction::UdpMutant(bytes) => {
            // The same pure classifier the server uses tells us whether
            // a reply is owed; Silent inputs are sent and forgotten.
            match classify(bytes) {
                WireClass::Silent(_) => {
                    sock.send(bytes)?;
                    log.exchanges.push(Exchange {
                        wire: bytes.clone(),
                        transport: Transport::Udp,
                        reply: None,
                    });
                }
                WireClass::Reject(_) | WireClass::WellFormed => {
                    let id = u16::from_be_bytes([bytes[0], bytes[1]]);
                    let got = udp_exchange(sock, buf, bytes, id, CHAOS_TIMEOUT, log)?;
                    if got.is_none() {
                        log.chaos_unanswered += 1;
                    } else if got.as_deref().is_some_and(is_shed_reply) {
                        log.shed_replies += 1;
                    }
                }
            }
        }
        ChaosAction::UdpFlood { wire, copies } => {
            let id = u16::from_be_bytes([wire[0], wire[1]]);
            for _ in 0..*copies {
                sock.send(wire)?;
            }
            // Every copy gets a reply — a sim answer if admitted, a
            // header-only REFUSED if shed. The bridge serves this shard
            // sequentially and loopback preserves datagram order, so
            // arrival order is processing order.
            sock.set_read_timeout(Some(CHAOS_TIMEOUT))?;
            let mut replies: Vec<Vec<u8>> = Vec::with_capacity(*copies);
            while replies.len() < *copies {
                match sock.recv(buf) {
                    Ok(n) => {
                        let id_matches = dnswire::message::MessageView::new(&buf[..n])
                            .is_ok_and(|v| v.id() == id);
                        if id_matches {
                            replies.push(buf[..n].to_vec());
                        }
                    }
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) =>
                    {
                        break;
                    }
                    Err(e) => return Err(e),
                }
            }
            log.chaos_unanswered += (*copies - replies.len()) as u64;
            log.shed_replies += replies.iter().filter(|r| is_shed_reply(r)).count() as u64;
            let mut it = replies.into_iter();
            for _ in 0..*copies {
                log.exchanges.push(Exchange {
                    wire: wire.clone(),
                    transport: Transport::Udp,
                    reply: it.next(),
                });
            }
        }
        ChaosAction::TcpOversized => {
            // Declare a frame over the server's cap; the server must
            // close the connection without reading the body.
            if expect_eviction(ep, &[0xFF, 0xFF, 0x00, 0x00, 0x00])? {
                log.evictions_observed += 1;
            }
        }
        ChaosAction::TcpStall => {
            // A partial frame followed by silence: the slow-read
            // deadline must evict us.
            if expect_eviction(ep, &[0x00, 0x40, 0xAB])? {
                log.evictions_observed += 1;
            }
        }
        ChaosAction::TcpSplit(wire) => {
            let reply = tcp_split_exchange(ep, wire).ok();
            if reply.is_none() {
                log.chaos_unanswered += 1;
            }
            log.exchanges.push(Exchange {
                wire: wire.clone(),
                transport: Transport::Tcp,
                reply,
            });
        }
    }
    Ok(())
}

/// Opens a TCP connection, sends `poison`, and waits for the server to
/// close it. Returns true when the close arrives in time (the eviction
/// defense fired). These bytes never reach the bridge, so no exchange is
/// recorded.
fn expect_eviction(ep: &serve::CarrierEndpoint, poison: &[u8]) -> std::io::Result<bool> {
    let mut stream = TcpStream::connect(ep.tcp)?;
    stream.set_read_timeout(Some(EVICT_WAIT))?;
    stream.write_all(poison)?;
    let mut chunk = [0u8; 256];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(true), // server closed us: evicted
            Ok(_) => {}               // unexpected bytes; keep draining
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return Ok(false);
            }
            // A reset is also a close from our point of view.
            Err(_) => return Ok(true),
        }
    }
}

/// Sends one framed query dribbled in small chunks, [`SPLIT_GAP`] apart,
/// and reads the framed answer.
fn tcp_split_exchange(ep: &serve::CarrierEndpoint, wire: &[u8]) -> std::io::Result<Vec<u8>> {
    let mut stream = TcpStream::connect(ep.tcp)?;
    stream.set_read_timeout(Some(CHAOS_TIMEOUT))?;
    // Each chunk leaves as its own segment rather than waiting on Nagle.
    stream.set_nodelay(true)?;
    let framed = frame(wire).map_err(std::io::Error::other)?;
    let step = (framed.len() / 3).max(1);
    for chunk in framed.chunks(step) {
        stream.write_all(chunk)?;
        std::thread::sleep(SPLIT_GAP);
    }
    read_frame(&mut stream)
}

/// One length-prefixed query/answer exchange over a fresh TCP connection.
fn tcp_retry(ep: &serve::CarrierEndpoint, wire: &[u8]) -> std::io::Result<Vec<u8>> {
    let mut stream = TcpStream::connect(ep.tcp)?;
    stream.set_read_timeout(Some(WIRE_TIMEOUT))?;
    let framed = frame(wire).map_err(std::io::Error::other)?;
    stream.write_all(&framed)?;
    read_frame(&mut stream)
}

fn read_frame(stream: &mut TcpStream) -> std::io::Result<Vec<u8>> {
    let mut data = Vec::new();
    let mut chunk = [0u8; 2048];
    loop {
        match require_frame(&data) {
            Ok(payload) => return Ok(payload.to_vec()),
            Err(_) => {
                let n = stream.read(&mut chunk)?;
                if n == 0 {
                    return Err(std::io::Error::other("server closed mid-frame"));
                }
                data.extend_from_slice(&chunk[..n]);
            }
        }
    }
}

/// Replays the wire transcript into a fresh ground-truth core and counts
/// byte mismatches. One rule covers scripted and chaos traffic alike:
///
/// * a shed marker (header-only REFUSED) never reached the sim — skip;
/// * everything else is replayed via [`ServeCore::handle`] in transcript
///   order, and whenever a reply was captured on the wire it must equal
///   the truth core's answer byte-for-byte (replies the wire lost are
///   replayed for state but not compared, matching the server, which
///   still processed them).
fn verify(eps: &Endpoints, logs: &[CarrierLog]) -> u64 {
    let mut truth = ServeCore::new(eps.config.clone());
    let mut mismatches = 0u64;
    for (shard, log) in logs.iter().enumerate() {
        for ex in &log.exchanges {
            if ex.reply.as_deref().is_some_and(is_shed_reply) {
                continue;
            }
            let expected = truth.handle(shard, ex.transport, &ex.wire).into_reply();
            if let Some(got) = &ex.reply {
                if expected.as_ref() != Some(got) {
                    mismatches += 1;
                }
            }
        }
    }
    mismatches
}

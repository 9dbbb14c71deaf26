//! Client-side DNS driver: issue a query from a node, run the engine until
//! the response arrives, and report timing — the primitive every experiment
//! in the measurement suite builds on.
//!
//! Two retry disciplines coexist:
//!
//! * the **classic** fixed three-attempt ladder (the seed behaviour, kept
//!   byte-for-byte so fault-free campaigns replay unchanged), and
//! * a **hardened** path for hostile networks: exponential backoff with
//!   seed-derived jitter, TCP fallback on truncated answers, and failover
//!   to the next configured resolver — all under one overall deadline that
//!   no attempt schedule may overrun.
//!
//! The classic ladder and the TCP-only lookup are byte-level exchanges
//! ([`exchange`], [`exchange_tcp`]): they accept a reply on its header and
//! hand back its bytes, which the serving plane answers with as they are
//! and [`resolve_with`] / [`resolve_tcp`] decode once.
//!
//! Every resolution is classified into a typed [`Outcome`] so failed
//! experiments are counted, not silently dropped.

use crate::authority::DNS_PORT;
use crate::tcp::{frame, require_frame, DNS_TCP_PORT};
use dnswire::builder::encode_stub_query;
use dnswire::message::{Message, MessageView, Rcode};
use dnswire::name::DnsName;
use dnswire::rdata::RecordType;
use netsim::engine::{FlowResult, Network};
use netsim::tcplite::TcpFailure;
use netsim::time::{SimDuration, SimTime};
use netsim::topo::NodeId;
use rand::Rng;
use std::net::Ipv4Addr;

/// Default client-side resolution timeout (total, across retries,
/// backoff, TCP fallback, and failover).
pub const QUERY_TIMEOUT: SimDuration = SimDuration::from_secs(5);

/// Per-attempt timeouts of the classic stub resolver: like a phone's
/// resolver it retries lost queries with backoff (radio links drop
/// packets). The ladder sums to exactly [`QUERY_TIMEOUT`]; the boundary
/// test below keeps it that way.
const ATTEMPT_TIMEOUTS: [SimDuration; 3] = [
    SimDuration::from_secs(1),
    SimDuration::from_secs(2),
    SimDuration::from_secs(2),
];

/// First-attempt timeout of the hardened exponential ladder; attempt `k`
/// waits `BASE << k`, clamped to the remaining deadline.
const HARDENED_BASE_TIMEOUT: SimDuration = SimDuration::from_secs(1);
/// Base backoff pause before retry `k` (`BASE << (k-1)`, jittered).
const HARDENED_BACKOFF_BASE: SimDuration = SimDuration::from_millis(500);
/// Exponent cap for both ladders (beyond this they stay flat).
const HARDENED_MAX_SHIFT: u32 = 2;
/// UDP attempts per resolver on the hardened path; kept low so the
/// deadline leaves room to fail over.
const HARDENED_ATTEMPTS: u32 = 2;
/// Smallest remaining budget worth launching another attempt for.
const MIN_ATTEMPT_BUDGET: SimDuration = SimDuration::from_millis(50);

/// How a resolution concluded. `Ok`, `TruncatedRecovered`, and
/// `FailedOver` carry an answer; the rest are failures, counted the way
/// the paper counts its 8.1M resolutions instead of silently dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Outcome {
    /// The queried resolver answered over UDP.
    #[default]
    Ok,
    /// The UDP answer was truncated; the TCP retry recovered it.
    TruncatedRecovered,
    /// The queried resolver failed but a fallback resolver answered.
    FailedOver,
    /// Every path ended in SERVFAIL.
    ServFail,
    /// The resolver address was unreachable (ICMP error back).
    Unreachable,
    /// Every attempt timed out inside the overall deadline.
    Timeout,
}

impl Outcome {
    /// Every outcome, in canonical (CSV/report) order.
    pub const ALL: [Outcome; 6] = [
        Outcome::Ok,
        Outcome::TruncatedRecovered,
        Outcome::FailedOver,
        Outcome::ServFail,
        Outcome::Unreachable,
        Outcome::Timeout,
    ];

    /// Stable lowercase label used in CSV exports and reports.
    pub fn label(self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::TruncatedRecovered => "truncated-recovered",
            Outcome::FailedOver => "failed-over",
            Outcome::ServFail => "servfail",
            Outcome::Unreachable => "unreachable",
            Outcome::Timeout => "timeout",
        }
    }

    /// Whether the lookup produced a usable answer (possibly degraded).
    pub fn answered(self) -> bool {
        matches!(
            self,
            Outcome::Ok | Outcome::TruncatedRecovered | Outcome::FailedOver
        )
    }
}

/// What the stub resolver is allowed to do when the network misbehaves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientPolicy {
    /// The seed behaviour: the fixed `[1s, 2s, 2s]` ladder, no pauses, no
    /// TCP, no failover. Runs byte-identically to the pre-fault-injection
    /// client.
    Classic,
    /// The hardened path: exponential backoff with jitter, TCP fallback on
    /// truncation, and failover through `fallbacks`.
    Hardened {
        /// Resolvers to fail over to, in order, after the primary is spent.
        fallbacks: Vec<Ipv4Addr>,
    },
}

impl ClientPolicy {
    /// [`ClientPolicy::Classic`].
    pub fn classic() -> Self {
        ClientPolicy::Classic
    }

    /// [`ClientPolicy::Hardened`] failing over through `fallbacks`.
    pub fn hardened(fallbacks: Vec<Ipv4Addr>) -> Self {
        ClientPolicy::Hardened { fallbacks }
    }
}

/// The outcome of one client resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnsLookup {
    /// When the query was sent.
    pub sent_at: SimTime,
    /// Resolution time (send to response), `None` on timeout.
    pub elapsed: Option<SimDuration>,
    /// Decoded response, when one arrived and parsed.
    pub response: Option<Message>,
    /// How the resolution concluded.
    pub outcome: Outcome,
}

impl DnsLookup {
    /// Whether a usable NOERROR answer arrived.
    pub fn ok(&self) -> bool {
        self.response
            .as_ref()
            .map(|m| m.header.rcode == Rcode::NoError)
            .unwrap_or(false)
    }

    /// A-record addresses in the answer, in order.
    pub fn addrs(&self) -> Vec<Ipv4Addr> {
        self.response
            .as_ref()
            .map(|m| m.answer_addrs())
            .unwrap_or_default()
    }
}

/// Timeout granted to hardened attempt `k`: `BASE << k`, capped, and
/// clamped so the attempt never outlives the overall deadline.
fn attempt_timeout(attempt: u32, remaining: SimDuration) -> SimDuration {
    let base = HARDENED_BASE_TIMEOUT * (1u64 << attempt.min(HARDENED_MAX_SHIFT));
    base.min(remaining)
}

/// Backoff pause before hardened retry `k` (zero before the first
/// attempt): `BASE << (k-1)` scaled by `jitter_x1000/1000` (the caller
/// draws jitter in `[500, 1000)` from the seeded stream), clamped to the
/// remaining deadline.
fn backoff_pause(attempt: u32, jitter_x1000: u64, remaining: SimDuration) -> SimDuration {
    if attempt == 0 {
        return SimDuration::ZERO;
    }
    let base = HARDENED_BACKOFF_BASE * (1u64 << (attempt - 1).min(HARDENED_MAX_SHIFT));
    let jittered = SimDuration::from_micros(base.as_micros() * jitter_x1000 / 1_000);
    jittered.min(remaining)
}

/// One lookup's reply as the sim carried it, undecoded: the bytes the
/// serving plane answers with, and what [`resolve_with`] and
/// [`resolve_tcp`] decode into a [`DnsLookup`]. Every in-sim payload is
/// [`Message::encode`] output, so decoding `reply` and encoding it again
/// gives the same bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawLookup {
    /// When the query was sent.
    pub sent_at: SimTime,
    /// Resolution time (send to response), `None` when no reply came.
    pub elapsed: Option<SimDuration>,
    /// The accepted reply, still carrying the sim's transaction id.
    pub reply: Option<Vec<u8>>,
    /// How the resolution concluded, read from the reply's header.
    pub outcome: Outcome,
}

impl RawLookup {
    /// A lookup that got no reply.
    fn failed(sent_at: SimTime, outcome: Outcome) -> Self {
        RawLookup {
            sent_at,
            elapsed: None,
            reply: None,
            outcome,
        }
    }

    /// A lookup answered with `reply` at `now`.
    fn answered(sent_at: SimTime, now: SimTime, reply: Vec<u8>) -> Self {
        let servfail = MessageView::new(&reply).is_ok_and(|v| v.rcode() == Rcode::ServFail);
        RawLookup {
            sent_at,
            elapsed: Some(now.since(sent_at)),
            reply: Some(reply),
            outcome: if servfail {
                Outcome::ServFail
            } else {
                Outcome::Ok
            },
        }
    }

    /// Decodes the reply into a [`DnsLookup`].
    fn decode(self) -> DnsLookup {
        DnsLookup {
            sent_at: self.sent_at,
            elapsed: self.elapsed,
            response: self.reply.and_then(|b| Message::decode(&b).ok()),
            outcome: self.outcome,
        }
    }
}

/// Whether `reply` is the answer to query `id`: the zero-copy header peek
/// that rejects spoofed or garbled responses without a full decode.
fn accepts(reply: &[u8], id: u16) -> bool {
    let ok = MessageView::new(reply).is_ok_and(|v| v.id() == id);
    debug_assert!(
        !ok || Message::decode(reply).is_ok(),
        "an accepted in-sim reply must decode"
    );
    ok
}

/// Encodes one query, advertising the standard EDNS size.
fn encode_query(id: u16, qname: &DnsName, qtype: RecordType) -> Vec<u8> {
    encode_stub_query(id, qname, qtype, dnswire::edns::DEFAULT_UDP_PAYLOAD_SIZE)
}

/// Issues one A-record lookup from `node` against `resolver` with the
/// classic policy and runs the simulation until it completes.
pub fn resolve(
    net: &mut Network,
    node: NodeId,
    resolver: Ipv4Addr,
    qname: &DnsName,
    qtype: RecordType,
) -> DnsLookup {
    resolve_with(net, node, resolver, qname, qtype, &ClientPolicy::classic())
}

/// Issues one lookup under the given [`ClientPolicy`].
pub fn resolve_with(
    net: &mut Network,
    node: NodeId,
    resolver: Ipv4Addr,
    qname: &DnsName,
    qtype: RecordType,
    policy: &ClientPolicy,
) -> DnsLookup {
    match policy {
        ClientPolicy::Classic => exchange(net, node, resolver, qname, qtype).decode(),
        ClientPolicy::Hardened { fallbacks } => {
            resolve_hardened(net, node, resolver, qname, qtype, fallbacks)
        }
    }
}

/// The classic ladder as one byte-level exchange, unchanged so fault-free
/// campaigns replay byte-identically: one id draw per attempt, no pauses,
/// no fallback. The first reply whose header carries the query's id ends
/// it; its bytes come back undecoded.
pub fn exchange(
    net: &mut Network,
    node: NodeId,
    resolver: Ipv4Addr,
    qname: &DnsName,
    qtype: RecordType,
) -> RawLookup {
    let sent_at = net.now();
    for timeout in ATTEMPT_TIMEOUTS {
        let id: u16 = net.rng().gen();
        let payload = encode_query(id, qname, qtype);
        let flow = net.udp_request(node, resolver, DNS_PORT, payload, timeout);
        let outcome = net.run_until(flow);
        if let FlowResult::Response { payload, .. } = outcome.result {
            if accepts(&payload, id) {
                // Resolution time is measured from the *first* attempt, as
                // the phone's stub resolver experiences it.
                return RawLookup::answered(sent_at, outcome.completed_at, payload);
            }
        }
    }
    RawLookup::failed(sent_at, Outcome::Timeout)
}

/// The hardened loop: exponential backoff with seed-derived jitter, TCP
/// fallback on truncation, failover through `fallbacks` — all
/// inside one [`QUERY_TIMEOUT`] deadline.
fn resolve_hardened(
    net: &mut Network,
    node: NodeId,
    resolver: Ipv4Addr,
    qname: &DnsName,
    qtype: RecordType,
    fallbacks: &[Ipv4Addr],
) -> DnsLookup {
    let sent_at = net.now();
    let deadline = sent_at + QUERY_TIMEOUT;
    let mut response = None;
    let mut elapsed = None;
    let mut answered_via: Option<usize> = None;
    let mut recovered_via_tcp = false;
    let mut last_servfail: Option<(Message, SimDuration)> = None;
    let mut saw_unreachable = false;
    let chain: Vec<Ipv4Addr> = std::iter::once(resolver)
        .chain(fallbacks.iter().copied())
        .collect();
    'chain: for (ri, &raddr) in chain.iter().enumerate() {
        for attempt in 0..HARDENED_ATTEMPTS {
            if attempt > 0 {
                let jitter: u64 = net.rng().gen_range(500..1_000);
                let pause = backoff_pause(attempt, jitter, deadline.since(net.now()));
                if pause > SimDuration::ZERO {
                    let resume = net.now() + pause;
                    net.skip_to(resume);
                }
            }
            let remaining = deadline.since(net.now());
            if remaining < MIN_ATTEMPT_BUDGET {
                break 'chain;
            }
            let timeout = attempt_timeout(attempt, remaining);
            let id: u16 = net.rng().gen();
            let payload = encode_query(id, qname, qtype);
            let flow = net.udp_request(node, raddr, DNS_PORT, payload, timeout);
            let flow_outcome = net.run_until(flow);
            match flow_outcome.result {
                FlowResult::Response { payload, .. } => {
                    // Same zero-copy id precheck as the classic loop.
                    if !accepts(&payload, id) {
                        continue; // spoofed or garbled: retry
                    }
                    let Ok(msg) = Message::decode(&payload) else {
                        continue; // garbled past the header: retry
                    };
                    if msg.header.flags.truncated {
                        let full = resolve_over_tcp(net, node, raddr, qname, qtype, deadline)
                            .and_then(|b| Message::decode(&b).map_err(|_| None));
                        match full {
                            Ok(full) => {
                                elapsed = Some(net.now().since(sent_at));
                                response = Some(full);
                                answered_via = Some(ri);
                                recovered_via_tcp = true;
                                break 'chain;
                            }
                            // An active refusal will not heal: fail over.
                            Err(Some(TcpFailure::Refused | TcpFailure::Reset)) => {
                                continue 'chain;
                            }
                            // Lost in transit: keep trying UDP.
                            Err(_) => {}
                        }
                    } else if msg.header.rcode == Rcode::ServFail {
                        last_servfail = Some((msg, flow_outcome.completed_at.since(sent_at)));
                        // Retrying the same broken resolver rarely helps.
                        continue 'chain;
                    } else {
                        elapsed = Some(flow_outcome.completed_at.since(sent_at));
                        response = Some(msg);
                        answered_via = Some(ri);
                        break 'chain;
                    }
                }
                FlowResult::Unreachable { .. } => {
                    saw_unreachable = true;
                    continue 'chain;
                }
                // Timed out (or a stray ICMP): next attempt.
                _ => {}
            }
        }
    }
    let outcome = match answered_via {
        Some(0) if recovered_via_tcp => Outcome::TruncatedRecovered,
        Some(0) => Outcome::Ok,
        Some(_) => Outcome::FailedOver,
        None if last_servfail.is_some() => Outcome::ServFail,
        None if saw_unreachable => Outcome::Unreachable,
        None => Outcome::Timeout,
    };
    if answered_via.is_none() {
        if let Some((msg, at)) = last_servfail {
            response = Some(msg);
            elapsed = Some(at);
        }
    }
    DnsLookup {
        sent_at,
        elapsed,
        response,
        outcome,
    }
}

/// Retries a truncated lookup over TCP (RFC 1035 §4.2.2 framing) against
/// the same resolver address, bounded by the overall `deadline`. Returns
/// the full answer's bytes, or the typed TCP failure when the connection
/// died.
fn resolve_over_tcp(
    net: &mut Network,
    node: NodeId,
    resolver: Ipv4Addr,
    qname: &DnsName,
    qtype: RecordType,
    deadline: SimTime,
) -> Result<Vec<u8>, Option<TcpFailure>> {
    let remaining = deadline.since(net.now());
    if remaining < MIN_ATTEMPT_BUDGET {
        return Err(None);
    }
    let id: u16 = net.rng().gen();
    let payload = encode_query(id, qname, qtype);
    // Queries are a few dozen bytes; framing cannot fail on them.
    let framed = frame(&payload).map_err(|_| None)?;
    let data = net
        .tcp_fetch(node, resolver, DNS_TCP_PORT, framed, deadline, |o, data| {
            if o.success {
                Ok(data.to_vec())
            } else {
                Err(o.failure)
            }
        })
        .unwrap_or(Err(None))?;
    // The fetch holds the complete stream, so any shortfall is a typed
    // framing error (partial read / zero-length), not a wait state.
    let reply = require_frame(&data).map_err(|_| None)?;
    let untruncated = MessageView::new(reply).is_ok_and(|v| !v.truncated());
    if accepts(reply, id) && untruncated {
        Ok(reply.to_vec())
    } else {
        Err(None)
    }
}

/// Issues one lookup over TCP only (RFC 1035 §4.2.2 framing), with no UDP
/// leg first — the path the serving plane's TCP front end takes when a
/// wire client retries a truncated answer. Bounded by [`QUERY_TIMEOUT`].
pub fn resolve_tcp(
    net: &mut Network,
    node: NodeId,
    resolver: Ipv4Addr,
    qname: &DnsName,
    qtype: RecordType,
) -> DnsLookup {
    exchange_tcp(net, node, resolver, qname, qtype).decode()
}

/// [`resolve_tcp`] as a byte-level exchange: the reply comes back
/// undecoded.
pub fn exchange_tcp(
    net: &mut Network,
    node: NodeId,
    resolver: Ipv4Addr,
    qname: &DnsName,
    qtype: RecordType,
) -> RawLookup {
    let sent_at = net.now();
    let deadline = sent_at + QUERY_TIMEOUT;
    match resolve_over_tcp(net, node, resolver, qname, qtype, deadline) {
        Ok(reply) => RawLookup::answered(sent_at, net.now(), reply),
        Err(Some(TcpFailure::Refused | TcpFailure::Reset)) => {
            RawLookup::failed(sent_at, Outcome::Unreachable)
        }
        Err(_) => RawLookup::failed(sent_at, Outcome::Timeout),
    }
}

/// Issues a whoami probe: a unique nonce label under the probe zone, so no
/// cache can satisfy it and the authoritative server always sees the live
/// external resolver. Returns the discovered external resolver address.
pub fn whoami(
    net: &mut Network,
    node: NodeId,
    resolver: Ipv4Addr,
    probe_zone: &DnsName,
) -> (DnsLookup, Option<Ipv4Addr>) {
    whoami_with(net, node, resolver, probe_zone, &ClientPolicy::classic())
}

/// [`whoami`] under an explicit policy. Failover makes no sense here (a
/// fallback resolver's egress would masquerade as the primary's), so any
/// configured fallbacks are ignored.
pub fn whoami_with(
    net: &mut Network,
    node: NodeId,
    resolver: Ipv4Addr,
    probe_zone: &DnsName,
    policy: &ClientPolicy,
) -> (DnsLookup, Option<Ipv4Addr>) {
    let nonce: u64 = net.rng().gen();
    #[expect(
        clippy::expect_used,
        reason = "the nonce label is fixed-width hex, always a valid DNS label"
    )]
    let qname = probe_zone
        .child(&format!("x{nonce:016x}"))
        .expect("nonce label is valid");
    let lookup = match policy {
        ClientPolicy::Classic => resolve(net, node, resolver, &qname, RecordType::A),
        ClientPolicy::Hardened { .. } => {
            resolve_hardened(net, node, resolver, &qname, RecordType::A, &[])
        }
    };
    let external = lookup.addrs().first().copied();
    (lookup, external)
}

#[cfg(test)]
mod tests {
    // Network-level behaviour is exercised end-to-end in tests/resolution.rs
    // (full hierarchy) and the workspace fault tests; here we pin the
    // deadline arithmetic both ladders must respect.
    use super::*;

    #[test]
    fn classic_ladder_fits_the_deadline_exactly() {
        let total = ATTEMPT_TIMEOUTS
            .iter()
            .fold(SimDuration::ZERO, |acc, &t| acc + t);
        assert_eq!(total, QUERY_TIMEOUT, "ladder must sum to the deadline");
    }

    #[test]
    fn hardened_schedule_never_overruns_the_deadline() {
        // Worst case: every attempt times out and every pause draws the
        // largest jitter. Walk the schedule the way resolve_hardened does
        // and check the granted budget never exceeds QUERY_TIMEOUT.
        for resolvers in 1..=3u32 {
            for jitter in [500u64, 750, 999] {
                let mut remaining = QUERY_TIMEOUT;
                let mut spent = SimDuration::ZERO;
                for _ in 0..resolvers {
                    for attempt in 0..HARDENED_ATTEMPTS {
                        let pause = backoff_pause(attempt, jitter, remaining);
                        spent += pause;
                        remaining = remaining - pause;
                        if remaining < MIN_ATTEMPT_BUDGET {
                            break;
                        }
                        let t = attempt_timeout(attempt, remaining);
                        spent += t;
                        remaining = remaining - t;
                    }
                }
                assert!(
                    spent <= QUERY_TIMEOUT,
                    "schedule overran: spent {spent} of {QUERY_TIMEOUT}"
                );
            }
        }
    }

    #[test]
    fn attempt_timeout_is_exponential_then_clamped() {
        let plenty = SimDuration::from_secs(60);
        assert_eq!(attempt_timeout(0, plenty), SimDuration::from_secs(1));
        assert_eq!(attempt_timeout(1, plenty), SimDuration::from_secs(2));
        assert_eq!(attempt_timeout(2, plenty), SimDuration::from_secs(4));
        // Exponent cap: attempt 5 is no longer than attempt 2.
        assert_eq!(attempt_timeout(5, plenty), SimDuration::from_secs(4));
        // Deadline clamp: the boundary case from the satellite issue.
        let tight = SimDuration::from_millis(120);
        assert_eq!(attempt_timeout(3, tight), tight);
    }

    #[test]
    fn backoff_pause_jitters_and_clamps() {
        let plenty = SimDuration::from_secs(60);
        assert_eq!(backoff_pause(0, 999, plenty), SimDuration::ZERO);
        assert_eq!(
            backoff_pause(1, 1_000, plenty),
            SimDuration::from_millis(500)
        );
        assert_eq!(backoff_pause(1, 500, plenty), SimDuration::from_millis(250));
        assert_eq!(backoff_pause(2, 1_000, plenty), SimDuration::from_secs(1));
        // Clamped to what's left of the deadline.
        let tight = SimDuration::from_millis(10);
        assert_eq!(backoff_pause(3, 999, tight), tight);
    }

    #[test]
    fn outcome_labels_are_stable() {
        let labels: Vec<&str> = Outcome::ALL.iter().map(|o| o.label()).collect();
        assert_eq!(
            labels,
            [
                "ok",
                "truncated-recovered",
                "failed-over",
                "servfail",
                "unreachable",
                "timeout"
            ]
        );
        // Tables indexed by `outcome as usize` keep `ALL`'s column order.
        for (i, o) in Outcome::ALL.iter().enumerate() {
            assert_eq!(*o as usize, i);
        }
        assert!(Outcome::TruncatedRecovered.answered());
        assert!(!Outcome::ServFail.answered());
    }
}

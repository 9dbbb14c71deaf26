//! TCP-lite: a reliable, connection-oriented transport implemented as
//! event-driven state machines over the simulator's datagrams — handshake,
//! MSS segmentation, cumulative ACKs, go-back-N retransmission with a
//! bounded RTO, and FIN teardown.
//!
//! There is one machine per side. [`TcpFetch`] is the client.
//! [`TcpServer`] is the server: it moves every connection's bytes, and a
//! [`ServerApp`] decides what a connection answers — a page
//! ([`TcpHttpServer`]) or a relayed DNS answer (`dnssim::tcp`).
//!
//! This is what makes the suite's HTTP time-to-first-byte honest: TTFB
//! costs a real three-way handshake plus the request round trip, transfers
//! survive radio loss through retransmission, and total fetch time grows
//! with page size.

use crate::engine::{Egress, ServiceCtx, UdpService};
use crate::time::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Segment flag: synchronize (connection open).
pub const SYN: u8 = 0x01;
/// Segment flag: acknowledgment field is valid.
pub const ACK: u8 = 0x02;
/// Segment flag: finish (sender is done).
pub const FIN: u8 = 0x04;
/// Segment flag: reset.
pub const RST: u8 = 0x08;

/// Maximum segment size for data.
pub const MSS: usize = 1400;
/// Send window in segments (go-back-N).
const WINDOW: usize = 10;
/// Retransmission timeout.
const RTO: SimDuration = SimDuration::from_millis(250);
/// Retransmission attempts before giving up.
const MAX_RETRIES: u32 = 6;

/// One TCP-lite segment (the simulator's UDP payload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Flag bits.
    pub flags: u8,
    /// Sequence number of the first data byte (SYN/FIN consume one).
    pub seq: u32,
    /// Cumulative acknowledgment (next byte expected).
    pub ack: u32,
    /// Payload bytes.
    pub data: Vec<u8>,
}

impl Segment {
    /// Serializes to datagram bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(9 + self.data.len());
        out.push(self.flags);
        out.extend_from_slice(&self.seq.to_be_bytes());
        out.extend_from_slice(&self.ack.to_be_bytes());
        out.extend_from_slice(&self.data);
        out
    }

    /// Parses from datagram bytes.
    pub fn decode(bytes: &[u8]) -> Option<Segment> {
        if bytes.len() < 9 {
            return None;
        }
        Some(Segment {
            flags: bytes[0],
            seq: u32::from_be_bytes([bytes[1], bytes[2], bytes[3], bytes[4]]),
            ack: u32::from_be_bytes([bytes[5], bytes[6], bytes[7], bytes[8]]),
            data: bytes[9..].to_vec(),
        })
    }

    /// A control segment with no payload.
    pub fn ctl(flags: u8, seq: u32, ack: u32) -> Segment {
        Segment {
            flags,
            seq,
            ack,
            data: Vec::new(),
        }
    }
}

fn reply(to: Ipv4Addr, to_port: u16, seg: &Segment, delay: SimDuration) -> Egress {
    Egress::reply(to, to_port, seg.encode(), delay)
}

/// Statistics of a TCP-lite endpoint.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct TcpStats {
    /// Connections accepted/opened.
    pub connections: u64,
    /// Data segments sent (first transmissions).
    pub segments_sent: u64,
    /// Segments retransmitted.
    pub retransmits: u64,
    /// Connections aborted (out of retries, or reset or aborted for the app).
    pub aborts: u64,
}

/// A server-side connection's key: the peer's address and port.
pub type ConnKey = (Ipv4Addr, u16);

/// What a [`ServerApp`] makes of a connection's request bytes so far.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Nothing to answer yet: acknowledge the bytes and keep reading.
    Ack,
    /// The whole response, its first byte leaving after the delay. Its
    /// first segment acknowledges the request, so no bare ACK is sent.
    Respond(Vec<u8>, SimDuration),
    /// The stream can never make sense: acknowledge, then reset.
    Reset,
}

/// The application on top of a [`TcpServer`]. The machine moves every
/// connection's bytes; the app decides what a connection answers.
pub trait ServerApp: Send {
    /// Per-connection application state.
    type Conn: Send;

    /// A connection opened (its first SYN arrived) at `now`.
    fn open(&mut self, now: SimTime) -> Self::Conn;

    /// New in-order request bytes on a connection that has no response
    /// yet. Datagrams pushed onto `out` leave after the machine's
    /// acknowledgement of these bytes.
    fn on_data(
        &mut self,
        ctx: &mut ServiceCtx<'_>,
        key: ConnKey,
        conn: &mut Self::Conn,
        data: &[u8],
        out: &mut Vec<Egress>,
    ) -> Reply;

    /// A connection is gone: torn down, reset by either side, or aborted.
    fn on_close(&mut self, _conn: Self::Conn) {}

    /// The app's earliest deadline; the machine wakes for it too.
    fn next_deadline(&self) -> Option<SimTime> {
        None
    }
}

#[derive(Debug, PartialEq, Eq)]
enum ServerConnState {
    SynRcvd,
    Established,
    /// Response fully sent, FIN sent, waiting for its ACK.
    FinWait,
}

#[derive(Debug)]
struct ServerConn<C> {
    state: ServerConnState,
    peer: ConnKey,
    /// The local address the SYN was sent to; every segment leaves from it.
    /// On an anycast VIP a tick's `local_addr` is the node's primary
    /// address, and the peer would drop a retransmission sent from there.
    local: Ipv4Addr,
    /// Next sequence number we have *made available* to send.
    next_seq: u32,
    /// First unacknowledged sequence number.
    send_base: u32,
    /// Next byte expected from the peer.
    peer_next: u32,
    /// The full response once the app has produced it.
    response: Option<Vec<u8>>,
    /// Retransmission state.
    rto_at: Option<SimTime>,
    retries: u32,
    app: C,
}

/// The data segment of `response` that starts at sequence `seq` (sequence
/// 1 is the first response byte; 0 was the SYN).
fn data_segment(response: &[u8], seq: u32, ack: u32) -> Segment {
    let start = (seq - 1) as usize;
    let end = (start + MSS).min(response.len());
    Segment {
        flags: ACK,
        seq,
        ack,
        data: response[start..end].to_vec(),
    }
}

impl<C> ServerConn<C> {
    fn send(&self, seg: &Segment, delay: SimDuration) -> Egress {
        reply(self.peer.0, self.peer.1, seg, delay).from_addr(self.local)
    }

    /// Emits up to a window of unsent data segments, then the FIN once all
    /// data is out.
    fn pump(&mut self, now: SimTime, delay: SimDuration, stats: &mut TcpStats) -> Vec<Egress> {
        let mut out = Vec::new();
        let Some(response) = &self.response else {
            return out;
        };
        let total = response.len() as u32;
        while self.next_seq - 1 < total && (self.next_seq - self.send_base) as usize <= WINDOW * MSS
        {
            let seg = data_segment(response, self.next_seq, self.peer_next);
            self.next_seq += seg.data.len() as u32;
            stats.segments_sent += 1;
            out.push(self.send(&seg, delay));
        }
        if self.next_seq > total && self.state == ServerConnState::Established {
            let fin = Segment::ctl(FIN | ACK, self.next_seq, self.peer_next);
            self.next_seq += 1;
            self.state = ServerConnState::FinWait;
            out.push(self.send(&fin, delay));
        }
        if self.rto_at.is_none() && self.send_base < self.next_seq {
            self.rto_at = Some(now + RTO);
        }
        out
    }

    /// Retransmits up to a window from `send_base` (go-back-N).
    fn retransmit(&mut self, now: SimTime, stats: &mut TcpStats) -> Vec<Egress> {
        self.retries += 1;
        self.rto_at = Some(now + RTO);
        let mut segs = Vec::new();
        if self.state == ServerConnState::SynRcvd {
            segs.push(Segment::ctl(SYN | ACK, 0, self.peer_next));
        } else if let Some(response) = &self.response {
            let total = response.len() as u32;
            let mut seq = self.send_base.max(1);
            while seq - 1 < total && segs.len() < WINDOW {
                segs.push(data_segment(response, seq, self.peer_next));
                seq += segs[segs.len() - 1].data.len() as u32;
            }
            if self.state == ServerConnState::FinWait && seq > total {
                segs.push(Segment::ctl(FIN | ACK, seq, self.peer_next));
            }
        }
        stats.retransmits += segs.len() as u64;
        segs.iter()
            .map(|seg| self.send(seg, SimDuration::ZERO))
            .collect()
    }
}

/// The server side of TCP-lite, one machine for every [`ServerApp`]:
/// SYN/SYN-ACK, cumulative ACKs, the windowed pump, go-back-N
/// retransmission, FIN teardown, abort after `MAX_RETRIES`, RST for an
/// unknown peer, and each connection's source address pinned at SYN time.
#[derive(Debug)]
pub struct TcpServer<A: ServerApp> {
    /// The application.
    pub app: A,
    conns: BTreeMap<ConnKey, ServerConn<A::Conn>>,
    /// Endpoint statistics.
    pub stats: TcpStats,
}

impl<A: ServerApp + Default> Default for TcpServer<A> {
    fn default() -> Self {
        TcpServer {
            app: A::default(),
            conns: BTreeMap::new(),
            stats: TcpStats::default(),
        }
    }
}

impl<A: ServerApp> TcpServer<A> {
    /// Hands a connection its whole response and sends what the window
    /// allows.
    pub fn respond(&mut self, key: ConnKey, response: Vec<u8>, now: SimTime) -> Vec<Egress> {
        let Some(conn) = self.conns.get_mut(&key) else {
            return Vec::new();
        };
        conn.response = Some(response);
        conn.pump(now, SimDuration::ZERO, &mut self.stats)
    }

    /// Resets a connection: an RST to the peer, and the state is dropped.
    pub fn reset(&mut self, key: ConnKey, out: &mut Vec<Egress>) {
        if let Some(conn) = self.conns.get(&key) {
            let rst = Segment::ctl(RST, conn.next_seq, conn.peer_next);
            out.push(conn.send(&rst, SimDuration::ZERO));
        }
        self.abort(key);
    }

    /// Drops a connection without a word to the peer.
    pub fn abort(&mut self, key: ConnKey) {
        if let Some(conn) = self.conns.remove(&key) {
            self.stats.aborts += 1;
            self.app.on_close(conn.app);
        }
    }

    /// The app state of a live connection.
    pub fn conn_mut(&mut self, key: ConnKey) -> Option<&mut A::Conn> {
        self.conns.get_mut(&key).map(|c| &mut c.app)
    }

    /// Requests a tick at the earliest retransmission timeout or app
    /// deadline.
    pub fn arm(&self, ctx: &mut ServiceCtx<'_>) {
        let rto = self.conns.values().filter_map(|c| c.rto_at).min();
        if let Some(at) = rto.into_iter().chain(self.app.next_deadline()).min() {
            ctx.wake_at(at);
        }
    }

    /// Drops a finished connection and hands its state back to the app.
    fn close(&mut self, key: ConnKey) {
        if let Some(conn) = self.conns.remove(&key) {
            self.app.on_close(conn.app);
        }
    }
}

impl<A: ServerApp> UdpService for TcpServer<A> {
    /// Runs one client segment through the machine.
    fn handle(
        &mut self,
        ctx: &mut ServiceCtx<'_>,
        from: Ipv4Addr,
        from_port: u16,
        payload: &[u8],
    ) -> Vec<Egress> {
        let mut out = Vec::new();
        let Some(seg) = Segment::decode(payload) else {
            return out;
        };
        let key = (from, from_port);
        if seg.flags & RST != 0 {
            self.close(key);
            return out;
        }
        if seg.flags & SYN != 0 {
            // New (or retransmitted) connection request.
            let conn = self.conns.entry(key).or_insert_with(|| {
                self.stats.connections += 1;
                ServerConn {
                    state: ServerConnState::SynRcvd,
                    peer: key,
                    local: ctx.local_addr,
                    next_seq: 1,
                    send_base: 1,
                    peer_next: seg.seq + 1,
                    response: None,
                    rto_at: Some(ctx.now + RTO),
                    retries: 0,
                    app: self.app.open(ctx.now),
                }
            });
            let syn_ack = Segment::ctl(SYN | ACK, 0, conn.peer_next);
            out.push(conn.send(&syn_ack, SimDuration::ZERO));
            self.arm(ctx);
            return out;
        }
        let Some(conn) = self.conns.get_mut(&key) else {
            // No state for this peer: active refusal.
            let rst = Segment::ctl(RST, 0, seg.seq);
            out.push(reply(from, from_port, &rst, SimDuration::ZERO));
            return out;
        };
        if seg.flags & ACK != 0 && seg.ack > conn.send_base {
            conn.send_base = seg.ack;
            conn.retries = 0;
            conn.rto_at = None;
        }
        if seg.flags & ACK != 0 && conn.state == ServerConnState::SynRcvd {
            conn.state = ServerConnState::Established;
        }
        // Teardown complete?
        if conn.state == ServerConnState::FinWait && conn.send_base >= conn.next_seq {
            self.close(key);
            self.arm(ctx);
            return out;
        }
        let mut delay = SimDuration::ZERO;
        if !seg.data.is_empty() {
            let mut reply = Reply::Ack;
            if seg.seq == conn.peer_next {
                conn.peer_next += seg.data.len() as u32;
                if conn.response.is_none() {
                    reply = self
                        .app
                        .on_data(ctx, key, &mut conn.app, &seg.data, &mut out);
                }
            }
            if let Reply::Respond(response, think) = reply {
                conn.response = Some(response);
                delay = think;
            } else {
                // Ack what we have (duplicates and reordering included),
                // ahead of anything the app sent.
                let ack = Segment::ctl(ACK, conn.next_seq, conn.peer_next);
                out.insert(0, conn.send(&ack, SimDuration::ZERO));
                if reply == Reply::Reset {
                    self.reset(key, &mut out);
                    self.arm(ctx);
                    return out;
                }
            }
        }
        // The window may have opened.
        out.extend(conn.pump(ctx.now, delay, &mut self.stats));
        self.arm(ctx);
        out
    }

    /// Retransmits every connection whose RTO is due and aborts those out
    /// of retries.
    fn tick(&mut self, ctx: &mut ServiceCtx<'_>) -> Vec<Egress> {
        let mut out = Vec::new();
        let mut dead = Vec::new();
        for (&key, conn) in self.conns.iter_mut() {
            if conn.rto_at.is_some_and(|at| at <= ctx.now) {
                if conn.retries >= MAX_RETRIES {
                    dead.push(key);
                } else {
                    out.extend(conn.retransmit(ctx.now, &mut self.stats));
                }
            }
        }
        for key in dead {
            self.abort(key);
        }
        self.arm(ctx);
        out
    }
}

/// A TCP-lite HTTP server: completes the handshake, waits for a request
/// line, and serves a page of `page_size` bytes after `service_time`.
pub type TcpHttpServer = TcpServer<HttpPage>;

impl TcpHttpServer {
    /// A server with the given page size and think time.
    pub fn new(page_size: usize, service_time: SimDuration) -> Self {
        TcpServer {
            app: HttpPage {
                size: page_size,
                service_time,
            },
            conns: BTreeMap::new(),
            stats: TcpStats::default(),
        }
    }
}

/// [`TcpHttpServer`]'s app: the same page for every `GET`.
#[derive(Debug)]
pub struct HttpPage {
    size: usize,
    /// Server think-time before the first byte.
    service_time: SimDuration,
}

impl ServerApp for HttpPage {
    type Conn = ();

    fn open(&mut self, _now: SimTime) {}

    fn on_data(
        &mut self,
        _ctx: &mut ServiceCtx<'_>,
        _key: ConnKey,
        _conn: &mut (),
        data: &[u8],
        _out: &mut Vec<Egress>,
    ) -> Reply {
        if !data.starts_with(b"GET") {
            return Reply::Ack;
        }
        // Deterministic filler; the first bytes leave after the think time.
        Reply::Respond(vec![b'x'; self.size], self.service_time)
    }
}

/// Why a TCP-lite fetch failed. Distinguishing an active refusal from
/// silent loss matters to callers with a failover choice to make: a reset
/// connection will not heal by retrying, a lossy path might.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TcpFailure {
    /// The server answered our SYN with RST: nothing is listening.
    Refused,
    /// The established connection was torn down by an RST mid-stream.
    Reset,
    /// Retransmissions were exhausted without a response: the path (or
    /// peer) silently ate our segments.
    Lost,
}

/// Outcome of a TCP-lite fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpFetchOutcome {
    /// Whether the full page arrived.
    pub success: bool,
    /// Typed failure reason when `success` is false.
    pub failure: Option<TcpFailure>,
    /// Handshake completion time.
    pub connected_at: Option<SimTime>,
    /// First response byte arrival (the paper's TTFB endpoint).
    pub first_byte_at: Option<SimTime>,
    /// Transfer completion.
    pub done_at: Option<SimTime>,
    /// Response bytes received in order.
    pub bytes: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FetchState {
    Idle,
    SynSent,
    Requesting,
    Receiving,
    Done,
}

/// Client-side fetch state machine: registered on an ephemeral port,
/// kicked once, then driven entirely by segments and timer ticks.
#[derive(Debug)]
pub struct TcpFetch {
    server: Ipv4Addr,
    server_port: u16,
    request: Vec<u8>,
    state: FetchState,
    started: Option<SimTime>,
    peer_next: u32,
    bytes: usize,
    retries: u32,
    rto_at: Option<SimTime>,
    /// Response bytes accepted in order (what `bytes` counts).
    pub data: Vec<u8>,
    /// Filled when the fetch finishes (success or abort).
    pub outcome: Option<TcpFetchOutcome>,
    connected_at: Option<SimTime>,
    first_byte_at: Option<SimTime>,
    /// Endpoint statistics.
    pub stats: TcpStats,
}

impl TcpFetch {
    /// A fetch of `request` from `server:server_port`.
    pub fn new(server: Ipv4Addr, server_port: u16, request: Vec<u8>) -> Self {
        TcpFetch {
            server,
            server_port,
            request,
            state: FetchState::Idle,
            started: None,
            peer_next: 0,
            bytes: 0,
            retries: 0,
            rto_at: None,
            data: Vec::new(),
            outcome: None,
            connected_at: None,
            first_byte_at: None,
            stats: TcpStats::default(),
        }
    }

    fn send(&self, seg: &Segment) -> Egress {
        reply(self.server, self.server_port, seg, SimDuration::ZERO)
    }

    fn send_request(&mut self) -> Egress {
        let seg = Segment {
            flags: ACK,
            seq: 1,
            ack: self.peer_next,
            data: self.request.clone(),
        };
        self.stats.segments_sent += 1;
        self.send(&seg)
    }

    /// An ACK of everything received so far.
    fn send_ack(&self) -> Egress {
        self.send(&Segment::ctl(
            ACK,
            1 + self.request.len() as u32,
            self.peer_next,
        ))
    }

    fn finish(&mut self, failure: Option<TcpFailure>, now: SimTime) {
        if self.outcome.is_none() {
            let success = failure.is_none();
            self.outcome = Some(TcpFetchOutcome {
                success,
                failure,
                connected_at: self.connected_at,
                first_byte_at: self.first_byte_at,
                done_at: success.then_some(now),
                bytes: self.bytes,
            });
            if !success {
                self.stats.aborts += 1;
            }
            self.state = FetchState::Done;
            self.rto_at = None;
        }
    }

    fn arm(&self, ctx: &mut ServiceCtx<'_>) {
        if let Some(at) = self.rto_at {
            ctx.wake_at(at);
        }
    }
}

impl UdpService for TcpFetch {
    fn handle(
        &mut self,
        ctx: &mut ServiceCtx<'_>,
        from: Ipv4Addr,
        _from_port: u16,
        payload: &[u8],
    ) -> Vec<Egress> {
        let mut out = Vec::new();
        if from != self.server || self.state == FetchState::Done {
            return out;
        }
        let Some(seg) = Segment::decode(payload) else {
            return out;
        };
        if seg.flags & RST != 0 {
            let failure = if self.state == FetchState::SynSent {
                TcpFailure::Refused
            } else {
                TcpFailure::Reset
            };
            self.finish(Some(failure), ctx.now);
            return out;
        }
        match self.state {
            FetchState::SynSent if seg.flags & (SYN | ACK) == SYN | ACK => {
                self.connected_at = Some(ctx.now);
                self.peer_next = seg.seq + 1;
                self.state = FetchState::Requesting;
                self.retries = 0;
                out.push(self.send_request());
                self.rto_at = Some(ctx.now + RTO);
            }
            FetchState::Requesting | FetchState::Receiving => {
                // Server ack of our request moves us to Receiving.
                if seg.flags & ACK != 0 && seg.ack > 1 {
                    self.state = FetchState::Receiving;
                    self.rto_at = None;
                }
                if !seg.data.is_empty() {
                    self.state = FetchState::Receiving;
                    self.rto_at = None;
                    if seg.seq == self.peer_next {
                        if self.first_byte_at.is_none() {
                            self.first_byte_at = Some(ctx.now);
                        }
                        self.peer_next += seg.data.len() as u32;
                        self.bytes += seg.data.len();
                        self.data.extend_from_slice(&seg.data);
                    }
                    out.push(self.send_ack());
                }
                if seg.flags & FIN != 0 && seg.seq == self.peer_next {
                    // Server is done; ack the FIN and finish.
                    self.peer_next += 1;
                    out.push(self.send_ack());
                    self.finish(None, ctx.now);
                }
            }
            _ => {}
        }
        self.arm(ctx);
        out
    }

    fn tick(&mut self, ctx: &mut ServiceCtx<'_>) -> Vec<Egress> {
        let mut out = Vec::new();
        match self.state {
            FetchState::Idle => {
                self.started = Some(ctx.now);
                self.state = FetchState::SynSent;
                self.stats.connections += 1;
                out.push(self.send(&Segment::ctl(SYN, 0, 0)));
                self.rto_at = Some(ctx.now + RTO);
            }
            FetchState::SynSent | FetchState::Requesting => {
                if let Some(at) = self.rto_at {
                    if at <= ctx.now {
                        if self.retries >= MAX_RETRIES {
                            self.finish(Some(TcpFailure::Lost), ctx.now);
                        } else {
                            self.retries += 1;
                            self.stats.retransmits += 1;
                            out.push(if self.state == FetchState::SynSent {
                                self.send(&Segment::ctl(SYN, 0, 0))
                            } else {
                                self.send_request()
                            });
                            self.rto_at = Some(ctx.now + RTO);
                        }
                    }
                }
            }
            // Receiving: the server's RTO drives recovery; nothing to do.
            _ => {}
        }
        self.arm(ctx);
        out
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_roundtrip() {
        let seg = Segment {
            flags: SYN | ACK,
            seq: 0xDEADBEEF,
            ack: 42,
            data: vec![1, 2, 3],
        };
        assert_eq!(Segment::decode(&seg.encode()), Some(seg));
        assert_eq!(Segment::decode(&[1, 2]), None);
    }

    // End-to-end connection behaviour is exercised in tests/tcp.rs over a
    // real simulated network (including lossy links). The tests below drive
    // the server machine directly, the way the engine would.

    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const VIP: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 80);
    const PRIMARY: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);
    const PEER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);

    /// Runs one service call at `ms` with `local` as the local address;
    /// returns its egress and the requested wake-up.
    fn call(
        ms: u64,
        local: Ipv4Addr,
        f: impl FnOnce(&mut ServiceCtx<'_>) -> Vec<Egress>,
    ) -> (Vec<Egress>, Option<SimDuration>) {
        let mut rng = StdRng::seed_from_u64(0);
        let now = SimTime::from_micros(ms * 1_000);
        let mut ctx = ServiceCtx::new(now, local, &mut rng);
        let out = f(&mut ctx);
        (out, ctx.wake().map(|at| at.since(now)))
    }

    fn seg(flags: u8, seq: u32, ack: u32, data: &[u8]) -> Vec<u8> {
        Segment {
            flags,
            seq,
            ack,
            data: data.to_vec(),
        }
        .encode()
    }

    fn flags(out: &[Egress]) -> Vec<u8> {
        out.iter()
            .map(|e| Segment::decode(&e.payload).unwrap().flags)
            .collect()
    }

    #[test]
    fn every_segment_leaves_from_the_address_the_syn_was_sent_to() {
        let mut server = TcpHttpServer::new(3_000, SimDuration::from_millis(5));
        let (out, wake) = call(0, VIP, |ctx| {
            server.handle(ctx, PEER, 4_000, &seg(SYN, 0, 0, &[]))
        });
        assert_eq!(flags(&out), [SYN | ACK]);
        assert_eq!(out[0].src_addr, Some(VIP));
        assert_eq!(wake, Some(RTO));
        // The SYN-ACK is lost; the tick runs on the node's primary address.
        let (out, _) = call(250, PRIMARY, |ctx| server.tick(ctx));
        assert_eq!(flags(&out), [SYN | ACK]);
        assert_eq!(out[0].src_addr, Some(VIP));
        // The GET starts the response after the think time, with no bare ACK.
        let get = seg(ACK, 1, 1, b"GET / HTTP/1.0\r\n\r\n");
        let (out, _) = call(300, VIP, |ctx| server.handle(ctx, PEER, 4_000, &get));
        assert_eq!(flags(&out), [ACK, ACK, ACK, FIN | ACK]);
        assert!(out
            .iter()
            .all(|e| e.src_addr == Some(VIP) && e.delay == SimDuration::from_millis(5)));
        // All of it is lost: go-back-N resends it from the VIP.
        let (out, _) = call(500, PRIMARY, |ctx| server.tick(ctx));
        assert_eq!(flags(&out), [ACK, ACK, ACK, FIN | ACK]);
        assert!(out.iter().all(|e| e.src_addr == Some(VIP)));
        assert_eq!(server.stats.segments_sent, 3);
        assert_eq!(server.stats.retransmits, 5);
    }

    #[test]
    fn connection_aborts_after_max_retries() {
        let mut server = TcpHttpServer::new(1_000, SimDuration::ZERO);
        call(0, PRIMARY, |ctx| {
            server.handle(ctx, PEER, 4_000, &seg(SYN, 0, 0, &[]))
        });
        for k in 1..=u64::from(MAX_RETRIES) {
            let (out, wake) = call(250 * k, PRIMARY, |ctx| server.tick(ctx));
            assert_eq!(flags(&out), [SYN | ACK], "retransmit {k}");
            assert_eq!(wake, Some(RTO));
        }
        let (out, wake) = call(250 * (u64::from(MAX_RETRIES) + 1), PRIMARY, |ctx| {
            server.tick(ctx)
        });
        assert!(out.is_empty());
        assert_eq!(wake, None, "nothing left to wake for");
        assert_eq!(server.stats.aborts, 1);
        assert_eq!(server.stats.retransmits, u64::from(MAX_RETRIES));
        // The peer's late request meets no state: RST.
        let get = seg(ACK, 1, 1, b"GET /");
        let (out, _) = call(2_000, PRIMARY, |ctx| server.handle(ctx, PEER, 4_000, &get));
        assert_eq!(flags(&out), [RST]);
    }

    #[test]
    fn wake_at_never_asks_for_less_than_a_millisecond() {
        let (_, wake) = call(10, PRIMARY, |ctx| {
            ctx.wake_at(SimTime::from_micros(10_200));
            Vec::new()
        });
        assert_eq!(wake, Some(SimDuration::from_millis(1)));
        let (_, wake) = call(10, PRIMARY, |ctx| {
            ctx.wake_at(SimTime::from_micros(5_000));
            Vec::new()
        });
        assert_eq!(wake, Some(SimDuration::from_millis(1)), "already due");
        let (_, wake) = call(10, PRIMARY, |ctx| {
            ctx.wake_at(SimTime::from_micros(260_000));
            Vec::new()
        });
        assert_eq!(wake, Some(RTO));
    }
}

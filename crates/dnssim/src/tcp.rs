//! DNS-over-TCP front end: an app on `netsim::tcplite`'s server machine
//! that accepts a length-prefixed query (RFC 1035 §4.2.2 framing), relays
//! it over UDP to the DNS service on its own node, and streams the answer
//! back over the connection.
//!
//! This is the server half of the stub resolver's TC-bit fallback: when a
//! UDP answer comes back truncated, the client reconnects over TCP to the
//! *same* address it queried, so every client-facing resolver node (carrier
//! forwarders, public DNS sites) registers one of these next to its UDP
//! service. The relayed query advertises the maximum EDNS payload size —
//! TCP has no 512-byte problem — which also exempts it from forced
//! truncation faults.
//!
//! Registering the service is free: it emits no events until a client
//! actually connects, so worlds built without fault injection are
//! byte-identical to worlds that never load this module.

use crate::authority::DNS_PORT;
use crate::txn::TxnTable;
use dnswire::message::{patch_id, Message, MessageView};
use netsim::engine::{Egress, ServiceCtx, UdpService};
use netsim::tcplite::{ConnKey, Reply, ServerApp, TcpServer};
use netsim::time::{SimDuration, SimTime};
use std::net::Ipv4Addr;

/// Well-known port of the DNS-over-TCP front end (the simulator keeps TCP
/// and UDP service ports in one namespace, so TCP/53 gets its own number).
pub const DNS_TCP_PORT: u16 = 10_053;

/// Largest DNS payload a length-prefixed frame may carry: the two-byte
/// length field's ceiling (RFC 1035 §4.2.2). Read paths can never see a
/// prefix above this — the field cannot express one — so the cap bites on
/// the *build* side, where an oversized encode must be rejected rather
/// than silently wrapped modulo 65536.
pub const MAX_FRAME_LEN: usize = u16::MAX as usize;

/// Why a length-prefixed TCP frame was rejected. Every framing decision
/// the serve path and the sim relay share goes through the helpers below,
/// so a malformed stream surfaces as one of these instead of a silent
/// truncation or a connection that hangs until its relay deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The prefix claims a zero-length DNS message: meaningless, and a
    /// stream position that could never make progress.
    ZeroLength,
    /// The message is larger than the two-byte prefix can describe.
    Oversized {
        /// Actual payload length.
        len: usize,
        /// The ceiling it violated ([`MAX_FRAME_LEN`]).
        max: usize,
    },
    /// The buffer ends before the claimed frame does — a partial read.
    /// Streaming callers treat this state as "wait for more bytes" (via
    /// [`split_frame`]'s `Ok(None)`); one-shot callers holding a finished
    /// stream get this error from [`require_frame`].
    Partial {
        /// Bytes available.
        have: usize,
        /// Bytes the complete frame requires (prefix included).
        need: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::ZeroLength => write!(f, "zero-length DNS frame"),
            FrameError::Oversized { len, max } => {
                write!(
                    f,
                    "DNS frame of {len} bytes exceeds the {max}-byte prefix ceiling"
                )
            }
            FrameError::Partial { have, need } => {
                write!(f, "partial DNS frame: have {have} of {need} bytes")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Wraps an encoded DNS message in RFC 1035 §4.2.2 length-prefix framing.
pub fn frame(msg: &[u8]) -> Result<Vec<u8>, FrameError> {
    if msg.is_empty() {
        return Err(FrameError::ZeroLength);
    }
    if msg.len() > MAX_FRAME_LEN {
        return Err(FrameError::Oversized {
            len: msg.len(),
            max: MAX_FRAME_LEN,
        });
    }
    let mut framed = Vec::with_capacity(msg.len() + 2);
    framed.extend_from_slice(&(msg.len() as u16).to_be_bytes());
    framed.extend_from_slice(msg);
    Ok(framed)
}

/// Streaming split: `Ok(Some((payload, consumed)))` when `buf` starts with
/// a complete frame, `Ok(None)` when more bytes may still arrive, and
/// `Err` when the prefix itself is invalid and the stream can never
/// recover (the caller should tear the connection down).
pub fn split_frame(buf: &[u8]) -> Result<Option<(&[u8], usize)>, FrameError> {
    if buf.len() < 2 {
        return Ok(None);
    }
    let len = u16::from_be_bytes([buf[0], buf[1]]) as usize;
    if len == 0 {
        return Err(FrameError::ZeroLength);
    }
    if buf.len() < 2 + len {
        return Ok(None);
    }
    Ok(Some((&buf[2..2 + len], 2 + len)))
}

/// One-shot split for callers holding the complete stream (a finished
/// `TcpFetch`, a fully read socket): every shortfall is a typed error,
/// never a wait. Trailing bytes beyond the first frame are ignored.
pub fn require_frame(buf: &[u8]) -> Result<&[u8], FrameError> {
    match split_frame(buf)? {
        Some((payload, _consumed)) => Ok(payload),
        None => Err(FrameError::Partial {
            have: buf.len(),
            need: 2 + buf
                .get(..2)
                .map_or(0, |p| u16::from_be_bytes([p[0], p[1]]) as usize),
        }),
    }
}

/// How long a relayed query may stay unanswered before its connection is
/// torn down (the local resolver answers or SERVFAILs well before this).
const RELAY_DEADLINE: SimDuration = SimDuration::from_secs(6);

/// The relay's per-connection state.
#[derive(Debug)]
struct RelayConn {
    /// When the connection was opened (relay-deadline anchor).
    opened: SimTime,
    /// Request bytes accepted in order.
    buf: Vec<u8>,
    /// Relay transaction id while the answer is outstanding.
    txn: Option<u16>,
    /// The client's query id, restored on the way back.
    orig_id: u16,
}

/// The listener's app on the shared TCP-lite machine: frame in, UDP relay
/// out, framed answer back. Each relayed query's txn maps to its connection.
#[derive(Debug, Default)]
struct Relay {
    txns: TxnTable<ConnKey>,
}

impl ServerApp for Relay {
    type Conn = RelayConn;

    fn open(&mut self, now: SimTime) -> RelayConn {
        RelayConn {
            opened: now,
            buf: Vec::new(),
            txn: None,
            orig_id: 0,
        }
    }

    /// Buffers bytes until a length-prefixed query is complete, then relays
    /// it to the UDP resolver on this node under a fresh txn id. A malformed
    /// frame (zero-length prefix, undecodable payload) resets the connection
    /// instead of holding it open until the relay deadline.
    fn on_data(
        &mut self,
        ctx: &mut ServiceCtx<'_>,
        key: ConnKey,
        conn: &mut RelayConn,
        data: &[u8],
        out: &mut Vec<Egress>,
    ) -> Reply {
        if conn.txn.is_some() {
            return Reply::Ack;
        }
        conn.buf.extend_from_slice(data);
        let payload = match split_frame(&conn.buf) {
            // Prefix or body still in flight: wait for more segments.
            Ok(None) => return Reply::Ack,
            Ok(Some((payload, _consumed))) => payload,
            Err(_) => return Reply::Reset,
        };
        let Ok(mut query) = Message::decode(payload) else {
            // A complete frame that is not DNS: the stream is garbage.
            return Reply::Reset;
        };
        let txn = self.txns.alloc();
        self.txns.insert(txn, conn.opened + RELAY_DEADLINE, key);
        conn.txn = Some(txn);
        conn.orig_id = query.header.id;
        query.header.id = txn;
        // TCP framing has no UDP size ceiling; advertise accordingly.
        query.advertise_udp_size(u16::MAX);
        if let Ok(bytes) = query.encode() {
            out.push(Egress::reply(
                ctx.local_addr,
                DNS_PORT,
                bytes,
                SimDuration::ZERO,
            ));
        }
        Reply::Ack
    }

    fn on_close(&mut self, conn: RelayConn) {
        if let Some(txn) = conn.txn {
            self.txns.take(txn);
        }
    }

    fn next_deadline(&self) -> Option<SimTime> {
        self.txns.next_deadline()
    }
}

/// The DNS-over-TCP listener; see the module docs.
#[derive(Debug, Default)]
pub struct TcpDnsServer(TcpServer<Relay>);

impl TcpDnsServer {
    /// A fresh listener.
    pub fn new() -> Self {
        TcpDnsServer::default()
    }
}

impl UdpService for TcpDnsServer {
    fn handle(
        &mut self,
        ctx: &mut ServiceCtx<'_>,
        from: Ipv4Addr,
        from_port: u16,
        payload: &[u8],
    ) -> Vec<Egress> {
        let tcp = &mut self.0;
        // Answers from the co-located UDP resolver come back on port 53;
        // everything else is a client's TCP segment.
        if from_port != DNS_PORT {
            return tcp.handle(ctx, from, from_port, payload);
        }
        let mut out = Vec::new();
        // In-sim answers are encoder output, so relaying one under the
        // client's id is a copy with two bytes patched.
        if let Ok(view) = MessageView::new(payload) {
            if let Some((_, key)) = tcp.app.txns.take(view.id()) {
                debug_assert!(Message::decode(payload).is_ok(), "relayed answer decodes");
                let mut answer = payload.to_vec();
                if let Some(conn) = tcp.conn_mut(key) {
                    conn.txn = None;
                    patch_id(&mut answer, conn.orig_id);
                }
                match frame(&answer) {
                    Ok(framed) => out = tcp.respond(key, framed, ctx.now),
                    Err(_) => tcp.reset(key, &mut out),
                }
            }
        }
        tcp.arm(ctx);
        out
    }

    fn tick(&mut self, ctx: &mut ServiceCtx<'_>) -> Vec<Egress> {
        let tcp = &mut self.0;
        // Relay never answered: give up. The deadline is inclusive (`now >=
        // opened + 6 s`), the table's expiry strict: hence the microsecond.
        for txn in tcp.app.txns.expired(ctx.now + SimDuration::from_micros(1)) {
            if let Some((_, key)) = tcp.app.txns.take(txn) {
                tcp.abort(key);
            }
        }
        tcp.tick(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trips_through_both_split_paths() {
        let msg = b"\x12\x34hello dns".to_vec();
        let framed = frame(&msg).unwrap();
        assert_eq!(&framed[..2], &(msg.len() as u16).to_be_bytes());
        assert_eq!(require_frame(&framed).unwrap(), &msg[..]);
        let (payload, consumed) = split_frame(&framed).unwrap().unwrap();
        assert_eq!(payload, &msg[..]);
        assert_eq!(consumed, framed.len());
    }

    #[test]
    fn frame_rejects_empty_and_oversized_messages() {
        assert_eq!(frame(&[]), Err(FrameError::ZeroLength));
        let huge = vec![0u8; MAX_FRAME_LEN + 1];
        assert_eq!(
            frame(&huge),
            Err(FrameError::Oversized {
                len: MAX_FRAME_LEN + 1,
                max: MAX_FRAME_LEN,
            })
        );
        // Exactly at the ceiling is fine.
        let max = vec![0u8; MAX_FRAME_LEN];
        assert!(frame(&max).is_ok());
    }

    #[test]
    fn split_frame_waits_on_incomplete_data_but_rejects_zero_length() {
        // Incomplete prefix, then incomplete body: both mean "wait".
        assert_eq!(split_frame(&[]), Ok(None));
        assert_eq!(split_frame(&[0x00]), Ok(None));
        assert_eq!(split_frame(&[0x00, 0x05, 1, 2]), Ok(None));
        // A zero-length claim can never make progress: typed error.
        assert_eq!(split_frame(&[0x00, 0x00]), Err(FrameError::ZeroLength));
        // Trailing bytes past the first frame are left for the caller.
        let (payload, consumed) = split_frame(&[0x00, 0x01, 7, 9, 9]).unwrap().unwrap();
        assert_eq!(payload, &[7]);
        assert_eq!(consumed, 3);
    }

    #[test]
    fn require_frame_types_every_shortfall() {
        assert_eq!(
            require_frame(&[0x00]),
            Err(FrameError::Partial { have: 1, need: 2 })
        );
        assert_eq!(
            require_frame(&[0x00, 0x05, 1, 2]),
            Err(FrameError::Partial { have: 4, need: 7 })
        );
        assert_eq!(require_frame(&[0x00, 0x00, 9]), Err(FrameError::ZeroLength));
        assert_eq!(require_frame(&[0x00, 0x02, 5, 6, 0xff]).unwrap(), &[5, 6]);
    }

    #[test]
    fn frame_errors_render_useful_messages() {
        assert_eq!(FrameError::ZeroLength.to_string(), "zero-length DNS frame");
        assert!(FrameError::Oversized {
            len: 70_000,
            max: MAX_FRAME_LEN
        }
        .to_string()
        .contains("70000"));
        assert!(FrameError::Partial { have: 3, need: 9 }
            .to_string()
            .contains("3 of 9"));
    }

    // The relay's connection lifecycle on the shared TCP-lite machine,
    // driven the way the engine would.

    use dnswire::builder::{QueryBuilder, ResponseBuilder};
    use dnswire::name::DnsName;
    use dnswire::rdata::RecordType;
    use netsim::tcplite::{Segment, ACK, FIN, RST, SYN};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const VIP: Ipv4Addr = Ipv4Addr::new(8, 8, 8, 8);
    const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 9, 9, 9);
    const KEY: ConnKey = (CLIENT, 5_353);

    fn call(ms: u64, f: impl FnOnce(&mut ServiceCtx<'_>) -> Vec<Egress>) -> Vec<Egress> {
        let mut rng = StdRng::seed_from_u64(0);
        f(&mut ServiceCtx::new(
            SimTime::from_micros(ms * 1_000),
            VIP,
            &mut rng,
        ))
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

    fn segments(out: &[Egress]) -> Vec<Segment> {
        out.iter()
            .filter(|e| e.dst == CLIENT)
            .map(|e| Segment::decode(&e.payload).unwrap())
            .collect()
    }

    /// Opens a connection at 0 ms and sends `stream` as its first data
    /// segment at 10 ms; returns that segment's egress.
    fn open_and_send(server: &mut TcpDnsServer, stream: &[u8]) -> Vec<Egress> {
        call(0, |ctx| {
            server.handle(ctx, KEY.0, KEY.1, &seg(SYN, 0, 0, &[]))
        });
        call(10, |ctx| {
            server.handle(ctx, KEY.0, KEY.1, &seg(ACK, 1, 1, stream))
        })
    }

    fn query_frame() -> Vec<u8> {
        let q = QueryBuilder::new(0x4242, "m.yelp.com", RecordType::A)
            .build()
            .unwrap();
        frame(&q.encode().unwrap()).unwrap()
    }

    #[test]
    fn malformed_frame_resets_the_connection_and_holds_no_txn() {
        for stream in [vec![0, 0], frame(b"not dns").unwrap()] {
            let mut server = TcpDnsServer::new();
            let out = open_and_send(&mut server, &stream);
            let flags: Vec<u8> = segments(&out).iter().map(|s| s.flags).collect();
            assert_eq!(flags, [ACK, RST], "{stream:?}");
            assert_eq!(out.len(), 2, "nothing relayed");
            assert!(out.iter().all(|e| e.src_addr == Some(VIP)));
            assert!(server.0.conn_mut(KEY).is_none());
            assert!(server.0.app.txns.next_deadline().is_none());
            assert_eq!(server.0.stats.aborts, 1);
        }
    }

    #[test]
    fn relay_deadline_aborts_the_connection_and_releases_its_txn() {
        let mut server = TcpDnsServer::new();
        let out = open_and_send(&mut server, &query_frame());
        // The client's ACK leaves before the relay datagram.
        assert_eq!(segments(&out[..1])[0].flags, ACK);
        assert_eq!((out[1].dst, out[1].dst_port), (VIP, DNS_PORT));
        let relayed = Message::decode(&out[1].payload).unwrap();
        assert_eq!(relayed.header.id, 1);
        assert!(server.0.app.txns.contains(1));
        // Still waiting a microsecond before the deadline.
        let out = call(5_999, |ctx| server.tick(ctx));
        assert!(out.is_empty());
        assert!(server.0.conn_mut(KEY).is_some());
        // At the deadline (inclusive) the connection goes.
        let out = call(6_000, |ctx| server.tick(ctx));
        assert!(out.is_empty());
        assert!(server.0.conn_mut(KEY).is_none());
        assert!(server.0.app.txns.next_deadline().is_none());
        assert_eq!(server.0.stats.aborts, 1);
        // A late answer finds nothing to deliver to.
        let late = ResponseBuilder::for_query(&relayed).build();
        let out = call(6_100, |ctx| {
            server.handle(ctx, VIP, DNS_PORT, &late.encode().unwrap())
        });
        assert!(out.is_empty());
    }

    #[test]
    fn answer_is_framed_back_and_teardown_closes_the_connection() {
        let mut server = TcpDnsServer::new();
        let query = query_frame();
        let out = open_and_send(&mut server, &query);
        let relayed = Message::decode(&out[1].payload).unwrap();
        let answer = ResponseBuilder::for_query(&relayed)
            .answer_a(
                DnsName::parse("m.yelp.com").unwrap(),
                30,
                Ipv4Addr::new(192, 0, 2, 5),
            )
            .build();
        let out = call(20, |ctx| {
            server.handle(ctx, VIP, DNS_PORT, &answer.encode().unwrap())
        });
        assert!(server.0.app.txns.next_deadline().is_none());
        let segs = segments(&out);
        assert_eq!(segs.last().map(|s| s.flags), Some(FIN | ACK));
        let stream: Vec<u8> = segs.iter().flat_map(|s| s.data.clone()).collect();
        let back = Message::decode(require_frame(&stream).unwrap()).unwrap();
        assert_eq!(back.header.id, 0x4242, "client id restored");
        assert_eq!(back.answer_addrs(), vec![Ipv4Addr::new(192, 0, 2, 5)]);
        // The client acknowledges everything, FIN included.
        let fin = segs.last().unwrap();
        let ack = seg(ACK, 1 + query.len() as u32, fin.seq + 1, &[]);
        call(30, |ctx| server.handle(ctx, KEY.0, KEY.1, &ack));
        assert!(server.0.conn_mut(KEY).is_none());
        assert_eq!(server.0.stats.aborts, 0);
    }

    #[test]
    fn client_reset_releases_the_relay_txn() {
        let mut server = TcpDnsServer::new();
        open_and_send(&mut server, &query_frame());
        assert!(server.0.app.txns.contains(1));
        let out = call(20, |ctx| {
            server.handle(ctx, KEY.0, KEY.1, &seg(RST, 1, 1, &[]))
        });
        assert!(out.is_empty());
        assert!(server.0.app.txns.next_deadline().is_none());
        assert!(server.0.conn_mut(KEY).is_none());
    }
}

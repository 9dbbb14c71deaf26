//! `wire_udp` / `wire_open`: a live `DnsServer` on loopback, driven from
//! the harness's own single thread and single UDP socket, then checked by
//! replaying the transcript into a ground-truth `ServeCore`.
//!
//! Loopback, not a real link: the numbers price the recv threads, the
//! `mpsc` hand-off, the bridge and the kernel's socket path, not a network.

use crate::core::{mix, script_rows, serve_rows, shadow_resolve, Op};
use crate::layers::Layers;
use crate::rep::{Ctx, Fnv, Latency, Rep};
use crate::spec::{Workload, OPEN_RATE_QPS};
use crate::stats::percentile;
use crate::trace::{SpanId, Trace, NO_PARENT};
use cdns::dnssim::{frame, require_frame};
use loadgen::{build_script, DriverConfig, Script};
use serve::{is_shed_reply, DnsServer, Endpoints, ServeCore, Transport, WorldConfig};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How long a query may go unanswered before it counts as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(2);

/// Queries the closed loop keeps in flight: six stub clients, the shape
/// `repro soak` drives (its six carrier threads, one exchange each).
pub const CLOSED_WINDOW: usize = 6;

/// The open loop's sender sleeps until this long before a query is due and
/// yields through the rest: a sleep overshoots by the kernel's ~50 us timer
/// slack, and a sender that spun instead would take a core from the server.
const SPIN_BEFORE_DUE: Duration = Duration::from_micros(80);

/// A generator this late does not send its backlog at once; see `drive_open`.
const MAX_CATCH_UP: Duration = Duration::from_millis(5);

/// One datagram or TCP frame that reached the server, in send order, with
/// the reply captured for it. `pos` is the scripted query it belongs to.
struct Exchange {
    pos: usize,
    op: Op,
    reply: Option<Vec<u8>>,
}

/// What one drive of the script recorded.
#[derive(Default)]
struct Drive {
    exchanges: Vec<Exchange>,
    /// Per scripted query, by position: when it started (sent, or was due
    /// to be sent in the open loop) and when its final answer arrived.
    spans: Vec<(u64, Option<u64>)>,
    timeouts: u64,
    tc_retries: u64,
    sheds: u64,
    /// Open loop only: how late each send ran against its due time.
    sched_lag_ns: Vec<u64>,
    wall_s: f64,
}

impl Drive {
    /// Latencies of the answered queries, in send order.
    fn latency(&self) -> Option<Latency> {
        let ns: Vec<u64> = self
            .spans
            .iter()
            .filter_map(|&(start, end)| Some(end?.saturating_sub(start)))
            .collect();
        Latency::from_ops(&ns)
    }
}

fn would_block(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

fn truncated(reply: &[u8]) -> bool {
    reply.len() > 2 && reply[2] & 0x02 != 0
}

/// One length-prefixed exchange on an open TCP connection.
fn tcp_round_trip(stream: &mut TcpStream, wire: &[u8]) -> std::io::Result<Vec<u8>> {
    stream.write_all(&frame(wire).map_err(std::io::Error::other)?)?;
    let mut data = Vec::new();
    let mut chunk = [0u8; 2048];
    loop {
        if let Ok(payload) = require_frame(&data) {
            return Ok(payload.to_vec());
        }
        match stream.read(&mut chunk)? {
            0 => return Err(std::io::Error::other("server closed mid-frame")),
            n => data.extend_from_slice(&chunk[..n]),
        }
    }
}

fn tcp_connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
    Ok(stream)
}

/// The scripted queries sent to each carrier and not yet answered, oldest
/// first. A carrier answers in arrival order, so a reply is matched to the
/// oldest outstanding query carrying its transaction id, and one that skips
/// ahead means the queries before it were lost.
struct Outstanding<'a> {
    script: &'a Script,
    order: &'a [(usize, usize)],
    per_carrier: Vec<VecDeque<usize>>,
}

impl Outstanding<'_> {
    fn sent(&mut self, pos: usize) {
        self.per_carrier[self.order[pos].0].push_back(pos);
    }

    /// The position a `reply` that came from `peer` answers, and how many
    /// older outstanding queries of that carrier it skipped. `udp[shard]` is
    /// where each carrier listens (the echo floor listens for all at once).
    fn claim(
        &mut self,
        udp: &[SocketAddr],
        peer: SocketAddr,
        reply: &[u8],
    ) -> Option<(usize, usize)> {
        let id = u16::from_be_bytes([*reply.first()?, *reply.get(1)?]);
        let (script, order) = (self.script, self.order);
        let carriers = self.per_carrier.iter_mut().zip(udp);
        carriers
            .filter(|(_, addr)| **addr == peer)
            .find_map(|(queue, _)| {
                let hit = queue.iter().position(|&pos| {
                    let (shard, idx) = order[pos];
                    script.per_carrier[shard][idx].id == id
                })?;
                queue.drain(..hit);
                Some((queue.pop_front()?, hit))
            })
    }

    fn in_flight(&self) -> usize {
        self.per_carrier.iter().map(VecDeque::len).sum()
    }
}

/// Closed loop: `window` queries in flight, the next one sent when an answer
/// arrives, `order` walked front to back. A truncated answer is retried over
/// a fresh TCP connection like a stub would, once everything in flight has
/// been answered, so the server's processing order stays the send order.
fn drive_closed(
    sock: &UdpSocket,
    udp: &[SocketAddr],
    tcp: &[SocketAddr],
    script: &Script,
    order: &[(usize, usize)],
    window: usize,
) -> std::io::Result<Drive> {
    sock.set_read_timeout(Some(REPLY_TIMEOUT))?;
    let n = order.len();
    let mut buf = [0u8; 65_535];
    let mut out = Outstanding {
        script,
        order,
        per_carrier: vec![VecDeque::new(); udp.len()],
    };
    let mut d = Drive {
        exchanges: Vec::with_capacity(n),
        spans: vec![(0, None); n],
        ..Drive::default()
    };
    let mut truncated_at: Vec<usize> = Vec::new();
    let (mut next, mut settled) = (0usize, 0usize);
    let epoch = Instant::now();
    let now = || epoch.elapsed().as_nanos() as u64;
    while settled < n {
        while truncated_at.is_empty() && next < n && out.in_flight() < window {
            let (shard, idx) = order[next];
            d.spans[next].0 = now();
            sock.send_to(&script.per_carrier[shard][idx].wire, udp[shard])?;
            out.sent(next);
            d.exchanges.push(Exchange {
                pos: next,
                op: Op::udp(shard, idx),
                reply: None,
            });
            next += 1;
        }
        if out.in_flight() == 0 {
            for pos in truncated_at.drain(..) {
                let (shard, idx) = order[pos];
                let wire = &script.per_carrier[shard][idx].wire;
                let reply = tcp_connect(tcp[shard]).and_then(|mut s| tcp_round_trip(&mut s, wire));
                d.spans[pos].1 = reply.is_ok().then(&now);
                d.exchanges.push(Exchange {
                    pos,
                    op: Op {
                        transport: Transport::Tcp,
                        ..Op::udp(shard, idx)
                    },
                    reply: reply.ok(),
                });
                settled += 1;
            }
            continue;
        }
        match sock.recv_from(&mut buf) {
            Ok((len, peer)) => {
                let Some((pos, skipped)) = out.claim(udp, peer, &buf[..len]) else {
                    continue;
                };
                let at = now();
                settled += skipped;
                d.timeouts += skipped as u64;
                let reply = &buf[..len];
                if is_shed_reply(reply) {
                    d.sheds += 1;
                    settled += 1;
                } else if truncated(reply) && !tcp.is_empty() {
                    d.tc_retries += 1;
                    truncated_at.push(pos);
                } else {
                    d.spans[pos].1 = Some(at);
                    settled += 1;
                }
                // UDP sends were logged in order, before any TCP retry of a
                // later position, so the entry sits at or after `pos`.
                if let Some(ex) = d.exchanges[pos..]
                    .iter_mut()
                    .find(|ex| ex.pos == pos && ex.op.transport == Transport::Udp)
                {
                    ex.reply = Some(reply.to_vec());
                }
            }
            // Nothing for a whole timeout: everything in flight is lost.
            Err(e) if would_block(&e) => {
                let lost = out.in_flight();
                out.per_carrier.iter_mut().for_each(VecDeque::clear);
                settled += lost;
                d.timeouts += lost as u64;
            }
            Err(e) => return Err(e),
        }
    }
    d.wall_s = epoch.elapsed().as_secs_f64();
    Ok(d)
}

/// Open loop: query `i` is due at `i / rate` whether or not earlier ones
/// were answered, and its latency runs from that due time. The calling
/// thread only sends, sleeping between due times; a second thread blocks on
/// the socket and stamps each reply as it arrives, like a stub client
/// would. No TCP retry: a truncated answer is the final one.
fn drive_open(
    sock: &UdpSocket,
    udp: &[SocketAddr],
    script: &Script,
    order: &[(usize, usize)],
    rate_qps: u64,
) -> std::io::Result<Drive> {
    // Short, so the receiver notices the end of the run promptly.
    sock.set_read_timeout(Some(Duration::from_millis(20)))?;
    let n = order.len();
    let due = |i: usize| i as u64 * 1_000_000_000 / rate_qps;
    let epoch = Instant::now();
    let now = || epoch.elapsed().as_nanos() as u64;
    let done = AtomicBool::new(false);
    let mut sched_lag_ns = Vec::with_capacity(n);
    let mut starts = vec![0u64; n];
    let mut shift = 0u64;
    let arrivals = std::thread::scope(|scope| {
        let receiver = scope.spawn(|| {
            let mut arrivals: Vec<(u64, SocketAddr, Vec<u8>)> = Vec::with_capacity(n);
            let mut buf = [0u8; 65_535];
            while arrivals.len() < n && !done.load(Ordering::SeqCst) {
                match sock.recv_from(&mut buf) {
                    Ok((len, peer)) => arrivals.push((now(), peer, buf[..len].to_vec())),
                    Err(e) if would_block(&e) => {}
                    Err(e) => return Err(e),
                }
            }
            Ok(arrivals)
        });
        let sent = (0..n).try_for_each(|i| {
            loop {
                let wait = Duration::from_nanos((due(i) + shift).saturating_sub(now()));
                if wait.is_zero() {
                    break;
                } else if wait > SPIN_BEFORE_DUE {
                    std::thread::sleep(wait - SPIN_BEFORE_DUE);
                } else {
                    std::thread::yield_now();
                }
            }
            let lag = now() - (due(i) + shift);
            sched_lag_ns.push(lag);
            // Users do not arrive while the generator's host has it off the
            // CPU: sending the backlog of a long stall in one burst would
            // test the server's shedding, not its latency. The schedule moves
            // on by the stall instead, which still shows in the lag.
            if lag > MAX_CATCH_UP.as_nanos() as u64 {
                shift += lag;
            }
            starts[i] = due(i) + shift;
            let (shard, idx) = order[i];
            sock.send_to(&script.per_carrier[shard][idx].wire, udp[shard])
                .map(drop)
        });
        let deadline = Instant::now() + REPLY_TIMEOUT;
        while sent.is_ok() && !receiver.is_finished() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        done.store(true, Ordering::SeqCst);
        let arrivals = receiver
            .join()
            .map_err(|_| std::io::Error::other("receiver thread panicked"))?;
        sent.and(arrivals)
    })?;

    let mut out = Outstanding {
        script,
        order,
        per_carrier: vec![VecDeque::new(); udp.len()],
    };
    (0..n).for_each(|pos| out.sent(pos));
    let mut d = Drive {
        spans: starts.into_iter().map(|start| (start, None)).collect(),
        wall_s: arrivals.last().map_or(1, |a| a.0) as f64 / 1e9,
        sched_lag_ns,
        ..Drive::default()
    };
    let mut replies: Vec<Option<Vec<u8>>> = vec![None; n];
    for (at, peer, reply) in arrivals {
        let Some((pos, _)) = out.claim(udp, peer, &reply) else {
            continue;
        };
        if is_shed_reply(&reply) {
            d.sheds += 1;
        } else {
            d.spans[pos].1 = Some(at);
        }
        replies[pos] = Some(reply);
    }
    d.timeouts = replies.iter().filter(|r| r.is_none()).count() as u64;
    d.exchanges = replies
        .into_iter()
        .enumerate()
        .map(|(pos, reply)| {
            let (shard, idx) = order[pos];
            Exchange {
                pos,
                op: Op::udp(shard, idx),
                reply,
            }
        })
        .collect();
    Ok(d)
}

/// The order the script is sent in: carriers interleaved by a seeded draw
/// weighted by what each has left, as independent users arrive, every
/// carrier's own queries still in script order.
fn send_order(ctx: &Ctx, script: &Script) -> Vec<(usize, usize)> {
    let mut order = Vec::with_capacity(script.total() as usize);
    let mut taken = vec![0usize; script.per_carrier.len()];
    let mut left = script.total();
    let mut state = ctx.seed ^ 0x9E37_79B9_7F4A_7C15;
    while left > 0 {
        // splitmix64
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let mut draw = (z ^ (z >> 31)) % left;
        for (shard, qs) in script.per_carrier.iter().enumerate() {
            let remaining = (qs.len() - taken[shard]) as u64;
            if draw < remaining {
                order.push((shard, taken[shard]));
                taken[shard] += 1;
                break;
            }
            draw -= remaining;
        }
        left -= 1;
    }
    order
}

fn addrs(eps: &Endpoints) -> (Vec<SocketAddr>, Vec<SocketAddr>) {
    (
        eps.carriers.iter().map(|c| c.udp).collect(),
        eps.carriers.iter().map(|c| c.tcp).collect(),
    )
}

/// Ground truth: the exchanges replayed in send order into a fresh core,
/// shed markers skipped (they never reached the sim) — the rule `loadgen`'s
/// own verify pass applies. Every captured reply must match byte for byte.
/// With a trace, each handle is timed as a child of its op's `wire.rtt`.
struct Truth {
    core: ServeCore,
    mismatches: u64,
    build_s: f64,
    replay_s: f64,
    replayed: Vec<Op>,
    handles: Vec<SpanId>,
}

fn replay(
    config: &WorldConfig,
    script: &Script,
    exchanges: &[Exchange],
    mut trace: Option<(&mut Trace, &[SpanId])>,
) -> Truth {
    let start = Instant::now();
    let mut core = ServeCore::new(config.clone());
    let build_s = start.elapsed().as_secs_f64();
    let mut mismatches = 0u64;
    let mut replayed = Vec::with_capacity(exchanges.len());
    let mut handles = Vec::with_capacity(exchanges.len());
    for ex in exchanges {
        if ex.reply.as_deref().is_some_and(is_shed_reply) {
            continue;
        }
        let wire = &script.per_carrier[ex.op.shard][ex.op.idx].wire;
        let t0 = trace.as_ref().map_or(0, |(t, _)| t.now_ns());
        let expected = core.handle(ex.op.shard, ex.op.transport, wire).into_reply();
        if let Some((t, rtts)) = trace.as_mut() {
            let t1 = t.now_ns();
            handles.push(t.push(ex.pos as u32, "serve.handle", rtts[ex.pos], t0, t1));
        }
        replayed.push(ex.op);
        if ex.reply.is_some() && ex.reply != expected {
            mismatches += 1;
        }
    }
    Truth {
        core,
        mismatches,
        build_s,
        replay_s: start.elapsed().as_secs_f64() - build_s,
        replayed,
        handles,
    }
}

/// Runs `f` against a bare UDP echo thread: the generator-plus-kernel floor
/// under every wire latency.
fn with_echo<T>(f: impl FnOnce(SocketAddr) -> T) -> std::io::Result<T> {
    let sock = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0))?;
    sock.set_read_timeout(Some(Duration::from_millis(50)))?;
    let addr = sock.local_addr()?;
    let stop = AtomicBool::new(false);
    Ok(std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut buf = [0u8; 4096];
            while !stop.load(Ordering::SeqCst) {
                if let Ok((n, peer)) = sock.recv_from(&mut buf) {
                    let _ = sock.send_to(&buf[..n], peer);
                }
            }
        });
        let out = f(addr);
        stop.store(true, Ordering::SeqCst);
        out
    }))
}

/// The wire-only rows: the echo floor, the shipped six-thread driver for
/// continuity with the recorded soak figure, and framed TCP round trips —
/// on a second server, so the checked transcript stays as it was.
fn wire_rows(
    ctx: &Ctx,
    layers: &mut Layers,
    sock: &UdpSocket,
    script: &Script,
    order: &[(usize, usize)],
    rtt_p50_us: f64,
) -> std::io::Result<()> {
    let carriers = script.per_carrier.len();
    let floor = &order[..order.len().min(if ctx.smoke { 500 } else { 10_000 })];
    let echo = with_echo(|addr| drive_closed(sock, &vec![addr; carriers], &[], script, floor, 1))??;
    let null_rtt_us = echo.latency().map_or(0.0, |l| l.p50_us);
    layers.insert("loadgen.null_rtt_us", null_rtt_us);
    let handle_us = layers.get("serve.handle_us").copied().unwrap_or(0.0);
    layers.insert(
        "serve.wire_overhead_us",
        rtt_p50_us - handle_us - null_rtt_us,
    );

    let server = DnsServer::start(WorldConfig::quick(ctx.seed), Ipv4Addr::LOCALHOST)?;
    let stats = loadgen::run(server.endpoints(), script, &DriverConfig::default())?;
    layers.insert("loadgen.driver_qps", stats.qps());
    let (_, tcp) = addrs(server.endpoints());
    // One connection for all of them: a fresh one first waits out the accept
    // loop's 50 ms poll, which would be all this row measured.
    let mut stream = tcp_connect(tcp[0])?;
    let mut tcp_ns = Vec::new();
    for q in script.per_carrier[0]
        .iter()
        .take(if ctx.smoke { 25 } else { 500 })
    {
        let start = Instant::now();
        tcp_round_trip(&mut stream, &q.wire)?;
        tcp_ns.push(start.elapsed().as_nanos() as u64);
    }
    tcp_ns.sort_unstable();
    layers.insert("serve.tcp_rtt_us", percentile(&tcp_ns, 500) as f64 / 1e3);
    if server.stop().panicked {
        return Err(std::io::Error::other("second server's bridge panicked"));
    }
    Ok(())
}

/// One repetition against a fresh server. With a trace, each op becomes a
/// `wire.rtt` span, the ground-truth replay adds `serve.handle` under it,
/// and the shadow pass `dnssim.resolve` under that.
pub fn run(ctx: &Ctx, trace: Option<&mut Trace>, layers: &mut Layers) -> std::io::Result<Rep> {
    let started = Instant::now();
    let config = WorldConfig::quick(ctx.seed);
    let server = DnsServer::start(config.clone(), Ipv4Addr::LOCALHOST)?;
    let start_s = started.elapsed().as_secs_f64();
    let script = build_script(server.endpoints(), &mix(ctx));
    let script_s = started.elapsed().as_secs_f64() - start_s;
    let order = send_order(ctx, &script);
    let (udp, tcp) = addrs(server.endpoints());
    let sock = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0))?;
    let setup_s = started.elapsed().as_secs_f64();

    let drive = if ctx.workload == Workload::WireOpen {
        drive_open(&sock, &udp, &script, &order, OPEN_RATE_QPS)
    } else {
        drive_closed(&sock, &udp, &tcp, &script, &order, CLOSED_WINDOW)
    };
    let report = server.stop();
    let drive = drive?;
    if drive.timeouts + drive.sheds > 0 {
        eprintln!(
            "ledger: {}: {} timeouts, {} shed replies (server: {} shed)",
            ctx.workload.name(),
            drive.timeouts,
            drive.sheds,
            report.shed
        );
    }

    let latency = drive.latency();
    let answered = latency.map_or(0, |l| l.samples) as u64;
    let total = order.len() as u64;
    let truth = match trace {
        None => replay(&config, &script, &drive.exchanges, None),
        Some(trace) => {
            let base = trace.now_ns();
            let rtts: Vec<SpanId> = drive
                .spans
                .iter()
                .enumerate()
                .map(|(pos, &(start, end))| {
                    let end = end.unwrap_or(start);
                    trace.push(pos as u32, "wire.rtt", NO_PARENT, base + start, base + end)
                })
                .collect();
            let mut truth = replay(
                &config,
                &script,
                &drive.exchanges,
                Some((&mut *trace, &rtts)),
            );
            let shadow = shadow_resolve(&config, &script, &truth.replayed, trace, &truth.handles);

            let replayed = truth.replayed.len().max(1) as f64;
            layers.insert("measure.build_world_ms", truth.build_s * 1e3);
            layers.insert(
                "loadgen.script_ns_per_query",
                script_s * 1e9 / total.max(1) as f64,
            );
            layers.insert(
                "loadgen.verify_us_per_query",
                truth.replay_s * 1e6 / replayed,
            );
            layers.insert("loadgen.tc_retries", drive.tc_retries as f64);
            layers.insert("loadgen.wire_timeouts", drive.timeouts as f64);
            layers.insert("serve.shed", report.shed as f64);
            layers.insert("serve.rejected", report.rejected as f64);
            layers.insert("serve.dropped", report.errors as f64);
            layers.insert("serve.evicted", report.evicted as f64);
            let mut lag = drive.sched_lag_ns.clone();
            lag.sort_unstable();
            layers.insert("bench.sched_lag_p99_us", percentile(&lag, 990) as f64 / 1e3);
            serve_rows(layers, trace, &shadow, truth.replayed.len() as u64);
            let keep_every = (drive.exchanges.len() / 512).max(1);
            let sample: Vec<Vec<u8>> = drive
                .exchanges
                .iter()
                .step_by(keep_every)
                .filter_map(|ex| ex.reply.clone())
                .filter(|r| !is_shed_reply(r))
                .collect();
            script_rows(ctx, layers, &script, &sample, &mut truth.core);
            let rtt_p50_us = latency.map_or(0.0, |l| l.p50_us);
            wire_rows(ctx, layers, &sock, &script, &order, rtt_p50_us)?;
            truth
        }
    };

    let mut fnv = Fnv::default();
    for reply in drive.exchanges.iter().filter_map(|ex| ex.reply.as_deref()) {
        fnv.update(reply);
    }
    let unanswered = total - answered;
    Ok(Rep {
        setup_s,
        wall_s: drive.wall_s,
        ops: answered,
        events: report.events,
        attempted: total,
        disturbed: drive.timeouts + drive.sheds,
        // A scripted query with no final answer (timeout, shed, dropped) or
        // with bytes that differ from ground truth is a failed op.
        failed: if report.panicked {
            total
        } else {
            (unanswered + truth.mismatches).min(total)
        },
        digest: fnv.hex(),
        latency,
        ..Rep::default()
    })
}

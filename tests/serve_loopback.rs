//! Loopback integration of the serving plane: a real [`DnsServer`] bound
//! on `127.0.0.1:0`, driven by the deterministic load generator, with
//! every wire answer replayed into a ground-truth [`ServeCore`] built from
//! the identical world config and compared byte-for-byte — over UDP, over
//! TCP, through the forced-TC → TCP retry path, and under wire chaos
//! (malformed datagrams, duplicate floods, hostile TCP connections).

use dnssim::{frame, require_frame};
use dnswire::builder::QueryBuilder;
use dnswire::message::{Message, MessageView, Opcode, Rcode};
use dnswire::rdata::RecordType;
use loadgen::{build_script, run, ChaosProfile, DriverConfig, MixConfig};
use obs::catalog;
use serve::{Clock, DnsServer, FaultProfile, ServeCore, Transport, WallClock, WorldConfig};
use std::io::{ErrorKind, Read, Write};
use std::net::{Ipv4Addr, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn start(config: WorldConfig) -> DnsServer {
    DnsServer::start(config, Ipv4Addr::LOCALHOST).expect("bind loopback")
}

fn query_bytes(id: u16, name: &str) -> Vec<u8> {
    let mut q = QueryBuilder::new(id, name, RecordType::A)
        .recursion_desired(true)
        .build()
        .unwrap();
    q.advertise_udp_size(dnswire::edns::DEFAULT_UDP_PAYLOAD_SIZE);
    q.encode().unwrap()
}

#[test]
fn udp_wire_answers_match_the_batch_resolver() {
    let server = start(WorldConfig::quick(11));
    let eps = server.endpoints().clone();
    // Mixed traffic: catalog domains plus 10% cache-busting probe nonces.
    let script = build_script(
        &eps,
        &MixConfig {
            queries: 600,
            miss_per_mille: 100,
        },
    );
    let stats = run(
        &eps,
        &script,
        &DriverConfig {
            qps: None,
            verify: true,
            chaos: ChaosProfile::Off,
        },
    )
    .expect("wire run");
    let report = server.stop();

    assert_eq!(stats.answered, 600, "every scripted query must answer");
    assert_eq!(
        stats.mismatches, 0,
        "wire answers diverged from ground truth"
    );
    assert_eq!(report.errors, 0);
    assert!(report.answered >= 600);
    assert_eq!(report.shed, 0, "clean traffic must never be shed");
    assert!(!report.panicked);
}

#[test]
fn tcp_path_answers_byte_identically() {
    let config = WorldConfig::quick(23);
    let server = start(config.clone());
    let ep = server.endpoints().carriers[0].clone();

    // A dig-style length-prefixed exchange against carrier 0's listener.
    let wire = query_bytes(0x5151, "m.facebook.com");
    let mut stream = TcpStream::connect(ep.tcp).expect("connect");
    stream.write_all(&frame(&wire).unwrap()).expect("send");
    let mut data = Vec::new();
    let mut chunk = [0u8; 2048];
    let got = loop {
        if let Ok(payload) = require_frame(&data) {
            break payload.to_vec();
        }
        let n = stream.read(&mut chunk).expect("read");
        assert!(n > 0, "server closed before a full frame");
        data.extend_from_slice(&chunk[..n]);
    };
    drop(stream);
    let report = server.stop();
    assert_eq!(report.answered, 1);

    // Ground truth: the same single TCP call against a replica core.
    let mut truth = ServeCore::new(config);
    let want = truth
        .handle(0, Transport::Tcp, &wire)
        .into_reply()
        .expect("truth");
    assert_eq!(got, want, "TCP wire answer differs from the batch resolver");
    let msg = Message::decode(&got).unwrap();
    assert_eq!(msg.header.id, 0x5151);
    assert!(
        !msg.header.flags.truncated,
        "TCP answers are never truncated"
    );
    assert!(!msg.answer_addrs().is_empty());
}

#[test]
fn forced_tc_answers_recover_over_tcp_and_still_verify() {
    // The cellular fault profile truncates ~4% of carrier-resolver UDP
    // answers; the driver must retry those over TCP like a stub, and the
    // transcript (UDP resends + TCP legs included) must still replay
    // byte-identically into the ground-truth core.
    let mut config = WorldConfig::quick(2014);
    config.fault_profile = FaultProfile::Cellular;
    let server = start(config);
    let eps = server.endpoints().clone();
    let script = build_script(
        &eps,
        &MixConfig {
            queries: 2_000,
            miss_per_mille: 50,
        },
    );
    let stats = run(
        &eps,
        &script,
        &DriverConfig {
            qps: None,
            verify: true,
            chaos: ChaosProfile::Off,
        },
    )
    .expect("wire run");
    drop(server.stop());

    assert!(
        stats.tc_retries > 0,
        "expected some forced-TC retries under the cellular profile"
    );
    assert_eq!(stats.answered, 2_000);
    assert_eq!(stats.mismatches, 0, "TC retry path broke ground truth");
}

#[test]
fn malformed_wire_inputs_get_typed_rcodes_on_the_wire() {
    let server = start(WorldConfig::quick(31));
    let ep = server.endpoints().carriers[0].clone();
    let sock = UdpSocket::bind("127.0.0.1:0").expect("bind");
    sock.connect(ep.udp).expect("connect");
    sock.set_read_timeout(Some(Duration::from_secs(3)))
        .expect("timeout");
    let mut buf = [0u8; 512];

    // QDCOUNT=0 header → 12-byte FORMERR echoing the id.
    let headeronly = [0xAB, 0xCD, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];
    sock.send(&headeronly).expect("send");
    let n = sock.recv(&mut buf).expect("formerr reply");
    let view = MessageView::new(&buf[..n]).expect("parse");
    assert_eq!(n, 12);
    assert_eq!(view.id(), 0xABCD);
    assert!(view.is_response());
    assert_eq!(view.rcode(), Rcode::FormErr);

    // IQUERY opcode → NOTIMP echoing id and opcode.
    let mut iquery = query_bytes(0x1234, "m.yelp.com");
    iquery[2] = (iquery[2] & !0x78) | (Opcode::IQuery.code() << 3);
    sock.send(&iquery).expect("send");
    let n = sock.recv(&mut buf).expect("notimp reply");
    let view = MessageView::new(&buf[..n]).expect("parse");
    assert_eq!(view.id(), 0x1234);
    assert_eq!(view.opcode(), Opcode::IQuery);
    assert_eq!(view.rcode(), Rcode::NotImp);

    // A stray response and a runt are dropped silently: the next real
    // query still answers, proving the bridge didn't wedge.
    let mut stray = query_bytes(0x9999, "m.yelp.com");
    stray[2] |= 0x80;
    sock.send(&stray).expect("send");
    sock.send(b"runt").expect("send");
    let wire = query_bytes(0x4242, "m.facebook.com");
    sock.send(&wire).expect("send");
    let n = sock.recv(&mut buf).expect("real answer");
    let view = MessageView::new(&buf[..n]).expect("parse");
    assert_eq!(view.id(), 0x4242, "garbage must not eat the next answer");

    let report = server.stop();
    assert_eq!(report.rejected, 2);
    assert_eq!(report.errors, 2, "stray + runt are typed drops");
    assert_eq!(report.answered, 1);
    assert!(report.registry.counter_total("serve.formerr") >= 1);
    assert!(report.registry.counter_total("serve.notimp") >= 1);
    assert!(report.registry.counter_total("serve.dropped") >= 2);
}

#[test]
fn hostile_tcp_connections_are_evicted() {
    let server = start(WorldConfig::quick(47));
    let ep = server.endpoints().carriers[0].clone();

    // Oversized declared frame: closed before the body is read.
    let mut oversized = TcpStream::connect(ep.tcp).expect("connect");
    oversized
        .set_read_timeout(Some(Duration::from_secs(4)))
        .unwrap();
    oversized.write_all(&[0xFF, 0xFF, 0x00]).expect("send");
    let mut chunk = [0u8; 64];
    assert_eq!(
        oversized.read(&mut chunk).unwrap_or(0),
        0,
        "oversized frame must get the connection closed"
    );

    // Slowloris: a partial frame that never completes.
    let mut stalled = TcpStream::connect(ep.tcp).expect("connect");
    stalled
        .set_read_timeout(Some(Duration::from_secs(4)))
        .unwrap();
    stalled.write_all(&[0x00, 0x40, 0xAB]).expect("send");
    assert_eq!(
        stalled.read(&mut chunk).unwrap_or(0),
        0,
        "stalled writer must be evicted"
    );

    // A well-behaved connection still works afterwards.
    let wire = query_bytes(0x0707, "m.twitter.com");
    let mut good = TcpStream::connect(ep.tcp).expect("connect");
    good.write_all(&frame(&wire).unwrap()).expect("send");
    let mut data = Vec::new();
    loop {
        if let Ok(payload) = require_frame(&data) {
            let view = MessageView::new(payload).expect("parse");
            assert_eq!(view.id(), 0x0707);
            break;
        }
        let n = good.read(&mut chunk).expect("read");
        assert!(n > 0, "server closed a well-behaved connection");
        data.extend_from_slice(&chunk[..n]);
    }

    let report = server.stop();
    assert!(report.evicted >= 2, "both hostile conns must be evicted");
    assert!(report.registry.counter_total("serve.conn_evicted") >= 2);
    assert_eq!(report.answered, 1);
}

/// The chaos soak splits a frame a few milliseconds apart; a slow but
/// honest writer may leave each chunk up to half the progress deadline
/// after the last and must still be answered, not evicted.
#[test]
fn a_frame_split_half_a_deadline_apart_is_answered() {
    let config = WorldConfig::quick(29);
    let server = start(config.clone());
    let ep = server.endpoints().carriers[0].clone();

    let wire = query_bytes(0x5A5A, "m.yelp.com");
    let framed = frame(&wire).unwrap();
    let mut stream = TcpStream::connect(ep.tcp).expect("connect");
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(4)))
        .unwrap();
    for (i, chunk) in framed.chunks(framed.len().div_ceil(3)).enumerate() {
        if i > 0 {
            std::thread::sleep(serve::FRAME_DEADLINE / 2);
        }
        stream.write_all(chunk).expect("send");
    }
    let mut data = Vec::new();
    let mut chunk = [0u8; 2048];
    let got = loop {
        if let Ok(payload) = require_frame(&data) {
            break payload.to_vec();
        }
        let n = stream.read(&mut chunk).expect("read");
        assert!(n > 0, "server closed a slow but honest writer");
        data.extend_from_slice(&chunk[..n]);
    };
    drop(stream);
    let report = server.stop();
    assert_eq!(report.answered, 1);
    assert_eq!(report.evicted, 0);

    let mut truth = ServeCore::new(config);
    let want = truth.handle(0, Transport::Tcp, &wire).into_reply();
    assert_eq!(
        Some(got),
        want,
        "split TCP answer differs from ground truth"
    );
}

#[test]
fn chaos_stress_soak_keeps_ground_truth_and_loses_no_answers() {
    // The headline hostile-wire invariant, end to end: under stress chaos
    // (garbage, mutants, duplicate floods, hostile TCP) the server never
    // panics, never drops a well-formed query's answer, and the
    // well-formed subset still verifies byte-for-byte against the batch
    // resolver.
    let server = start(WorldConfig::quick(13));
    let eps = server.endpoints().clone();
    let script = build_script(
        &eps,
        &MixConfig {
            queries: 600,
            miss_per_mille: 100,
        },
    );
    let stats = run(
        &eps,
        &script,
        &DriverConfig {
            qps: None,
            verify: true,
            chaos: ChaosProfile::Stress,
        },
    )
    .expect("wire run");
    let report = server.stop();

    assert!(!report.panicked, "server must survive chaos");
    assert_eq!(stats.answered, 600, "no well-formed answer may be lost");
    assert_eq!(stats.mismatches, 0, "chaos desynced the ground truth");
    assert!(stats.chaos_injected > 0);
    assert!(
        stats.evictions_observed > 0,
        "hostile TCP probes must be evicted"
    );
    assert!(
        stats.shed_replies > 0,
        "duplicate floods must drive admission shedding"
    );
    assert_eq!(
        stats.chaos_unanswered, 0,
        "every reply-owed chaos datagram must be answered on loopback"
    );

    // Server-side taxonomy: rejects, sheds, and evictions all counted.
    assert!(report.registry.counter_total("serve.formerr") > 0);
    assert!(report.registry.counter_total("serve.shed") > 0);
    assert!(report.registry.counter_total("serve.conn_evicted") > 0);
    assert!(report.shed > 0);
    assert!(report.evicted > 0);

    // Both ends export only names the metric catalog declares.
    assert_eq!(catalog::undeclared(&report.registry), []);
    assert_eq!(catalog::undeclared(&stats.registry), []);
}

#[test]
fn a_pipelining_peer_that_never_reads_is_evicted_as_a_flood() {
    let server = start(WorldConfig::quick(53));
    let ep = server.endpoints().carriers[0].clone();
    let framed = frame(&query_bytes(0x0F0F, "m.yelp.com")).unwrap();
    let burst: Vec<u8> = framed.repeat(100);

    // A peer that pipelines queries and never reads a reply.
    let mut peer = TcpStream::connect(ep.tcp).expect("connect");
    peer.set_write_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    peer.write_all(&burst).expect("pipeline");

    // While it is connected, the same carrier's UDP socket is still served.
    let sock = UdpSocket::bind("127.0.0.1:0").expect("bind");
    sock.connect(ep.udp).expect("connect");
    sock.set_read_timeout(Some(Duration::from_secs(3)))
        .expect("timeout");
    sock.send(&query_bytes(0x4242, "m.facebook.com"))
        .expect("send");
    let mut buf = [0u8; 512];
    let n = sock.recv(&mut buf).expect("UDP answer beside the peer");
    let view = MessageView::new(&buf[..n]).expect("parse");
    assert_eq!(view.id(), 0x4242);
    assert!(n > 12, "a resolved answer, not a shed marker");

    // It keeps pipelining until the server evicts it: its replies back up
    // until the server cannot write one, the connection is reset, and a
    // write fails. A write that times out here (5 s) means the server
    // held the connection open behind a reply it could not send, and no
    // failure at all means it buffers replies without bound.
    let failed = (0..10_000).find_map(|_| peer.write_all(&burst).err().map(|e| e.kind()));
    assert!(
        failed.is_some_and(|k| !matches!(k, ErrorKind::WouldBlock | ErrorKind::TimedOut)),
        "the peer was never evicted ({failed:?})"
    );

    let report = server.stop();
    assert_eq!(
        report
            .registry
            .counter_value("serve.conn_evicted", &[("reason", "flood")]),
        1
    );
    assert_eq!(report.evicted, 1);
    assert!(!report.panicked);
}

#[test]
fn stop_returns_promptly_while_a_client_keeps_sending() {
    let server = start(WorldConfig::quick(59));
    let target = server.endpoints().carriers[0].udp;
    let sending = Arc::new(AtomicBool::new(true));
    let sender = {
        let sending = Arc::clone(&sending);
        std::thread::spawn(move || {
            let sock = UdpSocket::bind("127.0.0.1:0").expect("bind");
            for id in 0u16.. {
                if !sending.load(Ordering::SeqCst) {
                    break;
                }
                let _ = sock.send_to(&query_bytes(id, "m.yelp.com"), target);
                std::thread::sleep(Duration::from_micros(200));
            }
        })
    };
    while server.answered() < 50 {
        std::thread::sleep(Duration::from_millis(1));
    }

    // The drain serves what already reached the socket; queries that keep
    // arriving cannot hold it open until its 3 s deadline.
    let clock = WallClock::new();
    let report = server.stop();
    let took_us = clock.now_us();
    sending.store(false, Ordering::SeqCst);
    sender.join().expect("sender");
    assert!(!report.panicked);
    assert!(
        took_us < 1_000_000,
        "stop took {took_us} us under steady traffic"
    );
}

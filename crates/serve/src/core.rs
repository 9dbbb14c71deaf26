//! The serving core: a deterministic wire-query → wire-answer function
//! over the simulated world. Everything socket-shaped lives elsewhere —
//! this module never reads the wall clock, so a second core built from the
//! same [`WorldConfig`] and fed the same per-carrier input sequence
//! produces byte-identical results (the ground-truth cross-check).
//!
//! Hostile-wire contract: [`ServeCore::handle`] accepts *arbitrary bytes*
//! and always returns either an encoded reply or a typed drop reason —
//! never a panic. Rejections (FORMERR, NOTIMP, silent drops) are pure
//! functions of the input bytes and touch no sim state, so a ground-truth
//! replica replaying the same sequence stays byte-identical even when the
//! sequence is interleaved with garbage.

use dnssim::client::Outcome;
use dnssim::{exchange, exchange_tcp};
use dnswire::edns::CLASSIC_UDP_LIMIT;
use dnswire::error::WireError;
use dnswire::message::{patch_id, Header, Message, MessageView, Precheck, Rcode};
use dnswire::rdata::RecordType;
use measure::{build_world, World, WorldConfig};
use netsim::time::SimDuration;
use obs::{CounterId, HistogramId, Registry};

/// Which wire transport a query arrived over. TCP queries take the sim's
/// TCP path (which advertises the maximum EDNS payload and is therefore
/// exempt from forced-truncation faults), mirroring a real stub's TC-bit
/// retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// RFC 1035 UDP datagram.
    Udp,
    /// RFC 1035 §4.2.2 length-prefixed TCP.
    Tcp,
}

impl Transport {
    /// Stable lowercase label (metrics/reports).
    pub fn label(self) -> &'static str {
        match self {
            Transport::Udp => "udp",
            Transport::Tcp => "tcp",
        }
    }
}

/// Why a wire input earned no reply at all. Every variant is a deliberate,
/// counted decision — nothing is dropped by accident.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DropReason {
    /// Shorter than a 12-byte DNS header: no transaction id to echo, so
    /// no reply can be attributed (answering would aid spoofing anyway).
    TooShort(usize),
    /// QR bit set: a stray or reflected *response*. Answering responses
    /// is how reflection loops start — drop.
    StrayResponse,
    /// The carrier index is outside the world's shard range, or the shard
    /// has no devices to resolve as.
    BadCarrier(usize),
    /// The sim answered but the reply failed to encode, or to decode for
    /// truncation (never expected; surfaced instead of panicking in the
    /// serving loop).
    Encode(WireError),
}

impl DropReason {
    /// Stable label for the `serve.dropped` counter.
    pub fn label(&self) -> &'static str {
        match self {
            DropReason::TooShort(_) => "short",
            DropReason::StrayResponse => "stray-response",
            DropReason::BadCarrier(_) => "bad-carrier",
            DropReason::Encode(_) => "encode",
        }
    }
}

/// Outcome of [`ServeCore::handle`]: an encoded wire reply, or a typed
/// reason the input was dropped without one.
#[derive(Debug)]
pub enum Served {
    /// Send these bytes back to the querier.
    Reply(Vec<u8>),
    /// Send nothing; the reason is counted and reportable.
    Drop(DropReason),
}

impl Served {
    /// The reply bytes, if any.
    pub fn into_reply(self) -> Option<Vec<u8>> {
        match self {
            Served::Reply(b) => Some(b),
            Served::Drop(_) => None,
        }
    }
}

/// Pure wire-shape classification: what the serving plane owes the sender
/// before any resolver work happens. Shared by the live bridge (to decide
/// whether admission control applies), the core (to reject), and the
/// chaos driver (to predict the server's reaction) — one function, so
/// they can never disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireClass {
    /// A single-question QUERY: resolve it (and meter it).
    WellFormed,
    /// Malformed but attributable: answer a header-only reply carrying
    /// this rcode (FORMERR or NOTIMP).
    Reject(Rcode),
    /// Not answerable at all (too short, or a stray response).
    Silent(DropReason),
}

/// Classifies arbitrary wire bytes. Pure: no allocation, no sim state.
// detlint: hot
pub fn classify(query: &[u8]) -> WireClass {
    let Ok(view) = MessageView::new(query) else {
        return WireClass::Silent(DropReason::TooShort(query.len()));
    };
    match view.precheck() {
        Precheck::Query => WireClass::WellFormed,
        Precheck::Response => WireClass::Silent(DropReason::StrayResponse),
        verdict => match verdict.reject_rcode() {
            Some(rc) => WireClass::Reject(rc),
            None => WireClass::Silent(DropReason::StrayResponse),
        },
    }
}

/// A header-only (exactly 12 bytes) control reply: echoes the transaction
/// id, opcode, and RD bit, sets QR, and carries `rcode`. Used for FORMERR
/// / NOTIMP rejections and for admission-control REFUSED. Header-only is
/// deliberate: the sim plane always echoes the question in its replies,
/// so a 12-byte REFUSED is unambiguously "shed by the front end" to a
/// verifying client.
pub fn control_reply(query: &[u8], rcode: Rcode) -> Option<Vec<u8>> {
    let view = MessageView::new(query).ok()?;
    let mut hi: u8 = 0x80 | (view.opcode().code() << 3);
    if view.recursion_desired() {
        hi |= 0x01;
    }
    let mut out = Vec::with_capacity(12);
    out.extend_from_slice(&view.id().to_be_bytes());
    out.push(hi);
    out.push(rcode.code());
    out.extend_from_slice(&[0u8; 8]);
    Some(out)
}

/// True when `reply` is a front-end shed marker: a header-only REFUSED.
/// The resolver path never produces one (sim replies echo the question),
/// so clients can use this to tell "shed before resolution" apart from
/// any resolver-generated rcode.
pub fn is_shed_reply(reply: &[u8]) -> bool {
    reply.len() == 12
        && MessageView::new(reply).is_ok_and(|v| v.is_response() && v.rcode() == Rcode::Refused)
}

/// The deterministic serving core. One instance serves all carriers; each
/// wire query is attributed to a carrier (the socket it arrived on) and
/// resolved *as one of that carrier's devices would* — round-robin over
/// the shard's device population, against the device's configured
/// resolver, with the classic client policy so truncated fault answers
/// keep their TC bit all the way to the wire client (whose own TCP retry
/// then lands on [`Transport::Tcp`]).
pub struct ServeCore {
    world: World,
    /// Per-shard round-robin device cursor.
    cursors: Vec<usize>,
    /// Sim-plane counters for the serving core (deterministic given the
    /// injection sequence).
    pub registry: Registry,
    /// Handles of the series every resolved query updates.
    meters: Meters,
}

/// The `registry` handles of the per-query series, each resolved on the
/// first query that updates it, so a series appears exactly when the
/// string API would have created it.
#[derive(Default)]
struct Meters {
    /// `serve.queries{carrier,transport}`, per shard and transport.
    queries: Vec<[Option<CounterId>; 2]>,
    /// `serve.outcomes{outcome}`, per [`Outcome`].
    outcomes: [Option<CounterId>; Outcome::ALL.len()],
    /// `serve.sim_latency_us`.
    latency: Option<HistogramId>,
}

impl ServeCore {
    /// Builds the world and wraps it in a serving core.
    pub fn new(config: WorldConfig) -> ServeCore {
        let world = build_world(config);
        let cursors = vec![0; world.carrier_count()];
        let meters = Meters {
            queries: vec![[None; 2]; world.carrier_count()],
            ..Meters::default()
        };
        ServeCore {
            world,
            cursors,
            registry: Registry::default(),
            meters,
        }
    }

    /// The world being served (read-only; mutating it would desync any
    /// ground-truth replica).
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Number of carrier shards (== serving sockets).
    pub fn carrier_count(&self) -> usize {
        self.world.carrier_count()
    }

    /// Display name of a carrier shard.
    pub fn carrier_name(&self, shard: usize) -> &'static str {
        self.world.shards[shard].carrier.profile.name
    }

    /// Device population of a carrier shard.
    pub fn carrier_devices(&self, shard: usize) -> usize {
        self.world.shards[shard].devices.len()
    }

    /// Handles one wire input for `shard`: arbitrary bytes in, an encoded
    /// reply or a typed drop out. Never panics.
    ///
    /// Deterministic, and — the property the ground-truth check rests on —
    /// *sim state advances only for well-formed queries*: every rejection
    /// is a pure function of the input bytes, so interleaving garbage into
    /// a replayed sequence cannot desync the well-formed answers.
    pub fn handle(&mut self, shard: usize, transport: Transport, query: &[u8]) -> Served {
        match classify(query) {
            WireClass::Silent(reason) => {
                self.registry
                    .inc("serve.dropped", &[("reason", reason.label())]);
                Served::Drop(reason)
            }
            WireClass::Reject(rcode) => {
                if rcode == Rcode::NotImp {
                    self.registry.inc("serve.notimp", &[("cause", "precheck")]);
                } else {
                    self.registry.inc("serve.formerr", &[("cause", "precheck")]);
                }
                match control_reply(query, rcode) {
                    Some(bytes) => Served::Reply(bytes),
                    // Unreachable: classify() only rejects ≥12-byte inputs.
                    None => Served::Drop(DropReason::TooShort(query.len())),
                }
            }
            WireClass::WellFormed => {
                // The view precheck passed but the full message can still
                // be malformed (bad record sections, trailing bytes):
                // that, too, is FORMERR territory and must not touch the
                // sim.
                let msg = match Message::decode(query) {
                    Ok(m) => m,
                    Err(_) => {
                        self.registry.inc("serve.formerr", &[("cause", "decode")]);
                        return match control_reply(query, Rcode::FormErr) {
                            Some(bytes) => Served::Reply(bytes),
                            None => Served::Drop(DropReason::TooShort(query.len())),
                        };
                    }
                };
                self.resolve(shard, transport, &msg)
            }
        }
    }

    /// Resolves a fully decoded single-question query through the sim and
    /// answers with the sim's own reply bytes, the wire id written into
    /// bytes 0–1. In-sim replies are encoder output, so these are the bytes
    /// a decode and re-encode would give; only a reply over the UDP limit
    /// is decoded, to be truncated.
    fn resolve(&mut self, shard: usize, transport: Transport, msg: &Message) -> Served {
        if shard >= self.world.shards.len() {
            self.registry.inc(
                "serve.dropped",
                &[("reason", DropReason::BadCarrier(shard).label())],
            );
            return Served::Drop(DropReason::BadCarrier(shard));
        }
        let question = match msg.questions.first() {
            Some(q) => q,
            // Unreachable behind classify(), kept for direct callers.
            None => {
                self.registry.inc("serve.formerr", &[("cause", "precheck")]);
                return Served::Drop(DropReason::StrayResponse);
            }
        };
        let qname = &question.qname;
        let qtype = question.qtype;
        let wire_id = msg.header.id;

        let shard_ref = &mut self.world.shards[shard];
        let device_count = shard_ref.devices.len();
        if device_count == 0 {
            self.registry.inc(
                "serve.dropped",
                &[("reason", DropReason::BadCarrier(shard).label())],
            );
            return Served::Drop(DropReason::BadCarrier(shard));
        }
        let device = &shard_ref.devices[self.cursors[shard] % device_count];
        self.cursors[shard] += 1;
        let (node, resolver) = (device.node, device.configured_dns);

        let lookup = match transport {
            Transport::Udp => exchange(&mut shard_ref.net, node, resolver, qname, qtype),
            Transport::Tcp => exchange_tcp(&mut shard_ref.net, node, resolver, qname, qtype),
        };

        self.meter(shard, transport, lookup.outcome, lookup.elapsed);

        let mut reply = match lookup.reply {
            Some(bytes) => bytes,
            // The sim-side lookup died (timeout/unreachable): the wire
            // client still gets a well-formed SERVFAIL, like a real
            // resolver front end would send.
            None => match servfail(wire_id, qname, qtype).encode() {
                Ok(bytes) => bytes,
                Err(e) => return self.encode_failed(e),
            },
        };
        patch_id(&mut reply, wire_id);
        // Classic UDP policy, matching `dnssim`'s authority exactly: the
        // reply must fit the querier's advertised EDNS payload size —
        // or 512 bytes when none was advertised — else all records drop
        // and TC tells the client to retry over TCP (RFC 1035 §4.2.1).
        if transport == Transport::Udp {
            let limit = msg
                .edns_udp_size()
                .map(|s| s as usize)
                .unwrap_or(CLASSIC_UDP_LIMIT)
                .max(CLASSIC_UDP_LIMIT);
            if reply.len() > limit {
                self.registry.inc("serve.truncated", &[]);
                return match clamp_to(&reply, limit) {
                    Ok(bytes) => Served::Reply(bytes),
                    Err(e) => self.encode_failed(e),
                };
            }
        }
        Served::Reply(reply)
    }

    /// Counts one resolved query: its carrier and transport, its outcome
    /// and, when it was answered in time, its sim latency.
    // detlint: hot
    fn meter(
        &mut self,
        shard: usize,
        transport: Transport,
        outcome: Outcome,
        elapsed: Option<SimDuration>,
    ) {
        let (reg, meters) = (&mut self.registry, &mut self.meters);
        let carrier = self.world.shards[shard].carrier.profile.name;
        let queries = *meters.queries[shard][transport as usize].get_or_insert_with(|| {
            reg.counter_id(
                "serve.queries",
                &[("carrier", carrier), ("transport", transport.label())],
            )
        });
        reg.add(queries, 1);
        let outcomes = *meters.outcomes[outcome as usize].get_or_insert_with(|| {
            reg.counter_id("serve.outcomes", &[("outcome", outcome.label())])
        });
        reg.add(outcomes, 1);
        if let Some(elapsed) = elapsed {
            let latency = *meters
                .latency
                .get_or_insert_with(|| reg.histogram_id("serve.sim_latency_us", &[]));
            reg.observe(latency, elapsed.as_micros());
        }
    }

    /// Counts and returns the drop for a reply that would not encode.
    fn encode_failed(&mut self, e: WireError) -> Served {
        let reason = DropReason::Encode(e);
        self.registry
            .inc("serve.dropped", &[("reason", reason.label())]);
        Served::Drop(reason)
    }

    /// Total engine events dispatched across all shards (soak reporting).
    pub fn total_events(&self) -> u64 {
        self.world.total_events()
    }
}

/// An over-limit reply clamped the way `dnssim`'s authority clamps: every
/// record dropped and TC set ([`Message::encode_within`]).
fn clamp_to(reply: &[u8], limit: usize) -> Result<Vec<u8>, WireError> {
    Message::decode(reply)?.encode_within(limit)
}

/// A minimal SERVFAIL reply echoing the question.
fn servfail(id: u16, qname: &dnswire::name::DnsName, qtype: RecordType) -> Message {
    let mut header = Header::query(id);
    header.flags.response = true;
    header.flags.recursion_desired = true;
    header.flags.recursion_available = true;
    header.rcode = dnswire::message::Rcode::ServFail;
    let mut msg = Message::new(header);
    msg.questions
        .push(dnswire::message::Question::new(qname.clone(), qtype));
    msg
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnssim::{AuthoritativeServer, Zone};
    use dnswire::builder::QueryBuilder;
    use dnswire::message::Opcode;
    use dnswire::name::DnsName;
    use dnswire::rdata::RData;
    use netsim::engine::{ServiceCtx, UdpService};
    use netsim::time::SimTime;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::net::Ipv4Addr;

    fn quick_core() -> ServeCore {
        ServeCore::new(WorldConfig::quick(7))
    }

    fn query_bytes(id: u16, name: &str) -> Vec<u8> {
        let mut q = QueryBuilder::new(id, name, RecordType::A)
            .recursion_desired(true)
            .build()
            .unwrap();
        q.advertise_udp_size(dnswire::edns::DEFAULT_UDP_PAYLOAD_SIZE);
        q.encode().unwrap()
    }

    fn reply_of(served: Served) -> Vec<u8> {
        match served {
            Served::Reply(b) => b,
            Served::Drop(r) => panic!("expected a reply, got drop: {r:?}"),
        }
    }

    #[test]
    fn answers_echo_the_wire_id_and_question() {
        let mut core = quick_core();
        let query = query_bytes(0xBEEF, "m.facebook.com");
        let reply = reply_of(core.handle(0, Transport::Udp, &query));
        let msg = Message::decode(&reply).unwrap();
        assert_eq!(msg.header.id, 0xBEEF);
        assert!(msg.header.flags.response);
        assert_eq!(msg.questions[0].qname.to_string(), "m.facebook.com");
        assert!(!msg.answer_addrs().is_empty(), "expected A records");
        assert_eq!(core.registry.counter_total("serve.queries"), 1);
    }

    /// Every reply the core serves is canonical encoder output carrying the
    /// wire id: cache hits, forced misses, TCP, SERVFAILs and fault-truncated
    /// answers, on a stress world so the faults fire.
    #[test]
    fn every_reply_is_canonical_and_carries_the_wire_id() {
        let mut core = ServeCore::new(WorldConfig {
            fault_profile: measure::FaultProfile::Stress,
            ..WorldConfig::quick(7)
        });
        let hits = ["m.facebook.com", "m.yelp.com", "www.buzzfeed.com"];
        let (mut servfails, mut truncated, mut tcp) = (0, 0, 0);
        for i in 0..600u16 {
            let name = match i % 4 {
                0 => format!("q{i:016x}.whoami.probe.example"),
                k => hits[k as usize - 1].to_string(),
            };
            let transport = if i % 5 == 0 {
                Transport::Tcp
            } else {
                Transport::Udp
            };
            let id = i.wrapping_mul(40_503);
            let shard = i as usize % core.carrier_count();
            let reply = reply_of(core.handle(shard, transport, &query_bytes(id, &name)));
            let msg = Message::decode(&reply).unwrap();
            assert_eq!(msg.header.id, id);
            assert_eq!(msg.encode().unwrap(), reply, "{name} over {transport:?}");
            servfails += usize::from(msg.header.rcode == Rcode::ServFail);
            truncated += usize::from(msg.header.flags.truncated);
            tcp += usize::from(transport == Transport::Tcp);
        }
        assert!(servfails > 0, "no SERVFAIL exercised");
        assert!(truncated > 0, "no truncated reply exercised");
        assert!(tcp > 0);
    }

    #[test]
    fn two_cores_replay_byte_identically() {
        let mut a = quick_core();
        let mut b = quick_core();
        for (i, name) in ["m.yelp.com", "m.twitter.com", "www.buzzfeed.com"]
            .iter()
            .enumerate()
        {
            let q = query_bytes(i as u16, name);
            for shard in 0..a.carrier_count().min(2) {
                let ra = reply_of(a.handle(shard, Transport::Udp, &q));
                let rb = reply_of(b.handle(shard, Transport::Udp, &q));
                assert_eq!(ra, rb, "shard {shard} answer diverged for {name}");
            }
        }
    }

    #[test]
    fn rejections_do_not_touch_sim_state() {
        // Two cores: one sees garbage interleaved with real queries, the
        // other only the real queries. Answers must stay byte-identical —
        // the whole hostile-wire replay contract in one assertion.
        let mut dirty = quick_core();
        let mut clean = quick_core();
        let garbage: &[&[u8]] = &[
            b"",
            b"\x00",
            b"not a dns message at all",
            &[0u8; 12],  // header-only query, QDCOUNT=0 → FORMERR
            &[0xFF; 40], // QR set → stray response, dropped
            &[
                0, 1, 0x08, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, b'x', 0, 0, 1, 0, 1,
            ], // IQUERY
        ];
        for (i, name) in ["m.yelp.com", "t.co", "m.espn.go.com"].iter().enumerate() {
            for g in garbage {
                let _ = dirty.handle(0, Transport::Udp, g);
            }
            let q = query_bytes(i as u16, name);
            let rd = reply_of(dirty.handle(0, Transport::Udp, &q));
            let rc = reply_of(clean.handle(0, Transport::Udp, &q));
            assert_eq!(rd, rc, "garbage perturbed the answer for {name}");
        }
        assert!(dirty.registry.counter_total("serve.formerr") > 0);
        assert!(dirty.registry.counter_total("serve.notimp") > 0);
        assert!(dirty.registry.counter_total("serve.dropped") > 0);
    }

    #[test]
    fn malformed_inputs_get_typed_rcodes_or_drops() {
        let mut core = quick_core();

        // Too short: typed silent drop.
        match core.handle(0, Transport::Udp, b"not dns") {
            Served::Drop(DropReason::TooShort(7)) => {}
            other => panic!("want TooShort drop, got {other:?}"),
        }

        // QDCOUNT=0: FORMERR echoing the id.
        let headeronly = [0xAB, 0xCD, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];
        let reply = reply_of(core.handle(0, Transport::Udp, &headeronly));
        let view = MessageView::new(&reply).unwrap();
        assert_eq!(view.id(), 0xABCD);
        assert!(view.is_response());
        assert_eq!(view.rcode(), Rcode::FormErr);

        // IQUERY opcode: NOTIMP echoing id and opcode.
        let mut iquery = query_bytes(0x1234, "m.yelp.com");
        iquery[2] = (iquery[2] & !0x78) | (Opcode::IQuery.code() << 3);
        let reply = reply_of(core.handle(0, Transport::Udp, &iquery));
        let view = MessageView::new(&reply).unwrap();
        assert_eq!(view.id(), 0x1234);
        assert_eq!(view.opcode(), Opcode::IQuery);
        assert_eq!(view.rcode(), Rcode::NotImp);

        // Stray response: silent drop.
        let mut stray = query_bytes(9, "m.yelp.com");
        stray[2] |= 0x80;
        assert!(matches!(
            core.handle(0, Transport::Udp, &stray),
            Served::Drop(DropReason::StrayResponse)
        ));

        // Bad shard: typed drop.
        let bad_shard = core.carrier_count();
        let q = query_bytes(1, "m.yelp.com");
        assert!(matches!(
            core.handle(bad_shard, Transport::Udp, &q),
            Served::Drop(DropReason::BadCarrier(_))
        ));
    }

    #[test]
    fn shed_reply_is_header_only_refused_and_unambiguous() {
        let q = query_bytes(0x7777, "m.yelp.com");
        let shed = control_reply(&q, Rcode::Refused).unwrap();
        assert_eq!(shed.len(), 12);
        assert!(is_shed_reply(&shed));
        let view = MessageView::new(&shed).unwrap();
        assert_eq!(view.id(), 0x7777);
        assert!(view.recursion_desired());

        // A real resolver answer is never mistaken for a shed marker.
        let mut core = quick_core();
        let answer = reply_of(core.handle(0, Transport::Udp, &q));
        assert!(!is_shed_reply(&answer));
        // Nor is a FORMERR rejection (different rcode).
        assert!(!is_shed_reply(&control_reply(&q, Rcode::FormErr).unwrap()));
    }

    /// Satellite A/B check: the serving core's UDP truncation must match
    /// the sim plane's classic policy (`dnssim`'s authority) exactly —
    /// same limit arithmetic, same all-or-nothing record drop, same TC.
    #[test]
    fn udp_truncation_matches_dnssim_classic_policy() {
        // A zone whose TXT answer cannot fit 512 bytes.
        let origin = DnsName::parse("big.example").unwrap();
        let mut zone = Zone::new(origin.clone());
        let name = origin.child("fat").unwrap();
        for i in 0..8 {
            zone.add(dnswire::message::ResourceRecord::new(
                name.clone(),
                60,
                RData::Txt(vec![format!("{i:0>200}")]),
            ));
        }
        let mut authority = AuthoritativeServer::new();
        authority.add_zone(zone);

        // Classic (no-EDNS) query for the fat name.
        let query = QueryBuilder::new(0x4242, "fat.big.example", RecordType::Txt)
            .recursion_desired(true)
            .build()
            .unwrap();
        let wire = query.encode().unwrap();

        // What the sim authority puts on a classic UDP path.
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx = ServiceCtx::new(
            SimTime::from_micros(1_000),
            Ipv4Addr::new(198, 51, 100, 53),
            &mut rng,
        );
        let from = Ipv4Addr::new(198, 51, 100, 7);
        let out = authority.handle(&mut ctx, from, 4096, &wire);
        assert_eq!(out.len(), 1);
        let sim_reply = out[0].payload.clone();
        let sim_msg = Message::decode(&sim_reply).unwrap();
        assert!(sim_msg.header.flags.truncated, "sim must truncate >512");
        assert!(sim_msg.answers.is_empty());
        assert!(sim_reply.len() <= CLASSIC_UDP_LIMIT);

        // What the serving core does to the same oversized answer on the
        // same classic query: the limit computed from the wire query as in
        // `ServeCore::resolve`, then its clamp. Byte-for-byte agreement
        // required.
        let q_msg = Message::decode(&wire).unwrap();
        let limit = q_msg
            .edns_udp_size()
            .map(|s| s as usize)
            .unwrap_or(CLASSIC_UDP_LIMIT)
            .max(CLASSIC_UDP_LIMIT);
        assert_eq!(limit, CLASSIC_UDP_LIMIT, "no EDNS → classic limit");
        let mut fat = sim_msg.clone();
        fat.header.flags.truncated = false;
        for i in 0..8 {
            fat.answers.push(dnswire::message::ResourceRecord::new(
                name.clone(),
                60,
                RData::Txt(vec![format!("{i:0>200}")]),
            ));
        }
        let core_reply = clamp_to(&fat.encode().unwrap(), limit).unwrap();
        assert_eq!(
            Message::decode(&core_reply).unwrap().encode().unwrap(),
            core_reply,
            "a clamped reply is canonical encoder output too"
        );
        assert_eq!(
            core_reply, sim_reply,
            "serve-plane clamp diverged from dnssim classic policy"
        );
    }

    #[test]
    fn udp_answers_fit_the_advertised_payload_size() {
        // End-to-end through the core: every UDP reply to a classic query
        // fits 512 bytes or has TC set with all records dropped.
        let mut core = quick_core();
        for (i, entry) in ["m.facebook.com", "m.yelp.com", "www.buzzfeed.com"]
            .iter()
            .enumerate()
        {
            let classic = QueryBuilder::new(i as u16, *entry, RecordType::A)
                .recursion_desired(true)
                .build()
                .unwrap()
                .encode()
                .unwrap();
            let reply = reply_of(core.handle(0, Transport::Udp, &classic));
            assert!(
                reply.len() <= CLASSIC_UDP_LIMIT,
                "classic reply for {entry} exceeds 512 bytes"
            );
        }
    }
}

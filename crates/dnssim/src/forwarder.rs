//! The client-facing resolver tier: a forwarder that relays queries to
//! external recursive resolvers under a configurable mapping policy.
//!
//! Every carrier the paper measured uses *indirect* resolution (§4): the
//! resolver configured on the device differs from the resolver the
//! authoritative side observes. The forwarder is that client-facing half;
//! its [`UpstreamPolicy`] is what produces each carrier's pairing
//! consistency in Table 3 and the client↔resolver churn of §4.5.

use dnswire::message::{patch_id, Message, MessageView, Rcode};
use dnswire::rdata::RecordClass;
use netsim::engine::{Egress, ServiceCtx, UdpService};
use netsim::time::{SimDuration, SimTime};
use rand::Rng;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use crate::authority::DNS_PORT;
use crate::cache::{AmbientModel, DnsCache, FlatKey};
use crate::txn::TxnTable;
use netsim::addr::Prefix;

/// How long a relayed query waits for its upstream before the relay is
/// dropped.
const RELAY_TIMEOUT: SimDuration = SimDuration::from_secs(4);
/// Per-message processing time.
const PROC_DELAY: SimDuration = SimDuration::from_micros(150);

/// How the forwarder maps clients to external resolvers.
#[derive(Debug, Clone, PartialEq)]
pub enum UpstreamPolicy {
    /// Every query goes to the first upstream (Verizon's 100% consistency).
    Sticky,
    /// Each client holds a leased upstream; at lease expiry it keeps its
    /// upstream with probability `stick_prob`, otherwise re-picks uniformly.
    /// Models LDNS pools with partial stickiness (Sprint, SK carriers).
    PerClientLease {
        /// Lease duration.
        lease: SimDuration,
        /// Probability of keeping the same upstream at renewal.
        stick_prob: f64,
    },
    /// Uniformly random upstream per query (T-Mobile's heavy balancing).
    LoadBalance,
    /// The first upstream is the primary; each query spills to a random
    /// other upstream with `spill_prob` (Sprint-style mostly-consistent
    /// pools).
    PrimarySpill {
        /// Probability a query goes to a non-primary upstream.
        spill_prob: f64,
    },
}

/// Forwarder activity counters.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ForwarderStats {
    /// Client queries relayed.
    pub relayed: u64,
    /// Responses relayed back.
    pub returned: u64,
    /// Upstream re-picks performed at lease renewal.
    pub repicks: u64,
    /// Queries answered from the forwarder's own cache.
    pub cache_answers: u64,
}

impl ForwarderStats {
    /// Folds the forwarder counters into an [`obs::Registry`] under the
    /// `dns.forwarder.*` family, labelled with `labels`.
    pub fn export(&self, reg: &mut obs::Registry, labels: &[(&'static str, &str)]) {
        reg.inc_by("dns.forwarder.relayed", labels, self.relayed);
        reg.inc_by("dns.forwarder.returned", labels, self.returned);
        reg.inc_by("dns.forwarder.repicks", labels, self.repicks);
        reg.inc_by("dns.forwarder.cache_answers", labels, self.cache_answers);
    }
}

#[derive(Debug)]
struct PendingRelay {
    client: Ipv4Addr,
    client_port: u16,
    client_id: u16,
    reply_from: Ipv4Addr,
    /// ECS scope announced upstream (partition key for the cache).
    scope: Option<Prefix>,
}

/// The forwarding service.
pub struct Forwarder {
    upstreams: Vec<Ipv4Addr>,
    policy: UpstreamPolicy,
    /// Unicast address upstream queries are sent from. Anycast instances
    /// must set this: relaying from the VIP would route the upstream's
    /// response to whichever instance is nearest to the *upstream*.
    egress_addr: Option<Ipv4Addr>,
    /// Answer cache (carrier client-facing resolvers cache; §6.2's "the
    /// locally configured resolver provides faster domain name resolutions"
    /// depends on it).
    cache: Option<DnsCache<ReplyTemplate>>,
    /// EDNS client-subnet map (the paper's §9 future-work fix): client /24
    /// → the public egress subnet the carrier would announce for it. When
    /// set, relayed queries carry ECS and the cache partitions by subnet.
    ecs_map: BTreeMap<Prefix, Ipv4Addr>,
    leases: BTreeMap<Ipv4Addr, (usize, SimTime)>,
    pending: TxnTable<PendingRelay>,
    /// Activity counters.
    pub stats: ForwarderStats,
}

impl Forwarder {
    /// A forwarder over the given upstream resolvers.
    pub fn new(upstreams: Vec<Ipv4Addr>, policy: UpstreamPolicy) -> Self {
        assert!(!upstreams.is_empty(), "forwarder with no upstreams");
        Forwarder {
            upstreams,
            policy,
            egress_addr: None,
            cache: None,
            ecs_map: BTreeMap::new(),
            leases: BTreeMap::new(),
            pending: TxnTable::default(),
            stats: ForwarderStats::default(),
        }
    }

    /// Sets the unicast egress address for upstream relaying.
    pub fn with_egress(mut self, addr: Ipv4Addr) -> Self {
        self.egress_addr = Some(addr);
        self
    }

    /// Enables RFC 7871 client-subnet announcements: clients inside `client`
    /// /24s are announced as the mapped public egress /24.
    pub fn with_ecs_map(mut self, map: BTreeMap<Prefix, Ipv4Addr>) -> Self {
        self.ecs_map = map;
        self
    }

    /// The ECS subnet to announce for a client, if mapped.
    fn ecs_for(&self, client: Ipv4Addr) -> Option<Ipv4Addr> {
        self.ecs_map.get(&Prefix::slash24_of(client)).copied()
    }

    /// Enables answer caching with an optional ambient-load model.
    pub fn with_cache(
        mut self,
        capacity: usize,
        max_ttl: SimDuration,
        ambient: Option<AmbientModel>,
    ) -> Self {
        let mut cache = DnsCache::new(capacity, max_ttl);
        if let Some(a) = ambient {
            cache = cache.with_ambient(a);
        }
        self.cache = Some(cache);
        self
    }

    /// The cached reply to `query`'s question, read from the view, if the
    /// cache can serve it. `scope` partitions ECS-scoped entries.
    fn answer_from_cache(
        &mut self,
        query: &MessageView<'_>,
        scope: Option<Prefix>,
        now: SimTime,
    ) -> Option<Vec<u8>> {
        let cache = self.cache.as_mut()?;
        let (qname, qtype, qclass) = query.question().ok()??;
        let hit = cache.get(&FlatKey::new(qname, qtype, scope), now)?;
        Some(
            hit.value
                .reply(query.id(), query.recursion_desired(), qclass, hit.remaining),
        )
    }

    /// Absorbs a relayed response into the cache under its question key,
    /// partitioned by `scope` when the answer was ECS-scoped. Keeps the
    /// reply template, not decoded records.
    fn absorb(&mut self, response: &[u8], scope: Option<Prefix>, now: SimTime) {
        let Some(cache) = self.cache.as_mut() else {
            return;
        };
        let Ok(view) = MessageView::new(response) else {
            return;
        };
        let Some((template, ttl)) = ReplyTemplate::of_response(response) else {
            return;
        };
        let Ok(Some((qname, qtype, _))) = view.question() else {
            return;
        };
        debug_assert!(
            Message::decode(response).is_ok(),
            "a cached response decodes"
        );
        cache.put(
            &FlatKey::new(qname, qtype, scope),
            template,
            view.rcode(),
            SimDuration::from_secs(u64::from(ttl)),
            now,
        );
    }

    /// The forwarder's answer cache, when one was configured.
    pub fn cache(&self) -> Option<&DnsCache<ReplyTemplate>> {
        self.cache.as_ref()
    }

    /// The configured upstream set.
    pub fn upstreams(&self) -> &[Ipv4Addr] {
        &self.upstreams
    }

    fn pick_upstream(&mut self, client: Ipv4Addr, ctx: &mut ServiceCtx<'_>) -> Ipv4Addr {
        let idx = match &self.policy {
            UpstreamPolicy::Sticky => 0,
            UpstreamPolicy::LoadBalance => ctx.rng.gen_range(0..self.upstreams.len()),
            UpstreamPolicy::PrimarySpill { spill_prob } => {
                if self.upstreams.len() > 1 && ctx.rng.gen_bool(spill_prob.clamp(0.0, 1.0)) {
                    ctx.rng.gen_range(1..self.upstreams.len())
                } else {
                    0
                }
            }
            UpstreamPolicy::PerClientLease { lease, stick_prob } => {
                let (lease, stick_prob) = (*lease, *stick_prob);
                match self.leases.get(&client).copied() {
                    Some((idx, expires)) if ctx.now < expires => idx,
                    Some((idx, _)) => {
                        let keep = ctx.rng.gen_bool(stick_prob.clamp(0.0, 1.0));
                        let new_idx = if keep {
                            idx
                        } else {
                            self.stats.repicks += 1;
                            ctx.rng.gen_range(0..self.upstreams.len())
                        };
                        self.leases.insert(client, (new_idx, ctx.now + lease));
                        new_idx
                    }
                    None => {
                        let idx = ctx.rng.gen_range(0..self.upstreams.len());
                        self.leases.insert(client, (idx, ctx.now + lease));
                        idx
                    }
                }
            }
        };
        self.upstreams[idx]
    }
}

impl UdpService for Forwarder {
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn handle(
        &mut self,
        ctx: &mut ServiceCtx<'_>,
        from: Ipv4Addr,
        from_port: u16,
        payload: &[u8],
    ) -> Vec<Egress> {
        // Forget relays whose upstream never answered. Lazily: the
        // forwarder arms no timer.
        for txn in self.pending.expired(ctx.now) {
            self.pending.take(txn);
        }
        // Zero-copy precheck: an upstream response whose transaction id is
        // not pending (late duplicate, spoof) is dropped on the header peek
        // alone. In-sim payloads are encoder output, so a hop that changes
        // only the id relays a copy with two bytes patched.
        let Ok(view) = MessageView::new(payload) else {
            return Vec::new();
        };
        if view.is_response() {
            // A response from an upstream: cache it, relay to the client.
            let Some((_, relay)) = self.pending.take(view.id()) else {
                return Vec::new();
            };
            self.absorb(payload, relay.scope, ctx.now);
            self.stats.returned += 1;
            return vec![Egress::reply(
                relay.client,
                relay.client_port,
                with_id(payload, relay.client_id),
                PROC_DELAY,
            )
            .from_addr(relay.reply_from)];
        }
        // A client query: resolve the ECS announcement first (it is also
        // the cache partition key), then serve from cache or relay.
        let ecs_subnet = self.ecs_for(from);
        let scope = ecs_subnet.map(Prefix::slash24_of);
        if let Some(bytes) = self.answer_from_cache(&view, scope, ctx.now) {
            self.stats.cache_answers += 1;
            return vec![Egress::reply(from, from_port, bytes, PROC_DELAY)];
        }
        // The ECS option rewrites the OPT record, so that arm decodes and
        // re-encodes; every other query is relayed as its bytes.
        let ecs_query = match ecs_subnet {
            Some(subnet) => {
                let Ok(mut msg) = Message::decode(payload) else {
                    return Vec::new();
                };
                msg.set_client_subnet(subnet, 24);
                Some(msg)
            }
            None => None,
        };
        let upstream = self.pick_upstream(from, ctx);
        let txn = self.pending.alloc();
        self.pending.insert(
            txn,
            ctx.now + RELAY_TIMEOUT,
            PendingRelay {
                client: from,
                client_port: from_port,
                client_id: view.id(),
                reply_from: ctx.local_addr,
                scope,
            },
        );
        self.stats.relayed += 1;
        let bytes = match ecs_query {
            None => with_id(payload, txn),
            Some(mut msg) => {
                msg.header.id = txn;
                #[expect(
                    clippy::expect_used,
                    reason = "re-encode of a query that just decoded successfully; only id and ECS changed"
                )]
                let bytes = msg.encode().expect("relayed query encodes");
                bytes
            }
        };
        let mut egress = Egress::reply(upstream, DNS_PORT, bytes, PROC_DELAY);
        if let Some(src) = self.egress_addr {
            egress = egress.from_addr(src);
        }
        vec![egress]
    }
}

/// How long the forwarder keeps an NXDOMAIN.
const NXDOMAIN_TTL: u32 = 30;

/// A cached answer kept as the reply it becomes: the header, question and
/// answer sections of the upstream response, byte for byte, with the
/// header rewritten to what every hit shares: id 0, QR and RA set and
/// every other flag clear, the rcode, one question, the answers and no
/// other sections. The received TTLs stay in the bytes.
///
/// In-sim responses are encoder output (DESIGN §8), and a compression
/// pointer only points backwards, so this prefix is exactly what encoding
/// the question and the decoded answers again would produce.
#[derive(Debug)]
pub struct ReplyTemplate {
    bytes: Box<[u8]>,
    /// Offset of the question's class.
    qclass_at: u16,
    /// Offset of each answer's TTL.
    ttl_at: Box<[u16]>,
}

impl ReplyTemplate {
    /// The template of an upstream response the cache keeps, with the TTL
    /// of its entry: a one-question NOERROR with answers (the smallest
    /// answer TTL, if above zero), or an NXDOMAIN ([`NXDOMAIN_TTL`], its
    /// answers dropped).
    fn of_response(response: &[u8]) -> Option<(ReplyTemplate, u32)> {
        let view = MessageView::new(response).ok()?;
        let rcode = view.rcode();
        if view.qdcount() != 1 || !matches!(rcode, Rcode::NoError | Rcode::NxDomain) {
            return None;
        }
        let layout = view.answer_layout().ok()?;
        let (end, ttl_at) = match rcode {
            Rcode::NoError => (layout.answers_end, layout.ttl_offsets),
            _ => (layout.question_end, Vec::new()),
        };
        let mut bytes: Box<[u8]> = response.get(..end)?.into();
        let qclass_at = u16::try_from(layout.question_end - 2).ok()?;
        let ttl_at = ttl_at
            .into_iter()
            .map(u16::try_from)
            .collect::<Result<Box<[u16]>, _>>()
            .ok()?;
        let ttl = match rcode {
            Rcode::NoError => ttl_at
                .iter()
                .map(|&at| read_u32(&bytes, usize::from(at)))
                .min()?,
            _ => NXDOMAIN_TTL,
        };
        if ttl == 0 {
            return None;
        }
        let header = bytes.get_mut(..12)?;
        header[..6].copy_from_slice(&[0, 0, 0x80, 0x80 | rcode.code(), 0, 1]);
        header[6..8].copy_from_slice(&(ttl_at.len() as u16).to_be_bytes());
        header[8..].fill(0);
        let template = ReplyTemplate {
            bytes,
            qclass_at,
            ttl_at,
        };
        Some((template, ttl))
    }

    /// The reply to a query with id `id`, RD bit `rd` and class `qclass`:
    /// a copy of the template with those patched in and each TTL cut to
    /// the `remaining` whole seconds.
    fn reply(&self, id: u16, rd: bool, qclass: RecordClass, remaining: SimDuration) -> Vec<u8> {
        let mut out = self.bytes.to_vec();
        patch_id(&mut out, id);
        out[2] |= u8::from(rd);
        let at = usize::from(self.qclass_at);
        out[at..at + 2].copy_from_slice(&qclass.code().to_be_bytes());
        let remaining = remaining.as_secs();
        for &at in self.ttl_at.iter() {
            let at = usize::from(at);
            let ttl = remaining.min(u64::from(read_u32(&out, at))) as u32;
            out[at..at + 4].copy_from_slice(&ttl.to_be_bytes());
        }
        out
    }
}

/// The big-endian `u32` at `at` (a TTL offset the layout walk found).
fn read_u32(bytes: &[u8], at: usize) -> u32 {
    let mut word = [0; 4];
    word.copy_from_slice(&bytes[at..at + 4]);
    u32::from_be_bytes(word)
}

/// A copy of the message `payload` carrying transaction id `id`.
fn with_id(payload: &[u8], id: u16) -> Vec<u8> {
    let mut bytes = payload.to_vec();
    patch_id(&mut bytes, id);
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnswire::builder::{QueryBuilder, ResponseBuilder};
    use dnswire::rdata::RecordType;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ip(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
        Ipv4Addr::new(a, b, c, d)
    }

    fn ctx<'a>(rng: &'a mut StdRng, now_s: u64) -> ServiceCtx<'a> {
        ServiceCtx::new(
            SimTime::from_micros(now_s * 1_000_000),
            ip(10, 5, 0, 1),
            rng,
        )
    }

    fn upstreams() -> Vec<Ipv4Addr> {
        (1..=4).map(|i| ip(66, 174, 0, i)).collect()
    }

    #[test]
    fn relays_query_and_response() {
        let mut f = Forwarder::new(upstreams(), UpstreamPolicy::Sticky);
        let mut rng = StdRng::seed_from_u64(1);
        let q = QueryBuilder::new(0x42, "m.yelp.com", RecordType::A)
            .recursion_desired(true)
            .build()
            .unwrap();
        let out = f.handle(
            &mut ctx(&mut rng, 0),
            ip(10, 9, 9, 9),
            5555,
            &q.encode().unwrap(),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dst, ip(66, 174, 0, 1)); // sticky = first upstream
        assert_eq!(out[0].dst_port, DNS_PORT);
        let relayed = Message::decode(&out[0].payload).unwrap();
        assert_ne!(relayed.header.id, 0x42); // fresh transaction id
                                             // Relayed as the client's bytes with the id patched.
        assert_eq!(out[0].payload[2..], q.encode().unwrap()[2..]);

        // Upstream responds.
        let resp = ResponseBuilder::for_query(&relayed)
            .answer_a(
                dnswire::name::DnsName::parse("m.yelp.com").unwrap(),
                30,
                ip(192, 0, 2, 5),
            )
            .build();
        let resp_bytes = resp.encode().unwrap();
        let out = f.handle(
            &mut ctx(&mut rng, 0),
            ip(66, 174, 0, 1),
            DNS_PORT,
            &resp_bytes,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].payload[2..], resp_bytes[2..]);
        assert_eq!(out[0].dst, ip(10, 9, 9, 9));
        assert_eq!(out[0].dst_port, 5555);
        let back = Message::decode(&out[0].payload).unwrap();
        assert_eq!(back.header.id, 0x42); // client id restored
        assert_eq!(back.answer_addrs(), vec![ip(192, 0, 2, 5)]);
        assert_eq!(f.stats.relayed, 1);
        assert_eq!(f.stats.returned, 1);
    }

    #[test]
    fn load_balance_spreads_upstreams() {
        let mut f = Forwarder::new(upstreams(), UpstreamPolicy::LoadBalance);
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..60 {
            let q = QueryBuilder::new(i, "m.yelp.com", RecordType::A)
                .build()
                .unwrap();
            let out = f.handle(
                &mut ctx(&mut rng, i as u64),
                ip(10, 9, 9, 9),
                5555,
                &q.encode().unwrap(),
            );
            seen.insert(out[0].dst);
        }
        assert_eq!(seen.len(), 4, "all upstreams used");
    }

    #[test]
    fn per_client_lease_is_stable_within_lease() {
        let mut f = Forwarder::new(
            upstreams(),
            UpstreamPolicy::PerClientLease {
                lease: SimDuration::from_secs(1000),
                stick_prob: 0.0,
            },
        );
        let mut rng = StdRng::seed_from_u64(3);
        let mut targets = std::collections::BTreeSet::new();
        for i in 0..20 {
            let q = QueryBuilder::new(i, "m.yelp.com", RecordType::A)
                .build()
                .unwrap();
            // All within the lease window.
            let out = f.handle(
                &mut ctx(&mut rng, i as u64),
                ip(10, 9, 9, 9),
                5555,
                &q.encode().unwrap(),
            );
            targets.insert(out[0].dst);
        }
        assert_eq!(targets.len(), 1, "stable within lease");
    }

    #[test]
    fn per_client_lease_repicks_after_expiry() {
        let mut f = Forwarder::new(
            upstreams(),
            UpstreamPolicy::PerClientLease {
                lease: SimDuration::from_secs(10),
                stick_prob: 0.0,
            },
        );
        let mut rng = StdRng::seed_from_u64(4);
        let mut targets = std::collections::BTreeSet::new();
        for i in 0..40u64 {
            let q = QueryBuilder::new(i as u16, "m.yelp.com", RecordType::A)
                .build()
                .unwrap();
            // 100 s apart: every query renews the lease.
            let out = f.handle(
                &mut ctx(&mut rng, i * 100),
                ip(10, 9, 9, 9),
                5555,
                &q.encode().unwrap(),
            );
            targets.insert(out[0].dst);
        }
        assert!(targets.len() > 1, "repicks happen across leases");
        assert!(f.stats.repicks > 0);
    }

    #[test]
    fn distinct_clients_get_independent_leases() {
        let mut f = Forwarder::new(
            upstreams(),
            UpstreamPolicy::PerClientLease {
                lease: SimDuration::from_secs(1000),
                stick_prob: 1.0,
            },
        );
        let mut rng = StdRng::seed_from_u64(5);
        let mut targets = std::collections::BTreeSet::new();
        for c in 1..=20u8 {
            let q = QueryBuilder::new(c as u16, "m.yelp.com", RecordType::A)
                .build()
                .unwrap();
            let out = f.handle(
                &mut ctx(&mut rng, 0),
                ip(10, 9, 9, c),
                5555,
                &q.encode().unwrap(),
            );
            targets.insert(out[0].dst);
        }
        assert!(targets.len() > 1, "clients spread across the pool");
    }

    #[test]
    fn unknown_responses_are_dropped() {
        let mut f = Forwarder::new(upstreams(), UpstreamPolicy::Sticky);
        let mut rng = StdRng::seed_from_u64(6);
        let q = QueryBuilder::new(77, "m.yelp.com", RecordType::A)
            .build()
            .unwrap();
        let resp = ResponseBuilder::for_query(&q).build();
        let out = f.handle(
            &mut ctx(&mut rng, 0),
            ip(66, 174, 0, 1),
            DNS_PORT,
            &resp.encode().unwrap(),
        );
        assert!(out.is_empty());
    }

    /// An upstream answer for `www.example.test` (a CNAME, then two A
    /// records), with an NS and an SOA in authority, glue and an OPT with
    /// ECS in additional.
    fn full_response(id: u16, ttls: [u32; 3]) -> Vec<u8> {
        let name = |s: &str| dnswire::name::DnsName::parse(s).unwrap();
        let q = QueryBuilder::new(id, "www.example.test", RecordType::A)
            .build()
            .unwrap();
        let mut msg = ResponseBuilder::for_query(&q)
            .authoritative(true)
            .answer(dnswire::message::ResourceRecord::new(
                name("www.example.test"),
                ttls[0],
                dnswire::rdata::RData::Cname(name("edge.cdn.test")),
            ))
            .answer_a(name("edge.cdn.test"), ttls[1], ip(192, 0, 2, 7))
            .answer_a(name("edge.cdn.test"), ttls[2], ip(192, 0, 2, 8))
            .authority(dnswire::message::ResourceRecord::new(
                name("cdn.test"),
                3600,
                dnswire::rdata::RData::Ns(name("ns1.cdn.test")),
            ))
            .additional(dnswire::message::ResourceRecord::new(
                name("ns1.cdn.test"),
                3600,
                dnswire::rdata::RData::A(ip(192, 0, 2, 53)),
            ))
            .build();
        msg.set_client_subnet(ip(100, 64, 0, 0), 24);
        msg.advertise_udp_size(1232);
        msg.encode().unwrap()
    }

    #[test]
    fn a_cached_reply_carries_the_question_and_answers_only() {
        let response = full_response(9, [60, 20, 40]);
        let (template, ttl) = ReplyTemplate::of_response(&response).unwrap();
        assert_eq!(ttl, 20, "the entry lives as long as its shortest answer");
        let reply = template.reply(0x77, true, RecordClass::In, SimDuration::from_secs(15));
        let got = Message::decode(&reply).unwrap();
        let sent = Message::decode(&response).unwrap();
        assert_eq!(got.header.id, 0x77);
        assert!(got.header.flags.response && got.header.flags.recursion_available);
        assert!(got.header.flags.recursion_desired && !got.header.flags.authoritative);
        assert_eq!(got.questions, sent.questions);
        assert_eq!(got.answers.len(), 3);
        assert!(got.authorities.is_empty() && got.additionals.is_empty());
        // The same bytes as encoding that message again.
        assert_eq!(reply, got.encode().unwrap());
        // With no TTL cut, after the header it is the response's prefix.
        let uncut = template.reply(0x77, true, RecordClass::In, SimDuration::from_secs(60));
        assert_eq!(uncut[12..], response[12..uncut.len()]);
    }

    #[test]
    fn a_cached_reply_cuts_each_ttl_to_the_smaller_of_remaining_and_received() {
        let response = full_response(9, [60, 20, 40]);
        let (template, _) = ReplyTemplate::of_response(&response).unwrap();
        let ttls = |remaining: u64| {
            let reply =
                template.reply(1, false, RecordClass::In, SimDuration::from_secs(remaining));
            let msg = Message::decode(&reply).unwrap();
            msg.answers.iter().map(|rr| rr.ttl).collect::<Vec<_>>()
        };
        assert_eq!(ttls(100), vec![60, 20, 40]);
        assert_eq!(ttls(30), vec![30, 20, 30]);
        assert_eq!(ttls(0), vec![0, 0, 0]);
        // A hit patches a copy: the template keeps the received TTLs.
        assert_eq!(ttls(100), vec![60, 20, 40]);
    }

    #[test]
    fn an_nxdomain_is_cached_without_its_records_and_a_servfail_is_not() {
        let mut msg = Message::decode(&full_response(3, [60, 20, 40])).unwrap();
        msg.header.rcode = Rcode::NxDomain;
        let (template, ttl) = ReplyTemplate::of_response(&msg.encode().unwrap()).unwrap();
        assert_eq!(ttl, NXDOMAIN_TTL);
        let reply = template.reply(5, false, RecordClass::In, SimDuration::from_secs(9));
        let got = Message::decode(&reply).unwrap();
        assert_eq!(got.header.rcode, Rcode::NxDomain);
        assert_eq!(got.questions.len(), 1);
        assert!(got.answers.is_empty() && got.additionals.is_empty());
        msg.header.rcode = Rcode::ServFail;
        assert!(ReplyTemplate::of_response(&msg.encode().unwrap()).is_none());
        // A NOERROR whose shortest answer TTL is zero is not cached either.
        assert!(ReplyTemplate::of_response(&full_response(3, [60, 0, 40])).is_none());
    }
}

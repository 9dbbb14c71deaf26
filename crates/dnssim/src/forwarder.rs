//! The client-facing resolver tier: a forwarder that relays queries to
//! external recursive resolvers under a configurable mapping policy.
//!
//! Every carrier the paper measured uses *indirect* resolution (§4): the
//! resolver configured on the device differs from the resolver the
//! authoritative side observes. The forwarder is that client-facing half;
//! its [`UpstreamPolicy`] is what produces each carrier's pairing
//! consistency in Table 3 and the client↔resolver churn of §4.5.

use dnswire::message::{patch_id, Header, Message, MessageView, Question, Rcode};
use netsim::engine::{Egress, ServiceCtx, UdpService};
use netsim::time::{SimDuration, SimTime};
use rand::Rng;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use crate::authority::DNS_PORT;
use crate::cache::{AmbientModel, CacheOutcome, DnsCache};
use crate::txn::TxnTable;
use netsim::addr::Prefix;

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
    cache: Option<DnsCache>,
    /// EDNS client-subnet map (the paper's §9 future-work fix): client /24
    /// → the public egress subnet the carrier would announce for it. When
    /// set, relayed queries carry ECS and the cache partitions by subnet.
    ecs_map: BTreeMap<Prefix, Ipv4Addr>,
    leases: BTreeMap<Ipv4Addr, (usize, SimTime)>,
    pending: TxnTable<PendingRelay>,
    timeout: SimDuration,
    proc_delay: SimDuration,
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
            timeout: SimDuration::from_secs(4),
            proc_delay: SimDuration::from_micros(150),
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

    /// Builds a cached answer to `query`'s question, read from the view,
    /// if the cache can serve it. `scope` partitions ECS-scoped entries.
    fn answer_from_cache(
        &mut self,
        query: &MessageView<'_>,
        scope: Option<Prefix>,
        now: SimTime,
    ) -> Option<Message> {
        let cache = self.cache.as_mut()?;
        let (qname, qtype, qclass) = query.question().ok()??;
        let key = (qname.to_name(), qtype, scope);
        match cache.lookup(&key, now) {
            CacheOutcome::Hit { records, rcode } => {
                let mut header = Header::query(query.id());
                header.flags.response = true;
                header.flags.recursion_desired = query.recursion_desired();
                header.flags.recursion_available = true;
                header.rcode = rcode;
                let mut out = Message::new(header);
                out.questions.push(Question {
                    qname: key.0,
                    qtype,
                    qclass,
                });
                out.answers = records;
                Some(out)
            }
            CacheOutcome::Miss => None,
        }
    }

    /// Absorbs a relayed response into the cache under its question key,
    /// partitioned by `scope` when the answer was ECS-scoped. Decodes only
    /// a response the cache would keep.
    fn absorb(&mut self, response: &[u8], scope: Option<Prefix>, now: SimTime) {
        let Some(cache) = self.cache.as_mut() else {
            return;
        };
        let cacheable = MessageView::new(response)
            .is_ok_and(|v| matches!(v.rcode(), Rcode::NoError | Rcode::NxDomain));
        if !cacheable {
            return;
        }
        let Ok(msg) = Message::decode(response) else {
            return;
        };
        let Some(q) = msg.questions.first() else {
            return;
        };
        match msg.header.rcode {
            Rcode::NoError if !msg.answers.is_empty() => {
                let ttl = msg.answers.iter().map(|rr| rr.ttl).min().unwrap_or(0);
                if ttl > 0 {
                    cache.insert(
                        (q.qname.clone(), q.qtype, scope),
                        msg.answers.clone(),
                        Rcode::NoError,
                        SimDuration::from_secs(ttl as u64),
                        now,
                    );
                }
            }
            Rcode::NxDomain => {
                cache.insert(
                    (q.qname.clone(), q.qtype, scope),
                    Vec::new(),
                    Rcode::NxDomain,
                    SimDuration::from_secs(30),
                    now,
                );
            }
            _ => {}
        }
    }

    /// The forwarder's answer cache, when one was configured.
    pub fn cache(&self) -> Option<&DnsCache> {
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
                self.proc_delay,
            )
            .from_addr(relay.reply_from)];
        }
        // A client query: resolve the ECS announcement first (it is also
        // the cache partition key), then serve from cache or relay.
        let ecs_subnet = self.ecs_for(from);
        let scope = ecs_subnet.map(Prefix::slash24_of);
        if let Some(cached) = self.answer_from_cache(&view, scope, ctx.now) {
            self.stats.cache_answers += 1;
            #[expect(
                clippy::expect_used,
                reason = "encode of a cached response assembled from records that encoded before"
            )]
            let bytes = cached.encode().expect("cached response encodes");
            return vec![Egress::reply(from, from_port, bytes, self.proc_delay)];
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
            ctx.now + self.timeout,
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
        let mut egress = Egress::reply(upstream, DNS_PORT, bytes, self.proc_delay);
        if let Some(src) = self.egress_addr {
            egress = egress.from_addr(src);
        }
        vec![egress]
    }
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
        let mut seen = std::collections::HashSet::new();
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
        let mut targets = std::collections::HashSet::new();
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
        let mut targets = std::collections::HashSet::new();
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
        let mut targets = std::collections::HashSet::new();
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
}

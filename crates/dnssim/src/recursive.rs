//! A caching recursive resolver implemented as an event-driven state
//! machine: client queries come in, iterative resolution (root → TLD →
//! authoritative, with CNAME chasing and referral caching) happens over the
//! simulated network, and answers flow back.

use crate::authority::DNS_PORT;
use crate::cache::{rebased, AmbientModel, CacheKey, DnsCache, FlatKey};
use crate::txn::TxnTable;
use dnswire::builder::ResponseBuilder;
use dnswire::message::{Header, Message, Question, Rcode, ResourceRecord};
use dnswire::name::DnsName;
use dnswire::rdata::{RData, RecordType};
use netsim::addr::Prefix;
use netsim::engine::{Egress, ServiceCtx, UdpService};
use netsim::time::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Server-side fault injection knobs for a resolver instance. All
/// default to inert; an inert configuration draws nothing from any RNG,
/// so fault-free worlds replay byte-identically.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ServerFaults {
    /// Probability a client query is answered SERVFAIL outright (resolver
    /// pool member in distress).
    pub servfail_prob: f64,
    /// Probability a UDP answer is forcibly truncated (TC bit, records
    /// stripped), pushing the client to TCP. Queries advertising an EDNS
    /// payload above the default size — the TCP relay path — are exempt.
    pub truncate_prob: f64,
    /// Periodic window during which the resolver silently drops every
    /// client query (maintenance/overload blackout).
    pub unresponsive: Option<netsim::fault::Window>,
}

impl ServerFaults {
    /// Whether any knob is turned.
    pub fn is_active(&self) -> bool {
        self.servfail_prob > 0.0 || self.truncate_prob > 0.0 || self.unresponsive.is_some()
    }
}

/// Configuration of a recursive resolver instance.
#[derive(Debug, Clone)]
pub struct ResolverConfig {
    /// Addresses upstream queries are sent from (empty = the queried
    /// address). Carrier external resolvers set one; public-DNS sites set
    /// several, which is why Table 5 counts so many public resolver IPs
    /// within few /24s.
    pub egress_addrs: Vec<Ipv4Addr>,
    /// Root server addresses (hints).
    pub roots: Vec<Ipv4Addr>,
    /// How long an in-flight recursion may live before ServFail.
    pub inflight_deadline: SimDuration,
    /// Ambient background-load model for the cache (see `cache` docs).
    pub ambient: Option<AmbientModel>,
    /// Server-side fault injection (inert by default).
    pub faults: ServerFaults,
}

impl ResolverConfig {
    /// A reasonable default pointing at the given roots.
    pub fn new(roots: Vec<Ipv4Addr>) -> Self {
        ResolverConfig {
            egress_addrs: Vec::new(),
            roots,
            inflight_deadline: SimDuration::from_secs(5),
            ambient: None,
            faults: ServerFaults::default(),
        }
    }
}

/// Resolver activity counters.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ResolverStats {
    /// Queries received from clients.
    pub client_queries: u64,
    /// Queries sent upstream.
    pub upstream_queries: u64,
    /// Answers served entirely from cache.
    pub cache_answers: u64,
    /// ServFail responses produced.
    pub servfails: u64,
    /// Client queries silently dropped by an unresponsive-window fault.
    pub fault_dropped: u64,
    /// SERVFAILs injected by the fault configuration.
    pub fault_servfails: u64,
    /// Answers forcibly truncated by the fault configuration.
    pub fault_truncations: u64,
}

impl ResolverStats {
    /// Folds the resolver counters into an [`obs::Registry`] under the
    /// `dns.resolver.*` family, labelled with `labels` (typically the
    /// resolver class: `carrier`, `google`, `opendns`).
    pub fn export(&self, reg: &mut obs::Registry, labels: &[(&'static str, &str)]) {
        reg.inc_by("dns.resolver.client_queries", labels, self.client_queries);
        reg.inc_by(
            "dns.resolver.upstream_queries",
            labels,
            self.upstream_queries,
        );
        reg.inc_by("dns.resolver.cache_answers", labels, self.cache_answers);
        reg.inc_by("dns.resolver.servfails", labels, self.servfails);
        reg.inc_by("dns.resolver.fault_dropped", labels, self.fault_dropped);
        reg.inc_by("dns.resolver.fault_servfails", labels, self.fault_servfails);
        reg.inc_by(
            "dns.resolver.fault_truncations",
            labels,
            self.fault_truncations,
        );
    }
}

#[derive(Debug)]
struct InFlight {
    client: Ipv4Addr,
    client_port: u16,
    client_id: u16,
    /// Address the client queried; replies come from it.
    reply_from: Ipv4Addr,
    question: Question,
    /// Accumulated answer records (CNAME chain plus final records).
    chain: Vec<ResourceRecord>,
    /// Egress address chosen for this recursion.
    egress: Option<Ipv4Addr>,
    /// ECS subnet announced by the client, forwarded upstream and used as
    /// the cache partition (RFC 7871).
    ecs: Option<Ipv4Addr>,
    /// Name currently being resolved.
    current: DnsName,
    /// Server candidates for the next upstream query.
    servers: Vec<Ipv4Addr>,
    /// Upstream steps taken (loop guard).
    steps: u8,
    /// Retries spent on unresponsive servers.
    retries: u8,
    /// Fault injection decided this reply must come back truncated.
    truncate: bool,
}

const MAX_STEPS: u8 = 24;
/// Cache entry bound.
const CACHE_CAPACITY: usize = 100_000;
/// Cap on cached TTLs.
const MAX_TTL: SimDuration = SimDuration::from_hours(24);
/// Negative-cache TTL.
const NEG_TTL: SimDuration = SimDuration::from_secs(60);
/// Per-message processing time.
const PROC_DELAY: SimDuration = SimDuration::from_micros(300);
const MAX_CNAME_DEPTH: usize = 8;
/// Unresponsive-server retries before giving up with ServFail.
const MAX_RETRIES: u8 = 2;

/// The resolver service.
pub struct RecursiveResolver {
    config: ResolverConfig,
    cache: DnsCache,
    /// In-flight recursions by upstream txn id, due when the current attempt
    /// times out (then the next candidate server is tried).
    inflight: TxnTable<InFlight>,
    /// Activity counters.
    pub stats: ResolverStats,
}

impl RecursiveResolver {
    /// Builds a resolver from its configuration.
    pub fn new(config: ResolverConfig) -> Self {
        let mut cache = DnsCache::new(CACHE_CAPACITY, MAX_TTL);
        if let Some(a) = config.ambient {
            cache = cache.with_ambient(a);
        }
        RecursiveResolver {
            config,
            cache,
            inflight: TxnTable::default(),
            stats: ResolverStats::default(),
        }
    }

    /// Read access to the cache (tests, Fig. 7 analysis).
    pub fn cache(&self) -> &DnsCache {
        &self.cache
    }

    /// Follows the CNAME chain for `question` entirely from cache (within
    /// the given ECS partition). Returns `Some((records, rcode))` when the
    /// cache can fully answer. Probes by borrowed key: no name is cloned.
    fn answer_from_cache(
        &mut self,
        question: &Question,
        scope: Option<Prefix>,
        now: SimTime,
    ) -> Option<(Vec<ResourceRecord>, Rcode)> {
        let qtype = question.qtype;
        let mut chain = Vec::new();
        let mut key = FlatKey::new(question.qname.as_ref(), qtype, scope);
        let mut cname_key = FlatKey::new(question.qname.as_ref(), RecordType::Cname, scope);
        for _ in 0..=MAX_CNAME_DEPTH {
            if let Some(hit) = self.cache.get(&key, now) {
                if hit.rcode == Rcode::NoError {
                    // Records, or a cached NODATA.
                    chain.extend(rebased(hit.value, hit.remaining));
                }
                return Some((chain, hit.rcode));
            }
            if qtype == RecordType::Cname {
                return None;
            }
            let hit = self.cache.get(&cname_key, now)?;
            let first = hit.value.first().filter(|_| hit.rcode == Rcode::NoError)?;
            let target = first.rdata.as_cname()?.as_ref();
            key = FlatKey::new(target, qtype, scope);
            cname_key = FlatKey::new(target, RecordType::Cname, scope);
            chain.extend(rebased(hit.value, hit.remaining));
        }
        None
    }

    /// Finds the closest-enclosing zone of `name` with cached NS + glue,
    /// falling back to the root hints.
    fn servers_for(&mut self, name: &DnsName, now: SimTime) -> Vec<Ipv4Addr> {
        let mut zone = Some(name.as_ref());
        while let Some(anc) = zone {
            zone = anc.split_first().map(|(_, parent)| parent);
            let Some(hit) = self
                .cache
                .get(&FlatKey::new(anc, RecordType::Ns, None), now)
            else {
                continue;
            };
            let hosts: Vec<FlatKey> = hit
                .value
                .iter()
                .filter_map(|rr| match &rr.rdata {
                    RData::Ns(h) => Some(FlatKey::new(h.as_ref(), RecordType::A, None)),
                    _ => None,
                })
                .collect();
            let mut addrs = Vec::new();
            for host in &hosts {
                if let Some(hit) = self.cache.get(host, now) {
                    addrs.extend(hit.value.iter().filter_map(|rr| rr.rdata.as_a()));
                }
            }
            if !addrs.is_empty() {
                return addrs;
            }
        }
        self.config.roots.clone()
    }

    /// Caches every record group in a response. Answer-section records are
    /// partitioned under `scope` when the responder scoped them (RFC 7871
    /// §7.3.1); infrastructure records (authority/additional) never are.
    fn absorb(&mut self, msg: &Message, scope: Option<Prefix>, now: SimTime) {
        // Honor the responder's scope: only partition when it echoed a
        // non-zero ECS scope.
        let answer_scope = match (scope, msg.client_subnet()) {
            (Some(p), Some((_, _, s))) if s > 0 => Some(p),
            _ => None,
        };
        let mut groups: BTreeMap<CacheKey, Vec<ResourceRecord>> = BTreeMap::new();
        for (rr, in_answer) in msg
            .answers
            .iter()
            .map(|r| (r, true))
            .chain(msg.authorities.iter().map(|r| (r, false)))
            .chain(msg.additionals.iter().map(|r| (r, false)))
        {
            if matches!(rr.rdata, RData::Soa(_) | RData::Opt(_)) {
                continue;
            }
            let key_scope = if in_answer { answer_scope } else { None };
            groups
                .entry((rr.name.clone(), rr.record_type(), key_scope))
                .or_default()
                .push(rr.clone());
        }
        for (key, records) in groups {
            let ttl = records.iter().map(|r| r.ttl).min().unwrap_or(0);
            if ttl == 0 {
                continue; // do-not-cache records (whoami answers)
            }
            self.cache.insert(
                key,
                records,
                Rcode::NoError,
                SimDuration::from_secs(ttl as u64),
                now,
            );
        }
    }

    fn reply(&mut self, fl: &InFlight, rcode: Rcode, answers: Vec<ResourceRecord>) -> Egress {
        if rcode == Rcode::ServFail {
            self.stats.servfails += 1;
        }
        let mut header = Header::query(fl.client_id);
        header.flags.response = true;
        header.flags.recursion_desired = true;
        header.flags.recursion_available = true;
        header.rcode = rcode;
        let mut msg = Message::new(header);
        msg.questions.push(fl.question.clone());
        // A fault-truncated reply carries the TC bit and no records
        // (RFC 1035 §6.2): the client must retry over TCP.
        if fl.truncate && rcode == Rcode::NoError && !answers.is_empty() {
            self.stats.fault_truncations += 1;
            msg.header.flags.truncated = true;
        } else {
            msg.answers = answers;
        }
        #[expect(
            clippy::expect_used,
            reason = "encode of a reply assembled from records that encoded before"
        )]
        let bytes = msg.encode().expect("resolver reply encodes");
        Egress::reply(fl.client, fl.client_port, bytes, PROC_DELAY).from_addr(fl.reply_from)
    }

    /// Sends the next upstream query for `fl`, its attempt due at `deadline`.
    fn query_upstream(&mut self, mut fl: InFlight, deadline: SimTime, out: &mut Vec<Egress>) {
        let Some(&server) = fl.servers.first() else {
            let chain = std::mem::take(&mut fl.chain);
            out.push(self.reply(&fl, Rcode::ServFail, chain));
            return;
        };
        let txn = self.inflight.alloc();
        self.stats.upstream_queries += 1;
        let mut header = Header::query(txn);
        header.flags.recursion_desired = false;
        let mut msg = Message::new(header);
        msg.questions
            .push(Question::new(fl.current.clone(), fl.question.qtype));
        if let Some(subnet) = fl.ecs {
            msg.set_client_subnet(subnet, 24);
        }
        msg.advertise_udp_size(dnswire::edns::DEFAULT_UDP_PAYLOAD_SIZE);
        #[expect(
            clippy::expect_used,
            reason = "encode of a minimal upstream query the resolver itself built"
        )]
        let payload = msg.encode().expect("upstream query encodes");
        let mut egress = Egress {
            dst: server,
            dst_port: DNS_PORT,
            payload,
            delay: PROC_DELAY,
            src_addr: None,
        };
        if let Some(src) = fl.egress {
            egress = egress.from_addr(src);
        }
        out.push(egress);
        self.inflight.insert(txn, deadline, fl);
    }

    fn on_client_query(
        &mut self,
        ctx: &mut ServiceCtx<'_>,
        from: Ipv4Addr,
        from_port: u16,
        query: Message,
        out: &mut Vec<Egress>,
    ) {
        self.stats.client_queries += 1;
        // Unresponsive-window fault: the pool member is blacked out and the
        // query vanishes (the client's retry ladder deals with it).
        if let Some(w) = self.config.faults.unresponsive {
            if w.contains(ctx.now) {
                self.stats.fault_dropped += 1;
                return;
            }
        }
        let Some(question) = query.questions.first().cloned() else {
            let resp = ResponseBuilder::for_query(&query)
                .rcode(Rcode::FormErr)
                .recursion_available(true)
                .build();
            #[expect(
                clippy::expect_used,
                reason = "encode of a FormErr reply the resolver itself just built"
            )]
            let bytes = resp.encode().expect("formerr encodes");
            out.push(Egress::reply(from, from_port, bytes, PROC_DELAY));
            return;
        };
        // Fault draws happen only when the knob is turned, so inert
        // configurations leave the engine RNG stream untouched.
        let inject_servfail = self.config.faults.servfail_prob > 0.0 && {
            use rand::Rng;
            ctx.rng.gen_bool(self.config.faults.servfail_prob)
        };
        if inject_servfail {
            self.stats.fault_servfails += 1;
            let fl = InFlight {
                client: from,
                client_port: from_port,
                client_id: query.header.id,
                reply_from: ctx.local_addr,
                question,
                chain: Vec::new(),
                egress: None,
                ecs: None,
                current: DnsName::root(),
                servers: Vec::new(),
                steps: 0,
                retries: 0,
                truncate: false,
            };
            out.push(self.reply(&fl, Rcode::ServFail, Vec::new()));
            return;
        }
        // Forced truncation: decided up front, applied when the final
        // NOERROR answer is built. Queries advertising more than the
        // default EDNS payload (the DNS-over-TCP relay) are exempt.
        let truncate = self.config.faults.truncate_prob > 0.0
            && query
                .edns_udp_size()
                .unwrap_or(dnswire::edns::CLASSIC_UDP_LIMIT as u16)
                <= dnswire::edns::DEFAULT_UDP_PAYLOAD_SIZE
            && {
                use rand::Rng;
                ctx.rng.gen_bool(self.config.faults.truncate_prob)
            };
        let ecs = query
            .client_subnet()
            .filter(|(_, source, _)| *source > 0)
            .map(|(addr, _, _)| addr);
        let scope = ecs.map(Prefix::slash24_of);
        if let Some((answers, rcode)) = self.answer_from_cache(&question, scope, ctx.now) {
            self.stats.cache_answers += 1;
            let fl = InFlight {
                client: from,
                client_port: from_port,
                client_id: query.header.id,
                reply_from: ctx.local_addr,
                question,
                chain: Vec::new(),
                egress: None,
                ecs,
                current: DnsName::root(),
                servers: Vec::new(),
                steps: 0,
                retries: 0,
                truncate,
            };
            out.push(self.reply(&fl, rcode, answers));
            return;
        }
        let egress = if self.config.egress_addrs.is_empty() {
            None
        } else {
            use rand::Rng;
            let i = ctx.rng.gen_range(0..self.config.egress_addrs.len());
            Some(self.config.egress_addrs[i])
        };
        let current = question.qname.clone();
        let servers = self.servers_for(&current, ctx.now);
        let fl = InFlight {
            client: from,
            client_port: from_port,
            client_id: query.header.id,
            reply_from: ctx.local_addr,
            question,
            chain: Vec::new(),
            egress,
            ecs,
            current,
            servers,
            steps: 0,
            retries: 0,
            truncate,
        };
        self.query_upstream(fl, ctx.now + self.config.inflight_deadline, out);
    }

    fn on_upstream_response(
        &mut self,
        ctx: &mut ServiceCtx<'_>,
        response: Message,
        out: &mut Vec<Egress>,
    ) {
        let Some((deadline, mut fl)) = self.inflight.take(response.header.id) else {
            return; // late or spoofed; ignore
        };
        let fl_scope = fl.ecs.map(Prefix::slash24_of);
        self.absorb(&response, fl_scope, ctx.now);
        fl.steps += 1;
        if fl.steps > MAX_STEPS {
            let chain = std::mem::take(&mut fl.chain);
            out.push(self.reply(&fl, Rcode::ServFail, chain));
            return;
        }
        // NXDOMAIN: negative-cache and relay.
        if response.header.rcode == Rcode::NxDomain {
            let neg_ttl = response
                .authorities
                .iter()
                .find_map(|rr| match &rr.rdata {
                    RData::Soa(soa) => Some(SimDuration::from_secs(soa.minimum as u64)),
                    _ => None,
                })
                .unwrap_or(NEG_TTL)
                .min(NEG_TTL);
            self.cache.put(
                &FlatKey::new(fl.current.as_ref(), fl.question.qtype, None),
                Vec::new(),
                Rcode::NxDomain,
                neg_ttl,
                ctx.now,
            );
            let chain = std::mem::take(&mut fl.chain);
            out.push(self.reply(&fl, Rcode::NxDomain, chain));
            return;
        }
        if response.header.rcode != Rcode::NoError {
            let chain = std::mem::take(&mut fl.chain);
            out.push(self.reply(&fl, Rcode::ServFail, chain));
            return;
        }
        if !response.answers.is_empty() {
            // Collect the chain segment for `current`: CNAMEs plus records
            // of the requested type at the chain end.
            let mut current = fl.current.clone();
            let mut appended = false;
            for _ in 0..=MAX_CNAME_DEPTH {
                let type_matches: Vec<ResourceRecord> = response
                    .answers
                    .iter()
                    .filter(|rr| rr.name == current && rr.record_type() == fl.question.qtype)
                    .cloned()
                    .collect();
                if !type_matches.is_empty() {
                    fl.chain.extend(type_matches);
                    let chain = std::mem::take(&mut fl.chain);
                    out.push(self.reply(&fl, Rcode::NoError, chain));
                    return;
                }
                let cname = response
                    .answers
                    .iter()
                    .find(|rr| rr.name == current && rr.record_type() == RecordType::Cname)
                    .cloned();
                match cname {
                    Some(rr) => {
                        #[expect(
                            clippy::expect_used,
                            reason = "the record was filtered to RecordType::Cname two lines up, so its rdata is a CNAME"
                        )]
                        let target = rr.rdata.as_cname().expect("cname rdata").clone();
                        fl.chain.push(rr);
                        current = target;
                        appended = true;
                    }
                    None => break,
                }
            }
            if appended {
                // Chain continues outside this response: restart iteration
                // for the target (checking cache first).
                fl.current = current;
                let q = Question::new(fl.current.clone(), fl.question.qtype);
                if let Some((answers, rcode)) = self.answer_from_cache(&q, fl_scope, ctx.now) {
                    fl.chain.extend(answers);
                    let chain = std::mem::take(&mut fl.chain);
                    out.push(self.reply(&fl, rcode, chain));
                    return;
                }
                fl.servers = self.servers_for(&fl.current, ctx.now);
                self.query_upstream(fl, deadline, out);
                return;
            }
            // Answers we did not ask about; treat as lame.
            let chain = std::mem::take(&mut fl.chain);
            out.push(self.reply(&fl, Rcode::ServFail, chain));
            return;
        }
        // Referral?
        let ns_cuts: Vec<&ResourceRecord> = response
            .authorities
            .iter()
            .filter(|rr| rr.record_type() == RecordType::Ns)
            .collect();
        if !ns_cuts.is_empty() && !response.header.flags.authoritative {
            let mut glue: Vec<Ipv4Addr> = Vec::new();
            for ns in &ns_cuts {
                if let RData::Ns(host) = &ns.rdata {
                    glue.extend(
                        response
                            .additionals
                            .iter()
                            .filter(|rr| &rr.name == host)
                            .filter_map(|rr| rr.rdata.as_a()),
                    );
                }
            }
            if glue.is_empty() {
                let chain = std::mem::take(&mut fl.chain);
                out.push(self.reply(&fl, Rcode::ServFail, chain));
                return;
            }
            fl.servers = glue;
            self.query_upstream(fl, deadline, out);
            return;
        }
        // Authoritative NODATA.
        if response.header.flags.authoritative {
            self.cache.put(
                &FlatKey::new(fl.current.as_ref(), fl.question.qtype, None),
                Vec::new(),
                Rcode::NoError,
                NEG_TTL,
                ctx.now,
            );
            let chain = std::mem::take(&mut fl.chain);
            out.push(self.reply(&fl, Rcode::NoError, chain));
            return;
        }
        let chain = std::mem::take(&mut fl.chain);
        out.push(self.reply(&fl, Rcode::ServFail, chain));
    }

    /// Handles recursions whose current upstream attempt outlived its
    /// deadline: rotate to the next candidate server (bounded retries),
    /// then fail with ServFail.
    /// Expired ids are taken one at a time, so a retry's fresh id skips the
    /// ones not yet taken.
    fn expire_inflight(&mut self, now: SimTime, out: &mut Vec<Egress>) {
        for id in self.inflight.expired(now) {
            if let Some((_, mut fl)) = self.inflight.take(id) {
                if fl.retries < MAX_RETRIES && fl.servers.len() > 1 {
                    // Rotate the unresponsive server to the back and retry.
                    fl.servers.rotate_left(1);
                    fl.retries += 1;
                    self.query_upstream(fl, now + self.config.inflight_deadline, out);
                } else {
                    let chain = std::mem::take(&mut fl.chain);
                    out.push(self.reply(&fl, Rcode::ServFail, chain));
                }
            }
        }
    }
}

impl RecursiveResolver {
    /// Requests a timer tick covering the earliest in-flight deadline.
    fn arm_timer(&self, ctx: &mut ServiceCtx<'_>) {
        if let Some(earliest) = self.inflight.next_deadline() {
            ctx.wake_at(earliest);
        }
    }
}

impl UdpService for RecursiveResolver {
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
        let mut out = Vec::new();
        self.expire_inflight(ctx.now, &mut out);
        if let Ok(msg) = Message::decode(payload) {
            if msg.header.flags.response {
                self.on_upstream_response(ctx, msg, &mut out);
            } else {
                self.on_client_query(ctx, from, from_port, msg, &mut out);
            }
        }
        self.arm_timer(ctx);
        out
    }

    fn tick(&mut self, ctx: &mut ServiceCtx<'_>) -> Vec<Egress> {
        let mut out = Vec::new();
        self.expire_inflight(ctx.now, &mut out);
        self.arm_timer(ctx);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_are_sane() {
        let cfg = ResolverConfig::new(vec![Ipv4Addr::new(198, 41, 0, 4)]);
        const { assert!(CACHE_CAPACITY > 0) };
        assert!(NEG_TTL > SimDuration::ZERO);
        assert!(cfg.inflight_deadline > SimDuration::ZERO);
    }

    // Full end-to-end resolver behaviour (iteration, caching, CNAME chasing,
    // negative caching) is exercised in the crate's integration tests where
    // a real simulated network with root/TLD/authoritative servers exists;
    // see tests/resolution.rs.
}

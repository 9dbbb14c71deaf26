//! Resolver cache with TTL decay, negative caching, a capacity bound, and
//! an ambient-load warmth model.
//!
//! The ambient model stands in for the background query load a production
//! resolver sees from its *other* users (our fleet is 158 devices; a real
//! carrier resolver serves millions). Without it, every CDN record (TTL
//! 20–60 s) would be cold at every hourly experiment and Fig. 7's ~20% miss
//! rate could not emerge. Instead of simulating millions of phantom queries,
//! each resolver carries a deterministic refresh phase: a stale entry is
//! considered "kept warm by another user" whenever an imaginary periodic
//! refresher would have re-queried it within the entry's TTL. See DESIGN.md
//! (substitutions) and the ablation test
//! `tests/suite.rs::ambient_cache_model_is_what_keeps_first_lookups_warm`.

use dnswire::message::{Rcode, ResourceRecord};
use dnswire::name::{DnsName, MAX_NAME_LEN};
use dnswire::nameref::NameRef;
use dnswire::rdata::RecordType;
use netsim::addr::Prefix;
use netsim::time::{SimDuration, SimTime};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Cache key: owner name, record type, and — for ECS-partitioned entries
/// (RFC 7871 §7.3) — the client subnet the answer was scoped to.
pub type CacheKey = (DnsName, RecordType, Option<Prefix>);

/// The longest flat key: a 255-octet name, the type code, a tagged scope.
const FLAT_KEY_MAX: usize = MAX_NAME_LEN + 2 + 6;

/// A [`CacheKey`] in the flat form the cache's map holds: the owner name's
/// lowercase wire form, the type code, then the scope (a `0` tag, or a `1`
/// tag, the network's four octets and the prefix length). It is built on
/// the stack from a borrowed name, so a probe allocates nothing.
pub(crate) struct FlatKey {
    bytes: [u8; FLAT_KEY_MAX],
    len: usize,
}

impl FlatKey {
    /// The key of `name`'s `rtype` records in partition `scope`. The name
    /// may be a view into a received message, in any case.
    // detlint: hot
    pub(crate) fn new(name: NameRef<'_>, rtype: RecordType, scope: Option<Prefix>) -> FlatKey {
        let mut key = FlatKey {
            bytes: [0; FLAT_KEY_MAX],
            len: 0,
        };
        // A validated name is at most 255 octets, so every write fits.
        for label in name.labels() {
            key.push(label.len() as u8);
            for &b in label {
                key.push(b.to_ascii_lowercase());
            }
        }
        key.push(0);
        for b in rtype.code().to_be_bytes() {
            key.push(b);
        }
        match scope {
            None => key.push(0),
            Some(p) => {
                key.push(1);
                for b in p.network().octets() {
                    key.push(b);
                }
                key.push(p.len());
            }
        }
        key
    }

    /// The flat form of an owned key.
    fn of(key: &CacheKey) -> FlatKey {
        FlatKey::new(key.0.as_ref(), key.1, key.2)
    }

    fn push(&mut self, b: u8) {
        if let Some(slot) = self.bytes.get_mut(self.len) {
            *slot = b;
            self.len += 1;
        }
    }

    fn as_bytes(&self) -> &[u8] {
        &self.bytes[..self.len]
    }

    /// The owned key that `flat` encodes; `None` for bytes no [`FlatKey`]
    /// wrote.
    fn decode(flat: &[u8]) -> Option<CacheKey> {
        let (name, used) = NameRef::parse(flat, 0).ok()?;
        let rest = flat.get(used..)?;
        let rtype = RecordType::from_code(u16::from_be_bytes([*rest.first()?, *rest.get(1)?]));
        let scope = match rest.get(2..)? {
            [0] => None,
            [1, a, b, c, d, len] => Some(Prefix::new(Ipv4Addr::new(*a, *b, *c, *d), *len)),
            _ => return None,
        };
        Some((name.to_name(), rtype, scope))
    }
}

/// Deterministic stand-in for background query load (see module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AmbientModel {
    /// Imaginary refresher period. Warm probability for an entry with TTL
    /// `T` is `min(1, T / period)`.
    pub period: SimDuration,
    /// Per-resolver phase so instances are not synchronized.
    pub phase: SimDuration,
}

impl AmbientModel {
    /// Whether the imaginary refresher has queried within `ttl` before
    /// `now`, i.e. whether a stale entry should count as warm.
    pub fn is_warm(&self, now: SimTime, ttl: SimDuration) -> bool {
        let period = self.period.as_micros().max(1);
        ((now.as_micros() + self.phase.as_micros()) % period) < ttl.as_micros()
    }
}

/// What the cache stores for one key.
#[derive(Debug, Clone)]
struct Entry<V> {
    /// The stored answer: records, or a reply template.
    value: V,
    /// Response code at insertion (NxDomain for negatives).
    rcode: Rcode,
    /// Absolute expiry.
    expires_at: SimTime,
    /// Original TTL, to rebase on hits and drive the ambient model.
    original_ttl: SimDuration,
}

/// A usable entry, borrowed from the cache.
#[derive(Debug)]
pub(crate) struct Hit<'a, V> {
    /// What was stored.
    pub(crate) value: &'a V,
    /// Cached response code.
    pub(crate) rcode: Rcode,
    /// Lifetime left; a hit's TTLs are capped at its whole seconds.
    pub(crate) remaining: SimDuration,
}

/// Result of a cache lookup.
#[derive(Debug, Clone, PartialEq)]
pub enum CacheOutcome {
    /// Fresh (or ambient-warm) records.
    Hit {
        /// The cached records with TTLs rebased to remaining lifetime.
        records: Vec<ResourceRecord>,
        /// Cached response code.
        rcode: Rcode,
    },
    /// Nothing usable.
    Miss,
}

/// Statistics for Fig. 7 style analysis and tests.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CacheStats {
    /// Fresh hits.
    pub hits: u64,
    /// Hits served by the ambient-warmth rule.
    pub ambient_hits: u64,
    /// Misses.
    pub misses: u64,
    /// Entries evicted by the capacity bound.
    pub evictions: u64,
}

impl CacheStats {
    /// Folds the cache counters into an [`obs::Registry`] under the
    /// `dns.cache.*` family, labelled with `labels` (typically the
    /// resolver class the cache belongs to).
    pub fn export(&self, reg: &mut obs::Registry, labels: &[(&'static str, &str)]) {
        reg.inc_by("dns.cache.hits", labels, self.hits);
        reg.inc_by("dns.cache.ambient_hits", labels, self.ambient_hits);
        reg.inc_by("dns.cache.misses", labels, self.misses);
        reg.inc_by("dns.cache.evictions", labels, self.evictions);
    }
}

/// The resolver cache, generic over what it stores per key: records for
/// the recursive resolver (the default), reply templates for the
/// forwarder. TTL capping, the ambient model, the counters and eviction
/// are the same for both.
#[derive(Debug)]
pub struct DnsCache<V = Vec<ResourceRecord>> {
    /// Keyed by [`FlatKey`] bytes; looked up, never iterated in an order
    /// that escapes (eviction sorts first). The serving plane puts query
    /// names from a socket here, so the hash stays std's seeded one, not
    /// `netsim::hash`'s fixed one.
    entries: HashMap<Box<[u8]>, Entry<V>>,
    capacity: usize,
    max_ttl: SimDuration,
    ambient: Option<AmbientModel>,
    /// Counters.
    pub stats: CacheStats,
}

impl<V> DnsCache<V> {
    /// An empty cache holding at most `capacity` entries, capping stored
    /// TTLs at `max_ttl`.
    pub fn new(capacity: usize, max_ttl: SimDuration) -> Self {
        DnsCache {
            entries: HashMap::new(),
            capacity: capacity.max(1),
            max_ttl,
            ambient: None,
            stats: CacheStats::default(),
        }
    }

    /// Enables the ambient-load warmth model.
    pub fn with_ambient(mut self, ambient: AmbientModel) -> Self {
        self.ambient = Some(ambient);
        self
    }

    /// Number of live entries (including expired-but-unevicted ones).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Stores `value` under `key`. `rcode` is `NxDomain` for negative
    /// entries; `ttl` is the zone TTL (clamped by the cache's `max_ttl`).
    pub(crate) fn put(
        &mut self,
        key: &FlatKey,
        value: V,
        rcode: Rcode,
        ttl: SimDuration,
        now: SimTime,
    ) {
        let key = key.as_bytes();
        if self.entries.len() >= self.capacity && !self.entries.contains_key(key) {
            self.evict(now);
        }
        let ttl = ttl.min(self.max_ttl);
        self.entries.insert(
            key.into(),
            Entry {
                value,
                rcode,
                expires_at: now + ttl,
                original_ttl: ttl,
            },
        );
    }

    /// Looks up `key`; may refresh a stale entry via the ambient model.
    // detlint: hot
    pub(crate) fn get(&mut self, key: &FlatKey, now: SimTime) -> Option<Hit<'_, V>> {
        let ambient = self.ambient;
        let Some(entry) = self.entries.get_mut(key.as_bytes()) else {
            self.stats.misses += 1;
            return None;
        };
        if now < entry.expires_at {
            self.stats.hits += 1;
        } else {
            let warm = ambient.is_some_and(|a| a.is_warm(now, entry.original_ttl));
            if !warm {
                self.stats.misses += 1;
                return None;
            }
            // Another (imaginary) user just refreshed this entry.
            entry.expires_at = now + entry.original_ttl;
            self.stats.ambient_hits += 1;
        }
        Some(Hit {
            value: &entry.value,
            rcode: entry.rcode,
            remaining: entry.expires_at.since(now),
        })
    }

    /// Evicts expired entries; if none were expired, evicts the entries
    /// closest to expiry until 10% of capacity is free. Ties go in
    /// [`CacheKey`] order, which is not the order of the flat bytes.
    fn evict(&mut self, now: SimTime) {
        let before = self.entries.len();
        self.entries.retain(|_, e| e.expires_at > now);
        let mut evicted = before - self.entries.len();
        if self.entries.len() >= self.capacity {
            let target = self.capacity - self.capacity / 10;
            let mut by_expiry: Vec<(SimTime, CacheKey)> = Vec::with_capacity(self.entries.len());
            // detlint: allow(D1) -- collected, then sorted by expiry and key below; no map order escapes
            for (k, e) in &self.entries {
                by_expiry.extend(FlatKey::decode(k).map(|key| (e.expires_at, key)));
            }
            by_expiry.sort();
            for (_, key) in by_expiry {
                if self.entries.len() < target.max(1) {
                    break;
                }
                self.entries.remove(FlatKey::of(&key).as_bytes());
                evicted += 1;
            }
        }
        self.stats.evictions += evicted as u64;
    }

    /// Drops everything (used when reconfiguring infrastructure mid-run).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

impl DnsCache {
    /// Inserts records under `key`. `rcode` is `NxDomain` for negative
    /// entries; `ttl` is the zone TTL (clamped by the cache's `max_ttl`).
    pub fn insert(
        &mut self,
        key: CacheKey,
        records: Vec<ResourceRecord>,
        rcode: Rcode,
        ttl: SimDuration,
        now: SimTime,
    ) {
        self.put(&FlatKey::of(&key), records, rcode, ttl, now);
    }

    /// Looks up `key`, returning owned records with their TTLs rebased.
    pub fn lookup(&mut self, key: &CacheKey, now: SimTime) -> CacheOutcome {
        match self.get(&FlatKey::of(key), now) {
            Some(hit) => CacheOutcome::Hit {
                records: rebased(hit.value, hit.remaining),
                rcode: hit.rcode,
            },
            None => CacheOutcome::Miss,
        }
    }
}

/// Copies of `records`, each TTL cut to the `remaining` whole seconds.
pub(crate) fn rebased(records: &[ResourceRecord], remaining: SimDuration) -> Vec<ResourceRecord> {
    records
        .iter()
        .map(|rr| ResourceRecord {
            ttl: remaining.as_secs().min(u64::from(rr.ttl)) as u32,
            ..rr.clone()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnswire::rdata::RData;
    use std::net::Ipv4Addr;

    fn key(name: &str) -> CacheKey {
        (DnsName::parse(name).unwrap(), RecordType::A, None)
    }

    fn a_record(name: &str, ttl: u32) -> ResourceRecord {
        ResourceRecord::new(
            DnsName::parse(name).unwrap(),
            ttl,
            RData::A(Ipv4Addr::new(192, 0, 2, 1)),
        )
    }

    fn cache() -> DnsCache {
        DnsCache::new(100, SimDuration::from_secs(3600))
    }

    #[test]
    fn hit_within_ttl() {
        let mut c = cache();
        let t0 = SimTime::ZERO;
        c.insert(
            key("a.test"),
            vec![a_record("a.test", 60)],
            Rcode::NoError,
            SimDuration::from_secs(60),
            t0,
        );
        let out = c.lookup(&key("a.test"), t0 + SimDuration::from_secs(30));
        match out {
            CacheOutcome::Hit { records, rcode } => {
                assert_eq!(rcode, Rcode::NoError);
                assert_eq!(records.len(), 1);
                // TTL rebased to remaining 30s.
                assert_eq!(records[0].ttl, 30);
            }
            CacheOutcome::Miss => panic!("expected hit"),
        }
        assert_eq!(c.stats.hits, 1);
    }

    #[test]
    fn miss_after_expiry() {
        let mut c = cache();
        let t0 = SimTime::ZERO;
        c.insert(
            key("a.test"),
            vec![a_record("a.test", 60)],
            Rcode::NoError,
            SimDuration::from_secs(60),
            t0,
        );
        let out = c.lookup(&key("a.test"), t0 + SimDuration::from_secs(61));
        assert_eq!(out, CacheOutcome::Miss);
        assert_eq!(c.stats.misses, 1);
    }

    #[test]
    fn negative_entries_are_cached() {
        let mut c = cache();
        let t0 = SimTime::ZERO;
        c.insert(
            key("missing.test"),
            vec![],
            Rcode::NxDomain,
            SimDuration::from_secs(60),
            t0,
        );
        match c.lookup(&key("missing.test"), t0 + SimDuration::from_secs(1)) {
            CacheOutcome::Hit { records, rcode } => {
                assert!(records.is_empty());
                assert_eq!(rcode, Rcode::NxDomain);
            }
            CacheOutcome::Miss => panic!("expected negative hit"),
        }
    }

    #[test]
    fn ttl_is_capped() {
        let mut c = DnsCache::new(10, SimDuration::from_secs(100));
        let t0 = SimTime::ZERO;
        c.insert(
            key("a.test"),
            vec![a_record("a.test", 999_999)],
            Rcode::NoError,
            SimDuration::from_secs(999_999),
            t0,
        );
        assert_eq!(
            c.lookup(&key("a.test"), t0 + SimDuration::from_secs(101)),
            CacheOutcome::Miss
        );
    }

    #[test]
    fn capacity_bound_evicts() {
        let mut c = DnsCache::new(10, SimDuration::from_secs(3600));
        let t0 = SimTime::ZERO;
        for i in 0..25 {
            c.insert(
                key(&format!("n{i}.test")),
                vec![a_record(&format!("n{i}.test"), 60)],
                Rcode::NoError,
                SimDuration::from_secs(60),
                t0,
            );
        }
        assert!(c.len() <= 11, "len {}", c.len());
        assert!(c.stats.evictions > 0);
    }

    #[test]
    fn expired_entries_evicted_first() {
        let mut c = DnsCache::new(10, SimDuration::from_secs(3600));
        let t0 = SimTime::ZERO;
        for i in 0..9 {
            c.insert(
                key(&format!("old{i}.test")),
                vec![],
                Rcode::NoError,
                SimDuration::from_secs(1),
                t0,
            );
        }
        let later = t0 + SimDuration::from_secs(100);
        c.insert(
            key("keep.test"),
            vec![a_record("keep.test", 600)],
            Rcode::NoError,
            SimDuration::from_secs(600),
            later,
        );
        // Inserting one more at capacity drops the expired ones, not keep.
        c.insert(
            key("new.test"),
            vec![a_record("new.test", 600)],
            Rcode::NoError,
            SimDuration::from_secs(600),
            later,
        );
        assert!(matches!(
            c.lookup(&key("keep.test"), later + SimDuration::from_secs(1)),
            CacheOutcome::Hit { .. }
        ));
    }

    #[test]
    fn ambient_model_revives_stale_entries_in_phase() {
        let ambient = AmbientModel {
            period: SimDuration::from_secs(100),
            phase: SimDuration::ZERO,
        };
        let mut c = cache().with_ambient(ambient);
        let t0 = SimTime::ZERO;
        c.insert(
            key("pop.test"),
            vec![a_record("pop.test", 60)],
            Rcode::NoError,
            SimDuration::from_secs(60),
            t0,
        );
        // t=150: (150s % 100s)=50s < ttl 60s -> warm.
        let warm_t = t0 + SimDuration::from_secs(150);
        assert!(matches!(
            c.lookup(&key("pop.test"), warm_t),
            CacheOutcome::Hit { .. }
        ));
        assert_eq!(c.stats.ambient_hits, 1);
        // t=380: (380 % 100)=80 > 60 -> cold... but the warm hit at t=150
        // rebased expiry to t=210, so check from a fresh cache state.
        let mut c2 = cache().with_ambient(ambient);
        c2.insert(
            key("pop.test"),
            vec![a_record("pop.test", 60)],
            Rcode::NoError,
            SimDuration::from_secs(60),
            t0,
        );
        let cold_t = t0 + SimDuration::from_secs(380);
        assert_eq!(c2.lookup(&key("pop.test"), cold_t), CacheOutcome::Miss);
    }

    #[test]
    fn ambient_warm_fraction_tracks_ttl_over_period() {
        let ambient = AmbientModel {
            period: SimDuration::from_secs(300),
            phase: SimDuration::from_secs(17),
        };
        let ttl = SimDuration::from_secs(60);
        let mut warm = 0;
        let n = 10_000;
        for i in 0..n {
            let t = SimTime::from_micros(i as u64 * 1_234_567);
            if ambient.is_warm(t, ttl) {
                warm += 1;
            }
        }
        let frac = warm as f64 / n as f64;
        assert!((frac - 0.2).abs() < 0.02, "warm fraction {frac}");
    }

    fn is_hit(c: &mut DnsCache, k: &CacheKey, now: SimTime) -> bool {
        matches!(c.lookup(k, now), CacheOutcome::Hit { .. })
    }

    #[test]
    fn eviction_among_equal_expiries_follows_the_key_order() {
        // Ten keys that all expire together. The key order is name first
        // (label-wise: `ab` < `abc` < `c`, unlike the flat wire bytes,
        // where the length octet puts `c` first), then the record type in
        // declaration order (`Unknown(3)` after `Opt`, unlike the codes),
        // then the scope (`None` first, then network, then length).
        let scope = |a: u8, len: u8| Some(Prefix::new(Ipv4Addr::new(10, 0, a, 0), len));
        let name = |s: &str| DnsName::parse(s).unwrap();
        let ordered: Vec<CacheKey> = vec![
            (name("ab.test"), RecordType::A, None),
            (name("ab.test"), RecordType::A, scope(0, 24)),
            (name("ab.test"), RecordType::A, scope(0, 25)),
            (name("ab.test"), RecordType::A, scope(1, 24)),
            (name("ab.test"), RecordType::Ns, None),
            (name("ab.test"), RecordType::Opt, None),
            (name("ab.test"), RecordType::Unknown(3), None),
            (name("abc.test"), RecordType::A, None),
            (name("c.test"), RecordType::A, None),
            (name("zz.test"), RecordType::A, None),
        ];
        let mut c = DnsCache::new(10, SimDuration::from_secs(3600));
        let t0 = SimTime::ZERO;
        for i in [6, 9, 2, 0, 7, 4, 8, 1, 5, 3] {
            c.insert(
                ordered[i].clone(),
                vec![],
                Rcode::NoError,
                SimDuration::from_secs(60),
                t0,
            );
        }
        // Each second insert of a longer-lived key finds the cache full
        // and frees two slots: the next two keys in order.
        for round in 0..5 {
            for j in 0..2 {
                c.insert(
                    key(&format!("late{round}-{j}.test")),
                    vec![],
                    Rcode::NoError,
                    SimDuration::from_secs(600),
                    t0,
                );
            }
            for (i, k) in ordered.iter().enumerate() {
                assert_eq!(
                    is_hit(&mut c, k, t0),
                    i >= 2 * (round + 1),
                    "round {round}: key {i} {k:?}"
                );
            }
            assert_eq!(c.stats.evictions, 2 * (round as u64 + 1));
        }
        assert_eq!(c.len(), 10);
    }

    #[test]
    fn an_ambient_refresh_restarts_the_entry_at_its_original_ttl() {
        let ambient = AmbientModel {
            period: SimDuration::from_secs(100),
            phase: SimDuration::ZERO,
        };
        let mut c = cache().with_ambient(ambient);
        let t0 = SimTime::ZERO;
        let k = key("pop.test");
        // The entry lives 60 s; one of its records was received with 30 s.
        c.insert(
            k.clone(),
            vec![a_record("pop.test", 60), a_record("pop.test", 30)],
            Rcode::NoError,
            SimDuration::from_secs(60),
            t0,
        );
        let ttls = |out: CacheOutcome| match out {
            CacheOutcome::Hit { records, rcode } => {
                assert_eq!(rcode, Rcode::NoError);
                records.iter().map(|r| r.ttl).collect::<Vec<_>>()
            }
            CacheOutcome::Miss => panic!("expected a hit"),
        };
        let at = |s: u64| t0 + SimDuration::from_secs(s);
        // t=150: stale, but (150 % 100) = 50 < 60, so warm: it now expires
        // at 210, and each TTL is the smaller of 60 s and the received one.
        assert_eq!(ttls(c.lookup(&k, at(150))), vec![60, 30]);
        assert_eq!((c.stats.hits, c.stats.ambient_hits), (0, 1));
        // t=200: fresh again, 10 s left.
        assert_eq!(ttls(c.lookup(&k, at(200))), vec![10, 10]);
        assert_eq!((c.stats.hits, c.stats.ambient_hits), (1, 1));
        // t=211: stale, (211 % 100) = 11 < 60: warm once more.
        assert_eq!(ttls(c.lookup(&k, at(211))), vec![60, 30]);
        // t=290: stale since 271, and (290 % 100) = 90 >= 60: cold.
        assert_eq!(c.lookup(&k, at(290)), CacheOutcome::Miss);
        assert_eq!(
            (c.stats.hits, c.stats.ambient_hits, c.stats.misses),
            (1, 2, 1)
        );
    }

    #[test]
    fn negative_and_nodata_entries_keep_their_rcode_and_expire() {
        let mut c = cache();
        let t0 = SimTime::ZERO;
        let at = |s: u64| t0 + SimDuration::from_secs(s);
        c.insert(
            key("gone.test"),
            vec![],
            Rcode::NxDomain,
            SimDuration::from_secs(30),
            t0,
        );
        c.insert(
            (DnsName::parse("gone.test").unwrap(), RecordType::Ns, None),
            vec![],
            Rcode::NoError,
            SimDuration::from_secs(45),
            t0,
        );
        let nx = CacheOutcome::Hit {
            records: vec![],
            rcode: Rcode::NxDomain,
        };
        let nodata = CacheOutcome::Hit {
            records: vec![],
            rcode: Rcode::NoError,
        };
        let ns_key = (DnsName::parse("gone.test").unwrap(), RecordType::Ns, None);
        assert_eq!(c.lookup(&key("gone.test"), at(29)), nx);
        assert_eq!(c.lookup(&ns_key, at(29)), nodata);
        assert_eq!(c.lookup(&key("gone.test"), at(30)), CacheOutcome::Miss);
        assert_eq!(c.lookup(&ns_key, at(44)), nodata);
        assert_eq!(c.lookup(&ns_key, at(45)), CacheOutcome::Miss);
        assert_eq!((c.stats.hits, c.stats.misses), (3, 2));
    }

    #[test]
    fn the_ttl_cap_bounds_the_rebased_ttls_and_the_ambient_refresh() {
        let ambient = AmbientModel {
            period: SimDuration::from_secs(1000),
            phase: SimDuration::ZERO,
        };
        let mut c = DnsCache::new(10, SimDuration::from_secs(100)).with_ambient(ambient);
        let t0 = SimTime::ZERO;
        let at = |s: u64| t0 + SimDuration::from_secs(s);
        c.insert(
            key("a.test"),
            vec![a_record("a.test", 999_999)],
            Rcode::NoError,
            SimDuration::from_secs(999_999),
            t0,
        );
        let ttl = |out: CacheOutcome| match out {
            CacheOutcome::Hit { records, .. } => records[0].ttl,
            CacheOutcome::Miss => panic!("expected a hit"),
        };
        assert_eq!(ttl(c.lookup(&key("a.test"), at(40))), 60);
        assert_eq!(ttl(c.lookup(&key("a.test"), at(99))), 1);
        // Stale at 100; the refresher, whose window is the capped 100 s
        // (not the received TTL), revives it at 1050 but not at 1150.
        assert_eq!(ttl(c.lookup(&key("a.test"), at(1050))), 100);
        assert_eq!(c.lookup(&key("a.test"), at(1150)), CacheOutcome::Miss);
        assert_eq!(c.stats.ambient_hits, 1);
    }

    #[test]
    fn update_overwrites_without_eviction() {
        let mut c = DnsCache::new(1, SimDuration::from_secs(3600));
        let t0 = SimTime::ZERO;
        c.insert(
            key("a.test"),
            vec![a_record("a.test", 60)],
            Rcode::NoError,
            SimDuration::from_secs(60),
            t0,
        );
        c.insert(
            key("a.test"),
            vec![a_record("a.test", 90)],
            Rcode::NoError,
            SimDuration::from_secs(90),
            t0,
        );
        assert_eq!(c.len(), 1);
        assert_eq!(c.stats.evictions, 0);
    }
}

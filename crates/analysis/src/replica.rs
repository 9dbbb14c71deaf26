//! Replica-selection analysis: per-user differential replica performance
//! (Fig. 2), resolver-keyed replica maps and cosine similarity (Fig. 10),
//! and the local-vs-public relative replica latency comparison (Fig. 14).

use crate::cdf::Cdf;
use measure::record::{Dataset, DnsTiming, ExperimentRecord, ResolverKind};
use netsim::addr::Prefix;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// A replica usage map: for one observer (user or resolver), the fraction
/// of observations in which each replica was used — §5's
/// `<(ip₁, ratio₁), …, (ipₙ, ratioₙ)>` vector.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReplicaMap {
    counts: BTreeMap<Ipv4Addr, usize>,
    total: usize,
}

impl ReplicaMap {
    /// Records one observation of `replica`.
    pub fn observe(&mut self, replica: Ipv4Addr) {
        *self.counts.entry(replica).or_insert(0) += 1;
        self.total += 1;
    }

    /// Number of distinct replicas.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Total observations.
    pub fn total(&self) -> usize {
        self.total
    }

    /// The usage ratio of one replica.
    pub fn ratio(&self, replica: Ipv4Addr) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            *self.counts.get(&replica).unwrap_or(&0) as f64 / self.total as f64
        }
    }

    /// Cosine similarity between two maps (§5's formula): the dot product
    /// of the ratio vectors over the product of their norms; 0 = disjoint
    /// replica sets, 1 = identical usage distribution.
    pub fn cosine_similarity(&self, other: &ReplicaMap) -> f64 {
        if self.total == 0 || other.total == 0 {
            return 0.0;
        }
        let dot: f64 = self
            .counts
            .keys()
            .map(|&ip| self.ratio(ip) * other.ratio(ip))
            .sum();
        let norm = |m: &ReplicaMap| -> f64 {
            m.counts
                .keys()
                .map(|&ip| m.ratio(ip).powi(2))
                .sum::<f64>()
                .sqrt()
        };
        let denom = norm(self) * norm(other);
        if denom == 0.0 {
            0.0
        } else {
            (dot / denom).clamp(0.0, 1.0)
        }
    }

    /// Iterates over `(replica, count)`.
    pub fn iter(&self) -> impl Iterator<Item = (Ipv4Addr, usize)> + '_ {
        self.counts.iter().map(|(&ip, &n)| (ip, n))
    }
}

/// Fig. 2: for each user of a carrier and one domain, the percent increase
/// in mean latency of each replica the user was directed to, relative to
/// the best replica that user ever saw. One sample per (user, replica).
pub fn replica_percent_increase(ds: &Dataset, carrier: usize, domain_idx: u8) -> Cdf {
    // user -> replica -> (sum_us, n)
    let mut per_user: BTreeMap<u32, BTreeMap<Ipv4Addr, (u64, u32)>> = BTreeMap::new();
    for r in ds.of_carrier(carrier) {
        let Some(local) = first_lookup(r, domain_idx, ResolverKind::Local) else {
            continue;
        };
        for p in r
            .replica_probes
            .iter()
            .filter(|p| local.addrs.contains(&p.addr))
        {
            if let Some(us) = p.rtt_us {
                let e = per_user
                    .entry(r.device_id)
                    .or_default()
                    .entry(p.addr)
                    .or_insert((0, 0));
                e.0 += us as u64;
                e.1 += 1;
            }
        }
    }
    let mut samples = Vec::new();
    for replicas in per_user.values() {
        let means: Vec<f64> = replicas
            .values()
            .map(|&(sum, n)| sum as f64 / n as f64)
            .collect();
        let Some(best) = means.iter().copied().reduce(f64::min) else {
            continue;
        };
        if best <= 0.0 {
            continue;
        }
        for m in means {
            samples.push((m - best) / best * 100.0);
        }
    }
    Cdf::new(samples)
}

/// Builds resolver-keyed replica maps for one domain: external resolver →
/// usage map of the replicas its answers pointed at (from the lookup
/// answers through the local path, attributed to the external resolver the
/// same experiment's whoami observed).
pub fn resolver_replica_maps(
    ds: &Dataset,
    carrier: usize,
    domain_idx: u8,
) -> BTreeMap<Ipv4Addr, ReplicaMap> {
    let mut maps: BTreeMap<Ipv4Addr, ReplicaMap> = BTreeMap::new();
    for r in ds.of_carrier(carrier) {
        let Some(ext) = r.local_external() else {
            continue;
        };
        for l in &r.lookups {
            if l.resolver == ResolverKind::Local && l.attempt == 1 && l.domain_idx == domain_idx {
                let map = maps.entry(ext).or_default();
                for &a in &l.addrs {
                    map.observe(a);
                }
            }
        }
    }
    maps
}

/// Fig. 10: cosine similarities of replica maps between resolver pairs in
/// the same /24 and pairs in different /24s.
pub fn cosine_by_prefix(maps: &BTreeMap<Ipv4Addr, ReplicaMap>) -> (Cdf, Cdf) {
    let resolvers: Vec<(&Ipv4Addr, &ReplicaMap)> = maps.iter().collect();
    let mut same = Vec::new();
    let mut diff = Vec::new();
    for i in 0..resolvers.len() {
        for j in (i + 1)..resolvers.len() {
            let (a_ip, a_map) = resolvers[i];
            let (b_ip, b_map) = resolvers[j];
            let sim = a_map.cosine_similarity(b_map);
            if Prefix::slash24_of(*a_ip) == Prefix::slash24_of(*b_ip) {
                same.push(sim);
            } else {
                diff.push(sim);
            }
        }
    }
    (Cdf::new(same), Cdf::new(diff))
}

/// Fig. 14: relative replica latency of a public resolver's choices vs the
/// local resolver's, one sample per (experiment, domain), with replicas
/// aggregated by /24 ("the aggregation shifts the results toward equal
/// performance"). Negative = public chose a faster replica.
pub fn relative_replica_latency(ds: &Dataset, carrier: usize, public: ResolverKind) -> Cdf {
    let mut samples = Vec::new();
    for r in ds.of_carrier(carrier) {
        // Best latency per /24 across the experiment's probes.
        let mut by_prefix: BTreeMap<Prefix, u32> = BTreeMap::new();
        for p in &r.replica_probes {
            if let Some(us) = p.rtt_us {
                let key = Prefix::slash24_of(p.addr);
                by_prefix
                    .entry(key)
                    .and_modify(|v| *v = (*v).min(us))
                    .or_insert(us);
            }
        }
        // The best /24 latency among the replicas one lookup returned.
        let best_of = |l: &DnsTiming| {
            l.addrs
                .iter()
                .filter_map(|&a| by_prefix.get(&Prefix::slash24_of(a)).copied())
                .min()
        };
        let local_lookups = r
            .lookups
            .iter()
            .filter(|l| l.attempt == 1 && l.resolver == ResolverKind::Local);
        for l in local_lookups {
            let Some(p) = first_lookup(r, l.domain_idx, public) else {
                continue;
            };
            if let (Some(local), Some(pub_lat)) = (best_of(l), best_of(p)) {
                if local > 0 {
                    samples.push((pub_lat as f64 - local as f64) / local as f64 * 100.0);
                }
            }
        }
    }
    Cdf::new(samples)
}

/// The attempt-1 lookup of `domain_idx` through `kind`: the replicas it
/// returned are the ones that resolver chose for that domain.
fn first_lookup(r: &ExperimentRecord, domain_idx: u8, kind: ResolverKind) -> Option<&DnsTiming> {
    r.lookups
        .iter()
        .find(|l| l.attempt == 1 && l.domain_idx == domain_idx && l.resolver == kind)
}

/// The abstract's headline: the fraction of experiments in which the public
/// resolver's replicas performed equal to or better than the local ones.
pub fn public_equal_or_better(ds: &Dataset, carrier: usize, public: ResolverKind) -> f64 {
    let cdf = relative_replica_latency(ds, carrier, public);
    cdf.fraction_leq(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
        Ipv4Addr::new(a, b, c, d)
    }

    #[test]
    fn cosine_identical_maps_is_one() {
        let mut a = ReplicaMap::default();
        let mut b = ReplicaMap::default();
        for _ in 0..4 {
            a.observe(ip(90, 0, 1, 1));
            b.observe(ip(90, 0, 1, 1));
        }
        a.observe(ip(90, 0, 2, 1));
        b.observe(ip(90, 0, 2, 1));
        assert!((a.cosine_similarity(&b) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cosine_disjoint_maps_is_zero() {
        let mut a = ReplicaMap::default();
        let mut b = ReplicaMap::default();
        a.observe(ip(90, 0, 1, 1));
        b.observe(ip(90, 0, 9, 1));
        assert_eq!(a.cosine_similarity(&b), 0.0);
    }

    #[test]
    fn cosine_partial_overlap_is_between() {
        let mut a = ReplicaMap::default();
        let mut b = ReplicaMap::default();
        a.observe(ip(90, 0, 1, 1));
        a.observe(ip(90, 0, 2, 1));
        b.observe(ip(90, 0, 1, 1));
        b.observe(ip(90, 0, 3, 1));
        let sim = a.cosine_similarity(&b);
        assert!(sim > 0.0 && sim < 1.0, "{sim}");
    }

    #[test]
    fn cosine_is_symmetric() {
        let mut a = ReplicaMap::default();
        let mut b = ReplicaMap::default();
        a.observe(ip(1, 1, 1, 1));
        a.observe(ip(2, 2, 2, 2));
        b.observe(ip(2, 2, 2, 2));
        assert!((a.cosine_similarity(&b) - b.cosine_similarity(&a)).abs() < 1e-12);
    }

    #[test]
    fn ratios_sum_to_one() {
        let mut m = ReplicaMap::default();
        m.observe(ip(1, 1, 1, 1));
        m.observe(ip(1, 1, 1, 1));
        m.observe(ip(2, 2, 2, 2));
        let sum: f64 = m.iter().map(|(ip, _)| m.ratio(ip)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert_eq!(m.distinct(), 2);
        assert_eq!(m.total(), 3);
    }

    #[test]
    fn empty_maps_similarity_is_zero() {
        let a = ReplicaMap::default();
        let b = ReplicaMap::default();
        assert_eq!(a.cosine_similarity(&b), 0.0);
    }
}

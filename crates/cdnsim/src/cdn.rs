//! The CDN model: replica POPs and the resolver-localized selection policy.
//!
//! Selection is keyed by the querying resolver's **/24 prefix** — the
//! granularity the paper inferred from the cosine-similarity bimodality of
//! Fig. 10 ("it appears that CDNs are grouping replica mappings by resolver
//! /24 prefix"). Prefixes the CDN can measure (public resolvers, wired
//! networks) are localized precisely; cellular resolver prefixes are
//! unmeasurable behind carrier firewalls (§4.4), so the CDN falls back to a
//! coarse believed-location with a stable per-prefix error — the faithful
//! abstraction of IP-geolocation failure on cellular blocks (Balakrishnan
//! et al., IMC'09).

use netsim::addr::Prefix;
use netsim::hash::FastMap;
use netsim::topo::Coord;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::net::Ipv4Addr;

/// One replica POP (a /24 with its servers; we model one server per POP).
#[derive(Debug, Clone, PartialEq)]
pub struct Replica {
    /// The replica server address.
    pub addr: Ipv4Addr,
    /// POP location.
    pub coord: Coord,
}

/// Tuning of a CDN provider.
#[derive(Debug, Clone, PartialEq)]
pub struct CdnConfig {
    /// Provider name (`cdn-a`, …).
    pub name: String,
    /// A-record TTL in seconds ("the short TTLs used by CDNs", Fig. 7).
    pub record_ttl: u32,
    /// CNAME TTL in seconds.
    pub cname_ttl: u32,
    /// Replicas returned per answer.
    pub top_k: usize,
    /// Radius of the stable believed-location error applied to
    /// unmeasurable prefixes with no anchor, in km.
    pub coarse_error_km: f64,
    /// Radius of the error applied around a prefix anchor (the geo
    /// database is regionally right but city-wrong), in km.
    pub anchor_error_km: f64,
}

impl CdnConfig {
    /// Defaults matching the paper's observations (short TTLs, small
    /// replica sets per resolver).
    pub fn new(name: &str) -> Self {
        CdnConfig {
            name: name.to_string(),
            record_ttl: 30,
            cname_ttl: 300,
            top_k: 2,
            coarse_error_km: 900.0,
            anchor_error_km: 300.0,
        }
    }
}

/// A CDN provider: its POPs and what it knows about resolver locations.
#[derive(Debug)]
pub struct Cdn {
    /// Tuning.
    pub config: CdnConfig,
    /// All POPs.
    pub replicas: Vec<Replica>,
    /// Prefixes the CDN measured precisely (public DNS egress /24s, wired
    /// ISPs) mapped to their true location.
    measured: FastMap<Prefix, Coord>,
    /// Believed anchor per unmeasurable /24: where the geo database thinks
    /// the prefix lives (the true location of one of its members — usually
    /// regionally right, and *wrong for the other members*).
    prefix_anchors: FastMap<Prefix, Coord>,
    /// Believed centroid per unmeasurable address block (keyed by first
    /// octet: the carrier's public /8 in our address plan), e.g. the
    /// carrier's main peering city.
    coarse_centroids: FastMap<u8, Coord>,
    /// Fallback centroid when nothing is known at all.
    default_centroid: Coord,
}

impl Cdn {
    /// A CDN over the given POPs.
    pub fn new(config: CdnConfig, replicas: Vec<Replica>) -> Self {
        assert!(!replicas.is_empty(), "CDN without replicas");
        let n = replicas.len() as f64;
        let default_centroid = Coord {
            x_km: replicas.iter().map(|r| r.coord.x_km).sum::<f64>() / n,
            y_km: replicas.iter().map(|r| r.coord.y_km).sum::<f64>() / n,
        };
        Cdn {
            config,
            replicas,
            measured: FastMap::default(),
            prefix_anchors: FastMap::default(),
            coarse_centroids: FastMap::default(),
            default_centroid,
        }
    }

    /// Registers a precisely measured resolver prefix (the CDN can probe
    /// it, so it knows where it is).
    pub fn add_measured(&mut self, prefix: Prefix, coord: Coord) {
        self.measured.insert(prefix, coord);
    }

    /// Registers the believed location of an unmeasurable block (first
    /// octet of the carrier's public space → its main peering city).
    pub fn add_coarse_centroid(&mut self, first_octet: u8, coord: Coord) {
        self.coarse_centroids.insert(first_octet, coord);
    }

    /// Registers the geo-database anchor of an unmeasurable /24.
    pub fn add_prefix_anchor(&mut self, prefix: Prefix, coord: Coord) {
        self.prefix_anchors.insert(prefix, coord);
    }

    /// The stable pseudo-random believed-location error for a prefix, as
    /// offsets in `[-radius, radius]`.
    fn prefix_error(&self, prefix: Prefix, radius_km: f64) -> (f64, f64) {
        let mut h = DefaultHasher::new();
        prefix.hash(&mut h);
        self.config.name.hash(&mut h);
        let v = h.finish();
        // Two independent-ish uniform offsets in [-1, 1].
        let a = ((v & 0xFFFF) as f64 / 65535.0) * 2.0 - 1.0;
        let b = (((v >> 16) & 0xFFFF) as f64 / 65535.0) * 2.0 - 1.0;
        (a * radius_km, b * radius_km)
    }

    /// Where the CDN believes the resolver prefix is located.
    pub fn believed_location(&self, resolver: Ipv4Addr) -> Coord {
        let prefix = Prefix::slash24_of(resolver);
        if let Some(&coord) = self.measured.get(&prefix) {
            return coord;
        }
        if let Some(&anchor) = self.prefix_anchors.get(&prefix) {
            let (dx, dy) = self.prefix_error(prefix, self.config.anchor_error_km);
            return Coord {
                x_km: anchor.x_km + dx,
                y_km: anchor.y_km + dy,
            };
        }
        let centroid = self
            .coarse_centroids
            .get(&resolver.octets()[0])
            .copied()
            .unwrap_or(self.default_centroid);
        let (dx, dy) = self.prefix_error(prefix, self.config.coarse_error_km);
        Coord {
            x_km: centroid.x_km + dx,
            y_km: centroid.y_km + dy,
        }
    }

    /// Whether the CDN has precise knowledge of this resolver's prefix.
    pub fn is_measured(&self, resolver: Ipv4Addr) -> bool {
        self.measured.contains_key(&Prefix::slash24_of(resolver))
    }

    /// Selects the replica set for a resolver: the `top_k` POPs nearest to
    /// the believed location. Deterministic per /24, which is exactly what
    /// makes Fig. 10 bimodal.
    pub fn select(&self, resolver: Ipv4Addr) -> Vec<Ipv4Addr> {
        let loc = self.believed_location(resolver);
        let mut by_dist: Vec<(f64, Ipv4Addr)> = self
            .replicas
            .iter()
            .map(|r| (r.coord.distance_km(&loc), r.addr))
            .collect();
        by_dist.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        by_dist
            .into_iter()
            .take(self.config.top_k.max(1))
            .map(|(_, a)| a)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
        Ipv4Addr::new(a, b, c, d)
    }

    fn grid_cdn() -> Cdn {
        let replicas: Vec<Replica> = (0..25)
            .map(|i| Replica {
                addr: ip(90, 0, i as u8, 1),
                coord: Coord {
                    x_km: (i % 5) as f64 * 1000.0,
                    y_km: (i / 5) as f64 * 600.0,
                },
            })
            .collect();
        Cdn::new(CdnConfig::new("cdn-a"), replicas)
    }

    #[test]
    fn measured_prefixes_get_nearest_replicas() {
        let mut cdn = grid_cdn();
        let here = Coord {
            x_km: 2000.0,
            y_km: 1200.0,
        };
        cdn.add_measured(Prefix::slash24_of(ip(173, 194, 7, 9)), here);
        let picked = cdn.select(ip(173, 194, 7, 9));
        assert_eq!(picked.len(), 2);
        // Nearest POP to (2000, 1200) is index 12 (x=2000, y=1200).
        assert_eq!(picked[0], ip(90, 0, 12, 1));
    }

    #[test]
    fn same_slash24_same_set_different_slash24_usually_differs() {
        let mut cdn = grid_cdn();
        cdn.add_coarse_centroid(
            100,
            Coord {
                x_km: 2000.0,
                y_km: 1200.0,
            },
        );
        let a1 = cdn.select(ip(100, 110, 0, 1));
        let a2 = cdn.select(ip(100, 110, 0, 200));
        assert_eq!(a1, a2, "same /24 -> identical replica set");
        let mut diff = 0;
        for k in 0..20u8 {
            let other = cdn.select(ip(100, 111, k, 1));
            if other != a1 {
                diff += 1;
            }
        }
        // The per-/24 believed-location error makes other prefixes land on
        // different POPs most of the time.
        assert!(diff >= 10, "only {diff}/20 differed");
    }

    #[test]
    fn coarse_error_is_stable_across_calls() {
        let mut cdn = grid_cdn();
        cdn.add_coarse_centroid(100, Coord::default());
        let a = cdn.believed_location(ip(100, 110, 0, 1));
        let b = cdn.believed_location(ip(100, 110, 0, 99));
        assert_eq!(a.x_km, b.x_km);
        assert_eq!(a.y_km, b.y_km);
    }

    #[test]
    fn unknown_blocks_fall_back_to_default_centroid_area() {
        let cdn = grid_cdn();
        let loc = cdn.believed_location(ip(55, 1, 2, 3));
        // centroid (2000, 1200) ± coarse error (900)
        assert!((loc.x_km - 2000.0).abs() <= 900.0 + 1e-9);
        assert!((loc.y_km - 1200.0).abs() <= 900.0 + 1e-9);
    }

    #[test]
    fn believed_error_differs_between_cdns() {
        let a = grid_cdn();
        let mut cfg = CdnConfig::new("cdn-b");
        cfg.coarse_error_km = 900.0;
        let b = Cdn::new(cfg, a.replicas.clone());
        let la = a.believed_location(ip(100, 110, 0, 1));
        let lb = b.believed_location(ip(100, 110, 0, 1));
        assert!(la != lb, "different providers believe different things");
    }

    #[test]
    fn top_k_is_respected() {
        let mut cdn = grid_cdn();
        cdn.config.top_k = 5;
        assert_eq!(cdn.select(ip(1, 2, 3, 4)).len(), 5);
    }

    #[test]
    fn is_measured_tracks_registration() {
        let mut cdn = grid_cdn();
        assert!(!cdn.is_measured(ip(173, 194, 7, 9)));
        cdn.add_measured(Prefix::slash24_of(ip(173, 194, 7, 9)), Coord::default());
        assert!(cdn.is_measured(ip(173, 194, 7, 50)));
    }
}

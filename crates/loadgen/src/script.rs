//! Seed-lane-derived query scripts: the deterministic traffic mix the
//! generator replays. Per-carrier volumes follow device populations, the
//! domain draw is Zipf-ish over the paper's 9-domain catalog, and a
//! configurable fraction of queries are cache-busting nonce names under
//! the probe zone (forcing resolver cache misses, like the campaign's
//! whoami probes do).

use cdnsim::catalog::mobile_domains;
use dnswire::builder::encode_stub_query;
use dnswire::edns::DEFAULT_UDP_PAYLOAD_SIZE;
use dnswire::name::DnsName;
use dnswire::rdata::RecordType;
use measure::world::{derive_seed, lane};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serve::Endpoints;

/// The probe zone every world builds (`measure::world`); nonce queries
/// live under it so the whoami authority answers them uncached.
const PROBE_ZONE: &str = "whoami.probe.example";

/// Traffic-mix knobs.
#[derive(Debug, Clone, Copy)]
pub struct MixConfig {
    /// Total queries across all carriers.
    pub queries: u64,
    /// Cache-busting fraction in thousandths (50 = 5% forced misses).
    pub miss_per_mille: u32,
}

impl Default for MixConfig {
    fn default() -> Self {
        MixConfig {
            queries: 10_000,
            miss_per_mille: 50,
        }
    }
}

/// One scripted wire query, pre-encoded.
#[derive(Debug, Clone)]
pub struct PlannedQuery {
    /// Wire transaction id.
    pub id: u16,
    /// The name queried (reporting).
    pub qname: DnsName,
    /// Encoded RFC 1035 query bytes (EDNS size advertised, RD set).
    pub wire: Vec<u8>,
}

/// Per-carrier query sequences, in injection order.
#[derive(Debug, Clone)]
pub struct Script {
    /// `per_carrier[shard]` is shard's queries in send order.
    pub per_carrier: Vec<Vec<PlannedQuery>>,
}

impl Script {
    /// Total queries across carriers.
    pub fn total(&self) -> u64 {
        self.per_carrier.iter().map(|v| v.len() as u64).sum()
    }
}

/// Splits `total` across carriers proportionally to device populations
/// (largest-remainder), so the mix mirrors Table 1's fleet shape.
fn carrier_volumes(total: u64, devices: &[usize]) -> Vec<u64> {
    let fleet: u64 = devices.iter().map(|&d| d as u64).sum::<u64>().max(1);
    let mut out: Vec<u64> = devices.iter().map(|&d| total * d as u64 / fleet).collect();
    let mut assigned: u64 = out.iter().sum();
    // Hand the remainder out round-robin from carrier 0 (deterministic).
    let n = out.len().max(1);
    let mut i = 0;
    while assigned < total && !out.is_empty() {
        out[i % n] += 1;
        assigned += 1;
        i += 1;
    }
    out
}

/// Builds the full script for the world described by `eps`.
pub fn build_script(eps: &Endpoints, mix: &MixConfig) -> Script {
    let catalog = mobile_domains();
    // Zipf-ish weights over the catalog: rank r gets weight 1000/(r+1).
    let weights: Vec<u64> = (0..catalog.len()).map(|r| 1_000 / (r as u64 + 1)).collect();
    let weight_sum: u64 = weights.iter().sum();
    let devices: Vec<usize> = eps.carriers.iter().map(|c| c.devices).collect();
    let volumes = carrier_volumes(mix.queries, &devices);

    let probe_zone = DnsName::parse(PROBE_ZONE)
        .unwrap_or_else(|_| unreachable!("static probe zone name is valid"));
    let mut per_carrier = Vec::with_capacity(eps.carriers.len());
    for (shard, &volume) in volumes.iter().enumerate() {
        let mut rng =
            StdRng::seed_from_u64(derive_seed(eps.config.seed, lane::SERVE, shard as u64));
        let mut queries = Vec::with_capacity(volume as usize);
        for _ in 0..volume {
            let miss: u32 = rng.gen_range(0..1_000);
            let qname = if miss < mix.miss_per_mille {
                let nonce: u64 = rng.gen();
                match probe_zone.child(&format!("q{nonce:016x}")) {
                    Ok(n) => n,
                    Err(_) => probe_zone.clone(),
                }
            } else {
                let mut draw = rng.gen_range(0..weight_sum);
                let mut pick = 0;
                for (i, &w) in weights.iter().enumerate() {
                    if draw < w {
                        pick = i;
                        break;
                    }
                    draw -= w;
                }
                catalog[pick].domain.clone()
            };
            let id: u16 = rng.gen();
            let wire = encode_stub_query(id, &qname, RecordType::A, DEFAULT_UDP_PAYLOAD_SIZE);
            queries.push(PlannedQuery { id, qname, wire });
        }
        per_carrier.push(queries);
    }
    Script { per_carrier }
}

#[cfg(test)]
mod tests {
    use super::*;
    use measure::WorldConfig;
    use serve::CarrierEndpoint;

    fn fake_endpoints(seed: u64, devices: &[usize]) -> Endpoints {
        Endpoints {
            config: WorldConfig::quick(seed),
            carriers: devices
                .iter()
                .enumerate()
                .map(|(i, &d)| CarrierEndpoint {
                    index: i,
                    name: format!("c{i}"),
                    udp: "127.0.0.1:1".parse().unwrap(),
                    tcp: "127.0.0.1:2".parse().unwrap(),
                    devices: d,
                })
                .collect(),
        }
    }

    #[test]
    fn scripts_are_deterministic_and_population_weighted() {
        let eps = fake_endpoints(42, &[30, 10]);
        let mix = MixConfig {
            queries: 400,
            miss_per_mille: 100,
        };
        let a = build_script(&eps, &mix);
        let b = build_script(&eps, &mix);
        assert_eq!(a.total(), 400);
        assert_eq!(a.per_carrier[0].len(), 300, "3:1 device split");
        assert_eq!(a.per_carrier[1].len(), 100);
        for (x, y) in a.per_carrier[0].iter().zip(&b.per_carrier[0]) {
            assert_eq!(x.wire, y.wire, "same seed must give identical scripts");
        }
        // Different seed, different script.
        let c = build_script(&fake_endpoints(43, &[30, 10]), &mix);
        assert_ne!(a.per_carrier[0][0].wire, c.per_carrier[0][0].wire);
    }

    #[test]
    fn miss_fraction_puts_nonces_under_the_probe_zone() {
        let eps = fake_endpoints(7, &[20]);
        let all_miss = build_script(
            &eps,
            &MixConfig {
                queries: 50,
                miss_per_mille: 1_000,
            },
        );
        for q in &all_miss.per_carrier[0] {
            assert!(
                q.qname.to_string().ends_with("whoami.probe.example"),
                "expected a probe-zone nonce, got {}",
                q.qname
            );
        }
        let no_miss = build_script(
            &eps,
            &MixConfig {
                queries: 50,
                miss_per_mille: 0,
            },
        );
        for q in &no_miss.per_carrier[0] {
            assert!(!q.qname.to_string().contains("probe.example"));
        }
    }

    /// The one-pass encoder writes what the builder wrote before it: for
    /// every catalog domain, and for the nonce names the campaign's whoami
    /// probes (`x…`) and the miss mix (`q…`) put under the probe zone.
    #[test]
    fn one_pass_queries_equal_the_builders_bytes() {
        let zone = DnsName::parse(PROBE_ZONE).unwrap();
        let names = mobile_domains()
            .into_iter()
            .map(|entry| entry.domain)
            .chain(["x0123456789abcdef", "qfedcba9876543210"].map(|l| zone.child(l).unwrap()));
        for (id, qname) in names.enumerate() {
            let id = (id as u16).wrapping_mul(7919);
            let mut query =
                dnswire::builder::QueryBuilder::new(id, qname.to_string(), RecordType::A)
                    .recursion_desired(true)
                    .build()
                    .unwrap();
            query.advertise_udp_size(DEFAULT_UDP_PAYLOAD_SIZE);
            assert_eq!(
                encode_stub_query(id, &qname, RecordType::A, DEFAULT_UDP_PAYLOAD_SIZE),
                query.encode().unwrap(),
                "{qname}"
            );
        }
    }
}

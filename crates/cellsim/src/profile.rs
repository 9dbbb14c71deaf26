//! Carrier profiles: the per-operator configuration data behind every
//! carrier-specific number in the paper (Tables 1, 3, 4; §5.2 egress
//! counts). All calibration constants live here, as plain data.

use dnssim::forwarder::UpstreamPolicy;
use netsim::time::SimDuration;

/// Market the carrier operates in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Country {
    /// United States.
    Us,
    /// South Korea.
    SouthKorea,
}

impl Country {
    /// Display label used in tables.
    pub fn label(self) -> &'static str {
        match self {
            Country::Us => "US",
            Country::SouthKorea => "SK",
        }
    }
}

/// Radio lineage, which determines the set of fallback technologies a
/// device can report (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RadioLineage {
    /// GSM/UMTS lineage (AT&T, T-Mobile): LTE, HSPA family, UMTS, EDGE, GPRS.
    Gsm,
    /// CDMA lineage (Verizon, Sprint): LTE, eHRPD, EV-DO Rev. A, 1xRTT.
    Cdma,
    /// Korean operators: LTE plus a dense HSPA family.
    Korean,
}

/// How devices see the client-facing resolver tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientFacing {
    /// A small number of anycast VIPs; one forwarder instance per gateway
    /// region stands behind each VIP (AT&T, T-Mobile §4.1).
    Anycast {
        /// Number of VIP addresses configured on devices.
        vips: usize,
    },
    /// Distinct unicast forwarder addresses; the bearer assigns one.
    Unicast {
        /// Number of client-facing resolver addresses.
        count: usize,
    },
}

/// DNS infrastructure description for one carrier (§4.1, Table 3, Table 4).
#[derive(Debug, Clone, PartialEq)]
pub struct DnsInfraConfig {
    /// Client-facing tier shape.
    pub client_facing: ClientFacing,
    /// Number of external-facing recursive resolvers.
    pub external_count: usize,
    /// How many /24 prefixes the externals span (SK carriers: 1–2; anycast
    /// US carriers: one per region group).
    pub external_slash24s: usize,
    /// AS number of the external tier when it differs from the carrier's
    /// (Verizon: client-facing in AS 6167, external in AS 22394).
    pub external_asn: Option<u32>,
    /// Client→external mapping policy (drives Table 3 consistency).
    pub policy: UpstreamPolicy,
    /// Number of externals that answer ICMP echo from outside the carrier
    /// (Table 4's ping column).
    pub external_ping_reachable: usize,
    /// Whether externals are co-located with client-facing resolvers
    /// (SK Telecom's near-equal latencies in Fig. 4).
    pub colocated_external: bool,
    /// Whether the client-facing tier answers device pings (all carriers'
    /// configured resolvers did).
    pub client_answers_ping: bool,
}

/// Full per-carrier profile.
#[derive(Debug, Clone, PartialEq)]
pub struct CarrierProfile {
    /// Operator name.
    pub name: &'static str,
    /// Market.
    pub country: Country,
    /// Carrier AS number.
    pub asn: u32,
    /// Measurement clients in the fleet (Table 1).
    pub client_count: usize,
    /// Ingress/egress gateway sites (§5.2: 11/45/62/49 for the US four).
    pub gateway_count: usize,
    /// Radio lineage.
    pub lineage: RadioLineage,
    /// DNS infrastructure.
    pub dns: DnsInfraConfig,
    /// Mean time between device private-IP reassignments (Balakrishnan et
    /// al.'s ephemeral addressing; drives §4.5 churn for stationary devices).
    pub ip_reassign_mean: SimDuration,
    /// Per-day probability that a device's bearer moves to another gateway
    /// (internal re-homing / tunnelling changes; also drives Fig. 12).
    pub gateway_reattach_daily_prob: f64,
    /// Probability a device stays on its previous radio technology between
    /// experiments (the rest resamples from the lineage mix).
    pub radio_stickiness: f64,
    /// Model the pre-LTE era of Xu et al. (SIGMETRICS'11): 4–6 gateways and
    /// no LTE radio. Used by the §5.2 historical comparison.
    pub three_g_era: bool,
}

impl CarrierProfile {
    /// Radio technology mix for this carrier's lineage:
    /// `(tech index into RadioTech ordering, probability)` pairs.
    pub fn tech_mix(&self) -> &'static [(crate::radio::RadioTech, f64)] {
        use crate::radio::RadioTech::*;
        match (self.lineage, self.three_g_era) {
            (RadioLineage::Gsm, false) => &[
                (Lte, 0.70),
                (Hspap, 0.12),
                (Hspa, 0.06),
                (Hsdpa, 0.05),
                (Umts, 0.04),
                (Edge, 0.02),
                (Gprs, 0.01),
            ],
            (RadioLineage::Cdma, false) => {
                &[(Lte, 0.72), (Ehrpd, 0.15), (EvdoA, 0.10), (OneXRtt, 0.03)]
            }
            (RadioLineage::Korean, false) => &[
                (Lte, 0.80),
                (Hspap, 0.08),
                (Hspa, 0.04),
                (Hsdpa, 0.03),
                (Hsupa, 0.03),
                (Umts, 0.02),
            ],
            // The 3G-UMTS / EVDO world Xu et al. measured.
            (RadioLineage::Gsm, true) => &[
                (Hspa, 0.35),
                (Hsdpa, 0.25),
                (Umts, 0.25),
                (Edge, 0.10),
                (Gprs, 0.05),
            ],
            (RadioLineage::Cdma, true) => &[(EvdoA, 0.80), (OneXRtt, 0.20)],
            (RadioLineage::Korean, true) => &[(Hspa, 0.45), (Hsdpa, 0.30), (Umts, 0.25)],
        }
    }

    /// The same carrier as it looked in the 3G era: 4–6 gateways (Xu et
    /// al.'s count), no LTE.
    pub fn as_three_g(mut self) -> Self {
        self.three_g_era = true;
        self.gateway_count = self.gateway_count.clamp(2, 4 + self.asn as usize % 3);
        self
    }
}

/// The six carriers of the study, calibrated to the paper's reported
/// structure. US egress counts follow §5.2 (11 / 45 / 62 / 49); fleet sizes
/// follow Table 1; DNS shapes follow §4.1 and Table 3.
pub fn six_carriers() -> Vec<CarrierProfile> {
    vec![
        CarrierProfile {
            name: "AT&T",
            country: Country::Us,
            asn: 7018,
            client_count: 33,
            gateway_count: 11,
            lineage: RadioLineage::Gsm,
            dns: DnsInfraConfig {
                // Anycast VIPs; one VIP observed mapping to 40 externals.
                client_facing: ClientFacing::Anycast { vips: 2 },
                external_count: 40,
                external_slash24s: 10,
                external_asn: None,
                policy: UpstreamPolicy::PerClientLease {
                    lease: SimDuration::from_hours(18),
                    stick_prob: 0.55,
                },
                external_ping_reachable: 3, // "a small fraction"
                colocated_external: false,
                client_answers_ping: true,
            },
            ip_reassign_mean: SimDuration::from_hours(10),
            gateway_reattach_daily_prob: 0.35,
            radio_stickiness: 0.90,
            three_g_era: false,
        },
        CarrierProfile {
            name: "Sprint",
            country: Country::Us,
            asn: 10507,
            client_count: 9,
            gateway_count: 49,
            lineage: RadioLineage::Cdma,
            dns: DnsInfraConfig {
                client_facing: ClientFacing::Unicast { count: 4 },
                external_count: 9,
                external_slash24s: 4,
                external_asn: None,
                // LDNS pool with fairly consistent mapping, >60%.
                policy: UpstreamPolicy::PrimarySpill { spill_prob: 0.25 },
                external_ping_reachable: 0,
                colocated_external: false,
                client_answers_ping: true,
            },
            ip_reassign_mean: SimDuration::from_hours(14),
            gateway_reattach_daily_prob: 0.25,
            radio_stickiness: 0.88,
            three_g_era: false,
        },
        CarrierProfile {
            name: "T-Mobile",
            country: Country::Us,
            asn: 21928,
            client_count: 31,
            gateway_count: 45,
            lineage: RadioLineage::Gsm,
            dns: DnsInfraConfig {
                client_facing: ClientFacing::Anycast { vips: 2 },
                external_count: 30,
                external_slash24s: 12,
                external_asn: None,
                // "a high degree of load balancing between external
                // resolvers in T-Mobile's network".
                policy: UpstreamPolicy::LoadBalance,
                external_ping_reachable: 20, // majority respond
                colocated_external: false,
                client_answers_ping: true,
            },
            ip_reassign_mean: SimDuration::from_hours(8),
            gateway_reattach_daily_prob: 0.45,
            radio_stickiness: 0.90,
            three_g_era: false,
        },
        CarrierProfile {
            name: "Verizon",
            country: Country::Us,
            asn: 6167,
            client_count: 64,
            gateway_count: 62,
            lineage: RadioLineage::Cdma,
            dns: DnsInfraConfig {
                client_facing: ClientFacing::Unicast { count: 6 },
                external_count: 6,
                external_slash24s: 6,
                // Tiered resolvers in an entirely different AS (§4.1).
                external_asn: Some(22394),
                policy: UpstreamPolicy::Sticky, // 100% pairing consistency
                external_ping_reachable: 5,     // majority respond
                colocated_external: false,
                client_answers_ping: true,
            },
            ip_reassign_mean: SimDuration::from_hours(20),
            gateway_reattach_daily_prob: 0.15,
            radio_stickiness: 0.92,
            three_g_era: false,
        },
        CarrierProfile {
            name: "SK Telecom",
            country: Country::SouthKorea,
            asn: 9644,
            client_count: 17,
            gateway_count: 12,
            lineage: RadioLineage::Korean,
            dns: DnsInfraConfig {
                client_facing: ClientFacing::Unicast { count: 2 },
                external_count: 24,
                external_slash24s: 1, // "contained within the same /24"
                external_asn: None,
                policy: UpstreamPolicy::PerClientLease {
                    lease: SimDuration::from_hours(4),
                    stick_prob: 0.35,
                },
                external_ping_reachable: 0,
                colocated_external: true, // near-equal latencies in Fig. 4
                client_answers_ping: true,
            },
            ip_reassign_mean: SimDuration::from_hours(6),
            gateway_reattach_daily_prob: 0.30,
            radio_stickiness: 0.93,
            three_g_era: false,
        },
        CarrierProfile {
            name: "LG U+",
            country: Country::SouthKorea,
            asn: 17858,
            client_count: 4,
            gateway_count: 10,
            lineage: RadioLineage::Korean,
            dns: DnsInfraConfig {
                client_facing: ClientFacing::Unicast { count: 5 },
                external_count: 89,
                external_slash24s: 2, // "within only 2 /24 prefixes"
                external_asn: None,
                // "over 65 external resolver IPs within a two week period".
                policy: UpstreamPolicy::PerClientLease {
                    lease: SimDuration::from_hours(2),
                    stick_prob: 0.20,
                },
                external_ping_reachable: 0,
                colocated_external: false,
                client_answers_ping: true,
            },
            ip_reassign_mean: SimDuration::from_hours(5),
            gateway_reattach_daily_prob: 0.30,
            radio_stickiness: 0.93,
            three_g_era: false,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_matches_table_1() {
        let carriers = six_carriers();
        let total: usize = carriers.iter().map(|c| c.client_count).sum();
        assert_eq!(total, 158, "Table 1: 158 clients in the six carriers");
        assert_eq!(carriers.len(), 6);
        assert_eq!(
            carriers.iter().filter(|c| c.country == Country::Us).count(),
            4
        );
    }

    #[test]
    fn us_egress_counts_match_section_5_2() {
        let carriers = six_carriers();
        let get = |name: &str| {
            carriers
                .iter()
                .find(|c| c.name == name)
                .unwrap()
                .gateway_count
        };
        assert_eq!(get("AT&T"), 11);
        assert_eq!(get("T-Mobile"), 45);
        assert_eq!(get("Verizon"), 62);
        assert_eq!(get("Sprint"), 49);
    }

    #[test]
    fn verizon_is_tiered_across_ases_and_fully_sticky() {
        let carriers = six_carriers();
        let vz = carriers.iter().find(|c| c.name == "Verizon").unwrap();
        let sprint = carriers.iter().find(|c| c.name == "Sprint").unwrap();
        assert!(matches!(
            sprint.dns.policy,
            UpstreamPolicy::PrimarySpill { .. }
        ));
        assert_eq!(vz.dns.external_asn, Some(22394));
        assert_eq!(vz.asn, 6167);
        assert_eq!(vz.dns.policy, UpstreamPolicy::Sticky);
        assert_eq!(vz.dns.external_count, 6);
    }

    #[test]
    fn korean_carriers_keep_externals_in_few_slash24s() {
        let carriers = six_carriers();
        for name in ["SK Telecom", "LG U+"] {
            let c = carriers.iter().find(|c| c.name == name).unwrap();
            assert!(c.dns.external_slash24s <= 2, "{name}");
            assert_eq!(c.country, Country::SouthKorea);
        }
    }

    #[test]
    fn tech_mixes_sum_to_one() {
        for c in six_carriers() {
            let sum: f64 = c.tech_mix().iter().map(|(_, p)| p).sum();
            assert!((sum - 1.0).abs() < 1e-9, "{} mix sums to {sum}", c.name);
            let three_g = c.clone().as_three_g();
            let sum: f64 = three_g.tech_mix().iter().map(|(_, p)| p).sum();
            assert!(
                (sum - 1.0).abs() < 1e-9,
                "{} 3G mix sums to {sum}",
                three_g.name
            );
        }
    }

    #[test]
    fn three_g_era_matches_xu_et_al() {
        use crate::radio::RadioTech;
        for c in six_carriers() {
            let g3 = c.as_three_g();
            assert!(
                (2..=6).contains(&g3.gateway_count),
                "{}: {} gateways in the 3G era",
                g3.name,
                g3.gateway_count
            );
            assert!(
                !g3.tech_mix().iter().any(|(t, _)| *t == RadioTech::Lte),
                "{}: LTE in the 3G era",
                g3.name
            );
        }
    }

    #[test]
    fn anycast_carriers_are_the_gsm_us_pair() {
        for c in six_carriers() {
            let anycast = matches!(c.dns.client_facing, ClientFacing::Anycast { .. });
            let expected = c.name == "AT&T" || c.name == "T-Mobile";
            assert_eq!(anycast, expected, "{}", c.name);
        }
    }

    #[test]
    fn table4_reachability_shape() {
        let carriers = six_carriers();
        let reach = |name: &str| {
            let c = carriers.iter().find(|c| c.name == name).unwrap();
            (c.dns.external_ping_reachable, c.dns.external_count)
        };
        let (vz, vz_total) = reach("Verizon");
        assert!(vz * 2 > vz_total, "Verizon majority reachable");
        let (tm, tm_total) = reach("T-Mobile");
        assert!(tm * 2 > tm_total, "T-Mobile majority reachable");
        let (att, att_total) = reach("AT&T");
        assert!(att > 0 && att * 4 < att_total, "AT&T small fraction");
        for name in ["Sprint", "SK Telecom", "LG U+"] {
            assert_eq!(reach(name).0, 0, "{name} unreachable");
        }
    }
}

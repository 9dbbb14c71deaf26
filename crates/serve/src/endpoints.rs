//! The endpoints handshake file: how a running [`DnsServer`] tells a load
//! generator (possibly in another process) where each carrier's sockets
//! are bound and exactly which world it is serving, so the generator can
//! build a byte-identical ground-truth core.
//!
//! The format is a deliberately tiny line-oriented text file (`key value`,
//! `#` comments) — no JSON dependency, trivially greppable in CI logs.
//! Floats are serialized as IEEE-754 bit patterns in hex so the parsed
//! [`WorldConfig`] is *bit-identical* to the server's, not merely close.
//!
//! [`DnsServer`]: crate::server::DnsServer

use measure::{FaultProfile, WorldConfig};
use netsim::time::SimDuration;
use std::net::SocketAddr;

/// One carrier's serving sockets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CarrierEndpoint {
    /// Carrier shard index.
    pub index: usize,
    /// Carrier display name.
    pub name: String,
    /// UDP DNS socket address.
    pub udp: SocketAddr,
    /// TCP DNS listener address.
    pub tcp: SocketAddr,
    /// Device population of the shard (loadgen mix weighting).
    pub devices: usize,
}

/// Everything a load generator needs to drive a server and rebuild its
/// ground truth: the full world configuration plus per-carrier addresses.
#[derive(Debug, Clone, PartialEq)]
pub struct Endpoints {
    /// The exact world configuration the server built.
    pub config: WorldConfig,
    /// Per-carrier sockets, in shard order.
    pub carriers: Vec<CarrierEndpoint>,
}

impl Endpoints {
    /// Serializes to the line format described in the module docs.
    pub fn render(&self) -> String {
        let c = &self.config;
        let mut out = String::from("# serve endpoints v1\n");
        out.push_str(&format!("seed {}\n", c.seed));
        out.push_str(&format!("fleet_scale {:#018x}\n", c.fleet_scale.to_bits()));
        out.push_str(&format!(
            "gateway_scale {:#018x}\n",
            c.gateway_scale.to_bits()
        ));
        match c.ambient_period {
            Some(p) => out.push_str(&format!("ambient_period_us {}\n", p.as_micros())),
            None => out.push_str("ambient_period_us none\n"),
        }
        out.push_str(&format!("google_sites {}\n", c.google_sites));
        out.push_str(&format!("opendns_sites {}\n", c.opendns_sites));
        out.push_str(&format!("ecs {}\n", c.ecs as u8));
        out.push_str(&format!("three_g_era {}\n", c.three_g_era as u8));
        out.push_str(&format!("fault_profile {}\n", c.fault_profile.label()));
        for ep in &self.carriers {
            out.push_str(&format!(
                "carrier {} {} {} {} {}\n",
                ep.index, ep.name, ep.udp, ep.tcp, ep.devices
            ));
        }
        out
    }

    /// Parses the line format back. Unknown keys are errors (the file is a
    /// handshake, not a config surface — drift must be loud).
    pub fn parse(text: &str) -> Result<Endpoints, String> {
        let mut config = WorldConfig::default();
        let mut carriers = Vec::new();
        for (ln, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, rest) = line
                .split_once(' ')
                .ok_or_else(|| format!("line {}: missing value", ln + 1))?;
            let err = |what: &str| format!("line {}: bad {what}: '{rest}'", ln + 1);
            match key {
                "seed" => config.seed = rest.parse().map_err(|_| err("seed"))?,
                "fleet_scale" => config.fleet_scale = parse_f64_bits(rest).ok_or(err("bits"))?,
                "gateway_scale" => {
                    config.gateway_scale = parse_f64_bits(rest).ok_or(err("bits"))?
                }
                "ambient_period_us" => {
                    config.ambient_period = if rest == "none" {
                        None
                    } else {
                        Some(SimDuration::from_micros(
                            rest.parse().map_err(|_| err("period"))?,
                        ))
                    };
                }
                "google_sites" => config.google_sites = rest.parse().map_err(|_| err("count"))?,
                "opendns_sites" => config.opendns_sites = rest.parse().map_err(|_| err("count"))?,
                "ecs" => config.ecs = rest == "1",
                "three_g_era" => config.three_g_era = rest == "1",
                "fault_profile" => {
                    config.fault_profile = FaultProfile::parse(rest).ok_or(err("profile"))?
                }
                "carrier" => {
                    // Carrier names may contain spaces ("SK Telecom"), so
                    // the name is everything between the leading index and
                    // the trailing udp/tcp/devices fields.
                    let parts: Vec<&str> = rest.split_whitespace().collect();
                    if parts.len() < 5 {
                        return Err(err("carrier line (index name udp tcp devices)"));
                    }
                    let n = parts.len();
                    carriers.push(CarrierEndpoint {
                        index: parts[0].parse().map_err(|_| err("carrier index"))?,
                        name: parts[1..n - 3].join(" "),
                        udp: parts[n - 3].parse().map_err(|_| err("udp addr"))?,
                        tcp: parts[n - 2].parse().map_err(|_| err("tcp addr"))?,
                        devices: parts[n - 1].parse().map_err(|_| err("device count"))?,
                    });
                }
                other => return Err(format!("line {}: unknown key '{other}'", ln + 1)),
            }
        }
        if carriers.is_empty() {
            return Err("no carrier lines".into());
        }
        Ok(Endpoints { config, carriers })
    }
}

fn parse_f64_bits(s: &str) -> Option<f64> {
    let hex = s.strip_prefix("0x")?;
    u64::from_str_radix(hex, 16).ok().map(f64::from_bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints_round_trip_bit_exactly() {
        let eps = Endpoints {
            config: WorldConfig::quick(99),
            carriers: vec![
                CarrierEndpoint {
                    index: 0,
                    name: "Alpha".into(),
                    udp: "127.0.0.1:40001".parse().unwrap(),
                    tcp: "127.0.0.1:40002".parse().unwrap(),
                    devices: 24,
                },
                CarrierEndpoint {
                    index: 1,
                    name: "Beta Mobile KR".into(),
                    udp: "127.0.0.1:40003".parse().unwrap(),
                    tcp: "127.0.0.1:40004".parse().unwrap(),
                    devices: 18,
                },
            ],
        };
        let text = eps.render();
        let parsed = Endpoints::parse(&text).unwrap();
        assert_eq!(parsed, eps);
        // Bit-exactness of the scale floats, the whole point of hex bits.
        assert_eq!(
            parsed.config.fleet_scale.to_bits(),
            eps.config.fleet_scale.to_bits()
        );
    }

    #[test]
    fn parse_rejects_drift() {
        assert!(Endpoints::parse("flux 3\ncarrier 0 A 1.2.3.4:1 1.2.3.4:2 1").is_err());
        // A key this version retired is drift like any other.
        assert!(Endpoints::parse("queue wheel\ncarrier 0 A 1.2.3.4:1 1.2.3.4:2 1").is_err());
        assert!(Endpoints::parse("seed 5").is_err(), "no carriers = error");
        assert!(Endpoints::parse("carrier 0 A 1.2.3.4:1").is_err());
    }
}

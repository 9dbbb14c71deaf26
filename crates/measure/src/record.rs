//! Measurement records: compact, analysis-ready rows for every probe the
//! experiment suite performs, plus the dataset container and CSV export.

use cellsim::radio::RadioTech;
use dnswire::name::DnsName;
use netsim::addr::Prefix;
use netsim::time::SimTime;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::net::Ipv4Addr;

pub use dnssim::client::Outcome;

/// Which resolver a measurement went through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ResolverKind {
    /// The carrier-configured ("local") resolver.
    Local,
    /// Google-like public DNS.
    Google,
    /// OpenDNS-like public DNS.
    OpenDns,
}

impl ResolverKind {
    /// All kinds, in the order the experiment probes them.
    pub const fn all() -> [ResolverKind; 3] {
        [
            ResolverKind::Local,
            ResolverKind::Google,
            ResolverKind::OpenDns,
        ]
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            ResolverKind::Local => "local",
            ResolverKind::Google => "google",
            ResolverKind::OpenDns => "opendns",
        }
    }
}

/// One timed DNS lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnsTiming {
    /// Resolver used.
    pub resolver: ResolverKind,
    /// Address that was queried.
    pub resolver_addr: Ipv4Addr,
    /// Index into the dataset's domain catalog.
    pub domain_idx: u8,
    /// 1 for the first (cache-state-unknown) lookup, 2 for the back-to-back
    /// second one (Fig. 7).
    pub attempt: u8,
    /// Resolution time in microseconds; `None` on timeout.
    pub elapsed_us: Option<u32>,
    /// A-record answers (recorded for attempt 1 only; attempt 2 repeats).
    pub addrs: Vec<Ipv4Addr>,
    /// How the resolution concluded (the failure taxonomy).
    pub outcome: Outcome,
}

/// Result of a whoami probe: the resolver identity pair of §4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolverIdentity {
    /// Resolver used.
    pub resolver: ResolverKind,
    /// The client-facing address that was queried.
    pub queried_addr: Ipv4Addr,
    /// The external-facing address the ADNS observed.
    pub external_addr: Option<Ipv4Addr>,
}

/// What a resolver latency probe targeted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProbeTarget {
    /// The configured (client-facing) resolver.
    ClientFacing,
    /// The whoami-discovered external resolver.
    External,
    /// The Google VIP.
    GoogleVip,
    /// The OpenDNS VIP.
    OpenDnsVip,
}

impl ProbeTarget {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            ProbeTarget::ClientFacing => "client-facing",
            ProbeTarget::External => "external",
            ProbeTarget::GoogleVip => "google-vip",
            ProbeTarget::OpenDnsVip => "opendns-vip",
        }
    }
}

/// One resolver latency probe (Figs. 4 and 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolverProbe {
    /// What was probed.
    pub target: ProbeTarget,
    /// The probed address.
    pub addr: Ipv4Addr,
    /// Minimum ping RTT in µs; `None` when unanswered.
    pub rtt_us: Option<u32>,
}

/// One replica measurement (Figs. 2, 10, 14; §5.2 traceroutes): the ping,
/// GET and traceroute of one replica the experiment's lookups returned,
/// taken once however many lookups returned it.
/// [`ExperimentRecord::returned_by`] names those lookups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaProbe {
    /// Replica address.
    pub addr: Ipv4Addr,
    /// Minimum ping RTT in µs.
    pub rtt_us: Option<u32>,
    /// HTTP time-to-first-byte in µs.
    pub ttfb_us: Option<u32>,
    /// Responding traceroute hops (empty when tracing was not sampled this
    /// experiment).
    pub trace_hops: Vec<Ipv4Addr>,
}

/// Everything one experiment produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentRecord {
    /// Fleet-wide device id.
    pub device_id: u32,
    /// Carrier index.
    pub carrier: u8,
    /// Experiment start time.
    pub t: SimTime,
    /// Radio technology active during the experiment.
    pub radio: RadioTech,
    /// Coarse device location (the paper rounds to a 100 m area).
    pub x_km: f32,
    /// Coarse device location.
    pub y_km: f32,
    /// Whether the device is stationary (Fig. 9 filter).
    pub is_static: bool,
    /// The device's (private) IP at experiment time.
    pub device_ip: Ipv4Addr,
    /// Gateway site the bearer was attached to.
    pub gateway_site: u16,
    /// Configured resolver address.
    pub configured_dns: Ipv4Addr,
    /// Timed lookups.
    pub lookups: Vec<DnsTiming>,
    /// whoami results.
    pub identities: Vec<ResolverIdentity>,
    /// Resolver latency probes.
    pub resolver_probes: Vec<ResolverProbe>,
    /// Replica probes, one per distinct replica in first-returned order.
    pub replica_probes: Vec<ReplicaProbe>,
}

impl ExperimentRecord {
    /// The external resolver observed via the local path, if any.
    pub fn local_external(&self) -> Option<Ipv4Addr> {
        self.identities
            .iter()
            .find(|i| i.resolver == ResolverKind::Local)
            .and_then(|i| i.external_addr)
    }

    /// The `(domain_idx, resolver)` of each attempt-1 lookup whose answer
    /// contains `replica`, in `lookups` order: who returned a replica.
    pub fn returned_by(&self, replica: Ipv4Addr) -> impl Iterator<Item = (u8, ResolverKind)> + '_ {
        self.lookups
            .iter()
            .filter(move |l| l.attempt == 1 && l.addrs.contains(&replica))
            .map(|l| (l.domain_idx, l.resolver))
    }
}

/// A Table 4 probe from the university vantage point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExternalReachProbe {
    /// Carrier index.
    pub carrier: u8,
    /// Probed resolver address.
    pub target: Ipv4Addr,
    /// Whether any ping was answered.
    pub ping_ok: bool,
    /// Whether traceroute reached the resolver.
    pub traceroute_reached: bool,
    /// Responding hops before silence/arrival.
    pub responding_hops: u8,
}

/// A full campaign's output.
#[derive(Debug, Default, PartialEq)]
pub struct Dataset {
    /// Per-experiment records.
    pub records: Vec<ExperimentRecord>,
    /// University-vantage reachability probes (Table 4).
    pub external_reach: Vec<ExternalReachProbe>,
    /// Domain catalog (`domain_idx` → name).
    pub domains: Vec<DnsName>,
    /// Carrier names (`carrier` → name).
    pub carrier_names: Vec<String>,
    /// Each carrier's public prefix (egress-point detection needs to know
    /// which hops are inside the carrier).
    pub carrier_public: Vec<Prefix>,
}

impl Dataset {
    /// Total DNS resolutions performed.
    pub fn resolution_count(&self) -> usize {
        self.records.iter().map(|r| r.lookups.len()).sum()
    }

    /// Records for one carrier.
    pub fn of_carrier(&self, carrier: usize) -> impl Iterator<Item = &ExperimentRecord> {
        self.records
            .iter()
            .filter(move |r| r.carrier as usize == carrier)
    }

    /// Writes the four raw CSV tables into `dir` (created if needed).
    pub fn write_csvs(&self, dir: &std::path::Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join("lookups.csv"), self.lookups_csv())?;
        std::fs::write(dir.join("replicas.csv"), self.replicas_csv())?;
        std::fs::write(dir.join("identities.csv"), self.identities_csv())?;
        std::fs::write(dir.join("outcomes.csv"), self.outcomes_csv())?;
        Ok(())
    }

    /// Aggregate lookup-outcome counts per (carrier, resolver class):
    /// the failure-taxonomy table. Rows are emitted in deterministic
    /// (carrier, resolver, outcome) order; zero-count combinations are
    /// omitted.
    pub fn outcomes_csv(&self) -> String {
        let mut counts: BTreeMap<(u8, ResolverKind, Outcome), u64> = BTreeMap::new();
        for r in &self.records {
            for l in &r.lookups {
                *counts
                    .entry((r.carrier, l.resolver, l.outcome))
                    .or_insert(0) += 1;
            }
        }
        let mut out = String::from("carrier,resolver,outcome,count\n");
        for ((carrier, resolver, outcome), n) in &counts {
            let _ = writeln!(
                out,
                "{},{},{},{}",
                self.carrier_names[*carrier as usize],
                resolver.label(),
                outcome.label(),
                n,
            );
        }
        out
    }

    /// CSV of the lookup table (one row per timed lookup).
    pub fn lookups_csv(&self) -> String {
        let mut out = String::from(
            "device,carrier,t_s,radio,resolver,resolver_addr,domain,attempt,elapsed_ms\n",
        );
        for r in &self.records {
            for l in &r.lookups {
                let _ = writeln!(
                    out,
                    "{},{},{},{},{},{},{},{},{}",
                    r.device_id,
                    self.carrier_names[r.carrier as usize],
                    r.t.as_secs(),
                    r.radio.label(),
                    l.resolver.label(),
                    l.resolver_addr,
                    self.domains[l.domain_idx as usize],
                    l.attempt,
                    l.elapsed_us
                        .map(|us| format!("{:.3}", us as f64 / 1000.0))
                        .unwrap_or_else(|| "timeout".into()),
                );
            }
        }
        out
    }

    /// CSV of replica probes: one row per (replica, domain, resolver) that
    /// returned it, in probe order and then `lookups` order.
    pub fn replicas_csv(&self) -> String {
        let mut out = String::from("device,carrier,t_s,domain,via,replica,ping_ms,ttfb_ms\n");
        let ms = |us: Option<u32>| {
            us.map(|us| format!("{:.3}", us as f64 / 1000.0))
                .unwrap_or_default()
        };
        for r in &self.records {
            for p in &r.replica_probes {
                let (rtt, ttfb) = (ms(p.rtt_us), ms(p.ttfb_us));
                for (domain_idx, via) in r.returned_by(p.addr) {
                    let _ = writeln!(
                        out,
                        "{},{},{},{},{},{},{},{}",
                        r.device_id,
                        self.carrier_names[r.carrier as usize],
                        r.t.as_secs(),
                        self.domains[domain_idx as usize],
                        via.label(),
                        p.addr,
                        rtt,
                        ttfb,
                    );
                }
            }
        }
        out
    }

    /// CSV of whoami identities (the LDNS-pair table behind §4.1/4.5).
    pub fn identities_csv(&self) -> String {
        let mut out = String::from("device,carrier,t_s,resolver,queried,external\n");
        for r in &self.records {
            for i in &r.identities {
                let _ = writeln!(
                    out,
                    "{},{},{},{},{},{}",
                    r.device_id,
                    self.carrier_names[r.carrier as usize],
                    r.t.as_secs(),
                    i.resolver.label(),
                    i.queried_addr,
                    i.external_addr
                        .map(|a| a.to_string())
                        .unwrap_or_else(|| "".into()),
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_dataset() -> Dataset {
        let mut ds = Dataset {
            domains: vec![DnsName::parse("m.yelp.com").unwrap()],
            carrier_names: vec!["AT&T".into()],
            ..Dataset::default()
        };
        ds.records.push(ExperimentRecord {
            device_id: 3,
            carrier: 0,
            t: SimTime::from_micros(7_000_000),
            radio: RadioTech::Lte,
            x_km: 1.0,
            y_km: 2.0,
            is_static: true,
            device_ip: Ipv4Addr::new(10, 0, 0, 9),
            gateway_site: 2,
            configured_dns: Ipv4Addr::new(100, 0, 0, 1),
            lookups: vec![DnsTiming {
                resolver: ResolverKind::Local,
                resolver_addr: Ipv4Addr::new(100, 0, 0, 1),
                domain_idx: 0,
                attempt: 1,
                elapsed_us: Some(42_000),
                addrs: vec![Ipv4Addr::new(90, 0, 1, 1)],
                outcome: Outcome::Ok,
            }],
            identities: vec![ResolverIdentity {
                resolver: ResolverKind::Local,
                queried_addr: Ipv4Addr::new(100, 0, 0, 1),
                external_addr: Some(Ipv4Addr::new(100, 110, 0, 1)),
            }],
            resolver_probes: vec![],
            replica_probes: vec![ReplicaProbe {
                addr: Ipv4Addr::new(90, 0, 1, 1),
                rtt_us: Some(51_000),
                ttfb_us: None,
                trace_hops: vec![],
            }],
        });
        ds
    }

    #[test]
    fn csv_exports_have_headers_and_rows() {
        let ds = sample_dataset();
        let lookups = ds.lookups_csv();
        assert!(lookups.starts_with("device,carrier"));
        assert!(lookups.contains("m.yelp.com"));
        assert!(lookups.contains("42.000"));
        let replicas = ds.replicas_csv();
        assert!(replicas.contains("90.0.1.1"));
        assert!(replicas.contains("51.000"));
        let ids = ds.identities_csv();
        assert!(ids.contains("100.110.0.1"));
    }

    #[test]
    fn outcomes_csv_aggregates_per_carrier_and_resolver() {
        let mut ds = sample_dataset();
        ds.records[0].lookups.push(DnsTiming {
            resolver: ResolverKind::Google,
            resolver_addr: Ipv4Addr::new(8, 8, 8, 8),
            domain_idx: 0,
            attempt: 1,
            elapsed_us: None,
            addrs: vec![],
            outcome: Outcome::ServFail,
        });
        let csv = ds.outcomes_csv();
        assert!(csv.starts_with("carrier,resolver,outcome,count\n"));
        assert!(csv.contains("AT&T,local,ok,1"));
        assert!(csv.contains("AT&T,google,servfail,1"));
        // Zero-count combinations are omitted.
        assert!(!csv.contains(",timeout,"));
    }

    #[test]
    fn resolution_count_sums_lookups() {
        let ds = sample_dataset();
        assert_eq!(ds.resolution_count(), 1);
    }

    #[test]
    fn local_external_accessor() {
        let ds = sample_dataset();
        assert_eq!(
            ds.records[0].local_external(),
            Some(Ipv4Addr::new(100, 110, 0, 1))
        );
    }

    #[test]
    fn of_carrier_filters() {
        let ds = sample_dataset();
        assert_eq!(ds.of_carrier(0).count(), 1);
        assert_eq!(ds.of_carrier(1).count(), 0);
    }
}

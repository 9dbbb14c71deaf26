//! Sim-plane metric harvest: folds every layer's counters into one
//! [`obs::Registry`] per shard.
//!
//! The harvest runs once at the end of each shard's campaign, on the
//! shard's own thread, and reads only shard-local simulation state —
//! engine [`netsim::engine::NetStats`], fault-plan counters, DNS service
//! stats reached through `Network::service_as`, and the shard's own
//! experiment records. Per-shard registries are merged in canonical
//! carrier order by the campaign driver, so the folded registry (and the
//! `metrics.json` it exports to) is byte-identical for every thread
//! count.

use crate::record::{ExperimentRecord, Outcome, ResolverKind};
use crate::world::{Backbone, CarrierShard};
use dnssim::forwarder::Forwarder;
use dnssim::recursive::RecursiveResolver;
use dnssim::DNS_PORT;
use obs::Registry;

/// Harvests every instrument one shard contributes: engine and fault
/// counters, the carrier's client-facing and external resolver stats, the
/// public-DNS resolvers running on this shard's engine clone, and the
/// per-record campaign taxonomy.
pub fn harvest_shard(
    backbone: &Backbone,
    shard: &CarrierShard,
    records: &[ExperimentRecord],
    reg: &mut Registry,
) {
    let carrier = shard.carrier.profile.name;
    let labels = [("carrier", carrier)];

    shard.net.stats.export(reg, &labels);
    if let Some(plan) = shard.net.fault_plan() {
        plan.stats.export(reg, &labels);
    }

    // Client-facing resolvers (anycast instances live on gateway sites,
    // unicast ones on dedicated forwarder nodes).
    let forwarder_nodes = shard
        .carrier
        .sites
        .iter()
        .filter_map(|s| s.forwarder)
        .chain(shard.carrier.forwarder_nodes.iter().map(|(n, _, _)| *n));
    for node in forwarder_nodes {
        if let Some(fwd) = shard.net.service_as::<Forwarder>(node, DNS_PORT) {
            let fl = [("carrier", carrier), ("class", "client_facing")];
            fwd.stats.export(reg, &fl);
            if let Some(cache) = fwd.cache() {
                cache.stats.export(reg, &fl);
            }
        }
    }

    // The carrier's external recursive resolvers.
    for &(node, _) in &shard.carrier.external_resolvers {
        if let Some(res) = shard.net.service_as::<RecursiveResolver>(node, DNS_PORT) {
            let el = [("carrier", carrier), ("class", "external")];
            res.stats.export(reg, &el);
            res.cache().stats.export(reg, &el);
        }
    }

    // Public-DNS resolvers: each shard's engine clone runs its own copy,
    // serving only this shard's devices, so their counters are shard-local
    // too. Label by provider name, keep the carrier label so merge never
    // collapses distinct shards.
    for pd in &backbone.public_dns {
        for site in &pd.sites {
            if let Some(res) = shard
                .net
                .service_as::<RecursiveResolver>(site.node, DNS_PORT)
            {
                let pl = [
                    ("carrier", carrier),
                    ("class", "public"),
                    ("provider", pd.name),
                ];
                res.stats.export(reg, &pl);
                res.cache().stats.export(reg, &pl);
            }
        }
    }

    harvest_records(records, carrier, reg);
}

/// Folds one shard's experiment records into the registry: experiment and
/// probe counts, the client-side outcome taxonomy (per resolver class),
/// and lookup-latency histograms over sim-time micros. The per-lookup
/// series are resolved to handles on first use.
pub fn harvest_records(records: &[ExperimentRecord], carrier: &str, reg: &mut Registry) {
    let labels = [("carrier", carrier)];
    reg.inc_by("campaign.experiments", &labels, records.len() as u64);
    let mut outcomes = [[None; Outcome::ALL.len()]; ResolverKind::all().len()];
    let mut latency = [None; ResolverKind::all().len()];
    let (mut lookups, mut identities, mut resolver_probes, mut replica_rows) = (0, 0, 0, 0);
    for r in records {
        lookups += r.lookups.len() as u64;
        identities += r.identities.len() as u64;
        resolver_probes += r.resolver_probes.len() as u64;
        replica_rows += r
            .replica_probes
            .iter()
            .map(|p| r.returned_by(p.addr).count() as u64)
            .sum::<u64>();
        for l in &r.lookups {
            let resolver = l.resolver.label();
            let id = *outcomes[l.resolver as usize][l.outcome as usize].get_or_insert_with(|| {
                reg.counter_id(
                    "dns.lookup.outcomes",
                    &[
                        ("carrier", carrier),
                        ("resolver", resolver),
                        ("outcome", l.outcome.label()),
                    ],
                )
            });
            reg.add(id, 1);
            if let Some(us) = l.elapsed_us {
                let id = *latency[l.resolver as usize].get_or_insert_with(|| {
                    reg.histogram_id(
                        "dns.lookup_us",
                        &[("carrier", carrier), ("resolver", resolver)],
                    )
                });
                reg.observe(id, us as u64);
            }
        }
    }
    // Every record adds to each of these, so they exist exactly when a
    // record does.
    if !records.is_empty() {
        reg.inc_by("campaign.lookups", &labels, lookups);
        reg.inc_by("campaign.identity_probes", &labels, identities);
        reg.inc_by("campaign.resolver_probes", &labels, resolver_probes);
        reg.inc_by("campaign.replica_probes", &labels, replica_rows);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{DnsTiming, Outcome, ResolverKind};
    use std::net::Ipv4Addr;

    fn record_with(outcome: Outcome, elapsed_us: Option<u32>) -> ExperimentRecord {
        let mut r = ExperimentRecord {
            device_id: 0,
            carrier: 0,
            t: netsim::time::SimTime::ZERO,
            radio: cellsim::radio::RadioTech::Lte,
            x_km: 0.0,
            y_km: 0.0,
            is_static: true,
            device_ip: Ipv4Addr::new(10, 0, 0, 1),
            gateway_site: 0,
            configured_dns: Ipv4Addr::new(10, 0, 0, 53),
            lookups: Vec::new(),
            identities: Vec::new(),
            resolver_probes: Vec::new(),
            replica_probes: Vec::new(),
        };
        r.lookups.push(DnsTiming {
            resolver: ResolverKind::Local,
            resolver_addr: Ipv4Addr::new(10, 0, 0, 53),
            domain_idx: 0,
            attempt: 1,
            elapsed_us,
            addrs: Vec::new(),
            outcome,
        });
        r
    }

    #[test]
    fn record_harvest_counts_outcomes_and_latency() {
        let records = vec![
            record_with(Outcome::Ok, Some(900)),
            record_with(Outcome::Timeout, None),
        ];
        let mut reg = Registry::new();
        harvest_records(&records, "AT&T", &mut reg);
        let labels = [("carrier", "AT&T")];
        assert_eq!(reg.counter_value("campaign.experiments", &labels), 2);
        assert_eq!(reg.counter_value("campaign.lookups", &labels), 2);
        assert_eq!(
            reg.counter_value(
                "dns.lookup.outcomes",
                &[
                    ("carrier", "AT&T"),
                    ("outcome", "ok"),
                    ("resolver", "local")
                ],
            ),
            1
        );
        assert_eq!(
            reg.counter_value(
                "dns.lookup.outcomes",
                &[
                    ("carrier", "AT&T"),
                    ("outcome", "timeout"),
                    ("resolver", "local"),
                ],
            ),
            1
        );
        // Only the answered lookup lands in the latency histogram.
        let h = reg
            .histogram(
                "dns.lookup_us",
                &[("carrier", "AT&T"), ("resolver", "local")],
            )
            .unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 900);
    }
}

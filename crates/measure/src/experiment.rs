//! One experiment, exactly as §3.2 describes it: bootstrap ping (radio
//! promotion), DNS resolutions of the nine domains against the local and
//! both public resolvers (twice, back-to-back), whoami resolutions to
//! discover external-facing resolvers, pings/traceroutes to resolvers, and
//! ping/traceroute/HTTP-GET probes to every replica returned.

use crate::record::{
    DnsTiming, ExperimentRecord, ProbeTarget, ReplicaProbe, ResolverIdentity, ResolverKind,
    ResolverProbe,
};
use crate::spec::ExperimentSpec;
use crate::world::{Backbone, CarrierShard, World, GOOGLE_VIP, OPENDNS_VIP};
use dnssim::client::{resolve_with, whoami_with, ClientPolicy};
use dnswire::rdata::RecordType;
use std::net::Ipv4Addr;

/// The client policy an experiment uses against `raddr`. Fault-free worlds
/// keep the seed's classic fixed-ladder client so their outputs stay
/// byte-identical; fault profiles switch to the hardened path (exponential
/// backoff, TCP fallback on truncation, failover to the next public
/// resolver in the chain).
fn policy_for(backbone: &Backbone, primary: Ipv4Addr) -> ClientPolicy {
    if !backbone.config.fault_profile.is_active() {
        return ClientPolicy::classic();
    }
    let fallbacks = if primary == GOOGLE_VIP {
        vec![OPENDNS_VIP]
    } else {
        vec![GOOGLE_VIP]
    };
    ClientPolicy::hardened(fallbacks)
}

/// Runs one experiment for the device at fleet-global index `device_idx`.
/// `seq` is the device's experiment counter (drives probe subsampling
/// rotation). Convenience wrapper over [`run_experiment_in_shard`] for
/// drivers holding a whole [`World`].
pub fn run_experiment(
    world: &mut World,
    device_idx: usize,
    seq: u32,
    spec: &ExperimentSpec,
) -> ExperimentRecord {
    let (shard_idx, local_idx) = world.locate_device(device_idx);
    let backbone = std::sync::Arc::clone(&world.backbone);
    run_experiment_in_shard(
        &backbone,
        &mut world.shards[shard_idx],
        local_idx,
        seq,
        spec,
    )
}

/// Runs one experiment on a single carrier shard. Everything the experiment
/// touches — engine, carrier, device, RNG — lives on the shard; the
/// backbone contributes only immutable data (catalog, probe zone). This is
/// the unit the parallel campaign driver schedules across threads.
pub fn run_experiment_in_shard(
    backbone: &Backbone,
    shard: &mut CarrierShard,
    device_idx: usize,
    seq: u32,
    spec: &ExperimentSpec,
) -> ExperimentRecord {
    let CarrierShard {
        net,
        carrier,
        devices,
        rng,
        ..
    } = shard;
    let catalog = &backbone.catalog;
    let probe_zone = &backbone.probe_zone;
    let device = &mut devices[device_idx];
    let now = net.now();

    // Bearer churn that came due between experiments.
    if device.next_ip_change <= now {
        device.reassign_ip(net, carrier, rng, now, 0.3);
    }
    device.maybe_resample_radio(&carrier.profile, net.topo_mut(), rng);

    // Radio promotion, then the bootstrap ping that §3.2 uses to mask it.
    let promotion = device.wake_radio(now);
    let start = now + promotion;
    net.skip_to(start);
    let _ = net.ping_train(device.node, device.configured_dns, 1);

    let resolvers: [(ResolverKind, Ipv4Addr); 3] = [
        (ResolverKind::Local, device.configured_dns),
        (ResolverKind::Google, GOOGLE_VIP),
        (ResolverKind::OpenDns, OPENDNS_VIP),
    ];

    // DNS resolutions: every domain against every resolver, twice.
    let mut lookups = Vec::with_capacity(catalog.len() * resolvers.len() * 2);
    // Every distinct replica an attempt-1 lookup returned, first-seen order.
    let mut replicas: Vec<Ipv4Addr> = Vec::new();
    for (d_idx, entry) in catalog.iter().enumerate() {
        for &(kind, raddr) in &resolvers {
            let policy = policy_for(backbone, raddr);
            for attempt in 1..=2 {
                let lookup = resolve_with(
                    net,
                    device.node,
                    raddr,
                    &entry.domain,
                    RecordType::A,
                    &policy,
                );
                let addrs = if attempt == 1 {
                    lookup.addrs()
                } else {
                    Vec::new()
                };
                for &a in &addrs {
                    if !replicas.contains(&a) {
                        replicas.push(a);
                    }
                }
                lookups.push(DnsTiming {
                    resolver: kind,
                    resolver_addr: raddr,
                    domain_idx: d_idx as u8,
                    attempt,
                    elapsed_us: lookup.elapsed.map(|e| e.as_micros() as u32),
                    addrs,
                    outcome: lookup.outcome,
                });
            }
        }
    }

    // whoami per resolver (§3.2's "resolution of clients' resolver IPs").
    let mut identities = Vec::with_capacity(3);
    for &(kind, raddr) in &resolvers {
        let policy = policy_for(backbone, raddr);
        let (_, external) = whoami_with(net, device.node, raddr, probe_zone, &policy);
        identities.push(ResolverIdentity {
            resolver: kind,
            queried_addr: raddr,
            external_addr: external,
        });
    }
    let local_external = identities
        .iter()
        .find(|i| i.resolver == ResolverKind::Local)
        .and_then(|i| i.external_addr);

    // Resolver latency probes (Figs. 4 and 11).
    let mut resolver_probes = Vec::new();
    let mut probe_resolver = |net: &mut netsim::Network, target: ProbeTarget, addr: Ipv4Addr| {
        let report = net.ping_train(device.node, addr, spec.ping_count);
        resolver_probes.push(ResolverProbe {
            target,
            addr,
            rtt_us: report.min_rtt().map(|r| r.as_micros() as u32),
        });
    };
    probe_resolver(net, ProbeTarget::ClientFacing, device.configured_dns);
    if let Some(ext) = local_external {
        if ext != device.configured_dns {
            probe_resolver(net, ProbeTarget::External, ext);
        }
    }
    probe_resolver(net, ProbeTarget::GoogleVip, GOOGLE_VIP);
    probe_resolver(net, ProbeTarget::OpenDnsVip, OPENDNS_VIP);
    if seq.is_multiple_of(spec.resolver_trace_every) {
        // Traceroutes to the resolver tier; structural data only (the paper
        // found tunnelling renders hop counts moot, which our transparent
        // core reproduces).
        let _ = net.traceroute(device.node, device.configured_dns, spec.trace_max_ttl);
        if let Some(ext) = local_external {
            let _ = net.traceroute(device.node, ext, spec.trace_max_ttl);
        }
    }

    // Replica probes: ping + HTTP GET to every distinct replica, traceroute
    // to a rotating subsample.
    let mut replica_probes = Vec::with_capacity(replicas.len());
    for (i, &addr) in replicas.iter().enumerate() {
        let rtt_us = net
            .ping_train(device.node, addr, spec.ping_count)
            .min_rtt()
            .map(|r| r.as_micros() as u32);
        let ttfb_us = net
            .tcp_get(
                device.node,
                addr,
                "/index.html",
                netsim::time::SimDuration::from_secs(20),
            )
            .ttfb
            .map(|t| t.as_micros() as u32);
        // Rotate which replicas get traced so the corpus covers all of them
        // over time without tracing everything every hour.
        let trace_hops = if (i + seq as usize) % replicas.len() < spec.replica_trace_sample {
            net.traceroute(device.node, addr, spec.trace_max_ttl)
                .responding_hops()
        } else {
            Vec::new()
        };
        replica_probes.push(ReplicaProbe {
            addr,
            rtt_us,
            ttfb_us,
            trace_hops,
        });
    }

    let coord = device.coord();
    ExperimentRecord {
        device_id: device.id as u32,
        carrier: device.carrier as u8,
        t: start,
        radio: device.tech,
        x_km: coord.x_km as f32,
        y_km: coord.y_km as f32,
        is_static: device.is_static(),
        device_ip: device.ip,
        gateway_site: device.site as u16,
        configured_dns: device.configured_dns,
        lookups,
        identities,
        resolver_probes,
        replica_probes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, CampaignConfig};
    use crate::world::{build_world, WorldConfig};
    use std::collections::BTreeMap;
    use std::fmt::Write as _;

    #[test]
    fn experiment_produces_complete_record() {
        let mut world = build_world(WorldConfig::quick(42));
        let spec = ExperimentSpec::light();
        let record = run_experiment(&mut world, 0, 0, &spec);
        // 9 domains x 3 resolvers x 2 attempts.
        assert_eq!(record.lookups.len(), 9 * 3 * 2);
        assert_eq!(record.identities.len(), 3);
        // Local resolutions must have succeeded and returned replicas.
        let local_ok = record
            .lookups
            .iter()
            .filter(|l| l.resolver == ResolverKind::Local && l.attempt == 1)
            .filter(|l| l.elapsed_us.is_some() && !l.addrs.is_empty())
            .count();
        assert!(local_ok >= 7, "only {local_ok}/9 local lookups succeeded");
        assert!(!record.replica_probes.is_empty());
        // whoami through the local path reveals an external resolver that
        // differs from the configured one (indirect resolution).
        let ext = record.local_external().expect("external discovered");
        assert_ne!(ext, record.configured_dns);
    }

    #[test]
    fn public_lookups_also_succeed() {
        let mut world = build_world(WorldConfig::quick(43));
        let spec = ExperimentSpec::light();
        let record = run_experiment(&mut world, 1, 0, &spec);
        for kind in [ResolverKind::Google, ResolverKind::OpenDns] {
            let ok = record
                .lookups
                .iter()
                .filter(|l| l.resolver == kind && l.attempt == 1 && l.elapsed_us.is_some())
                .count();
            assert!(ok >= 7, "{kind:?}: only {ok}/9 lookups succeeded");
        }
    }

    #[test]
    fn second_lookup_is_not_slower_than_first_on_average() {
        let mut world = build_world(WorldConfig::quick(44));
        let spec = ExperimentSpec::light();
        let record = run_experiment(&mut world, 0, 0, &spec);
        let mean = |attempt: u8| {
            let xs: Vec<u32> = record
                .lookups
                .iter()
                .filter(|l| l.resolver == ResolverKind::Local && l.attempt == attempt)
                .filter_map(|l| l.elapsed_us)
                .collect();
            xs.iter().map(|&x| x as f64).sum::<f64>() / xs.len().max(1) as f64
        };
        assert!(
            mean(2) <= mean(1) * 1.05,
            "2nd {} vs 1st {}",
            mean(2),
            mean(1)
        );
    }

    #[test]
    fn replica_probes_have_latency() {
        let mut world = build_world(WorldConfig::quick(45));
        let spec = ExperimentSpec::light();
        let record = run_experiment(&mut world, 0, 0, &spec);
        let with_rtt = record
            .replica_probes
            .iter()
            .filter(|p| p.rtt_us.is_some())
            .count();
        assert!(
            with_rtt * 2 >= record.replica_probes.len(),
            "{with_rtt}/{}",
            record.replica_probes.len()
        );
        let with_ttfb = record
            .replica_probes
            .iter()
            .filter(|p| p.ttfb_us.is_some())
            .count();
        assert!(with_ttfb > 0);
    }

    #[test]
    fn one_probe_per_distinct_replica() {
        let mut world = build_world(WorldConfig::quick(46));
        let spec = ExperimentSpec::light();
        let record = run_experiment(&mut world, 0, 0, &spec);
        let mut distinct: Vec<Ipv4Addr> = Vec::new();
        for l in record.lookups.iter().filter(|l| l.attempt == 1) {
            for &a in &l.addrs {
                if !distinct.contains(&a) {
                    distinct.push(a);
                }
            }
        }
        let probed: Vec<Ipv4Addr> = record.replica_probes.iter().map(|p| p.addr).collect();
        assert!(!probed.is_empty());
        assert_eq!(probed, distinct);
    }

    /// The rows a record held when each replica measurement was copied into
    /// every (domain, resolver) lookup that returned it: combos deduplicated
    /// in lookup order, the traceroute on the first combo only.
    fn per_combo_rows(r: &ExperimentRecord) -> Vec<(u8, ResolverKind, ReplicaProbe)> {
        let mut seen: BTreeMap<Ipv4Addr, Vec<(u8, ResolverKind)>> = BTreeMap::new();
        let mut order = Vec::new();
        for l in r.lookups.iter().filter(|l| l.attempt == 1) {
            for &a in &l.addrs {
                let combos = seen.entry(a).or_insert_with(|| {
                    order.push(a);
                    Vec::new()
                });
                if !combos.contains(&(l.domain_idx, l.resolver)) {
                    combos.push((l.domain_idx, l.resolver));
                }
            }
        }
        let mut rows = Vec::new();
        for addr in order {
            let probe = r.replica_probes.iter().find(|p| p.addr == addr).unwrap();
            for (k, &(d_idx, via)) in seen[&addr].iter().enumerate() {
                let mut copy = probe.clone();
                if k > 0 {
                    copy.trace_hops.clear();
                }
                rows.push((d_idx, via, copy));
            }
        }
        rows
    }

    #[test]
    fn replicas_csv_matches_the_per_combo_rows() {
        let mut world = build_world(WorldConfig::quick(47));
        let cfg = CampaignConfig {
            days: 1,
            ..CampaignConfig::quick()
        };
        let ds = run_campaign(&mut world, &cfg);
        let ms = |us: Option<u32>| {
            us.map(|us| format!("{:.3}", us as f64 / 1000.0))
                .unwrap_or_else(|| "".into())
        };
        let mut oracle = String::from("device,carrier,t_s,domain,via,replica,ping_ms,ttfb_ms\n");
        let (mut traced, mut combo_traced) = (Vec::new(), Vec::new());
        for r in &ds.records {
            for (d_idx, via, p) in per_combo_rows(r) {
                let _ = writeln!(
                    oracle,
                    "{},{},{},{},{},{},{},{}",
                    r.device_id,
                    ds.carrier_names[r.carrier as usize],
                    r.t.as_secs(),
                    ds.domains[d_idx as usize],
                    via.label(),
                    p.addr,
                    ms(p.rtt_us),
                    ms(p.ttfb_us),
                );
                if !p.trace_hops.is_empty() {
                    combo_traced.push(p.trace_hops);
                }
            }
            for p in r.replica_probes.iter().filter(|p| !p.trace_hops.is_empty()) {
                traced.push(p.trace_hops.clone());
            }
        }
        // Some replica is shared, so the rows really do expand.
        assert!(ds.records.iter().any(|r| r
            .replica_probes
            .iter()
            .any(|p| r.returned_by(p.addr).count() > 1)));
        assert_eq!(ds.replicas_csv(), oracle);
        // Egress analysis reads each traceroute once either way.
        assert!(!traced.is_empty());
        assert_eq!(traced, combo_traced);
    }
}

//! Carrier audit: the §4 methodology applied to one carrier from the
//! inside — discover the indirect resolver structure with whoami probes,
//! measure resolver distances, and demonstrate the network's opaqueness to
//! outside probing.
//!
//! Run with: `cargo run --release --example carrier_audit [carrier-name]`

use behind_the_curtain::dnssim::client::whoami;
use behind_the_curtain::measure::{build_world, WorldConfig};
use behind_the_curtain::netsim::addr::Prefix;
use std::collections::{HashMap, HashSet};

fn main() {
    let carrier_name = std::env::args().nth(1).unwrap_or_else(|| "AT&T".into());
    let mut world = build_world(WorldConfig::quick(7));
    let Some(carrier_idx) = world.carrier_index(&carrier_name) else {
        eprintln!(
            "unknown carrier '{carrier_name}'; try: {}",
            (0..world.carrier_count())
                .map(|i| world.profile(i).name)
                .collect::<Vec<_>>()
                .join(", ")
        );
        std::process::exit(2);
    };
    println!("== Auditing {carrier_name} from inside the network ==\n");

    // 1. whoami probes from every device of this carrier reveal the
    //    external-facing resolvers behind the configured address.
    let probe_zone = world.backbone.probe_zone.clone();
    let shard = &mut world.shards[carrier_idx];
    let device_count = shard.devices.len();
    let mut pairs: HashMap<(std::net::Ipv4Addr, std::net::Ipv4Addr), usize> = HashMap::new();
    for di in 0..device_count {
        let (node, configured) = {
            let d = &shard.devices[di];
            (d.node, d.configured_dns)
        };
        for _ in 0..6 {
            let (_, ext) = whoami(&mut shard.net, node, configured, &probe_zone);
            if let Some(ext) = ext {
                *pairs.entry((configured, ext)).or_insert(0) += 1;
            }
        }
    }
    println!("LDNS pairs observed (configured -> external x count):");
    let mut sorted: Vec<_> = pairs.iter().collect();
    sorted.sort();
    for ((cf, ext), n) in sorted {
        println!("  {cf:<16} -> {ext:<16} x{n}");
    }
    let externals: HashSet<_> = pairs.keys().map(|(_, e)| *e).collect();
    let prefixes: HashSet<_> = externals.iter().map(|e| Prefix::slash24_of(*e)).collect();
    println!(
        "\n{} external resolvers across {} /24 prefixes (indirect resolution: the\nconfigured resolver is never the one the authoritative side sees)\n",
        externals.len(),
        prefixes.len()
    );

    // 2. Resolver distance from the device (Fig. 4's measurement).
    let (node, configured) = {
        let d = shard.devices.first().expect("carrier has devices");
        (d.node, d.configured_dns)
    };
    let cf_ping = shard.net.ping_train(node, configured, 3);
    println!(
        "ping configured resolver {}: {}",
        configured,
        cf_ping
            .min_rtt()
            .map(|r| r.to_string())
            .unwrap_or_else(|| "no answer".into())
    );
    if let Some(&ext) = externals.iter().next() {
        let ext_ping = shard.net.ping_train(node, ext, 3);
        println!(
            "ping external resolver   {}: {}",
            ext,
            ext_ping
                .min_rtt()
                .map(|r| r.to_string())
                .unwrap_or_else(|| "no answer (some tiers ignore internal probes)".into())
        );
    }

    // 3. Opaqueness: the same resolvers probed from a university vantage
    //    point outside the carrier (Table 4's experiment).
    println!("\nFrom the university vantage point (outside the carrier):");
    let university = world.backbone.university;
    let mut ping_ok = 0;
    let mut trace_ok = 0;
    let mut first_trace = None;
    let ext_list: Vec<_> = shard
        .carrier
        .external_resolvers
        .iter()
        .map(|&(_, a)| a)
        .collect();
    for &addr in &ext_list {
        if shard.net.ping_train(university, addr, 2).reachable() {
            ping_ok += 1;
        }
        let trace = shard.net.traceroute(university, addr, 16);
        if trace.reached {
            trace_ok += 1;
        }
        first_trace.get_or_insert(trace);
    }
    println!(
        "  ping reached {ping_ok}/{} external resolvers; traceroute reached {trace_ok}/{}",
        ext_list.len(),
        ext_list.len()
    );
    println!("  (cellular firewalls drop unsolicited probes — the paper's §4.4)");

    // 4. Where the probe stops: the hops of one of those traceroutes.
    if let Some(trace) = first_trace {
        println!("\nUniversity traceroute to {}:", trace.target);
        for hop in &trace.hops {
            match (hop.addr, hop.rtt) {
                (Some(addr), Some(rtt)) => println!("  {:>2}  {addr:<16} {rtt}", hop.ttl),
                _ => println!("  {:>2}  *", hop.ttl),
            }
        }
    }
}

//! Replica quality over time: follow one device for a simulated week and
//! watch its CDN replica assignments churn with its resolver — the
//! mechanism behind Fig. 2's latency inflation.
//!
//! Run with: `cargo run --release --example replica_quality`

use behind_the_curtain::measure::{
    build_world, run_experiment, ExperimentSpec, ResolverKind, WorldConfig,
};
use behind_the_curtain::netsim::addr::Prefix;
use behind_the_curtain::netsim::{SimDuration, SimTime};
use std::collections::HashMap;

fn main() {
    let mut world = build_world(WorldConfig::quick(99));
    let spec = ExperimentSpec::light();
    let device_idx = 0;
    let carrier = world.device(device_idx).carrier;
    println!(
        "Following device 0 on {} for 7 simulated days (one experiment per 4h)\n",
        world.profile(carrier).name
    );

    // replica -> (sum_ms, count) for best-replica accounting.
    let mut replica_lat: HashMap<std::net::Ipv4Addr, (f64, u32)> = HashMap::new();
    println!("day  ext-resolver      ext /24           buzzfeed replicas (via carrier DNS)");
    for step in 0..(7 * 6) {
        let t = SimTime::ZERO + SimDuration::from_hours(4 * step as u64);
        world.shards[0].net.skip_to(t);
        let record = run_experiment(&mut world, device_idx, step, &spec);
        let ext = record.local_external();
        let buzz_idx = 1u8; // www.buzzfeed.com in the catalog
        let replicas: Vec<_> = record
            .replica_probes
            .iter()
            .filter(|p| {
                record
                    .returned_by(p.addr)
                    .any(|combo| combo == (buzz_idx, ResolverKind::Local))
            })
            .collect();
        for p in &replicas {
            if let Some(us) = p.rtt_us {
                let e = replica_lat.entry(p.addr).or_insert((0.0, 0));
                e.0 += us as f64 / 1000.0;
                e.1 += 1;
            }
        }
        if step % 6 == 0 {
            let names: Vec<String> = replicas
                .iter()
                .map(|p| {
                    format!(
                        "{}({})",
                        p.addr,
                        p.rtt_us
                            .map(|us| format!("{:.0}ms", us as f64 / 1000.0))
                            .unwrap_or_else(|| "?".into())
                    )
                })
                .collect();
            println!(
                "{:>3}  {:<16}  {:<16}  {}",
                step / 6,
                ext.map(|e| e.to_string()).unwrap_or_else(|| "-".into()),
                ext.map(|e| Prefix::slash24_of(e).to_string())
                    .unwrap_or_else(|| "-".into()),
                names.join(" "),
            );
        }
    }

    // Fig. 2's statistic for this one user.
    let means: Vec<(std::net::Ipv4Addr, f64)> = replica_lat
        .iter()
        .map(|(&a, &(sum, n))| (a, sum / n as f64))
        .collect();
    if let Some(best) = means.iter().map(|&(_, m)| m).reduce(f64::min) {
        println!("\nReplicas seen for www.buzzfeed.com and their inflation vs the best:");
        let mut sorted = means.clone();
        sorted.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
        for (addr, mean) in sorted {
            println!(
                "  {:<16} mean {:.1}ms  (+{:.0}%)",
                addr,
                mean,
                (mean - best) / best * 100.0
            );
        }
        println!(
            "\nThe user keeps being redirected among {} replicas; the worst is {:.0}% slower\nthan the best — the differential performance of Fig. 2.",
            means.len(),
            (means
                .iter()
                .map(|&(_, m)| m)
                .fold(f64::MIN, f64::max)
                - best)
                / best
                * 100.0
        );
    }
}

//! The paper's §9 future work, implemented: deploy RFC 7871 EDNS
//! Client-Subnet in the carriers (NAT-aware) and let CDNs geolocate the
//! announced egress subnets. Runs the same campaign twice — without and
//! with ECS — and compares the replica-selection damage.
//!
//! Run with: `cargo run --release --example ecs_future_work`

use behind_the_curtain::analysis::{relative_replica_latency, Cdf};
use behind_the_curtain::measure::{
    build_world, run_campaign, CampaignConfig, Dataset, ResolverKind, WorldConfig,
};

fn campaign(ecs: bool) -> Dataset {
    let mut config = WorldConfig::quick(1407);
    config.ecs = ecs;
    let mut world = build_world(config);
    run_campaign(&mut world, &CampaignConfig::quick())
}

/// Mean ping RTT (ms) of the replicas the carrier DNS handed out.
fn mean_local_replica_ms(ds: &Dataset, carrier: usize) -> f64 {
    let cdf = Cdf::from_iter(ds.of_carrier(carrier).flat_map(|r| {
        r.replica_probes.iter().flat_map(move |p| {
            // One sample per local lookup that returned the replica.
            r.returned_by(p.addr)
                .filter(|&(_, via)| via == ResolverKind::Local)
                .filter_map(move |_| p.rtt_us.map(|us| us as f64 / 1000.0))
        })
    }));
    cdf.mean().unwrap_or(f64::NAN)
}

fn main() {
    println!("Running the same campaign without and with ECS...\n");
    let base = campaign(false);
    let ecs = campaign(true);

    println!(
        "{:<12} {:>24} {:>24}   {:>20}",
        "carrier", "local replica mean (b/e)", "public strictly better", "median pub-vs-local"
    );
    for c in 0..base.carrier_names.len() {
        let bm = mean_local_replica_ms(&base, c);
        let em = mean_local_replica_ms(&ecs, c);
        let strictly_better = |ds: &Dataset| {
            let cdf = relative_replica_latency(ds, c, ResolverKind::Google);
            // fraction strictly below zero = public strictly faster
            cdf.fraction_leq(-1e-9) * 100.0
        };
        let med = |ds: &Dataset| {
            relative_replica_latency(ds, c, ResolverKind::Google)
                .median()
                .unwrap_or(0.0)
        };
        println!(
            "{:<12} {:>11.1} / {:<8.1} {:>10.0}% -> {:<6.0}% {:>9.1}% -> {:<.1}%",
            base.carrier_names[c],
            bm,
            em,
            strictly_better(&base),
            strictly_better(&ecs),
            med(&base),
            med(&ecs),
        );
    }
    println!(
        "\nReading: with ECS the CDN localizes the *client subnet* instead of the\n\
         churning resolver. The replicas the carrier DNS hands out get faster, and\n\
         public DNS loses its localization edge (its strictly-better share and the\n\
         median gap both shrink toward zero) — the fix the paper's §9 sketches."
    );
}

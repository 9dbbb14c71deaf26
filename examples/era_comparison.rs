//! The §2 motivation, measured: rebuild the carriers as Xu et al. saw them
//! in the 3G era (4–6 gateways, no LTE) and compare against the LTE world —
//! egress-point counts, radio-dominated latency, and how much replica
//! selection matters in each era.
//!
//! Run with: `cargo run --release --example era_comparison`

use behind_the_curtain::analysis::{egress_points, resolution_cdf, Cdf};
use behind_the_curtain::measure::{
    build_world, run_campaign, CampaignConfig, Dataset, ResolverKind, WorldConfig,
};

fn campaign(three_g: bool) -> Dataset {
    let mut config = WorldConfig::quick(1963);
    config.three_g_era = three_g;
    // Era comparison needs the real gateway counts, not the quick scale-down.
    config.gateway_scale = 1.0;
    let mut world = build_world(config);
    run_campaign(&mut world, &CampaignConfig::quick())
}

/// Spread of replica RTTs relative to end-to-end latency: when the radio
/// dominates (3G), replica choice barely matters — Xu et al.'s conclusion.
fn replica_spread_share(ds: &Dataset, carrier: usize) -> f64 {
    let rtts = Cdf::from_iter(ds.of_carrier(carrier).flat_map(|r| {
        r.replica_probes.iter().flat_map(move |p| {
            // One sample per local lookup that returned the replica.
            r.returned_by(p.addr)
                .filter(|&(_, via)| via == ResolverKind::Local)
                .filter_map(move |_| p.rtt_us.map(|us| us as f64 / 1000.0))
        })
    }));
    match (rtts.quantile(0.9), rtts.quantile(0.1), rtts.median()) {
        (Some(hi), Some(lo), Some(med)) if med > 0.0 => (hi - lo) / med,
        _ => 0.0,
    }
}

fn main() {
    println!("Building the 3G era (Xu et al. 2011) and the LTE era (this paper)...\n");
    let g3 = campaign(true);
    let lte = campaign(false);

    println!(
        "{:<12} {:>14} {:>14} {:>16} {:>16} {:>12}",
        "carrier", "egress (3G)", "egress (LTE)", "DNS p50 (3G)", "DNS p50 (LTE)", "spread 3G/LTE"
    );
    for c in 0..g3.carrier_names.len() {
        let e3 = egress_points(&g3, c).len();
        let e4 = egress_points(&lte, c).len();
        let p50_3g = resolution_cdf(&g3, c, ResolverKind::Local)
            .median()
            .unwrap_or(0.0);
        let p50_lte = resolution_cdf(&lte, c, ResolverKind::Local)
            .median()
            .unwrap_or(0.0);
        println!(
            "{:<12} {:>14} {:>14} {:>14.0}ms {:>14.0}ms {:>6.2}/{:.2}",
            g3.carrier_names[c],
            e3,
            e4,
            p50_3g,
            p50_lte,
            replica_spread_share(&g3, c),
            replica_spread_share(&lte, c),
        );
    }
    println!(
        "\nReading: the 3G world has the 4–6 egress points Xu et al. reported and\n\
         radio-dominated latency — replica selection barely matters there. The LTE\n\
         world multiplies egress points and collapses radio latency, which is what\n\
         makes replica selection (and the paper's findings) matter now (§2)."
    );
}

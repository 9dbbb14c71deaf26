//! Cross-crate integration tests: one quick campaign shared across tests,
//! with assertions on the structural findings every figure depends on.

use behind_the_curtain::analysis::{
    cache_miss_fraction, egress_points, ldns_pairs, public_equal_or_better, reachability,
    resolution_cdf,
};
use behind_the_curtain::figures;
use behind_the_curtain::measure::{CampaignConfig, Dataset, ExperimentSpec, ResolverKind};
use behind_the_curtain::{Study, StudyConfig};
use std::sync::OnceLock;

fn dataset() -> &'static Dataset {
    static DS: OnceLock<Dataset> = OnceLock::new();
    DS.get_or_init(|| {
        let mut study = Study::new(StudyConfig::quick(20141105));
        study.run()
    })
}

#[test]
fn campaign_covers_all_carriers_and_devices() {
    let ds = dataset();
    assert_eq!(ds.carrier_names.len(), 6);
    for c in 0..6 {
        assert!(ds.of_carrier(c).count() > 0, "carrier {c} has no records");
    }
    // Every record carries complete lookup tables.
    for r in &ds.records {
        assert_eq!(r.lookups.len(), 9 * 3 * 2);
        assert_eq!(r.identities.len(), 3);
    }
}

#[test]
fn indirect_resolution_everywhere() {
    // §4.1: every carrier uses indirect resolution — the external resolver
    // the ADNS sees is never the configured client-facing address.
    let ds = dataset();
    for r in &ds.records {
        if let Some(ext) = r.local_external() {
            assert_ne!(ext, r.configured_dns, "direct resolution observed");
        }
    }
}

#[test]
fn ldns_pair_structure_matches_profiles() {
    let ds = dataset();
    // Verizon is fully sticky.
    let vz = ds
        .carrier_names
        .iter()
        .position(|n| n == "Verizon")
        .unwrap();
    let s = ldns_pairs(ds, vz);
    assert!(
        (s.consistency_pct - 100.0).abs() < 1e-9,
        "Verizon consistency {}",
        s.consistency_pct
    );
    assert_eq!(s.pairs, s.client_facing, "Verizon: one external per client");
    // T-Mobile load-balances: consistency well below Verizon's.
    let tm = ds
        .carrier_names
        .iter()
        .position(|n| n == "T-Mobile")
        .unwrap();
    let s = ldns_pairs(ds, tm);
    assert!(s.consistency_pct < 70.0, "T-Mobile {}", s.consistency_pct);
    assert!(s.external > s.client_facing);
}

#[test]
fn sk_carriers_confine_externals_to_few_slash24s() {
    let ds = dataset();
    use behind_the_curtain::netsim::addr::Prefix;
    for name in ["SK Telecom", "LG U+"] {
        let c = ds.carrier_names.iter().position(|n| n == name).unwrap();
        let mut prefixes = std::collections::BTreeSet::new();
        for r in ds.of_carrier(c) {
            if let Some(ext) = r.local_external() {
                prefixes.insert(Prefix::slash24_of(ext));
            }
        }
        assert!(
            prefixes.len() <= 2,
            "{name}: externals span {} /24s",
            prefixes.len()
        );
    }
}

#[test]
fn cellular_opaqueness_table4() {
    let ds = dataset();
    let rows = reachability(ds);
    // Traceroute reaches nothing, anywhere (Table 4's right column).
    assert!(rows.iter().all(|r| r.traceroute == 0));
    // Verizon & T-Mobile: majority ping-reachable; Sprint & SK: zero.
    let get = |name: &str| rows.iter().find(|r| r.carrier == name).unwrap();
    assert!(get("Verizon").ping * 2 > get("Verizon").total);
    assert!(get("T-Mobile").ping * 2 > get("T-Mobile").total);
    assert_eq!(get("Sprint").ping, 0);
    assert_eq!(get("SK Telecom").ping, 0);
    assert_eq!(get("LG U+").ping, 0);
    let att = get("AT&T");
    assert!(
        att.ping > 0 && att.ping * 4 < att.total,
        "AT&T small fraction"
    );
}

#[test]
fn local_dns_resolves_faster_than_public_at_median() {
    // §6.2: the locally configured resolver provides faster resolutions.
    let ds = dataset();
    let mut local_wins = 0;
    for c in 0..6 {
        let local = resolution_cdf(ds, c, ResolverKind::Local).median().unwrap();
        let google = resolution_cdf(ds, c, ResolverKind::Google)
            .median()
            .unwrap();
        if local < google {
            local_wins += 1;
        }
    }
    assert!(
        local_wins >= 4,
        "local faster in only {local_wins}/6 carriers"
    );
}

#[test]
fn public_replicas_equal_or_better_a_majority_of_the_time() {
    // The abstract: public DNS renders equal-or-better replica performance
    // over 75% of the time.
    let ds = dataset();
    for c in 0..6 {
        let frac = public_equal_or_better(ds, c, ResolverKind::Google);
        assert!(
            frac > 0.6,
            "{}: public equal-or-better only {:.0}%",
            ds.carrier_names[c],
            frac * 100.0
        );
    }
}

#[test]
fn cache_misses_in_the_expected_band() {
    // Fig. 7: ~20% of first lookups are cache misses.
    let ds = dataset();
    let us: Vec<usize> = figures::us_carriers(ds);
    let miss = cache_miss_fraction(ds, &us, 20.0);
    assert!(
        (0.05..=0.5).contains(&miss),
        "miss fraction {:.2} outside band",
        miss
    );
}

#[test]
fn ambient_cache_model_is_what_keeps_first_lookups_warm() {
    // The ablation behind Fig. 7 (DESIGN.md §3, EXPERIMENTS.md): resolver
    // caches are kept warm by the rest of the carrier's subscribers, not
    // by our few devices. Switch that ambient load off and first-lookup
    // misses at least double.
    let miss_fraction = |ambient: bool| {
        let mut config = StudyConfig::quick(11);
        config.campaign = CampaignConfig {
            days: 2,
            experiments_per_day: 3,
            spec: ExperimentSpec::light(),
            external_probe_day: None,
        };
        if !ambient {
            config.world.ambient_period = None;
        }
        let ds = Study::new(config).run();
        cache_miss_fraction(&ds, &figures::us_carriers(&ds), 20.0)
    };
    let with = miss_fraction(true);
    let without = miss_fraction(false);
    assert!(
        (0.05..=0.5).contains(&with),
        "miss fraction {with:.2} with the ambient model left Fig. 7's band"
    );
    assert!(
        without >= 2.0 * with,
        "ambient model off: miss fraction {without:.2} is not 2x the {with:.2} with it"
    );
}

#[test]
fn egress_points_are_plentiful_under_lte() {
    // §5.2: many egress points per carrier (not the 4–6 of the 3G era).
    let ds = dataset();
    let mut nonzero = 0;
    for c in 0..6 {
        if !egress_points(ds, c).is_empty() {
            nonzero += 1;
        }
    }
    assert!(nonzero >= 5, "egress detected in only {nonzero}/6 carriers");
}

#[test]
fn resolver_churn_happens_even_without_movement() {
    // Fig. 9: stationary devices still see multiple external resolvers.
    let ds = dataset();
    use behind_the_curtain::analysis::{busiest_static_device, static_location_enumeration};
    let mut churned = 0;
    for c in 0..6 {
        let Some(dev) = busiest_static_device(ds, c) else {
            continue;
        };
        let points = static_location_enumeration(ds, dev, 1.0);
        let ips = points.iter().map(|p| p.ip_index).max().unwrap_or(0);
        if ips > 1 {
            churned += 1;
        }
    }
    assert!(churned >= 3, "static churn in only {churned}/6 carriers");
}

#[test]
fn all_artifacts_render_and_export() {
    let ds = dataset();
    let artifacts = figures::all_artifacts(ds);
    assert_eq!(artifacts.len(), 21);
    for a in &artifacts {
        assert!(!a.text.is_empty(), "{}", a.id);
        if let Some(csv) = &a.csv {
            assert!(csv.lines().count() > 1, "{} csv empty", a.id);
        }
    }
    // Raw CSV exports parse as consistent tables.
    for csv in [ds.lookups_csv(), ds.replicas_csv(), ds.identities_csv()] {
        let mut lines = csv.lines();
        let cols = lines.next().unwrap().split(',').count();
        for line in lines.take(100) {
            assert_eq!(line.split(',').count(), cols);
        }
    }
}

#[test]
fn same_seed_same_dataset() {
    let run = || {
        let mut study = Study::new(StudyConfig::quick(555));
        let ds = study.run();
        (
            ds.records.len(),
            ds.resolution_count(),
            ds.records
                .iter()
                .flat_map(|r| r.lookups.iter().map(|l| l.elapsed_us))
                .collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(), run());
}

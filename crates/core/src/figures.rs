//! Per-figure assembly: one function per table/figure of the paper, each
//! producing the printable text block (and CSV where a figure is a curve
//! family). This is the experiment index of DESIGN.md, in code.

use analysis::{
    busiest_device, busiest_static_device, cache_comparison, cache_miss_fraction, cdfs_csv,
    churn_summary, cosine_by_prefix, egress_points, ldns_pairs, public_equal_or_better,
    reachability, relative_replica_latency, render_ascii_cdf, render_cdfs, render_failure_report,
    render_table, replica_percent_increase, resolution_by_radio, resolution_cdf, resolver_counts,
    resolver_enumeration, resolver_replica_maps, static_location_enumeration, Cdf,
};
use cellsim::profile::{six_carriers, Country};
use measure::record::{Dataset, ResolverKind};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// One regenerated artifact: identifier, printable text, optional CSV.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// Paper identifier (`table1`, `fig2`, …).
    pub id: String,
    /// Printable block.
    pub text: String,
    /// CSV series, when the artifact is a curve family.
    pub csv: Option<String>,
}

fn carriers_by_country(ds: &Dataset, country: Country) -> Vec<usize> {
    let profiles = six_carriers();
    (0..ds.carrier_names.len())
        .filter(|&i| {
            profiles
                .iter()
                .find(|p| p.name == ds.carrier_names[i])
                .map(|p| p.country == country)
                .unwrap_or(false)
        })
        .collect()
}

/// Indices of the US carriers in the dataset.
pub fn us_carriers(ds: &Dataset) -> Vec<usize> {
    carriers_by_country(ds, Country::Us)
}

/// Indices of the South Korean carriers.
pub fn sk_carriers(ds: &Dataset) -> Vec<usize> {
    carriers_by_country(ds, Country::SouthKorea)
}

/// Table 1: distribution of measurement clients per carrier.
pub fn table1(ds: &Dataset) -> Artifact {
    let profiles = six_carriers();
    let rows: Vec<Vec<String>> = (0..ds.carrier_names.len())
        .map(|c| {
            let clients: BTreeSet<u32> = ds.of_carrier(c).map(|r| r.device_id).collect();
            let country = profiles
                .iter()
                .find(|p| p.name == ds.carrier_names[c])
                .map(|p| p.country.label())
                .unwrap_or("?");
            vec![
                ds.carrier_names[c].clone(),
                clients.len().to_string(),
                country.to_string(),
            ]
        })
        .collect();
    Artifact {
        id: "table1".into(),
        text: render_table(
            "Table 1: measurement clients per carrier",
            &["Carrier", "# Clients", "Country"],
            &rows,
        ),
        csv: None,
    }
}

/// Table 2: the measured mobile domains.
pub fn table2(ds: &Dataset) -> Artifact {
    let rows: Vec<Vec<String>> = ds.domains.iter().map(|d| vec![d.to_string()]).collect();
    Artifact {
        id: "table2".into(),
        text: render_table("Table 2: measured mobile domains", &["Domain"], &rows),
        csv: None,
    }
}

/// Fig. 2: CDFs of percent latency increase of each replica vs the user's
/// best replica, per carrier, for the four plotted domains.
pub fn fig2(ds: &Dataset) -> Artifact {
    let plot_domains: Vec<usize> = cdnsim::catalog::fig2_domains()
        .iter()
        .filter_map(|d| ds.domains.iter().position(|x| x == d))
        .collect();
    let mut text = String::new();
    let mut all_series: Vec<(String, Cdf)> = Vec::new();
    for c in 0..ds.carrier_names.len() {
        let mut series: Vec<(String, Cdf)> = Vec::new();
        for &d in &plot_domains {
            let cdf = replica_percent_increase(ds, c, d as u8);
            series.push((ds.domains[d].to_string(), cdf));
        }
        let refs: Vec<(&str, &Cdf)> = series.iter().map(|(n, c)| (n.as_str(), c)).collect();
        let _ = write!(
            text,
            "{}",
            render_cdfs(
                &format!(
                    "Fig 2 ({}): % increase in replica latency vs user's best",
                    ds.carrier_names[c]
                ),
                &refs,
                "%",
            )
        );
        for (n, cdf) in series {
            all_series.push((format!("{}:{}", ds.carrier_names[c], n), cdf));
        }
    }
    let refs: Vec<(&str, &Cdf)> = all_series.iter().map(|(n, c)| (n.as_str(), c)).collect();
    Artifact {
        id: "fig2".into(),
        text,
        csv: Some(cdfs_csv(&refs, 50)),
    }
}

/// Fig. 3: resolution time per radio technology, per carrier.
pub fn fig3(ds: &Dataset) -> Artifact {
    let mut text = String::new();
    let mut all_series: Vec<(String, Cdf)> = Vec::new();
    for c in 0..ds.carrier_names.len() {
        let by_radio = resolution_by_radio(ds, c);
        let series: Vec<(String, Cdf)> = by_radio
            .into_iter()
            .map(|(tech, cdf)| (tech.label().to_string(), cdf))
            .collect();
        if series.is_empty() {
            continue;
        }
        let refs: Vec<(&str, &Cdf)> = series.iter().map(|(n, c)| (n.as_str(), c)).collect();
        let _ = write!(
            text,
            "{}",
            render_cdfs(
                &format!(
                    "Fig 3 ({}): DNS resolution time by radio technology",
                    ds.carrier_names[c]
                ),
                &refs,
                "ms",
            )
        );
        for (n, cdf) in series {
            all_series.push((format!("{}:{}", ds.carrier_names[c], n), cdf));
        }
    }
    let refs: Vec<(&str, &Cdf)> = all_series.iter().map(|(n, c)| (n.as_str(), c)).collect();
    Artifact {
        id: "fig3".into(),
        text,
        csv: Some(cdfs_csv(&refs, 50)),
    }
}

/// Table 3: LDNS pairs and pairing consistency per carrier.
pub fn table3(ds: &Dataset) -> Artifact {
    let rows: Vec<Vec<String>> = (0..ds.carrier_names.len())
        .map(|c| {
            let s = ldns_pairs(ds, c);
            vec![
                ds.carrier_names[c].clone(),
                s.client_facing.to_string(),
                s.external.to_string(),
                s.pairs.to_string(),
                format!("{:.0}%", s.consistency_pct),
            ]
        })
        .collect();
    Artifact {
        id: "table3".into(),
        text: render_table(
            "Table 3: LDNS pairs seen by mobile clients",
            &["Provider", "Client", "External", "Pairs", "Consistency"],
            &rows,
        ),
        csv: None,
    }
}

/// Fig. 4: client latency to client-facing vs external resolvers.
pub fn fig4(ds: &Dataset) -> Artifact {
    let mut text = String::new();
    let mut all_series: Vec<(String, Cdf)> = Vec::new();
    for c in 0..ds.carrier_names.len() {
        let pick = |target: measure::record::ProbeTarget| {
            Cdf::from_iter(ds.of_carrier(c).flat_map(move |r| {
                r.resolver_probes
                    .iter()
                    .filter(move |p| p.target == target)
                    .filter_map(|p| p.rtt_us.map(|us| us as f64 / 1000.0))
            }))
        };
        let client = pick(measure::record::ProbeTarget::ClientFacing);
        let external = pick(measure::record::ProbeTarget::External);
        let _ = write!(
            text,
            "{}",
            render_cdfs(
                &format!(
                    "Fig 4 ({}): ping latency to client-facing vs external resolver",
                    ds.carrier_names[c]
                ),
                &[("client-facing", &client), ("external", &external)],
                "ms",
            )
        );
        all_series.push((format!("{}:client", ds.carrier_names[c]), client));
        all_series.push((format!("{}:external", ds.carrier_names[c]), external));
    }
    let refs: Vec<(&str, &Cdf)> = all_series.iter().map(|(n, c)| (n.as_str(), c)).collect();
    Artifact {
        id: "fig4".into(),
        text,
        csv: Some(cdfs_csv(&refs, 50)),
    }
}

fn resolution_figure(ds: &Dataset, id: &str, title: &str, carriers: &[usize]) -> Artifact {
    let series: Vec<(String, Cdf)> = carriers
        .iter()
        .map(|&c| {
            (
                ds.carrier_names[c].clone(),
                resolution_cdf(ds, c, ResolverKind::Local),
            )
        })
        .collect();
    let refs: Vec<(&str, &Cdf)> = series.iter().map(|(n, c)| (n.as_str(), c)).collect();
    let mut text = render_cdfs(title, &refs, "ms");
    text.push_str(&render_ascii_cdf(&refs, "ms", 72, 14));
    Artifact {
        id: id.into(),
        text,
        csv: Some(cdfs_csv(&refs, 50)),
    }
}

/// Fig. 5: local DNS resolution time, US carriers.
pub fn fig5(ds: &Dataset) -> Artifact {
    resolution_figure(
        ds,
        "fig5",
        "Fig 5: DNS resolution time, US carriers (carrier DNS)",
        &us_carriers(ds),
    )
}

/// Fig. 6: local DNS resolution time, South Korean carriers.
pub fn fig6(ds: &Dataset) -> Artifact {
    resolution_figure(
        ds,
        "fig6",
        "Fig 6: DNS resolution time, South Korean carriers (carrier DNS)",
        &sk_carriers(ds),
    )
}

/// Fig. 7: first vs second back-to-back lookup (cache behaviour), US
/// carriers combined.
pub fn fig7(ds: &Dataset) -> Artifact {
    let us = us_carriers(ds);
    let (first, second) = cache_comparison(ds, &us);
    let miss = cache_miss_fraction(ds, &us, 20.0);
    let mut text = render_cdfs(
        "Fig 7: 1st vs 2nd lookup, US carriers combined",
        &[("1st lookup", &first), ("2nd lookup", &second)],
        "ms",
    );
    text.push_str(&render_ascii_cdf(
        &[("1st lookup", &first), ("2nd lookup", &second)],
        "ms",
        72,
        14,
    ));
    let _ = writeln!(
        text,
        "cache-miss fraction (1st lookup >= 20ms slower than 2nd): {:.1}%",
        miss * 100.0
    );
    Artifact {
        id: "fig7".into(),
        text,
        csv: Some(cdfs_csv(&[("first", &first), ("second", &second)], 50)),
    }
}

/// Table 4: external reachability of cellular resolvers.
pub fn table4(ds: &Dataset) -> Artifact {
    let rows: Vec<Vec<String>> = reachability(ds)
        .into_iter()
        .map(|r| {
            vec![
                r.carrier,
                r.total.to_string(),
                r.ping.to_string(),
                r.traceroute.to_string(),
            ]
        })
        .collect();
    Artifact {
        id: "table4".into(),
        text: render_table(
            "Table 4: externally reachable external resolvers (university vantage)",
            &["Provider", "Total", "Ping", "Traceroute"],
            &rows,
        ),
        csv: None,
    }
}

fn enumeration_artifact(
    ds: &Dataset,
    id: &str,
    title: &str,
    kind: ResolverKind,
    static_radius_km: Option<f64>,
) -> Artifact {
    let mut rows = Vec::new();
    let mut csv = String::from("carrier,device,t_hours,ip_index,prefix_index\n");
    for c in 0..ds.carrier_names.len() {
        let dev = match static_radius_km {
            Some(_) => busiest_static_device(ds, c),
            None => busiest_device(ds, c),
        };
        let Some(dev) = dev else { continue };
        let points = match static_radius_km {
            Some(r) => static_location_enumeration(ds, dev, r),
            None => resolver_enumeration(ds, dev, kind),
        };
        let (ips, prefixes) = churn_summary(&points);
        rows.push(vec![
            ds.carrier_names[c].clone(),
            dev.to_string(),
            points.len().to_string(),
            ips.to_string(),
            prefixes.to_string(),
        ]);
        for p in &points {
            let _ = writeln!(
                csv,
                "{},{},{:.2},{},{}",
                ds.carrier_names[c], dev, p.t_hours, p.ip_index, p.prefix_index
            );
        }
    }
    Artifact {
        id: id.into(),
        text: render_table(
            title,
            &["Carrier", "Device", "Obs", "Distinct IPs", "Distinct /24s"],
            &rows,
        ),
        csv: Some(csv),
    }
}

/// Fig. 8: external resolvers observed by a representative client over
/// time (IPs and /24s, order of appearance).
pub fn fig8(ds: &Dataset) -> Artifact {
    enumeration_artifact(
        ds,
        "fig8",
        "Fig 8: external resolver churn per representative client (local DNS)",
        ResolverKind::Local,
        None,
    )
}

/// Fig. 9: resolver churn with the client pinned to a static location.
pub fn fig9(ds: &Dataset) -> Artifact {
    enumeration_artifact(
        ds,
        "fig9",
        "Fig 9: resolver churn at a static location (<=1 km radius)",
        ResolverKind::Local,
        Some(1.0),
    )
}

/// Fig. 10: cosine similarity of replica sets between resolvers in the
/// same /24 vs different /24s (buzzfeed.com, as the paper plots).
pub fn fig10(ds: &Dataset) -> Artifact {
    let domain_idx = ds
        .domains
        .iter()
        .position(|d| d.to_string().contains("buzzfeed"))
        .unwrap_or(0) as u8;
    let mut text = String::new();
    let mut all_series: Vec<(String, Cdf)> = Vec::new();
    for c in 0..ds.carrier_names.len() {
        let maps = resolver_replica_maps(ds, c, domain_idx);
        let (same, diff) = cosine_by_prefix(&maps);
        let _ = write!(
            text,
            "{}",
            render_cdfs(
                &format!(
                    "Fig 10 ({}): cosine similarity of replica sets ({} resolvers)",
                    ds.carrier_names[c],
                    maps.len()
                ),
                &[("same /24", &same), ("different /24", &diff)],
                "",
            )
        );
        all_series.push((format!("{}:same24", ds.carrier_names[c]), same));
        all_series.push((format!("{}:diff24", ds.carrier_names[c]), diff));
    }
    let refs: Vec<(&str, &Cdf)> = all_series.iter().map(|(n, c)| (n.as_str(), c)).collect();
    Artifact {
        id: "fig10".into(),
        text,
        csv: Some(cdfs_csv(&refs, 50)),
    }
}

/// §5.2: egress points observed per carrier.
pub fn egress(ds: &Dataset) -> Artifact {
    let rows: Vec<Vec<String>> = (0..ds.carrier_names.len())
        .map(|c| {
            vec![
                ds.carrier_names[c].clone(),
                egress_points(ds, c).len().to_string(),
            ]
        })
        .collect();
    Artifact {
        id: "egress".into(),
        text: render_table(
            "Sec 5.2: network egress points observed from client traceroutes",
            &["Carrier", "Egress points"],
            &rows,
        ),
        csv: None,
    }
}

/// Table 5: distinct resolver IPs and /24s per provider and resolver path.
pub fn table5(ds: &Dataset) -> Artifact {
    let mut rows = Vec::new();
    for c in 0..ds.carrier_names.len() {
        let mut row = vec![ds.carrier_names[c].clone()];
        for kind in ResolverKind::all() {
            let (ips, p24s) = resolver_counts(ds, c, kind);
            row.push(format!("{ips}"));
            row.push(format!("{p24s}"));
        }
        rows.push(row);
    }
    Artifact {
        id: "table5".into(),
        text: render_table(
            "Table 5: resolver IPs (and /24s) observed per provider",
            &[
                "Provider",
                "Local IPs",
                "Local /24",
                "Google IPs",
                "Google /24",
                "OpenDNS IPs",
                "OpenDNS /24",
            ],
            &rows,
        ),
        csv: None,
    }
}

/// Fig. 11: ping latency to public resolvers vs the carrier's external
/// resolver.
pub fn fig11(ds: &Dataset) -> Artifact {
    let mut text = String::new();
    let mut all_series: Vec<(String, Cdf)> = Vec::new();
    for c in 0..ds.carrier_names.len() {
        let pick = |target: measure::record::ProbeTarget| {
            Cdf::from_iter(ds.of_carrier(c).flat_map(move |r| {
                r.resolver_probes
                    .iter()
                    .filter(move |p| p.target == target)
                    .filter_map(|p| p.rtt_us.map(|us| us as f64 / 1000.0))
            }))
        };
        let external = pick(measure::record::ProbeTarget::External);
        let google = pick(measure::record::ProbeTarget::GoogleVip);
        let opendns = pick(measure::record::ProbeTarget::OpenDnsVip);
        let _ = write!(
            text,
            "{}",
            render_cdfs(
                &format!(
                    "Fig 11 ({}): ping latency to resolvers",
                    ds.carrier_names[c]
                ),
                &[
                    ("cell external", &external),
                    ("google", &google),
                    ("opendns", &opendns),
                ],
                "ms",
            )
        );
        all_series.push((format!("{}:external", ds.carrier_names[c]), external));
        all_series.push((format!("{}:google", ds.carrier_names[c]), google));
        all_series.push((format!("{}:opendns", ds.carrier_names[c]), opendns));
    }
    let refs: Vec<(&str, &Cdf)> = all_series.iter().map(|(n, c)| (n.as_str(), c)).collect();
    Artifact {
        id: "fig11".into(),
        text,
        csv: Some(cdfs_csv(&refs, 50)),
    }
}

/// Fig. 12: Google resolver consistency over time per carrier.
pub fn fig12(ds: &Dataset) -> Artifact {
    enumeration_artifact(
        ds,
        "fig12",
        "Fig 12: Google resolver churn per representative client",
        ResolverKind::Google,
        None,
    )
}

/// Fig. 13: resolution time, local vs public resolvers, per carrier.
pub fn fig13(ds: &Dataset) -> Artifact {
    let mut text = String::new();
    let mut all_series: Vec<(String, Cdf)> = Vec::new();
    for c in 0..ds.carrier_names.len() {
        let local = resolution_cdf(ds, c, ResolverKind::Local);
        let google = resolution_cdf(ds, c, ResolverKind::Google);
        let opendns = resolution_cdf(ds, c, ResolverKind::OpenDns);
        let _ = write!(
            text,
            "{}",
            render_cdfs(
                &format!(
                    "Fig 13 ({}): resolution time, carrier vs public DNS",
                    ds.carrier_names[c]
                ),
                &[
                    ("local", &local),
                    ("google", &google),
                    ("opendns", &opendns)
                ],
                "ms",
            )
        );
        all_series.push((format!("{}:local", ds.carrier_names[c]), local));
        all_series.push((format!("{}:google", ds.carrier_names[c]), google));
        all_series.push((format!("{}:opendns", ds.carrier_names[c]), opendns));
    }
    let refs: Vec<(&str, &Cdf)> = all_series.iter().map(|(n, c)| (n.as_str(), c)).collect();
    Artifact {
        id: "fig13".into(),
        text,
        csv: Some(cdfs_csv(&refs, 50)),
    }
}

/// Fig. 14: relative replica latency (public vs local choices, /24
/// aggregated) with the headline equal-or-better fractions.
pub fn fig14(ds: &Dataset) -> Artifact {
    let mut text = String::new();
    let mut all_series: Vec<(String, Cdf)> = Vec::new();
    for c in 0..ds.carrier_names.len() {
        let google = relative_replica_latency(ds, c, ResolverKind::Google);
        let opendns = relative_replica_latency(ds, c, ResolverKind::OpenDns);
        let _ = write!(
            text,
            "{}",
            render_cdfs(
                &format!(
                    "Fig 14 ({}): relative replica latency, public vs local",
                    ds.carrier_names[c]
                ),
                &[("google", &google), ("opendns", &opendns)],
                "%",
            )
        );
        let _ = writeln!(
            text,
            "public equal-or-better: google {:.0}%, opendns {:.0}%",
            public_equal_or_better(ds, c, ResolverKind::Google) * 100.0,
            public_equal_or_better(ds, c, ResolverKind::OpenDns) * 100.0,
        );
        all_series.push((format!("{}:google", ds.carrier_names[c]), google));
        all_series.push((format!("{}:opendns", ds.carrier_names[c]), opendns));
    }
    let refs: Vec<(&str, &Cdf)> = all_series.iter().map(|(n, c)| (n.as_str(), c)).collect();
    Artifact {
        id: "fig14".into(),
        text,
        csv: Some(cdfs_csv(&refs, 50)),
    }
}

/// Dataset overview plus the paper's headline findings in one block — the
/// first thing `repro` prints.
pub fn summary(ds: &Dataset) -> Artifact {
    let mut text = String::new();
    let devices: BTreeSet<u32> = ds.records.iter().map(|r| r.device_id).collect();
    let span_days = ds.records.iter().map(|r| r.t.as_secs()).max().unwrap_or(0) as f64 / 86_400.0;
    let probes: usize = ds
        .records
        .iter()
        .map(|r| {
            let replica_rows: usize = r
                .replica_probes
                .iter()
                .map(|p| r.returned_by(p.addr).count())
                .sum();
            replica_rows + r.resolver_probes.len()
        })
        .sum();
    let _ = writeln!(text, "== Campaign summary ==");
    let _ = writeln!(
        text,
        "{} experiments from {} devices across {} carriers over {:.0} days;",
        ds.records.len(),
        devices.len(),
        ds.carrier_names.len(),
        span_days.max(1.0),
    );
    let _ = writeln!(
        text,
        "{} DNS resolutions, {} probes. (Paper: 280k experiments, 8.1M resolutions.)",
        ds.resolution_count(),
        probes,
    );
    // Headline findings.
    let us = us_carriers(ds);
    let miss = cache_miss_fraction(ds, &us, 20.0);
    let mut eq_or_better = Vec::new();
    for c in 0..ds.carrier_names.len() {
        eq_or_better.push(format!(
            "{} {:.0}%",
            ds.carrier_names[c],
            public_equal_or_better(ds, c, ResolverKind::Google) * 100.0
        ));
    }
    let _ = writeln!(
        text,
        "
Headlines:"
    );
    let _ = writeln!(
        text,
        "  cache misses on first lookups (Fig 7): {:.0}%  [paper: ~20%]",
        miss * 100.0
    );
    let _ = writeln!(
        text,
        "  public DNS replicas equal-or-better (Fig 14): {}  [paper: >75%]",
        eq_or_better.join(", ")
    );
    let all_pairs_indirect = ds.records.iter().all(|r| {
        r.local_external()
            .map(|ext| ext != r.configured_dns)
            .unwrap_or(true)
    });
    let _ = writeln!(
        text,
        "  indirect resolution in every carrier (Table 3): {}",
        if all_pairs_indirect { "yes" } else { "NO (!)" }
    );
    let trace_zero = ds.external_reach.iter().all(|p| !p.traceroute_reached);
    let _ = writeln!(
        text,
        "  traceroutes into carriers from outside (Table 4): {}",
        if trace_zero {
            "0 — opaque"
        } else {
            "penetrated (!)"
        }
    );
    Artifact {
        id: "summary".into(),
        text,
        csv: None,
    }
}

/// Failure taxonomy: lookup outcomes per carrier and resolver class.
/// All-`ok` under a fault-free campaign; the chaos shows up here when a
/// fault profile is active.
pub fn failures(ds: &Dataset) -> Artifact {
    Artifact {
        id: "failures".into(),
        text: render_failure_report(ds),
        csv: Some(ds.outcomes_csv()),
    }
}

/// Renders one artifact from the dataset.
pub type Render = fn(&Dataset) -> Artifact;

/// Every artifact id with its renderer: the 21 of [`all_artifacts`] in
/// paper order, then `report`, which renders only on request. The one
/// list of ids: [`artifact_by_id`] and `repro`'s argument check read it.
pub const ARTIFACTS: [(&str, Render); 22] = [
    ("summary", summary),
    ("table1", table1),
    ("table2", table2),
    ("fig2", fig2),
    ("fig3", fig3),
    ("table3", table3),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("table4", table4),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("egress", egress),
    ("table5", table5),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", fig14),
    ("failures", failures),
    ("report", report),
];

/// Every artifact in paper order.
pub fn all_artifacts(ds: &Dataset) -> Vec<Artifact> {
    ARTIFACTS
        .iter()
        .filter(|(id, _)| *id != "report")
        .map(|(_, render)| render(ds))
        .collect()
}

/// Per-carrier profile reports (not part of `all_artifacts`; request via
/// `repro report`).
pub fn report(ds: &Dataset) -> Artifact {
    Artifact {
        id: "report".into(),
        text: analysis::all_carrier_reports(ds),
        csv: None,
    }
}

/// Artifact by id, if known.
pub fn artifact_by_id(ds: &Dataset, id: &str) -> Option<Artifact> {
    ARTIFACTS
        .iter()
        .find(|(known, _)| *known == id)
        .map(|(_, render)| render(ds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::{Study, StudyConfig};

    fn quick_dataset() -> Dataset {
        let mut study = Study::new(StudyConfig::quick(9));
        study.run()
    }

    #[test]
    fn all_artifacts_render_nonempty() {
        let ds = quick_dataset();
        let artifacts = all_artifacts(&ds);
        assert_eq!(artifacts.len(), 21);
        for a in &artifacts {
            assert!(!a.text.trim().is_empty(), "{} is empty", a.id);
        }
    }

    #[test]
    fn artifact_lookup_matches_list() {
        let ds = quick_dataset();
        for a in all_artifacts(&ds) {
            let looked = artifact_by_id(&ds, &a.id).expect("id known");
            assert_eq!(looked.id, a.id);
        }
        assert!(artifact_by_id(&ds, "fig99").is_none());
        for (id, render) in ARTIFACTS {
            assert_eq!(render(&ds).id, id, "table key and artifact id disagree");
        }
    }

    #[test]
    fn carrier_country_split() {
        let ds = quick_dataset();
        assert_eq!(us_carriers(&ds).len(), 4);
        assert_eq!(sk_carriers(&ds).len(), 2);
    }
}

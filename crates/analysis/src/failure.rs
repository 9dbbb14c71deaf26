//! Failure-rate analysis over the lookup outcome taxonomy: how often each
//! carrier's resolutions degraded or failed, split by resolver class.
//! Fault-free campaigns produce all-`ok` tables; fault-profile campaigns
//! surface the injected chaos here.

use crate::table::render_table;
use measure::record::{Dataset, Outcome, ResolverKind};
use std::collections::BTreeMap;

/// Outcome counts for one (carrier, resolver class) cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureRow {
    /// Carrier name.
    pub carrier: String,
    /// Resolver class.
    pub resolver: ResolverKind,
    /// Counts indexed like [`Outcome::ALL`].
    pub counts: [u64; Outcome::ALL.len()],
}

impl FailureRow {
    /// Total lookups in this cell.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Count for one outcome.
    pub fn count(&self, outcome: Outcome) -> u64 {
        self.counts[outcome as usize]
    }

    /// Fraction of lookups that ended without a usable answer.
    pub fn failure_rate(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let failed: u64 = Outcome::ALL
            .iter()
            .zip(self.counts.iter())
            .filter(|(o, _)| !o.answered())
            .map(|(_, n)| n)
            .sum();
        failed as f64 / total as f64
    }

    /// Fraction that answered only via a degraded path (TCP retry or
    /// failover).
    pub fn degraded_rate(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let degraded = self.count(Outcome::TruncatedRecovered) + self.count(Outcome::FailedOver);
        degraded as f64 / total as f64
    }
}

/// Aggregates lookup outcomes per (carrier, resolver class), in
/// deterministic carrier-then-resolver order. Cells with no lookups are
/// omitted.
pub fn failure_rates(ds: &Dataset) -> Vec<FailureRow> {
    let mut counts: BTreeMap<(u8, ResolverKind), [u64; Outcome::ALL.len()]> = BTreeMap::new();
    for r in &ds.records {
        for l in &r.lookups {
            let cell = counts.entry((r.carrier, l.resolver)).or_default();
            cell[l.outcome as usize] += 1;
        }
    }
    counts
        .into_iter()
        .map(|((carrier, resolver), cell)| FailureRow {
            carrier: ds.carrier_names[carrier as usize].clone(),
            resolver,
            counts: cell,
        })
        .collect()
}

/// Renders the failure-taxonomy table: one row per (carrier, resolver
/// class) with per-outcome counts and the derived failure/degraded rates.
pub fn render_failure_report(ds: &Dataset) -> String {
    let rows = failure_rates(ds);
    let mut headers = vec!["carrier", "resolver"];
    headers.extend(Outcome::ALL.iter().map(|o| o.label()));
    headers.push("fail%");
    headers.push("degraded%");
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            let mut cells = vec![row.carrier.clone(), row.resolver.label().to_string()];
            cells.extend(row.counts.iter().map(|n| n.to_string()));
            cells.push(format!("{:.2}", row.failure_rate() * 100.0));
            cells.push(format!("{:.2}", row.degraded_rate() * 100.0));
            cells
        })
        .collect();
    render_table(
        "Lookup outcomes per carrier and resolver class",
        &headers,
        &table_rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellsim::radio::RadioTech;
    use measure::record::{DnsTiming, ExperimentRecord};
    use netsim::time::SimTime;
    use std::net::Ipv4Addr;

    fn timing(resolver: ResolverKind, outcome: Outcome) -> DnsTiming {
        DnsTiming {
            resolver,
            resolver_addr: Ipv4Addr::new(8, 8, 8, 8),
            domain_idx: 0,
            attempt: 1,
            elapsed_us: outcome.answered().then_some(10_000),
            addrs: vec![],
            outcome,
        }
    }

    fn dataset(lookups: Vec<DnsTiming>) -> Dataset {
        Dataset {
            carrier_names: vec!["AT&T".into()],
            records: vec![ExperimentRecord {
                device_id: 0,
                carrier: 0,
                t: SimTime::ZERO,
                radio: RadioTech::Lte,
                x_km: 0.0,
                y_km: 0.0,
                is_static: true,
                device_ip: Ipv4Addr::new(10, 0, 0, 1),
                gateway_site: 0,
                configured_dns: Ipv4Addr::new(100, 0, 0, 1),
                lookups,
                identities: vec![],
                resolver_probes: vec![],
                replica_probes: vec![],
            }],
            ..Dataset::default()
        }
    }

    #[test]
    fn rates_count_failures_and_degradations() {
        let ds = dataset(vec![
            timing(ResolverKind::Local, Outcome::Ok),
            timing(ResolverKind::Local, Outcome::Ok),
            timing(ResolverKind::Local, Outcome::ServFail),
            timing(ResolverKind::Local, Outcome::TruncatedRecovered),
        ]);
        let rows = failure_rates(&ds);
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row.total(), 4);
        assert_eq!(row.count(Outcome::ServFail), 1);
        assert!((row.failure_rate() - 0.25).abs() < 1e-12);
        assert!((row.degraded_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn rows_split_by_resolver_class() {
        let ds = dataset(vec![
            timing(ResolverKind::Local, Outcome::Ok),
            timing(ResolverKind::Google, Outcome::Timeout),
        ]);
        let rows = failure_rates(&ds);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].resolver, ResolverKind::Local);
        assert_eq!(rows[1].resolver, ResolverKind::Google);
        assert!((rows[1].failure_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn report_renders_all_outcome_columns() {
        let ds = dataset(vec![timing(ResolverKind::Local, Outcome::Unreachable)]);
        let report = render_failure_report(&ds);
        for o in Outcome::ALL {
            assert!(report.contains(o.label()), "missing column {}", o.label());
        }
        assert!(report.contains("AT&T"));
    }
}

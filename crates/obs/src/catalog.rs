//! The one place a sim-plane metric name is declared.
//!
//! Every name an instrumentation call site passes to a [`Registry`]
//! mutator has exactly one row in [`METRICS`], with the instrument kind it
//! is emitted as. detlint rule D12 reads this file and cross-checks it
//! against the call sites in both directions (emitted but undeclared,
//! declared but dead); the tier-1 campaign and soak tests call
//! [`undeclared`] on the registries they export, which catches a name
//! emitted under the wrong kind as well.
//!
//! The catalog is a reference, not a schema: declaring a row creates no
//! series, and the registry's mutators do not consult it.

use crate::sim::Registry;
use MetricKind::{Counter, Gauge, Histogram};

/// Which instrument a metric is emitted as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic count (`inc` / `inc_by`).
    Counter,
    /// Latest value plus high-water mark (`gauge_set`).
    Gauge,
    /// Power-of-two histogram (`observe_us`).
    Histogram,
}

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// The name passed to the registry mutator.
    pub name: &'static str,
    /// The instrument kind it is emitted as.
    pub kind: MetricKind,
    /// What one unit of it means.
    pub help: &'static str,
}

const fn def(name: &'static str, kind: MetricKind, help: &'static str) -> MetricDef {
    MetricDef { name, kind, help }
}

/// Every sim-plane metric the workspace emits, sorted by name.
#[rustfmt::skip] // a table: one row per line
pub const METRICS: &[MetricDef] = &[
    def("campaign.completed_backlog", Gauge, "unpolled completed flows per shard"),
    def("campaign.experiments", Counter, "experiment records harvested"),
    def("campaign.identity_probes", Counter, "resolver-identity probes run"),
    def("campaign.lookups", Counter, "scripted DNS lookups run"),
    def("campaign.replica_probes", Counter, "(replica, domain, resolver) rows of replica probes"),
    def("campaign.resolver_probes", Counter, "resolver reachability probes run"),
    def("dns.cache.ambient_hits", Counter, "hits served by ambient warmth"),
    def("dns.cache.evictions", Counter, "entries evicted at capacity"),
    def("dns.cache.hits", Counter, "fresh resolver-cache hits"),
    def("dns.cache.misses", Counter, "resolver-cache misses"),
    def("dns.forwarder.cache_answers", Counter, "answers from a forwarder cache"),
    def("dns.forwarder.relayed", Counter, "client queries relayed upstream"),
    def("dns.forwarder.repicks", Counter, "upstream re-picks at lease renewal"),
    def("dns.forwarder.returned", Counter, "responses relayed to clients"),
    def("dns.lookup.outcomes", Counter, "client lookups by resolver and outcome"),
    def("dns.lookup_us", Histogram, "client lookup time in sim micros"),
    def("dns.resolver.cache_answers", Counter, "answers served wholly from cache"),
    def("dns.resolver.client_queries", Counter, "queries received from clients"),
    def("dns.resolver.fault_dropped", Counter, "queries dropped by an injected outage"),
    def("dns.resolver.fault_servfails", Counter, "injected SERVFAIL replies"),
    def("dns.resolver.fault_truncations", Counter, "injected truncations"),
    def("dns.resolver.servfails", Counter, "SERVFAIL replies produced"),
    def("dns.resolver.upstream_queries", Counter, "queries sent upstream"),
    def("fault.injected", Counter, "injected network faults by kind"),
    def("loadgen.answered", Counter, "scripted queries answered over the wire"),
    def("loadgen.chaos_injected", Counter, "hostile wire inputs sent, by kind"),
    def("loadgen.latency_us", Histogram, "wire round trip of answered queries"),
    def("loadgen.mismatches", Counter, "wire answers differing from ground truth"),
    def("loadgen.sent", Counter, "scripted queries sent"),
    def("loadgen.shed_retries", Counter, "resends after a shed reply"),
    def("loadgen.tc_retries", Counter, "TCP retries after a truncated reply"),
    def("loadgen.wire_timeouts", Counter, "per-attempt wire timeouts"),
    def("net.delivered", Counter, "packets delivered to their owner"),
    def("net.drops_by_cause", Counter, "packets dropped, by cause"),
    def("net.events", Counter, "engine events dispatched"),
    def("net.events_by_kind", Counter, "engine events dispatched, by kind"),
    def("net.flow_timeouts", Counter, "flow deadline events that fired"),
    def("net.flow_timeouts_cancelled", Counter, "flow deadlines cancelled by early completion"),
    def("net.forwards", Counter, "per-hop packet forwards"),
    def("net.queue_depth", Gauge, "event-queue depth high water"),
    def("net.timeouts", Counter, "client transactions that timed out"),
    def("serve.conn_evicted", Counter, "TCP connections evicted, by reason"),
    def("serve.drain_completed", Counter, "queries finished during shutdown drain"),
    def("serve.dropped", Counter, "inputs dropped silently, by reason"),
    def("serve.formerr", Counter, "FORMERR rejections, by cause"),
    def("serve.notimp", Counter, "NOTIMP rejections"),
    def("serve.outcomes", Counter, "resolved queries by lookup outcome"),
    def("serve.queries", Counter, "well-formed queries resolved"),
    def("serve.shed", Counter, "queries shed by admission, by reason"),
    def("serve.sim_latency_us", Histogram, "sim-time lookup latency of served queries"),
    def("serve.truncated", Counter, "UDP replies truncated to the size limit"),
];

/// The declaration of `name`, if it has one.
fn lookup(name: &str) -> Option<&'static MetricDef> {
    METRICS
        .binary_search_by(|def| def.name.cmp(name))
        .ok()
        .map(|i| &METRICS[i])
}

/// The `(name, kind)` of every series in `reg` that the catalog does not
/// declare under that kind. Empty for a registry filled only by this
/// workspace's call sites.
pub fn undeclared(reg: &Registry) -> Vec<(&'static str, MetricKind)> {
    let mut out: Vec<_> = reg
        .series()
        .filter(|&(name, kind)| lookup(name).map(|def| def.kind) != Some(kind))
        .collect();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_sorted_unique_and_well_formed() {
        for pair in METRICS.windows(2) {
            assert!(
                pair[0].name < pair[1].name,
                "{} must sort strictly before {}",
                pair[0].name,
                pair[1].name
            );
        }
        for def in METRICS {
            let ok = |c: char| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_';
            assert!(
                !def.name.is_empty() && def.name.chars().all(ok),
                "bad metric name {:?}",
                def.name
            );
            assert!(!def.help.is_empty(), "{} has no help", def.name);
            assert_eq!(lookup(def.name), Some(def));
        }
    }

    #[test]
    fn undeclared_reports_unknown_names_and_wrong_kinds() {
        let mut reg = Registry::new();
        reg.inc("net.events", &[("carrier", "a")]);
        reg.inc("net.events", &[("carrier", "b")]);
        assert!(undeclared(&reg).is_empty());
        reg.gauge_set("net.events", &[], 1);
        reg.inc("not_declared", &[]);
        assert_eq!(
            undeclared(&reg),
            vec![("not_declared", Counter), ("net.events", Gauge)]
        );
    }
}

//! Host-plane profile export: the run's qps, latency percentiles, and
//! outcome taxonomy as a small hand-rolled JSON document (the artifact CI
//! uploads from the serve smoke job).

use crate::driver::RunStats;

/// Renders the host-plane serve profile. Every number here is wall-clock
/// derived and therefore host-plane only — it is never merged into the
/// deterministic `metrics.json` replay contract.
pub fn render_profile_json(stats: &RunStats) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"sent\": {},\n", stats.sent));
    out.push_str(&format!("  \"answered\": {},\n", stats.answered));
    out.push_str(&format!("  \"tc_retries\": {},\n", stats.tc_retries));
    out.push_str(&format!("  \"wire_timeouts\": {},\n", stats.wire_timeouts));
    out.push_str(&format!("  \"mismatches\": {},\n", stats.mismatches));
    out.push_str(&format!(
        "  \"chaos_injected\": {},\n",
        stats.chaos_injected
    ));
    out.push_str(&format!("  \"shed_replies\": {},\n", stats.shed_replies));
    out.push_str(&format!("  \"shed_retries\": {},\n", stats.shed_retries));
    out.push_str(&format!(
        "  \"evictions_observed\": {},\n",
        stats.evictions_observed
    ));
    out.push_str(&format!(
        "  \"chaos_unanswered\": {},\n",
        stats.chaos_unanswered
    ));
    out.push_str(&format!("  \"wall_secs\": {:.3},\n", stats.wall_secs));
    out.push_str(&format!("  \"qps\": {:.1},\n", stats.qps()));
    out.push_str(&format!(
        "  \"latency_p50_us\": {},\n",
        stats.latency_percentile_us(50)
    ));
    out.push_str(&format!(
        "  \"latency_p99_us\": {},\n",
        stats.latency_percentile_us(99)
    ));
    out.push_str("  \"outcomes\": {");
    let rows: Vec<String> = stats
        .outcomes
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    out.push_str(&rows.join(", "));
    out.push_str("}\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn profile_json_carries_the_headline_numbers() {
        let mut outcomes = BTreeMap::new();
        outcomes.insert("noerror".to_string(), 9u64);
        outcomes.insert("servfail".to_string(), 1u64);
        let stats = RunStats {
            sent: 11,
            answered: 10,
            tc_retries: 1,
            wire_timeouts: 0,
            mismatches: 0,
            chaos_injected: 4,
            shed_replies: 2,
            shed_retries: 1,
            evictions_observed: 3,
            chaos_unanswered: 0,
            outcomes,
            latencies_us: vec![100, 200, 300, 400],
            wall_secs: 2.0,
        };
        let json = render_profile_json(&stats);
        assert!(json.contains("\"answered\": 10"));
        assert!(json.contains("\"qps\": 5.0"));
        assert!(json.contains("\"noerror\": 9"));
        assert!(json.contains("\"latency_p50_us\": 200"));
        assert!(json.contains("\"chaos_injected\": 4"));
        assert!(json.contains("\"evictions_observed\": 3"));
    }
}

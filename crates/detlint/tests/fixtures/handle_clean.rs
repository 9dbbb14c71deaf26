// Handle fixture: every series is resolved under a literal name the catalog
// declares, single- and multi-line, so the scan reports nothing.
pub fn meter(reg: &mut obs::Registry, outcome: &'static str, v: u64) {
    let outcomes = reg.counter_id("serve.outcomes", &[("outcome", outcome)]);
    let latency = reg.histogram_id(
        "serve.sim_latency_us",
        &[],
    );
    reg.add(outcomes, 1);
    reg.observe(latency, v);
}

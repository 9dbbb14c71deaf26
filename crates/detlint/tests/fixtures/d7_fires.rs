// D7 fixture: exactly one dynamic-name mutator call (line 13); literal-name
// calls, single- and multi-line, stay quiet.
pub fn vitals(reg: &mut obs::Registry, name: &'static str) {
    reg.inc("campaign.experiments", &[]);
    reg.inc_by("net.events", &[], 3);
    reg.gauge_set("net.queue_depth", &[], 4);
    reg.observe_us("dns.lookup_us", &[], 9);
    reg.inc_by(
        "campaign.lookups",
        &[],
        2,
    );
    reg.inc(name, &[]);
}

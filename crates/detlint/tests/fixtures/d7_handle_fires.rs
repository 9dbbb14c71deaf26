// D7 fixture for handle resolution: exactly one dynamic metric name, passed
// through `counter_id` (line 6); the id-based updates take no name at all.
pub fn meter(reg: &mut obs::Registry, name: &'static str, v: u64) {
    let queries = reg.counter_id("serve.queries", &[("transport", "udp")]);
    reg.add(queries, 1);
    let dynamic = reg.counter_id(name, &[]);
    reg.add(dynamic, v);
}

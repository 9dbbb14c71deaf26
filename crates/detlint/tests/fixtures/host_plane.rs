// Host-plane fixture: wall-clock reads (line 6, clippy's to judge) and
// host-plane profiling (line 7) are the serving plane's whole job. Clean in
// a host-plane crate (serve, loadgen, repro, obs); the same source scanned
// as a sim crate fires D7 by classification alone — no allow-markers.
pub fn serve_burst(reg: &mut obs::Registry) -> u64 {
    let started = std::time::Instant::now();
    let stage = obs::host::Stage::begin("serve.burst");
    reg.inc("serve.queries", &[("transport", "udp")]);
    drop(stage);
    started.elapsed().as_micros() as u64
}

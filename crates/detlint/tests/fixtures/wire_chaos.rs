// Wire-chaos fixture, shaped like `loadgen::chaos` + `serve::admit`: the
// chaos plan draws its RNG from the dedicated WIRE_CHAOS seed lane
// (D8-clean in every crate), while the admission path reads the wall
// clock (line 13, clippy's to judge) and the host-plane profiler (line 14)
// — legal only under host-plane crate classification.
fn plan(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}
pub fn chaos_plan(master: u64, shard: u64) -> StdRng {
    plan(derive_seed(master, lane::WIRE_CHAOS, shard))
}
pub fn admit_now(reg: &mut obs::Registry) -> u64 {
    let started = std::time::Instant::now();
    let stage = obs::host::Stage::begin("serve.admit");
    reg.inc("serve.shed", &[("reason", "rate")]);
    drop(stage);
    started.elapsed().as_micros() as u64
}

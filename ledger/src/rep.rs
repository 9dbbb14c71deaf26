//! What one repetition of a workload hands back.

use crate::spec::Workload;
use crate::stats::percentile;

/// What to run: fixed op counts from the workload, every input from the seed.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    /// 1/20 size, no bounds: keeps the harness alive between real runs.
    pub smoke: bool,
}

impl Ctx {
    /// Time budget of one micro-loop.
    pub fn micro_budget(&self) -> std::time::Duration {
        std::time::Duration::from_millis(if self.smoke { 10 } else { 300 })
    }
}

/// One repetition: a world or server rebuilt from the seed, one timed phase.
#[derive(Debug, Default)]
pub struct Rep {
    /// Host-noise probe taken just before the repetition.
    pub calib_ms: f64,
    /// Start of the repetition to the first timed op.
    pub setup_s: f64,
    /// The timed phase.
    pub wall_s: f64,
    /// Ops completed (lookups for the campaign, answered queries otherwise).
    pub ops: u64,
    /// Engine events the ops cost.
    pub events: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Wire workloads: scripted queries the server shed or left unanswered.
    /// A repetition with any is run again (`main::MAX_RERUNS`).
    pub disturbed: u64,
    /// Digest of everything the program produced; equal across repetitions.
    pub digest: String,
    /// Per-op wall time. `None` for the campaign: a batch job has no
    /// per-request latency.
    pub latency: Option<Latency>,
}

/// Ops per window of the tail percentile: ten samples lie beyond each
/// window's 99th percentile, the fewest that support one.
const TAIL_WINDOW: usize = 1_000;

/// Per-op wall times of one repetition, in microseconds.
#[derive(Debug, Clone, Copy)]
pub struct Latency {
    pub samples: usize,
    pub p50_us: f64,
    /// The median over consecutive 1 000-op windows of each window's 99th
    /// percentile. The shared host takes the harness or the server off the
    /// CPU for milliseconds at a time, about 1 % of wall time on the
    /// reference box — exactly the share a whole-repetition p99 looks at,
    /// which therefore flips between two values on host noise alone. A
    /// stall lands in a few windows; a slower tail shows in all of them.
    pub p99_us: f64,
    /// The 99th percentile over the whole repetition, for comparison.
    pub p99_whole_us: f64,
    pub p999_us: f64,
    pub max_us: f64,
}

impl Latency {
    /// From per-op nanoseconds in op order. `None` when there are none.
    pub fn from_ops(ns: &[u64]) -> Option<Latency> {
        if ns.is_empty() {
            return None;
        }
        let sorted_us = |ops: &[u64], per_mille: usize| {
            let mut v = ops.to_vec();
            v.sort_unstable();
            percentile(&v, per_mille) as f64 / 1e3
        };
        let mut windows: Vec<f64> = ns
            .chunks_exact(TAIL_WINDOW)
            .map(|w| sorted_us(w, 990))
            .collect();
        if windows.is_empty() {
            windows.push(sorted_us(ns, 990));
        }
        Some(Latency {
            samples: ns.len(),
            p50_us: sorted_us(ns, 500),
            p99_us: crate::stats::median(&windows),
            p99_whole_us: sorted_us(ns, 990),
            p999_us: sorted_us(ns, 999),
            max_us: sorted_us(ns, 1000),
        })
    }
}

impl Rep {
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.wall_s.max(1e-9)
    }

    /// `latency_p50_us` and `latency_p99_us` as the end-to-end table carries
    /// them. The contract wants every end-to-end metric from every workload,
    /// so a workload whose per-op latency is not gated (see
    /// [`Workload::gates_latency`]) reports its wall time per op under both
    /// names.
    pub fn gated_latency_us(&self, w: Workload) -> (f64, f64) {
        match self.latency {
            Some(l) if w.gates_latency() => (l.p50_us, l.p99_us),
            _ => {
                let per_op = self.wall_s * 1e6 / self.ops.max(1) as f64;
                (per_op, per_op)
            }
        }
    }
}

/// FNV-1a over a reply stream: cheap enough to run inside a timed loop.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

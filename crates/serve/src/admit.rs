//! Overload admission control for the serving plane: a deterministic
//! token bucket plus a bounded per-carrier inflight queue. The bridge
//! consults this before spending sim work on a well-formed query; a
//! [`Verdict::Shed`] turns into a header-only REFUSED on the wire (see
//! [`crate::core::control_reply`]) without ever touching the sim, so
//! shedding cannot desync a ground-truth replica.
//!
//! Determinism: given the same sequence of `(now_us, inflight)` inputs,
//! an [`Admission`] makes the same decisions — there is no internal
//! clock, no randomness, and only integer arithmetic (micro-token
//! accounting, so refill never loses precision to rounding).

/// Why a query was shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The carrier's inflight queue is over its bound: the bridge is
    /// backlogged and more queueing only adds latency for everyone.
    QueueFull,
    /// The carrier's token bucket is empty: sustained arrival rate above
    /// the provisioned service rate.
    RateExceeded,
}

impl ShedReason {
    /// Stable label for the `serve.shed` counter.
    pub fn label(self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue-full",
            ShedReason::RateExceeded => "rate",
        }
    }
}

/// Admission decision for one well-formed query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Spend sim work on it.
    Admit,
    /// Answer REFUSED without resolving.
    Shed(ShedReason),
}

/// Per-carrier admission knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmitConfig {
    /// Sustained admitted queries/second per carrier.
    pub rate_per_sec: u64,
    /// Burst capacity (the bucket starts full at this many tokens).
    pub burst: u64,
    /// Largest tolerated per-carrier backlog; queries arriving while the
    /// bridge is this far behind are shed instead of queued.
    pub max_inflight: u64,
}

impl AdmitConfig {
    /// Sizes admission for a carrier with `devices` devices in a fleet
    /// whose mean carrier has `mean_devices`. A mean-sized carrier gets a
    /// base rate plus a generous per-device budget, so bigger worlds admit
    /// proportionally more; a carrier at or below the mean gets exactly
    /// that, and a larger one scales it by `devices / mean_devices`, so
    /// each carrier's budget follows its share of the load. The bounds are
    /// far above what a well-behaved client generates, and the inflight
    /// bound stays far below what a flood can enqueue.
    pub fn for_carrier(devices: usize, mean_devices: usize) -> AdmitConfig {
        let mean = mean_devices as u64;
        let base = AdmitConfig {
            rate_per_sec: 40_000 + 400 * mean,
            burst: 256 + 4 * mean,
            max_inflight: 32,
        };
        let d = devices as u64;
        if d <= mean {
            return base;
        }
        AdmitConfig {
            rate_per_sec: base.rate_per_sec * d / mean.max(1),
            burst: base.burst * d / mean.max(1),
            ..base
        }
    }

    /// A config that never sheds — pays the same admission arithmetic on
    /// every query (benchmarks measure the hardened path honestly) but
    /// admits everything.
    pub fn unthrottled() -> AdmitConfig {
        AdmitConfig {
            rate_per_sec: u64::MAX / 2_000_000,
            burst: u64::MAX / 2,
            max_inflight: u64::MAX,
        }
    }
}

/// One carrier's token bucket, accounted in micro-tokens (token ×
/// 1e6) so refill at any query rate stays exact integer math.
#[derive(Debug, Clone)]
struct TokenBucket {
    /// Micro-tokens currently available.
    micro: u64,
    /// Bucket capacity in micro-tokens.
    cap_micro: u64,
    /// Refill rate: micro-tokens per microsecond == tokens per second.
    rate: u64,
    /// Last refill timestamp.
    last_us: u64,
}

impl TokenBucket {
    fn new(cfg: &AdmitConfig, now_us: u64) -> TokenBucket {
        let cap = cfg.burst.saturating_mul(1_000_000);
        TokenBucket {
            micro: cap,
            cap_micro: cap,
            rate: cfg.rate_per_sec,
            last_us: now_us,
        }
    }

    fn try_take(&mut self, now_us: u64) -> bool {
        if now_us > self.last_us {
            let refill = (now_us - self.last_us).saturating_mul(self.rate);
            self.micro = self.micro.saturating_add(refill).min(self.cap_micro);
            self.last_us = now_us;
        }
        if self.micro >= 1_000_000 {
            self.micro -= 1_000_000;
            true
        } else {
            false
        }
    }
}

/// Admission state for every carrier shard.
#[derive(Debug)]
pub struct Admission {
    /// Per shard: its bucket and the backlog bound it was sized with.
    shards: Vec<(TokenBucket, u64)>,
}

impl Admission {
    /// One bucket per carrier, all sized by `cfg`, epoch at `now_us`.
    pub fn new(cfg: AdmitConfig, carriers: usize, now_us: u64) -> Admission {
        Admission::per_carrier(&vec![cfg; carriers], now_us)
    }

    /// One bucket per carrier, shard `i` sized by `cfgs[i]`, epoch at
    /// `now_us`.
    pub fn per_carrier(cfgs: &[AdmitConfig], now_us: u64) -> Admission {
        Admission {
            shards: cfgs
                .iter()
                .map(|cfg| (TokenBucket::new(cfg, now_us), cfg.max_inflight))
                .collect(),
        }
    }

    /// Decides one well-formed query for `shard`. `inflight` is the
    /// shard's current backlog (events enqueued but not yet served,
    /// including this one); `now_us` is the caller's clock. Unknown
    /// shards are shed (queue-full) rather than panicking.
    pub fn admit(&mut self, shard: usize, now_us: u64, inflight: u64) -> Verdict {
        let Some((bucket, max_inflight)) = self.shards.get_mut(shard) else {
            return Verdict::Shed(ShedReason::QueueFull);
        };
        if inflight > *max_inflight {
            return Verdict::Shed(ShedReason::QueueFull);
        }
        if !bucket.try_take(now_us) {
            return Verdict::Shed(ShedReason::RateExceeded);
        }
        Verdict::Admit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(rate: u64, burst: u64, inflight: u64) -> AdmitConfig {
        AdmitConfig {
            rate_per_sec: rate,
            burst,
            max_inflight: inflight,
        }
    }

    #[test]
    fn sheds_when_the_backlog_exceeds_the_bound() {
        let mut adm = Admission::new(cfg(1_000, 10, 4), 1, 0);
        assert_eq!(adm.admit(0, 0, 1), Verdict::Admit);
        assert_eq!(adm.admit(0, 0, 4), Verdict::Admit);
        assert_eq!(
            adm.admit(0, 0, 5),
            Verdict::Shed(ShedReason::QueueFull),
            "backlog above the bound must shed"
        );
        // Backlog recedes → admits again.
        assert_eq!(adm.admit(0, 1, 2), Verdict::Admit);
    }

    #[test]
    fn token_bucket_sheds_sustained_overrate_and_refills() {
        // 2 tokens of burst, 1000/s refill (1 token per millisecond).
        let mut adm = Admission::new(cfg(1_000, 2, 100), 1, 0);
        assert_eq!(adm.admit(0, 0, 0), Verdict::Admit);
        assert_eq!(adm.admit(0, 0, 0), Verdict::Admit);
        assert_eq!(
            adm.admit(0, 0, 0),
            Verdict::Shed(ShedReason::RateExceeded),
            "burst exhausted at t=0"
        );
        // 500 µs later: half a token — still empty.
        assert_eq!(
            adm.admit(0, 500, 0),
            Verdict::Shed(ShedReason::RateExceeded)
        );
        // 1.5 ms later: one full token accrued.
        assert_eq!(adm.admit(0, 1_500, 0), Verdict::Admit);
        assert_eq!(
            adm.admit(0, 1_500, 0),
            Verdict::Shed(ShedReason::RateExceeded)
        );
    }

    #[test]
    fn decisions_are_deterministic_across_replicas() {
        let inputs: Vec<(usize, u64, u64)> = (0..200)
            .map(|i| ((i % 3) as usize, (i as u64) * 137, (i as u64) % 9))
            .collect();
        let mut a = Admission::new(cfg(5_000, 8, 5), 3, 0);
        let mut b = Admission::new(cfg(5_000, 8, 5), 3, 0);
        for &(shard, now, inflight) in &inputs {
            assert_eq!(a.admit(shard, now, inflight), b.admit(shard, now, inflight));
        }
    }

    #[test]
    fn bucket_never_exceeds_capacity_after_idle() {
        let mut adm = Admission::new(cfg(1_000_000, 3, 100), 1, 0);
        // A long idle period must cap accrual at the burst size.
        for _ in 0..3 {
            assert_eq!(adm.admit(0, 10_000_000, 0), Verdict::Admit);
        }
        assert_eq!(
            adm.admit(0, 10_000_000, 0),
            Verdict::Shed(ShedReason::RateExceeded)
        );
    }

    #[test]
    fn world_sizing_scales_with_devices_and_never_throttles_a_stub() {
        let small = AdmitConfig::for_carrier(10, 10);
        let big = AdmitConfig::for_carrier(1_000, 1_000);
        assert!(big.rate_per_sec > small.rate_per_sec);
        assert!(big.burst > small.burst);
        // A well-behaved one-in-flight stub (backlog ≤ 1, modest rate)
        // is never shed.
        let mut adm = Admission::new(small, 1, 0);
        for i in 0..10_000u64 {
            // 10k queries over 1 second.
            assert_eq!(adm.admit(0, i * 100, 1), Verdict::Admit, "query {i}");
        }
    }

    /// The quick world's fleet: 25 devices over 6 carriers, so the mean
    /// carrier has 4 (integer mean) and the largest, with 10, carries 40 %
    /// of the scripted load.
    const QUICK_MEAN: usize = 25 / 6;

    #[test]
    fn carriers_at_or_below_the_mean_keep_the_flat_budget() {
        let flat = cfg(41_600, 272, 32);
        assert_eq!(AdmitConfig::for_carrier(1, QUICK_MEAN), flat);
        assert_eq!(AdmitConfig::for_carrier(QUICK_MEAN, QUICK_MEAN), flat);
        assert_eq!(
            AdmitConfig::for_carrier(10, QUICK_MEAN),
            cfg(104_000, 680, 32)
        );
        // An empty fleet neither divides by zero nor starves a carrier.
        assert_eq!(AdmitConfig::for_carrier(1, 0), cfg(40_000, 256, 32));
    }

    #[test]
    fn the_largest_carrier_admits_its_share_of_the_fleet_load() {
        let adm_cfg = AdmitConfig::for_carrier(10, QUICK_MEAN);
        // One second of the fleet's stream, of which this carrier sees
        // 40 %; 250 k q/s is a serving plane 2.5× faster.
        for fleet_qps in [100_000u64, 250_000] {
            let mut adm = Admission::per_carrier(&[adm_cfg], 0);
            let gap_us = 1_000_000 / fleet_qps;
            for i in (0..fleet_qps).filter(|i| i % 5 < 2) {
                assert_eq!(
                    adm.admit(0, i * gap_us, 1),
                    Verdict::Admit,
                    "{fleet_qps} q/s, query {i}"
                );
            }
        }
    }

    #[test]
    fn duplicate_floods_still_shed_queue_full_at_every_size() {
        let cfgs = [
            AdmitConfig::for_carrier(1, QUICK_MEAN),
            AdmitConfig::for_carrier(10, QUICK_MEAN),
        ];
        let mut adm = Admission::per_carrier(&cfgs, 0);
        for shard in 0..cfgs.len() {
            // 96 back-to-back copies, each arriving behind the last.
            for depth in 33..33 + 96 {
                assert_eq!(
                    adm.admit(shard, 0, depth),
                    Verdict::Shed(ShedReason::QueueFull),
                    "shard {shard}, depth {depth}"
                );
            }
        }
    }

    #[test]
    fn unthrottled_config_admits_floods() {
        let mut adm = Admission::new(AdmitConfig::unthrottled(), 2, 0);
        for _ in 0..100_000 {
            assert_eq!(adm.admit(1, 0, 50_000), Verdict::Admit);
        }
    }
}

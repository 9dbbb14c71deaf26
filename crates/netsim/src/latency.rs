//! Latency models: distributions sampled per packet traversal.
//!
//! Links carry a [`LatencyModel`]; the cellular layer swaps models on the
//! radio access link as devices change radio technology, which is how the
//! paper's per-technology resolution-time bands (Fig. 3) arise.

use crate::time::SimDuration;
use rand::Rng;

/// A latency distribution, sampled independently per traversal: a
/// constant `base` plus, optionally, log-normal `jitter`.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyModel {
    /// Paid by every packet: propagation, forwarding floor, fixed padding.
    pub base: SimDuration,
    /// Heavy-tailed delay on top of `base`, if any.
    pub jitter: Option<LogNormal>,
}

/// Log-normal jitter: `exp(N(mu, sigma))` microseconds. Produces the heavy
/// right tails seen in radio access and loaded links.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    /// Location parameter of the underlying normal (in ln-µs).
    pub mu: f64,
    /// Scale parameter of the underlying normal.
    pub sigma: f64,
}

impl LatencyModel {
    /// Always exactly `base`.
    pub fn constant(base: SimDuration) -> Self {
        LatencyModel { base, jitter: None }
    }

    /// A convenience constant model from milliseconds.
    pub fn constant_ms(ms: u64) -> Self {
        Self::constant(SimDuration::from_millis(ms))
    }

    /// Propagation delay for a geographic distance, at ~5 µs/km (fiber),
    /// plus a small per-link forwarding floor.
    pub fn propagation(distance_km: f64) -> Self {
        let us = (distance_km * 5.0).max(10.0).floor() as u64;
        Self::constant(SimDuration::from_micros(us))
    }

    /// Propagation plus mild queueing jitter — the standard wired link.
    pub fn wired(distance_km: f64) -> Self {
        let propagation = Self::propagation(distance_km).base;
        LatencyModel {
            base: propagation + SimDuration::from_micros(20),
            jitter: Some(LogNormal {
                mu: 5.0, // exp(5) ≈ 148 µs median jitter
                sigma: 0.8,
            }),
        }
    }

    /// Draws one latency sample. A constant model draws nothing.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> SimDuration {
        let Some(LogNormal { mu, sigma }) = self.jitter else {
            return self.base;
        };
        let z = sample_standard_normal(rng);
        let us = (mu + sigma * z).exp();
        // Clamp the extreme tail so one sample cannot stall a run.
        let us = us.min(30_000_000.0);
        SimDuration::from_micros(self.base.as_micros().saturating_add(us as u64))
    }

    /// The distribution mean, used as the routing weight so paths follow
    /// expected latency.
    pub fn mean_micros(&self) -> u64 {
        let jitter = self.jitter.map_or(0, |LogNormal { mu, sigma }| {
            (mu + sigma * sigma / 2.0).exp() as u64
        });
        self.base.as_micros() + jitter
    }
}

/// Box–Muller standard normal sample.
fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        let u2: f64 = rng.gen::<f64>();
        if u1 > f64::EPSILON {
            return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn constant_is_constant() {
        let m = LatencyModel::constant_ms(7);
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(m.sample(&mut r), SimDuration::from_millis(7));
        }
    }

    #[test]
    fn lognormal_has_right_tail() {
        let m = LatencyModel {
            base: SimDuration::from_millis(1),
            jitter: Some(LogNormal {
                mu: 9.0, // exp(9) ≈ 8.1 ms
                sigma: 1.0,
            }),
        };
        let mut r = rng();
        let mut samples: Vec<u64> = (0..5000).map(|_| m.sample(&mut r).as_micros()).collect();
        samples.sort_unstable();
        let median = samples[2500];
        let p99 = samples[4950];
        assert!(p99 > 3 * median, "p99 {p99} median {median}");
        assert!(samples[0] >= 1000);
    }

    #[test]
    fn sum_adds_components() {
        let jitter = LogNormal {
            mu: 7.0,
            sigma: 0.5,
        };
        let bare = LatencyModel {
            base: SimDuration::ZERO,
            jitter: Some(jitter),
        };
        let padded = LatencyModel {
            base: SimDuration::from_millis(5),
            jitter: Some(jitter),
        };
        let (mut ra, mut rb) = (rng(), rng());
        for _ in 0..20 {
            assert_eq!(
                padded.sample(&mut ra),
                SimDuration::from_millis(5) + bare.sample(&mut rb)
            );
        }
        assert_eq!(padded.mean_micros(), 5_000 + bare.mean_micros());
    }

    #[test]
    fn propagation_scales_with_distance() {
        let near = LatencyModel::propagation(10.0);
        let far = LatencyModel::propagation(4000.0);
        assert!(far.mean_micros() > near.mean_micros());
        // 4000 km * 5 µs/km = 20 ms
        assert_eq!(far.mean_micros(), 20_000);
    }

    #[test]
    fn deterministic_given_seed() {
        let m = LatencyModel {
            base: SimDuration::ZERO,
            jitter: Some(LogNormal {
                mu: 8.0,
                sigma: 0.5,
            }),
        };
        let a: Vec<u64> = {
            let mut r = rng();
            (0..50).map(|_| m.sample(&mut r).as_micros()).collect()
        };
        let b: Vec<u64> = {
            let mut r = rng();
            (0..50).map(|_| m.sample(&mut r).as_micros()).collect()
        };
        assert_eq!(a, b);
    }
}

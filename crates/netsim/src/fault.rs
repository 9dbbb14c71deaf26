//! Deterministic fault injection: a [`FaultPlan`] the engine consults on
//! every link transmission.
//!
//! The plan holds its **own** seed — a dedicated seed lane — and no RNG
//! state: its Bernoulli loss is a pure function of that seed and the hop
//! key the engine derives from the packet's cause ([`crate::draw`]). So
//! installing (or removing) a plan perturbs no other draw, a run with no
//! plan installed is byte-identical to a run on a build without this
//! module, and adding or removing a packet moves no other packet's fault.
//! Scheduled windows (outages, latency spikes) are pure functions of
//! simulated time and draw nothing.
//!
//! Three fault classes, mirroring what cellular paths actually do to
//! packets (loss bursts on the RAN, gateway maintenance windows,
//! bufferbloat episodes):
//!
//! * **Bernoulli loss** — extra per-packet drop probability on top of the
//!   topology's own link loss.
//! * **Outage windows** — periodic intervals during which a link drops
//!   every packet.
//! * **Latency spikes** — periodic intervals during which sampled link
//!   latency is scaled and/or padded.

use crate::draw::HopRng;
use crate::time::{SimDuration, SimTime};
use rand::Rng;

/// A periodic time window: active for `duration` once every `period`,
/// starting at `offset` into each period. Purely time-driven — no RNG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// Repetition period. Must be non-zero for the window to ever match.
    pub period: SimDuration,
    /// Start of the active interval within each period.
    pub offset: SimDuration,
    /// Length of the active interval.
    pub duration: SimDuration,
}

impl Window {
    /// Whether `now` falls inside an active interval.
    pub fn contains(&self, now: SimTime) -> bool {
        let period = self.period.as_micros();
        if period == 0 || self.duration == SimDuration::ZERO {
            return false;
        }
        let phase = now.as_micros() % period;
        let start = self.offset.as_micros() % period;
        let end = start.saturating_add(self.duration.as_micros());
        // A window whose tail crosses the period boundary wraps around.
        if end <= period {
            phase >= start && phase < end
        } else {
            phase >= start || phase < end - period
        }
    }
}

/// A periodic latency-spike episode: while the window is active, sampled
/// link latency is multiplied by `factor_x1000 / 1000` and padded by
/// `extra`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spike {
    /// When the episode recurs.
    pub window: Window,
    /// Latency multiplier in thousandths (1000 = unchanged, 3000 = 3x).
    pub factor_x1000: u64,
    /// Constant padding added on top of the scaled latency.
    pub extra: SimDuration,
}

/// The fault behaviour a [`FaultPlan`] applies to every link.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LinkFault {
    /// Extra Bernoulli drop probability per packet (0.0 = none).
    pub loss: f64,
    /// Periodic total-outage window, if any.
    pub outage: Option<Window>,
    /// Periodic latency-spike episode, if any.
    pub spike: Option<Spike>,
}

impl LinkFault {
    /// Whether this fault can ever do anything.
    pub fn is_active(&self) -> bool {
        self.loss > 0.0 || self.outage.is_some() || self.spike.is_some()
    }
}

/// Counters describing what the plan injected.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FaultStats {
    /// Packets dropped by the Bernoulli loss overlay.
    pub chaos_losses: u64,
    /// Packets dropped inside an outage window.
    pub outage_drops: u64,
    /// Packets whose latency was inflated by a spike episode.
    pub spiked: u64,
}

impl FaultStats {
    /// Folds the fault-injection counters into an [`obs::Registry`] under
    /// the `fault.*` family, labelled with `labels`.
    pub fn export(&self, reg: &mut obs::Registry, labels: &[(&'static str, &str)]) {
        let by_kind: [(&str, u64); 3] = [
            ("chaos_loss", self.chaos_losses),
            ("outage_drop", self.outage_drops),
            ("latency_spike", self.spiked),
        ];
        for (kind, n) in by_kind {
            let mut kl: Vec<(&'static str, &str)> = labels.to_vec();
            kl.push(("kind", kind));
            reg.inc_by("fault.injected", &kl, n);
        }
    }
}

/// A seed-deterministic fault-injection plan, installed into the engine
/// with `Network::install_fault_plan`: one [`LinkFault`] for every link.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Fault applied to every link.
    fault: LinkFault,
    /// Dedicated seed lane for the Bernoulli draws.
    seed: u64,
    /// What the plan has injected so far.
    pub stats: FaultStats,
}

impl FaultPlan {
    /// A plan applying `fault` to every link, drawing from its own seed
    /// lane.
    pub fn new(seed: u64, fault: LinkFault) -> Self {
        FaultPlan {
            fault,
            seed,
            stats: FaultStats::default(),
        }
    }

    /// Whether a packet crossing a link at `now`, with per-hop key
    /// `hop_key`, should be dropped. Outage windows are checked first;
    /// only a configured Bernoulli loss makes a draw, keyed by the plan's
    /// seed and `hop_key`, so an inert plan costs nothing.
    pub fn should_drop(&mut self, now: SimTime, hop_key: u64) -> bool {
        if let Some(w) = &self.fault.outage {
            if w.contains(now) {
                self.stats.outage_drops += 1;
                return true;
            }
        }
        let loss = self.fault.loss;
        if loss > 0.0 && HopRng::new(self.seed ^ hop_key).gen::<f64>() < loss {
            self.stats.chaos_losses += 1;
            return true;
        }
        false
    }

    /// Extra latency a packet crossing a link at `now` incurs on top of
    /// the engine-sampled `base` latency. Zero outside spike episodes.
    pub fn extra_latency(&mut self, now: SimTime, base: SimDuration) -> SimDuration {
        let Some(spike) = self.fault.spike else {
            return SimDuration::ZERO;
        };
        if !spike.window.contains(now) {
            return SimDuration::ZERO;
        }
        self.stats.spiked += 1;
        let scaled = base
            .as_micros()
            .saturating_mul(spike.factor_x1000.saturating_sub(1_000))
            / 1_000;
        SimDuration::from_micros(scaled) + spike.extra
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(period_s: u64, offset_s: u64, dur_s: u64) -> Window {
        Window {
            period: SimDuration::from_secs(period_s),
            offset: SimDuration::from_secs(offset_s),
            duration: SimDuration::from_secs(dur_s),
        }
    }

    #[test]
    fn window_matches_periodically() {
        let w = window(100, 10, 5);
        assert!(!w.contains(SimTime::from_micros(0)));
        assert!(w.contains(SimTime::ZERO + SimDuration::from_secs(10)));
        assert!(w.contains(SimTime::ZERO + SimDuration::from_secs(14)));
        assert!(!w.contains(SimTime::ZERO + SimDuration::from_secs(15)));
        // Next period.
        assert!(w.contains(SimTime::ZERO + SimDuration::from_secs(112)));
    }

    #[test]
    fn window_wraps_across_period_boundary() {
        let w = window(100, 98, 5);
        assert!(w.contains(SimTime::ZERO + SimDuration::from_secs(99)));
        assert!(w.contains(SimTime::ZERO + SimDuration::from_secs(102)));
        assert!(!w.contains(SimTime::ZERO + SimDuration::from_secs(103)));
    }

    #[test]
    fn degenerate_window_never_matches() {
        let w = window(0, 0, 10);
        assert!(!w.contains(SimTime::ZERO));
        let w = window(100, 0, 0);
        assert!(!w.contains(SimTime::ZERO));
    }

    #[test]
    fn inert_plan_drops_nothing_and_draws_nothing() {
        let mut inert = FaultPlan::new(7, LinkFault::default());
        for k in 0..100 {
            assert!(!inert.should_drop(SimTime::ZERO, k));
            assert_eq!(
                inert.extra_latency(SimTime::ZERO, SimDuration::from_millis(5)),
                SimDuration::ZERO
            );
        }
        assert_eq!(inert.stats, FaultStats::default());
        // The loss draw is a pure function of seed and hop key: two plans
        // with the same seed agree, whatever either did before.
        let fault = LinkFault {
            loss: 0.5,
            ..LinkFault::default()
        };
        let mut a = FaultPlan::new(7, fault);
        let mut b = FaultPlan::new(7, fault);
        for k in 100..200 {
            a.should_drop(SimTime::ZERO, k);
        }
        let da: Vec<bool> = (0..32).map(|k| a.should_drop(SimTime::ZERO, k)).collect();
        let db: Vec<bool> = (0..32).map(|k| b.should_drop(SimTime::ZERO, k)).collect();
        assert_eq!(da, db);
        assert!(da.iter().any(|&d| d) && da.iter().any(|&d| !d));
    }

    #[test]
    fn outage_drops_without_consuming_rng() {
        let fault = LinkFault {
            loss: 0.5,
            outage: Some(window(100, 0, 100)),
            ..LinkFault::default()
        };
        let mut always_out = FaultPlan::new(3, fault);
        for k in 0..10 {
            assert!(always_out.should_drop(SimTime::ZERO, k));
        }
        assert_eq!(always_out.stats.outage_drops, 10);
        assert_eq!(always_out.stats.chaos_losses, 0);
    }

    #[test]
    fn spike_scales_and_pads_latency() {
        let spike = Spike {
            window: window(100, 0, 50),
            factor_x1000: 3_000,
            extra: SimDuration::from_millis(40),
        };
        let mut plan = FaultPlan::new(
            1,
            LinkFault {
                spike: Some(spike),
                ..LinkFault::default()
            },
        );
        let base = SimDuration::from_millis(10);
        // Inside the window: 10ms * (3000-1000)/1000 + 40ms = 60ms extra.
        assert_eq!(
            plan.extra_latency(SimTime::ZERO, base),
            SimDuration::from_millis(60)
        );
        // Outside the window: nothing.
        assert_eq!(
            plan.extra_latency(SimTime::ZERO + SimDuration::from_secs(60), base),
            SimDuration::ZERO
        );
        assert_eq!(plan.stats.spiked, 1);
    }
}

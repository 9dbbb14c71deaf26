//! Radio access technologies: per-technology latency models and the RRC
//! state machine.
//!
//! Fig. 3 of the paper shows DNS resolution time forming distinct bands per
//! radio technology, with LTE lowest and most stable and 1xRTT taking close
//! to a second. The one-way access latency models below are calibrated so
//! that `2 × access + core path` lands in those bands (see EXPERIMENTS.md).
//! RRC promotion delays follow Huang et al. (MobiSys'12), which is why the
//! paper's experiments begin with a bootstrap ping.

use netsim::latency::{LatencyModel, LogNormal};
use netsim::time::{SimDuration, SimTime};

/// Radio access technologies observed in the study (§3.3: "7 different
/// radio technologies were reported from users within both Verizon and
/// Sprint").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RadioTech {
    /// 4G LTE.
    Lte,
    /// HSPA+ (3.75G, GSM lineage).
    Hspap,
    /// HSUPA.
    Hsupa,
    /// HSPA.
    Hspa,
    /// HSDPA.
    Hsdpa,
    /// UMTS (3G GSM lineage).
    Umts,
    /// EDGE (2.75G).
    Edge,
    /// GPRS (2.5G).
    Gprs,
    /// eHRPD (CDMA lineage bridge to LTE).
    Ehrpd,
    /// EV-DO Rev. A (3G CDMA lineage).
    EvdoA,
    /// 1xRTT (2.5G CDMA lineage).
    OneXRtt,
}

impl RadioTech {
    /// Short uppercase label as the paper's figures print it.
    pub fn label(self) -> &'static str {
        match self {
            RadioTech::Lte => "LTE",
            RadioTech::Hspap => "HSPAP",
            RadioTech::Hsupa => "HSUPA",
            RadioTech::Hspa => "HSPA",
            RadioTech::Hsdpa => "HSDPA",
            RadioTech::Umts => "UMTS",
            RadioTech::Edge => "EDGE",
            RadioTech::Gprs => "GPRS",
            RadioTech::Ehrpd => "EHRPD",
            RadioTech::EvdoA => "EVDO_A",
            RadioTech::OneXRtt => "1xRTT",
        }
    }

    /// Technology generation (2, 3, or 4), used for ordering in figures.
    pub fn generation(self) -> u8 {
        match self {
            RadioTech::Lte => 4,
            RadioTech::Hspap
            | RadioTech::Hsupa
            | RadioTech::Hspa
            | RadioTech::Hsdpa
            | RadioTech::Umts
            | RadioTech::Ehrpd
            | RadioTech::EvdoA => 3,
            RadioTech::Edge | RadioTech::Gprs | RadioTech::OneXRtt => 2,
        }
    }

    /// One-way access-latency parameters: (floor ms, median extra ms, sigma).
    fn params(self) -> (u64, f64, f64) {
        match self {
            RadioTech::Lte => (8, 7.0, 0.45),
            RadioTech::Hspap => (12, 10.0, 0.55),
            RadioTech::Hsupa => (20, 16.0, 0.6),
            RadioTech::Hspa => (18, 15.0, 0.6),
            RadioTech::Hsdpa => (25, 20.0, 0.65),
            RadioTech::Umts => (60, 35.0, 0.7),
            RadioTech::Edge => (150, 60.0, 0.75),
            RadioTech::Gprs => (250, 90.0, 0.8),
            RadioTech::Ehrpd => (30, 12.0, 0.55),
            RadioTech::EvdoA => (50, 25.0, 0.65),
            RadioTech::OneXRtt => (400, 110.0, 0.6),
        }
    }

    /// The one-way access latency model for this technology.
    pub fn latency_model(self) -> LatencyModel {
        let (floor_ms, extra_ms, sigma) = self.params();
        LatencyModel {
            base: SimDuration::from_millis(floor_ms),
            jitter: Some(LogNormal {
                mu: (extra_ms * 1000.0).ln(),
                sigma,
            }),
        }
    }

    /// Per-traversal packet-loss probability of the radio link. LTE is
    /// clean; 2G technologies lose noticeably more.
    pub fn loss(self) -> f64 {
        match self.generation() {
            4 => 0.002,
            3 => 0.005,
            _ => 0.015,
        }
    }

    /// Nominal downlink capacity of the access link in bits/second.
    pub fn bandwidth_bps(self) -> u64 {
        match self {
            RadioTech::Lte => 20_000_000,
            RadioTech::Hspap => 8_000_000,
            RadioTech::Hsupa => 3_000_000,
            RadioTech::Hspa => 3_500_000,
            RadioTech::Hsdpa => 3_000_000,
            RadioTech::Umts => 384_000,
            RadioTech::Edge => 200_000,
            RadioTech::Gprs => 80_000,
            RadioTech::Ehrpd => 3_000_000,
            RadioTech::EvdoA => 2_400_000,
            RadioTech::OneXRtt => 100_000,
        }
    }

    /// RRC idle→connected promotion delay (paid by the first packet after an
    /// idle period; the experiment's bootstrap ping absorbs it).
    pub fn promotion_delay(self) -> SimDuration {
        match self.generation() {
            4 => SimDuration::from_millis(260),
            3 => SimDuration::from_millis(2000),
            _ => SimDuration::from_millis(2500),
        }
    }

    /// Inactivity tail after which the radio demotes to idle.
    pub fn tail_time(self) -> SimDuration {
        match self.generation() {
            4 => SimDuration::from_secs(10),
            _ => SimDuration::from_secs(5),
        }
    }

    /// All technologies, fastest generation first.
    pub fn all() -> &'static [RadioTech] {
        &[
            RadioTech::Lte,
            RadioTech::Hspap,
            RadioTech::Hsupa,
            RadioTech::Hspa,
            RadioTech::Hsdpa,
            RadioTech::Umts,
            RadioTech::Edge,
            RadioTech::Gprs,
            RadioTech::Ehrpd,
            RadioTech::EvdoA,
            RadioTech::OneXRtt,
        ]
    }
}

/// The RRC state machine for one device: tracks the last radio activity and
/// charges a promotion delay when the radio was idle.
#[derive(Debug, Clone, Copy)]
pub struct RrcState {
    last_activity: Option<SimTime>,
}

impl RrcState {
    /// A fresh (idle) radio.
    pub fn new() -> Self {
        RrcState {
            last_activity: None,
        }
    }

    /// Records activity at `now` and returns the promotion delay the next
    /// packet must pay (zero when the radio was already connected).
    pub fn touch(&mut self, now: SimTime, tech: RadioTech) -> SimDuration {
        let idle = match self.last_activity {
            None => true,
            Some(last) => now.since(last) > tech.tail_time(),
        };
        self.last_activity = Some(now);
        if idle {
            tech.promotion_delay()
        } else {
            SimDuration::ZERO
        }
    }
}

impl Default for RrcState {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn median_ms(tech: RadioTech) -> f64 {
        let model = tech.latency_model();
        let mut rng = StdRng::seed_from_u64(7);
        let mut samples: Vec<u64> = (0..2001)
            .map(|_| model.sample(&mut rng).as_micros())
            .collect();
        samples.sort_unstable();
        samples[1000] as f64 / 1000.0
    }

    #[test]
    fn generations_order_latency() {
        // Median one-way access latency must respect generation bands.
        let lte = median_ms(RadioTech::Lte);
        let hspa = median_ms(RadioTech::Hspa);
        let umts = median_ms(RadioTech::Umts);
        let edge = median_ms(RadioTech::Edge);
        let onex = median_ms(RadioTech::OneXRtt);
        assert!(lte < hspa, "{lte} !< {hspa}");
        assert!(hspa < umts, "{hspa} !< {umts}");
        assert!(umts < edge, "{umts} !< {edge}");
        assert!(edge < onex, "{edge} !< {onex}");
    }

    #[test]
    fn lte_band_is_tight() {
        // LTE one-way latency should be mostly in the 10–50 ms band.
        let model = RadioTech::Lte.latency_model();
        let mut rng = StdRng::seed_from_u64(9);
        let mut within = 0;
        for _ in 0..2000 {
            let ms = model.sample(&mut rng).as_millis_f64();
            if (8.0..=60.0).contains(&ms) {
                within += 1;
            }
        }
        assert!(within > 1900, "only {within}/2000 in band");
    }

    #[test]
    fn one_x_rtt_approaches_a_second_round_trip() {
        let m = median_ms(RadioTech::OneXRtt);
        // 2 * one-way ≈ 1s, matching Fig. 3's 1xRTT band.
        assert!((350.0..700.0).contains(&m), "median {m}");
    }

    #[test]
    fn rrc_promotion_charged_once() {
        let mut rrc = RrcState::new();
        let t0 = SimTime::from_micros(1_000_000);
        let d1 = rrc.touch(t0, RadioTech::Lte);
        assert_eq!(d1, SimDuration::from_millis(260));
        let d2 = rrc.touch(t0 + SimDuration::from_secs(1), RadioTech::Lte);
        assert_eq!(d2, SimDuration::ZERO);
    }

    #[test]
    fn rrc_demotes_after_tail() {
        let mut rrc = RrcState::new();
        let t0 = SimTime::from_micros(1_000_000);
        rrc.touch(t0, RadioTech::Lte);
        let t1 = t0 + SimDuration::from_secs(5);
        assert_eq!(rrc.touch(t1, RadioTech::Lte), SimDuration::ZERO);
        let d = rrc.touch(t1 + SimDuration::from_secs(11), RadioTech::Lte);
        assert!(d > SimDuration::ZERO);
    }

    #[test]
    fn promotion_is_worse_on_3g() {
        assert!(RadioTech::Umts.promotion_delay() > RadioTech::Lte.promotion_delay());
    }

    #[test]
    fn bandwidth_orders_by_generation() {
        assert!(RadioTech::Lte.bandwidth_bps() > RadioTech::Hspa.bandwidth_bps());
        assert!(RadioTech::Hspa.bandwidth_bps() > RadioTech::Umts.bandwidth_bps());
        assert!(RadioTech::Umts.bandwidth_bps() > RadioTech::Gprs.bandwidth_bps());
    }

    #[test]
    fn loss_orders_by_generation() {
        assert!(RadioTech::Lte.loss() < RadioTech::Umts.loss());
        assert!(RadioTech::Umts.loss() < RadioTech::Gprs.loss());
        for t in RadioTech::all() {
            assert!((0.0..0.05).contains(&t.loss()));
        }
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::HashSet<_> =
            RadioTech::all().iter().map(|t| t.label()).collect();
        assert_eq!(labels.len(), RadioTech::all().len());
    }
}

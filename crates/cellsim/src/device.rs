//! Devices: radio state, bearer (gateway + IP + configured resolver), and
//! the churn processes behind §4.5 — IP reassignment while stationary,
//! bearer re-homing to other gateways, and commuter mobility.

use crate::build::CarrierNet;
use crate::profile::CarrierProfile;
use crate::radio::{RadioTech, RrcState};
use netsim::engine::Network;
use netsim::time::{SimDuration, SimTime};
use netsim::topo::{Coord, NodeId, Topology};
use rand::rngs::StdRng;
use rand::Rng;
use std::net::Ipv4Addr;

/// Movement pattern of a device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mobility {
    /// Never leaves its home location (the Fig. 9 population).
    Static,
    /// Alternates daily between home and a second location.
    Commuter {
        /// The other location.
        alt: Coord,
    },
}

/// One measurement device.
#[derive(Debug, Clone)]
pub struct Device {
    /// Fleet-wide device id.
    pub id: usize,
    /// Carrier index.
    pub carrier: usize,
    /// The device's node in the topology.
    pub node: NodeId,
    /// Its radio access link.
    pub radio_link: usize,
    /// Home location.
    pub home: Coord,
    /// Movement pattern.
    pub mobility: Mobility,
    /// Whether a commuter is currently at its alternate location.
    pub at_alt: bool,
    /// Active radio technology.
    pub tech: RadioTech,
    /// RRC state machine.
    pub rrc: RrcState,
    /// Index of the currently attached gateway site.
    pub site: usize,
    /// Current (private) IP address.
    pub ip: Ipv4Addr,
    /// Resolver address configured on the device by the bearer.
    pub configured_dns: Ipv4Addr,
    /// When the next IP reassignment is due.
    pub next_ip_change: SimTime,
}

impl Device {
    /// Current physical location.
    pub fn coord(&self) -> Coord {
        match (self.mobility, self.at_alt) {
            (Mobility::Commuter { alt }, true) => alt,
            _ => self.home,
        }
    }

    /// Whether the device never moves (Fig. 9's static filter).
    pub fn is_static(&self) -> bool {
        matches!(self.mobility, Mobility::Static)
    }

    /// Applies the current radio technology to the access link (latency
    /// model, loss rate, and capacity).
    pub fn apply_radio(&self, topo: &mut Topology) {
        topo.set_link_latency(self.radio_link, self.tech.latency_model());
        topo.set_link_loss(self.radio_link, self.tech.loss());
        topo.set_link_bandwidth(self.radio_link, Some(self.tech.bandwidth_bps()));
    }

    /// Possibly resamples the radio technology (between experiments devices
    /// mostly stay on their current radio; §3.3).
    pub fn maybe_resample_radio(
        &mut self,
        profile: &CarrierProfile,
        topo: &mut Topology,
        rng: &mut StdRng,
    ) {
        if rng.gen_bool(profile.radio_stickiness) {
            return;
        }
        let mix = profile.tech_mix();
        let roll: f64 = rng.gen();
        let mut acc = 0.0;
        let mut chosen = mix[0].0;
        for &(tech, p) in mix {
            acc += p;
            if roll < acc {
                chosen = tech;
                break;
            }
        }
        if chosen != self.tech {
            self.tech = chosen;
            self.apply_radio(topo);
            self.rrc = RrcState::new();
        }
    }

    /// Wakes the radio for an experiment; returns the promotion delay the
    /// bootstrap ping will absorb.
    pub fn wake_radio(&mut self, now: SimTime) -> SimDuration {
        self.rrc.touch(now, self.tech)
    }

    /// Reassigns the device's private IP (Balakrishnan et al.'s ephemeral
    /// addressing). Also re-picks the configured resolver with probability
    /// `redns_prob`, as bearer re-establishment does.
    pub fn reassign_ip(
        &mut self,
        net: &mut Network,
        carrier: &mut CarrierNet,
        rng: &mut StdRng,
        now: SimTime,
        redns_prob: f64,
    ) {
        let new_ip = carrier.alloc_device_ip(self.site);
        net.topo_mut().replace_addr(self.node, self.ip, new_ip);
        carrier.release_device_ip(self.ip);
        self.ip = new_ip;
        if rng.gen_bool(redns_prob.clamp(0.0, 1.0)) {
            self.configured_dns = carrier.pick_configured_dns(rng, self.coord());
        }
        let mean_us = carrier.profile.ip_reassign_mean.as_micros().max(1);
        // Exponential inter-arrival around the profile mean.
        let jitter: f64 = -rng.gen_range(1e-9_f64..1.0).ln();
        self.next_ip_change =
            now + SimDuration::from_micros((mean_us as f64 * jitter).floor() as u64);
    }

    /// Re-homes the bearer onto `new_site` and establishes a fresh PDP
    /// context there (new IP from the new site's pool). O(1), no route rebuild.
    pub fn reattach(&mut self, net: &mut Network, carrier: &mut CarrierNet, new_site: usize) {
        if new_site == self.site {
            return;
        }
        net.rehome_stub(self.radio_link, self.node, carrier.sites[new_site].agg);
        self.site = new_site;
        let new_ip = carrier.alloc_device_ip(new_site);
        net.topo_mut().replace_addr(self.node, self.ip, new_ip);
        carrier.release_device_ip(self.ip);
        self.ip = new_ip;
    }

    /// Daily churn pass: commuter movement, gateway re-homing, configured-
    /// resolver refresh.
    pub fn daily_churn(&mut self, net: &mut Network, carrier: &mut CarrierNet, rng: &mut StdRng) {
        if let Mobility::Commuter { .. } = self.mobility {
            self.at_alt = !self.at_alt;
            let best = carrier.nearest_site(self.coord());
            self.reattach(net, carrier, best);
        }
        if rng.gen_bool(carrier.profile.gateway_reattach_daily_prob.clamp(0.0, 1.0)) {
            // Re-home to a random nearby site (internal re-balancing; this
            // happens to stationary devices too — §4.5, Fig. 9).
            let n = carrier.sites.len();
            if n > 1 {
                let mut candidate = rng.gen_range(0..n);
                if candidate == self.site {
                    candidate = (candidate + 1) % n;
                }
                self.reattach(net, carrier, candidate);
            }
            self.configured_dns = carrier.pick_configured_dns(rng, self.coord());
        }
    }
}

/// Creates and attaches the fleet for one carrier. Device homes cluster
/// around gateway sites; roughly one in five devices commutes.
pub fn create_devices(
    topo: &mut Topology,
    carrier: &mut CarrierNet,
    first_id: usize,
    rng: &mut StdRng,
) -> Vec<Device> {
    let n = carrier.profile.client_count;
    let mut devices = Vec::with_capacity(n);
    for i in 0..n {
        let site_idx = rng.gen_range(0..carrier.sites.len());
        let site_coord = carrier.sites[site_idx].coord;
        let home = Coord {
            x_km: site_coord.x_km + rng.gen_range(-40.0..40.0),
            y_km: site_coord.y_km + rng.gen_range(-40.0..40.0),
        };
        let mobility = if rng.gen_bool(0.2) {
            let other = carrier.sites[rng.gen_range(0..carrier.sites.len())].coord;
            Mobility::Commuter {
                alt: Coord {
                    x_km: other.x_km + rng.gen_range(-40.0..40.0),
                    y_km: other.y_km + rng.gen_range(-40.0..40.0),
                },
            }
        } else {
            Mobility::Static
        };
        let site = carrier.nearest_site(home);
        let ip = carrier.alloc_device_ip(site);
        let node = topo.add_node(
            format!("{}-dev-{i}", carrier.profile.name),
            netsim::topo::NodeKind::Host,
            netsim::topo::Asn(carrier.profile.asn),
            home,
            vec![ip],
        );
        let tech = carrier.profile.tech_mix()[0].0; // start on LTE
        let radio_link = topo.add_link(node, carrier.sites[site].agg, tech.latency_model());
        topo.set_link_loss(radio_link, tech.loss());
        topo.set_link_bandwidth(radio_link, Some(tech.bandwidth_bps()));
        let configured_dns = carrier.pick_configured_dns(rng, home);
        devices.push(Device {
            id: first_id + i,
            carrier: carrier.index,
            node,
            radio_link,
            home,
            mobility,
            at_alt: false,
            tech,
            rrc: RrcState::new(),
            site,
            ip,
            configured_dns,
            next_ip_change: SimTime::ZERO, // first reassignment scheduled on attach
        });
    }
    devices
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_carrier, GeoRegion};
    use crate::profile::six_carriers;
    use netsim::latency::LatencyModel;
    use netsim::route::CoreRoutes;
    use netsim::topo::{Asn, NodeKind};
    use rand::SeedableRng;

    fn world() -> (Network, CarrierNet, Vec<Device>) {
        let mut topo = Topology::new();
        let pop = topo.add_node(
            "pop",
            NodeKind::Router,
            Asn(3356),
            Coord {
                x_km: 2000.0,
                y_km: 1200.0,
            },
            vec![Ipv4Addr::new(80, 0, 0, 1)],
        );
        let mut rng = StdRng::seed_from_u64(11);
        let profile = six_carriers().remove(0); // AT&T
        let mut carrier = build_carrier(
            &mut topo,
            0,
            profile,
            GeoRegion::us(),
            &[(
                pop,
                Coord {
                    x_km: 2000.0,
                    y_km: 1200.0,
                },
            )],
            &mut rng,
        );
        let devices = create_devices(&mut topo, &mut carrier, 0, &mut rng);
        let net = Network::new(topo, 5);
        (net, carrier, devices)
    }

    #[test]
    fn fleet_size_matches_profile() {
        let (_, carrier, devices) = world();
        assert_eq!(devices.len(), carrier.profile.client_count);
        let statics = devices.iter().filter(|d| d.is_static()).count();
        assert!(statics > devices.len() / 2, "most devices are static");
    }

    #[test]
    fn devices_attach_to_their_nearest_site() {
        let (_, carrier, devices) = world();
        for d in &devices {
            assert_eq!(d.site, carrier.nearest_site(d.home));
        }
    }

    #[test]
    fn ip_reassignment_swaps_the_node_address() {
        let (mut net, mut carrier, mut devices) = world();
        let d = &mut devices[0];
        let old_ip = d.ip;
        let mut rng = StdRng::seed_from_u64(3);
        d.reassign_ip(&mut net, &mut carrier, &mut rng, SimTime::ZERO, 0.0);
        assert_ne!(d.ip, old_ip);
        assert_eq!(net.topo().owner_of(d.ip), Some(d.node));
        assert_eq!(net.topo().owner_of(old_ip), None);
        assert!(d.next_ip_change > SimTime::ZERO);
    }

    #[test]
    fn reattach_moves_the_radio_link() {
        let (mut net, mut carrier, mut devices) = world();
        let d = &mut devices[0];
        let old_ip = d.ip;
        let new_site = (d.site + 1) % carrier.sites.len();
        d.reattach(&mut net, &mut carrier, new_site);
        // Bearer re-establishment also assigns an IP from the new site pool.
        assert_ne!(d.ip, old_ip);
        assert_eq!((d.ip.octets()[2] / 2) as usize, new_site);
        assert_eq!(d.site, new_site);
        let link = net.topo().link(d.radio_link);
        let peer = if link.a == d.node { link.b } else { link.a };
        assert_eq!(peer, carrier.sites[new_site].agg);
    }

    #[test]
    fn reattached_device_is_reached_through_its_new_site() {
        let (mut net, mut carrier, mut devices) = world();
        let pop = NodeId(0);
        // Routes as they stood before the re-home; nothing recomputes them.
        let routes = CoreRoutes::build(net.topo());
        let d = &mut devices[0];
        let new_site = (d.site + 1) % carrier.sites.len();
        d.reattach(&mut net, &mut carrier, new_site);
        let trace = net.traceroute(pop, d.ip, 16);
        assert!(trace.reached, "traceroute never reached {}", d.ip);
        // The sites' aggregation nodes are label-switched and silent in the
        // traceroute, so walk the old table to the device instead.
        let mut path = vec![pop];
        while let Some(hop) = routes.next_hop(net.topo(), *path.last().unwrap(), d.node) {
            path.push(hop.node);
            assert!(path.len() <= 64, "route loops: {path:?}");
        }
        assert_eq!(path.last(), Some(&d.node), "route stops short: {path:?}");
        assert_eq!(path[path.len() - 2], carrier.sites[new_site].agg);
        assert_eq!(net.ping_train(pop, d.ip, 3).rtts.len(), 3);
    }

    #[test]
    fn radio_resampling_respects_stickiness() {
        let (mut net, carrier, mut devices) = world();
        let mut rng = StdRng::seed_from_u64(9);
        let mut changes = 0;
        let d = &mut devices[0];
        for _ in 0..200 {
            let before = d.tech;
            d.maybe_resample_radio(&carrier.profile, net.topo_mut(), &mut rng);
            if d.tech != before {
                changes += 1;
            }
        }
        // stickiness 0.90 and LTE-heavy mix: only a handful of switches.
        assert!(changes > 0, "radio never changed");
        assert!(changes < 30, "radio changed {changes} times");
    }

    #[test]
    fn wake_radio_charges_promotion_once() {
        let (_, _, mut devices) = world();
        let d = &mut devices[0];
        let t = SimTime::from_micros(1);
        assert!(d.wake_radio(t) > SimDuration::ZERO);
        assert_eq!(
            d.wake_radio(t + SimDuration::from_secs(1)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn daily_churn_eventually_rehomes_static_devices() {
        let (mut net, mut carrier, mut devices) = world();
        let mut rng = StdRng::seed_from_u64(21);
        let d = devices.iter_mut().find(|d| d.is_static()).unwrap();
        let before = d.site;
        let mut moved = false;
        for _ in 0..30 {
            d.daily_churn(&mut net, &mut carrier, &mut rng);
            if d.site != before {
                moved = true;
                break;
            }
        }
        assert!(moved, "static device never re-homed in 30 days");
    }

    #[test]
    fn apply_radio_changes_link_model() {
        let (mut net, _, mut devices) = world();
        let d = &mut devices[0];
        d.tech = RadioTech::OneXRtt;
        d.apply_radio(net.topo_mut());
        let model = net.topo().link(d.radio_link).latency.clone();
        assert_eq!(model, RadioTech::OneXRtt.latency_model());
        assert!(model != LatencyModel::constant_ms(1));
    }
}

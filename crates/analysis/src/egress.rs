//! Egress-point detection (§5.2): "we calculated the number of egress
//! points observed by our clients by looking for the first traceroute hop
//! outside a mobile operator's network, taking the previous hop as the
//! network egress point."

use measure::record::Dataset;
use netsim::addr::Prefix;
use std::collections::BTreeSet;
use std::net::Ipv4Addr;

/// All egress points observed for one carrier across the traceroute corpus.
pub fn egress_points(ds: &Dataset, carrier: usize) -> BTreeSet<Ipv4Addr> {
    let inside = ds.carrier_public.get(carrier).copied();
    let mut points = BTreeSet::new();
    for r in ds.of_carrier(carrier) {
        for p in &r.replica_probes {
            if let Some(e) = egress_of_trace(&p.trace_hops, inside) {
                points.insert(e);
            }
        }
    }
    points
}

/// The egress point of one traceroute: the last responding in-carrier hop
/// immediately before the first out-of-carrier hop.
pub fn egress_of_trace(hops: &[Ipv4Addr], inside: Option<Prefix>) -> Option<Ipv4Addr> {
    let inside = inside?;
    let mut last_inside: Option<Ipv4Addr> = None;
    for &hop in hops {
        if inside.contains(hop) {
            last_inside = Some(hop);
        } else if let Some(e) = last_inside {
            return Some(e);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
        Ipv4Addr::new(a, b, c, d)
    }

    fn inside() -> Option<Prefix> {
        Some("100.0.0.0/8".parse().unwrap())
    }

    #[test]
    fn finds_last_inside_hop_before_exit() {
        let hops = vec![
            ip(100, 1, 3, 1), // carrier egress router
            ip(80, 0, 4, 1),  // backbone
            ip(90, 0, 2, 1),  // replica
        ];
        assert_eq!(egress_of_trace(&hops, inside()), Some(ip(100, 1, 3, 1)));
    }

    #[test]
    fn silent_interiors_do_not_confuse_detection() {
        // Transparent MPLS hops do not respond, so the first responding hop
        // is already the egress router.
        let hops = vec![ip(100, 1, 7, 1), ip(80, 0, 0, 1)];
        assert_eq!(egress_of_trace(&hops, inside()), Some(ip(100, 1, 7, 1)));
    }

    #[test]
    fn no_exit_means_no_egress() {
        let hops = vec![ip(100, 1, 3, 1), ip(100, 1, 4, 1)];
        assert_eq!(egress_of_trace(&hops, inside()), None);
        assert_eq!(egress_of_trace(&[], inside()), None);
    }

    #[test]
    fn trace_that_starts_outside_yields_none() {
        let hops = vec![ip(80, 0, 0, 1), ip(90, 0, 1, 1)];
        assert_eq!(egress_of_trace(&hops, inside()), None);
    }

    #[test]
    fn missing_prefix_yields_none() {
        let hops = vec![ip(100, 1, 3, 1), ip(80, 0, 0, 1)];
        assert_eq!(egress_of_trace(&hops, None), None);
    }
}

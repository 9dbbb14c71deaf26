//! Property-based tests for the CDN model: selection determinism, /24
//! stability, believed-location bounds.

use cdnsim::cdn::{Cdn, Replica, ANCHOR_ERROR_KM, COARSE_ERROR_KM, TOP_K};
use netsim::addr::Prefix;
use netsim::topo::Coord;
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn grid_cdn() -> Cdn {
    let replicas: Vec<Replica> = (0..30)
        .map(|i| Replica {
            addr: Ipv4Addr::new(90, 0, i as u8, 1),
            coord: Coord {
                x_km: (i % 6) as f64 * 700.0,
                y_km: (i / 6) as f64 * 500.0,
            },
        })
        .collect();
    Cdn::new("prop", replicas)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn selection_is_deterministic_and_sized(octets in any::<[u8; 4]>()) {
        let cdn = grid_cdn();
        let addr = Ipv4Addr::from(octets);
        let a = cdn.select(addr);
        let b = cdn.select(addr);
        prop_assert_eq!(&a, &b, "selection not deterministic");
        prop_assert_eq!(a.len(), TOP_K);
        // No duplicate replicas in one answer.
        let set: std::collections::BTreeSet<_> = a.iter().collect();
        prop_assert_eq!(set.len(), a.len());
    }

    #[test]
    fn same_slash24_always_gets_the_same_set(net in any::<[u8; 3]>(), h1 in any::<u8>(), h2 in any::<u8>()) {
        let cdn = grid_cdn();
        let a = Ipv4Addr::new(net[0], net[1], net[2], h1);
        let b = Ipv4Addr::new(net[0], net[1], net[2], h2);
        prop_assert_eq!(cdn.select(a), cdn.select(b));
    }

    #[test]
    fn believed_location_error_is_bounded(octets in any::<[u8; 4]>()) {
        let mut cdn = grid_cdn();
        let centroid = Coord { x_km: 2000.0, y_km: 1000.0 };
        cdn.add_coarse_centroid(octets[0], centroid);
        let addr = Ipv4Addr::from(octets);
        let loc = cdn.believed_location(addr);
        let err = COARSE_ERROR_KM;
        prop_assert!((loc.x_km - centroid.x_km).abs() <= err + 1e-9);
        prop_assert!((loc.y_km - centroid.y_km).abs() <= err + 1e-9);
    }

    #[test]
    fn anchors_tighten_the_error(octets in any::<[u8; 4]>()) {
        let mut cdn = grid_cdn();
        let anchor = Coord { x_km: 700.0, y_km: 500.0 };
        let addr = Ipv4Addr::from(octets);
        cdn.add_prefix_anchor(Prefix::slash24_of(addr), anchor);
        let loc = cdn.believed_location(addr);
        let err = ANCHOR_ERROR_KM;
        prop_assert!((loc.x_km - anchor.x_km).abs() <= err + 1e-9);
        prop_assert!((loc.y_km - anchor.y_km).abs() <= err + 1e-9);
    }

    #[test]
    fn measured_prefixes_are_exact(octets in any::<[u8; 4]>(), x in 0.0f64..4000.0, y in 0.0f64..2000.0) {
        let mut cdn = grid_cdn();
        let addr = Ipv4Addr::from(octets);
        let here = Coord { x_km: x, y_km: y };
        cdn.add_measured(Prefix::slash24_of(addr), here);
        let loc = cdn.believed_location(addr);
        prop_assert_eq!(loc.x_km, x);
        prop_assert_eq!(loc.y_km, y);
        // The selected replica is the true nearest one.
        let nearest = cdn
            .replicas
            .iter()
            .min_by(|a, b| {
                a.coord
                    .distance_km(&here)
                    .partial_cmp(&b.coord.distance_km(&here))
                    .unwrap()
            })
            .unwrap()
            .addr;
        prop_assert_eq!(cdn.select(addr)[0], nearest);
    }
}

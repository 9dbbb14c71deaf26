//! The measured domain catalog (Table 2) and its assignment to CDN
//! providers.
//!
//! The paper measured nine popular mobile domains, "chosen given their
//! popularity and because their DNS resolution initially resulted in a
//! canonical name (CNAME) record, indicating the use of DNS based load
//! balancing". The OCR of the paper preserves `m.yelp.com` in Table 2 and
//! `buzzfeed.com` in Fig. 10; the remaining entries are reconstructed from
//! the popular-mobile-web population of 2014 (see EXPERIMENTS.md).

use dnswire::name::DnsName;

/// A domain under measurement and the CDN provider serving it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogEntry {
    /// The domain the devices resolve (e.g. `m.yelp.com`).
    pub domain: DnsName,
    /// The registrable zone it lives in (what gets delegated).
    pub zone: DnsName,
    /// Index of the CDN provider serving it.
    pub provider: usize,
}

/// Number of distinct CDN providers in the catalog.
pub const PROVIDER_COUNT: usize = 4;

/// Provider display names (Akamai-like, EdgeCast-like, CloudFront-like, and
/// a small self-hosted footprint).
pub const PROVIDER_NAMES: [&str; PROVIDER_COUNT] = ["cdn-a", "cdn-b", "cdn-c", "cdn-d"];

/// The nine mobile domains of Table 2.
#[expect(
    clippy::expect_used,
    reason = "parses the literal table below, every name of which is valid"
)]
pub fn mobile_domains() -> Vec<CatalogEntry> {
    let raw: [(&str, &str, usize); 9] = [
        ("m.facebook.com", "facebook.com", 0),
        ("www.buzzfeed.com", "buzzfeed.com", 0),
        ("m.espn.go.com", "go.com", 0),
        ("m.yelp.com", "yelp.com", 1),
        ("m.twitter.com", "twitter.com", 1),
        ("www.google.com", "google.com", 2),
        ("m.youtube.com", "youtube.com", 2),
        ("m.amazon.com", "amazon.com", 2),
        ("en.m.wikipedia.org", "wikipedia.org", 3),
    ];
    raw.iter()
        .map(|(d, z, p)| CatalogEntry {
            domain: DnsName::parse(d).expect("valid catalog domain"),
            zone: DnsName::parse(z).expect("valid catalog zone"),
            provider: *p,
        })
        .collect()
}

/// The four domains Fig. 2 plots (one per provider, including the two
/// names recoverable from the paper text).
#[expect(
    clippy::expect_used,
    reason = "parses the four literal names below, each of them valid"
)]
pub fn fig2_domains() -> Vec<DnsName> {
    [
        "www.buzzfeed.com",
        "m.yelp.com",
        "www.google.com",
        "en.m.wikipedia.org",
    ]
    .iter()
    .map(|d| DnsName::parse(d).expect("valid domain"))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nine_domains_as_in_table_2() {
        let cat = mobile_domains();
        assert_eq!(cat.len(), 9);
    }

    #[test]
    fn paper_verifiable_entries_present() {
        let cat = mobile_domains();
        assert!(cat.iter().any(|e| e.domain.to_string() == "m.yelp.com"));
        assert!(cat
            .iter()
            .any(|e| e.domain.to_string() == "www.buzzfeed.com"));
    }

    #[test]
    fn providers_are_in_range_and_all_used() {
        let cat = mobile_domains();
        let mut used = [false; PROVIDER_COUNT];
        for e in &cat {
            assert!(e.provider < PROVIDER_COUNT);
            used[e.provider] = true;
        }
        assert!(used.iter().all(|&u| u), "every provider serves something");
    }

    #[test]
    fn domains_are_under_their_zones() {
        for e in mobile_domains() {
            assert!(e.domain.is_under(&e.zone), "{} !< {}", e.domain, e.zone);
        }
    }

    #[test]
    fn fig2_domains_are_in_the_catalog() {
        let cat = mobile_domains();
        for d in fig2_domains() {
            assert!(cat.iter().any(|e| e.domain == d), "{d}");
        }
    }
}

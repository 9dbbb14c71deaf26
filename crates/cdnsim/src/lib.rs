#![warn(missing_docs)]

//! `cdnsim` — the content-delivery substrate of the *Behind the Curtain*
//! reproduction: replica POPs, the resolver-/24-keyed mapping policy the
//! paper deduced from its cosine-similarity analysis, and the authoritative
//! mapping zones that answer device queries with CNAME + short-TTL A
//! records.
//!
//! The key modeled mechanism: CDNs localize clients by their **resolver's
//! /24 prefix**. Prefixes the CDN can probe are mapped well; cellular
//! resolver prefixes are unreachable (§4.4), so the CDN's believed location
//! carries a stable per-prefix error — and every churn of a device's
//! external resolver across /24s (§4.5) re-rolls its replica set, producing
//! the latency inflation of Fig. 2.

pub mod catalog;
pub mod cdn;
pub mod edge;
pub mod mapping;

pub use catalog::{fig2_domains, mobile_domains, CatalogEntry, PROVIDER_COUNT, PROVIDER_NAMES};
pub use cdn::{Cdn, Replica};
pub use edge::EdgeZone;
pub use mapping::MappingZone;

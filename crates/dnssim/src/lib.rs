#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

//! `dnssim` — DNS services over the `netsim` substrate: authoritative
//! servers (static, dynamic, and whoami zones), caching recursive resolvers
//! with full iterative resolution, client-facing forwarders with the
//! mapping policies behind the paper's Table 3, and the client driver the
//! measurement suite uses.
//!
//! The pieces compose into the indirect resolver architectures the paper
//! found in every carrier (§4.1):
//!
//! * **Anycast client VIP** — `netsim`'s anycast + one service per instance.
//! * **LDNS pools** — [`forwarder::Forwarder`] with
//!   [`forwarder::UpstreamPolicy::PerClientLease`].
//! * **Tiered resolvers** — a forwarder node in one AS relaying to a
//!   [`recursive::RecursiveResolver`] in another.

pub mod authority;
pub mod cache;
pub mod client;
pub mod forwarder;
pub mod hierarchy;
pub mod recursive;
pub mod tcp;
pub mod txn;
pub mod zone;

pub use authority::{AuthoritativeServer, DynamicZone, WhoamiZone, DNS_PORT};
pub use cache::{AmbientModel, CacheOutcome, DnsCache};
pub use client::{
    exchange, exchange_tcp, resolve, resolve_tcp, resolve_with, whoami, whoami_with, ClientPolicy,
    DnsLookup, Outcome, RawLookup, QUERY_TIMEOUT,
};
pub use forwarder::{Forwarder, UpstreamPolicy};
pub use hierarchy::{BuiltHierarchy, HierarchyBuilder};
pub use recursive::{RecursiveResolver, ResolverConfig, ServerFaults};
pub use tcp::{
    frame, require_frame, split_frame, FrameError, TcpDnsServer, DNS_TCP_PORT, MAX_FRAME_LEN,
};
pub use zone::{Zone, ZoneAnswer};

/// Returns the placeholder-free version marker used by integration tests to
/// confirm the crate wires together.
pub const CRATE_NAME: &str = "dnssim";

#![warn(missing_docs)]

//! `serve` — the live serving plane: a real UDP/TCP DNS service answering
//! RFC 1035 wire queries out of the simulated cellular-DNS world.
//!
//! The crate bridges two planes that must never contaminate each other:
//!
//! * The **sim plane** stays exactly what the batch campaign runs: a
//!   deterministic discrete-event engine on virtual time. [`ServeCore`]
//!   drives it one resolution at a time — same resolver, forwarder, and
//!   authority code, same per-shard RNG streams — so the answer served
//!   over the wire is byte-equal to what the batch resolver would have
//!   produced for the same world, seed, and injection order.
//! * The **host plane** is everything that touches real sockets and the
//!   wall clock: the [`DnsServer`] socket front end, the [`Clock`]
//!   abstraction its loops pace themselves with, and the latency/QPS
//!   accounting. detlint classifies this whole crate as host-plane, so
//!   wall-clock reads are permitted here and still forbidden in every sim
//!   crate.
//!
//! Ground-truth equivalence is therefore a replay property: record the
//! per-carrier sequence of wire queries the bridge processed, replay it
//! into a second [`ServeCore`] built from the same [`WorldConfig`], and
//! every answer must match byte-for-byte. The `loadgen` crate automates
//! exactly that check.

pub mod admit;
pub mod clock;
pub mod core;
pub mod endpoints;
pub mod server;

pub use crate::admit::{Admission, AdmitConfig, ShedReason, Verdict};
pub use crate::core::{
    classify, control_reply, is_shed_reply, DropReason, ServeCore, Served, Transport, WireClass,
};
pub use clock::{Clock, ManualClock, WallClock};
pub use endpoints::{CarrierEndpoint, Endpoints};
pub use measure::{FaultProfile, WorldConfig};
pub use server::{DnsServer, ServeReport, FRAME_DEADLINE};

/// Returns the placeholder-free version marker used by integration tests to
/// confirm the crate wires together.
pub const CRATE_NAME: &str = "serve";

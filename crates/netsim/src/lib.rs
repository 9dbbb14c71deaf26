#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

//! `netsim` — a deterministic discrete-event network simulator.
//!
//! This is the substrate the *Behind the Curtain* (IMC 2014) reproduction
//! runs on: since the paper's cellular vantage points cannot be shipped with
//! a library, every measurement tool in this workspace runs against a
//! simulated internet with the same observable structure (see DESIGN.md for
//! the substitution argument).
//!
//! Design (following the event-driven philosophy of the networking guides):
//!
//! * [`engine::Network`] owns an event queue (a keyed binary heap,
//!   [`queue::EventHeap`], dispatching in `(time, seq)` order); time
//!   advances only by dispatching events, and all randomness flows from the
//!   seed, so runs are bit-reproducible. A packet's per-hop loss and latency
//!   are keyed to what caused it ([`draw`]); services and clients share the
//!   engine's one seeded RNG.
//! * Packets ([`packet::Packet`]) are forwarded hop by hop over a routed
//!   topology ([`topo::Topology`], [`route::CoreRoutes`]), so TTLs,
//!   traceroute, anycast, and middleboxes behave like the real thing.
//! * Protocol endpoints are state machines implementing
//!   [`engine::UdpService`]; there is no async runtime and no interior
//!   mutability on the hot path.
//! * Every lookup table on the per-event path is a [`hash::FastMap`] or
//!   [`hash::FastSet`]: keys are sim-assigned, so a fixed multiply-rotate
//!   hash replaces SipHash.
//! * Middleboxes ([`middlebox::Firewall`], [`middlebox::Nat`]) reproduce the
//!   cellular opaqueness the paper keeps running into.
//! * Probes ([`client`]: ping trains, UDP traceroute, TCP-lite GETs) are the
//!   only view of a path, as at a real endpoint; the engine itself keeps
//!   counters ([`engine::NetStats`]), not a packet log.
//!
//! # Example: ping across a routed topology
//!
//! ```
//! use netsim::engine::Network;
//! use netsim::latency::LatencyModel;
//! use netsim::topo::{Asn, Coord, NodeKind, Topology};
//! use std::net::Ipv4Addr;
//!
//! let mut topo = Topology::new();
//! let a = topo.add_node("a", NodeKind::Host, Asn(1), Coord::default(),
//!     vec![Ipv4Addr::new(10, 0, 0, 1)]);
//! let b = topo.add_node("b", NodeKind::Host, Asn(2), Coord::default(),
//!     vec![Ipv4Addr::new(10, 0, 0, 2)]);
//! topo.add_link(a, b, LatencyModel::constant_ms(10));
//! let mut net = Network::new(topo, 42);
//! let report = net.ping_train(a, Ipv4Addr::new(10, 0, 0, 2), 3);
//! assert_eq!(report.rtts.len(), 3);
//! ```

pub mod addr;
pub mod client;
pub mod draw;
pub mod engine;
pub mod fault;
pub mod hash;
pub mod latency;
pub mod middlebox;
pub mod packet;
pub mod queue;
pub mod route;
pub mod tcplite;
pub mod time;
pub mod topo;

pub use addr::{AddrAllocator, Prefix};
pub use client::{PingReport, TcpGetReport, TraceHop, TraceReport, HTTP_PORT};
pub use engine::{
    Egress, FlowId, FlowOutcome, FlowResult, NetStats, Network, ServiceCtx, UdpService,
};
pub use fault::{FaultPlan, FaultStats, LinkFault, Spike, Window};
pub use latency::LatencyModel;
pub use packet::{IcmpMsg, Packet, Transport};
pub use queue::{EventHeap, EventQueue};
pub use tcplite::{TcpFailure, TcpFetch, TcpFetchOutcome, TcpHttpServer};
pub use time::{SimDuration, SimTime};
pub use topo::{Asn, Coord, NodeId, NodeKind, Topology};

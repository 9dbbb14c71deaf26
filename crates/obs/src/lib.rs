#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

//! `obs` — the workspace's deterministic observability plane.
//!
//! **Sim plane** ([`sim`]): deterministic, typed instruments (counters,
//! high-water gauges, power-of-two histograms over sim-time micros) keyed
//! by `(static name, sorted labels)`. Registry contents are part of the
//! byte-identical-replay contract: the same seed and config produce the
//! same exported bytes for every thread count. Nothing in this plane may
//! read the wall clock or any other host state. The wall-clock stage
//! profiler is not here: it is `repro::host`, which no simulation crate
//! can reach.
//!
//! **Catalog** ([`catalog`]): the one declaration of every sim-plane
//! metric name and its instrument kind; detlint rule D12 and the tier-1
//! tests check the call sites and the exported registries against it.
//!
//! The crate is dependency-free (std only), like the rest of the
//! substrate.

pub mod catalog;
pub mod hash;
pub mod sim;

pub use hash::sha256_hex;
pub use sim::{CounterId, Gauge, Histogram, HistogramId, Registry};

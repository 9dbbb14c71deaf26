#![warn(missing_docs)]

//! `obs` — the workspace's two-plane observability subsystem.
//!
//! **Sim plane** ([`sim`]): deterministic, typed instruments (counters,
//! high-water gauges, power-of-two histograms over sim-time micros) keyed
//! by `(static name, sorted labels)`. Registry contents are part of the
//! byte-identical-replay contract: the same seed and config produce the
//! same exported bytes for every thread count. Nothing in this plane may
//! read the wall clock or any other host state.
//!
//! **Host plane** ([`host`]): explicitly *non*-deterministic wall-clock
//! stage profiling (build/campaign timings, events/sec, shard imbalance)
//! for the driver binaries only. Host-plane readings are never serialized
//! into `results/`; detlint rule D7 fences this module out of every crate
//! except the driver binary and the serving plane.
//!
//! **Catalog** ([`catalog`]): the one declaration of every sim-plane
//! metric name and its instrument kind; detlint rule D12 and the tier-1
//! tests check the call sites and the exported registries against it.
//!
//! The crate is dependency-free (std only), like the rest of the
//! substrate.

pub mod catalog;
pub mod hash;
pub mod host;
pub mod sim;

pub use hash::sha256_hex;
pub use sim::{CounterId, Gauge, Histogram, HistogramId, Registry};

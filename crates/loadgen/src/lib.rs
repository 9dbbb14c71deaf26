#![warn(missing_docs)]

//! `loadgen` — the serving plane's deterministic load generator.
//!
//! Builds per-carrier query scripts from the world's own seed (lane
//! [`measure::world::lane::SERVE`], so serving never perturbs campaign
//! replay), drives them against a live [`serve::DnsServer`] over real
//! loopback sockets as fast as it is answered, and then replays the exact
//! wire transcript into a second [`serve::ServeCore`] built from the same
//! [`WorldConfig`], asserting every answer byte-equal. That replay is
//! the ground-truth cross-check: the live server and the batch resolver
//! are the same deterministic code, so any divergence is a bug, not noise.
//!
//! [`WorldConfig`]: measure::WorldConfig

pub mod chaos;
pub mod driver;
pub mod report;
pub mod script;

pub use chaos::{ChaosAction, ChaosProfile};
pub use driver::{drive, run, Driven, DriverConfig, RunStats};
pub use report::render_profile_json;
pub use script::{build_script, MixConfig, PlannedQuery, Script};

/// Returns the placeholder-free version marker used by integration tests to
/// confirm the crate wires together.
pub const CRATE_NAME: &str = "loadgen";

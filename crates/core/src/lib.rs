#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

//! `cdns` — the cellular DNS measurement suite: the public API of the
//! *Behind the Curtain* (IMC 2014) reproduction.
//!
//! A downstream user drives three layers:
//!
//! 1. [`Study`] — build a simulated world (six carriers, public DNS, four
//!    CDNs, a 158-device fleet) and run the paper's measurement campaign
//!    over weeks of simulated time.
//! 2. [`figures`] — regenerate every table and figure of the paper from the
//!    campaign dataset.
//! 3. The substrate crates, re-exported for direct use: `netsim` (the
//!    discrete-event network), `dnswire`/`dnssim` (DNS), `cellsim`
//!    (carriers/devices), `cdnsim` (content delivery), `measure`
//!    (experiments), `analysis` (statistics).
//!
//! # Example
//!
//! ```no_run
//! use cdns::{Study, StudyConfig};
//!
//! let mut study = Study::new(StudyConfig::quick(42));
//! let dataset = study.run();
//! for artifact in cdns::figures::all_artifacts(&dataset) {
//!     println!("{}", artifact.text);
//! }
//! ```

pub mod figures;
pub mod study;

pub use figures::{all_artifacts, artifact_by_id, Artifact};
pub use study::{Study, StudyConfig};

// Substrate re-exports.
pub use analysis;
pub use cdnsim;
pub use cellsim;
pub use dnssim;
pub use dnswire;
pub use measure;
pub use netsim;
pub use obs;

#![warn(missing_docs)]

//! `behind-the-curtain` — reproduction of *Behind the Curtain: Cellular DNS
//! and Content Replica Selection* (Rula & Bustamante, IMC 2014) as a Rust
//! workspace.
//!
//! This facade crate re-exports the suite (`cdns`) and its substrates so
//! the examples and integration tests have one import surface. See
//! `README.md` for a tour, `DESIGN.md` for the architecture and the
//! simulation-substitution argument, and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every table and figure.
//!
//! ```no_run
//! use behind_the_curtain::{Study, StudyConfig};
//!
//! let mut study = Study::new(StudyConfig::quick(42));
//! let dataset = study.run();
//! println!("{} experiments", dataset.records.len());
//! ```

pub use cdns::*;

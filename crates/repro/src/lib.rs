#![warn(missing_docs)]

//! The `repro` harness's own library: its host plane ([`host`]), the one
//! wall-clock profiler. It lives here, not in a crate the simulation can
//! depend on, so no simulation crate can name it.

pub mod host;

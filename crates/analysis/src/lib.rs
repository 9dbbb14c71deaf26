#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

//! `analysis` — the paper's analysis toolkit: empirical CDFs, resolution
//! timing extraction (Figs. 3, 5–7, 13), LDNS pairing and churn analysis
//! (Table 3, Figs. 8/9/12, Table 5), replica maps with cosine similarity
//! (Figs. 2, 10, 14), egress-point detection (§5.2), and external
//! reachability summaries (Table 4), plus text/CSV rendering shared by the
//! `repro` harness.

pub mod cdf;
pub mod egress;
pub mod failure;
pub mod ldns;
pub mod reach;
pub mod replica;
pub mod report;
pub mod table;
pub mod timing;

pub use cdf::Cdf;
pub use egress::{egress_of_trace, egress_points};
pub use failure::{failure_rates, render_failure_report, FailureRow};
pub use ldns::{
    busiest_device, busiest_static_device, churn_summary, ldns_pairs, resolver_counts,
    resolver_enumeration, static_location_enumeration, EnumPoint, LdnsPairSummary,
};
pub use reach::{reachability, ReachSummary};
pub use replica::{
    cosine_by_prefix, public_equal_or_better, relative_replica_latency, replica_percent_increase,
    resolver_replica_maps, ReplicaMap,
};
pub use report::{all_carrier_reports, carrier_report};
pub use table::{cdfs_csv, render_ascii_cdf, render_cdfs, render_table};
pub use timing::{cache_comparison, cache_miss_fraction, resolution_by_radio, resolution_cdf};

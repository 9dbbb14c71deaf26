#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

//! `measure` — the paper's measurement library and campaign harness: the
//! experiment of §3.2 (bootstrap ping, 9-domain resolutions against local
//! and public resolvers, whoami resolver discovery, ping/traceroute/HTTP
//! probes of every replica), the fleet campaign driver, the university
//! reachability probes, and the simulated world everything runs against.

pub mod campaign;
pub mod experiment;
pub mod metrics;
pub mod record;
pub mod spec;
pub mod world;

pub use campaign::{
    probe_external_reachability, run_campaign, run_campaign_observed, run_campaign_with,
    CampaignConfig, CampaignRun, Parallelism, ProgressEvent, ProgressFn,
};
pub use experiment::{run_experiment, run_experiment_in_shard};
pub use record::{
    Dataset, DnsTiming, ExperimentRecord, ExternalReachProbe, Outcome, ProbeTarget, ReplicaProbe,
    ResolverIdentity, ResolverKind, ResolverProbe,
};
pub use spec::ExperimentSpec;
pub use world::{
    build_world, Backbone, CarrierShard, CdnNet, FaultProfile, PublicDns, PublicSite, World,
    WorldConfig, GOOGLE_VIP, OPENDNS_VIP,
};

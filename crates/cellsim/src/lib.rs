#![warn(missing_docs)]

//! `cellsim` — the cellular-network substrate of the *Behind the Curtain*
//! reproduction: carrier topologies (LTE-era many-gateway cores behind
//! MPLS opacity, NAT and stateful firewalls at egress), radio access
//! technologies with calibrated latency bands and RRC state, carrier DNS
//! infrastructures (anycast / pool / tiered per §4.1), and the device fleet
//! with the churn processes of §4.5.
//!
//! The paper's hardware gate — volunteer phones inside six carriers — is
//! substituted by this simulation; see DESIGN.md for the argument that the
//! substitution preserves the observable behaviour each experiment needs.

pub mod build;
pub mod device;
pub mod profile;
pub mod radio;

pub use build::{build_carrier, install_carrier_services, CarrierNet, GatewaySite, GeoRegion};
pub use device::{create_devices, Device, Mobility};
pub use profile::{
    six_carriers, CarrierProfile, ClientFacing, Country, DnsInfraConfig, RadioLineage,
};
pub use radio::{RadioTech, RrcState};

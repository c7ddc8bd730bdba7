//! # mtd-netsim — the synthetic operational mobile network
//!
//! The paper measures a proprietary nationwide 4G/5G NSA network; that data
//! is closed. This crate is the substitution: a discrete-event simulator of
//! session-level traffic at a configurable population of base stations,
//! whose *ground-truth* generative processes are crafted to match every
//! published anchor of the real network (Table 1 service shares, Fig 3
//! bimodal arrivals across load deciles, Fig 5 service-specific multi-modal
//! volume PDFs, Fig 10 power-law exponents, §4.2 transient sessions from
//! UE mobility).
//!
//! The crate exposes the same observation surface as the operator's
//! measurement platform (§3.1):
//!
//! - [`probes::GatewayProbe`] — per-flow records at the simulated PGW
//!   (5-tuple, byte counts, start/end, DPI-classified service).
//! - [`probes::RanProbe`] — per-UE signaling (attach / handover events)
//!   that geo-references flows to base stations.
//! - [`probes::join_observations`] — the cross-referencing join of §3.1
//!   that produces per-BS session fragments.
//!
//! [`engine::Engine`] drives the simulation and feeds any
//! [`engine::EngineSink`]; the companion `mtd-dataset` crate aggregates the
//! result into the paper's per-(service, BS, day) statistics.

// `!(x > 0.0)` deliberately rejects NaN along with non-positive values.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod arrivals;
pub mod classifier;
pub mod config;
pub mod engine;
pub mod geo;
pub mod ids;
pub mod mobility;
pub mod probes;
pub mod scenarios;
pub mod services;
pub mod session;
pub mod time;

pub use config::{ScenarioConfig, StressConfig};
pub use engine::{Engine, EngineSink};
pub use ids::{BsId, Rat, ServiceId, SessionId, UeId};
pub use services::{ServiceCatalog, ServiceClass, ServiceProfile};

//! # mtd-core — session-level mobile traffic models (the paper's §5)
//!
//! The primary contribution of the paper, as a library:
//!
//! - [`arrival`] — the §5.1 bimodal session-arrival model: Gaussian peak
//!   mode fitted per BS-load decile with the `σ = μ/10` regularity, Pareto
//!   off-peak mode with fixed shape `b = 1.765`, and the constant
//!   per-service breakdown of arrivals.
//! - [`volume`] — the §5.2 log-normal mixture algorithm for the traffic
//!   volume PDF `F_s(x)`: main log-normal fit, Savitzky–Golay residual
//!   peak detection, ≤ 3 scaled log-normal peak components, Eq. (5)
//!   composition.
//! - [`duration`] — the §5.3 power-law model `v_s(d) = α_s·d^{β_s}`
//!   fitted with Levenberg–Marquardt.
//! - [`model`] / [`registry`] — the released per-service parameter tuples
//!   `[μ_s, σ_s, {k_n, μ_n, σ_n}, α_s, β_s]` (§5.4) with JSON
//!   persistence.
//! - [`pipeline`] — fits the full registry from a measurement
//!   [`mtd_dataset::Dataset`].
//! - [`plan`] — compiles a registry into a [`ServingPlan`] that
//!   synthesizes session-level traffic from the models (§5.4 usage:
//!   volume from `F̂_s`, duration via `v⁻¹`, throughput as their ratio);
//!   the CLI's `generate`, the serve daemon and the BS-level analysis
//!   sample from it.

// `!(x > 0.0)` deliberately rejects NaN along with non-positive values.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod arrival;
pub mod duration;
pub mod model;
pub mod pipeline;
pub mod plan;
pub mod refit;
pub mod registry;
pub mod validation;
pub mod volume;

pub use arrival::{ArrivalModel, ArrivalModelSet, ServiceBreakdown};
pub use model::{ModelQuality, PeakComponent, ServiceModel};
pub use plan::{GeneratedSession, ServingPlan};
pub use registry::ModelRegistry;

//! # mtd-math — numerical substrate for `mobile-traffic-dists`
//!
//! From-scratch implementations of every numerical routine the paper's
//! pipeline needs, with the paper's exact conventions:
//!
//! - [`distributions`] — Gaussian, base-10 log-normal (Eq. 3 of the paper),
//!   Pareto (shape/scale form of §5.1) and exponential distributions with
//!   pdf/cdf/quantile/sampling.
//! - [`histogram`] — log₁₀-binned empirical PDFs ([`histogram::LogHistogram`])
//!   mirroring the operator's privacy-preserving aggregation, plus mixture
//!   averaging (Eq. 2).
//! - [`emd`] — 1-D earth mover (Wasserstein-1) distance used throughout §4.
//! - [`gof`] — one-sample Kolmogorov–Smirnov tests and sample-vs-quantile
//!   EMD backing the sampling-fidelity battery (`validate --sampling`).
//! - [`savgol`] — Savitzky–Golay smoothing/derivative filter used by the
//!   residual-peak detector of §5.2.
//! - [`levmar`] — Levenberg–Marquardt nonlinear least squares used for the
//!   power-law fits of §5.3.
//! - [`fit`] — closed-form / iterative fits for all model families.
//! - [`cluster`] — centroid hierarchical clustering + silhouette score (§4.3).
//! - [`kernels`] — the scalar `exp`/`ln`/`erf`/Gaussian lanes under the fit,
//!   with their pinned ULP policy.
//! - [`regression`], [`stats`], [`linalg`], [`rng`] — supporting utilities.
//!
//! Everything is deterministic given an explicit RNG, allocation-light and
//! synchronous; there is no async machinery anywhere in the workspace
//! because the workload is CPU-bound simulation.

// `!(x > 0.0)` deliberately rejects NaN along with non-positive values.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod cluster;
pub mod distributions;
pub mod emd;
pub mod fit;
pub mod gof;
pub mod histogram;
pub mod kernels;
pub mod levmar;
pub mod linalg;
pub mod regression;
pub mod rng;
pub mod savgol;
pub mod stats;
pub mod tail;

pub use distributions::{
    Distribution1D, Exponential, Gaussian, LogNormal10, Pareto, TruncatedGaussian, TruncatedPareto,
};
pub use histogram::{BinnedPdf, LogHistogram};

/// Errors produced by numerical routines in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum MathError {
    /// An input slice was empty where at least one element is required.
    EmptyInput(&'static str),
    /// Two inputs that must share a length or grid did not.
    DimensionMismatch { expected: usize, got: usize },
    /// A parameter was outside its valid domain (e.g. `σ ≤ 0`).
    InvalidParameter(&'static str),
    /// An iterative solver failed to converge within its iteration budget.
    NoConvergence { iterations: usize },
    /// A linear system was singular (or numerically so).
    SingularMatrix,
}

impl std::fmt::Display for MathError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MathError::EmptyInput(what) => write!(f, "empty input: {what}"),
            MathError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            MathError::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
            MathError::NoConvergence { iterations } => {
                write!(f, "no convergence after {iterations} iterations")
            }
            MathError::SingularMatrix => write!(f, "singular matrix"),
        }
    }
}

impl std::error::Error for MathError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, MathError>;

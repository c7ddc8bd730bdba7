//! Parametric distributions with the paper's conventions.
//!
//! Four families cover every model in the paper:
//!
//! - [`Gaussian`] — peak-hour session arrivals (§5.1).
//! - [`Pareto`] — off-peak session arrivals, `b·s^b / x^{b+1}` with shape `b`
//!   and scale `s` (§5.1, `b = 1.765` in the released models).
//! - [`LogNormal10`] — traffic-volume components (Eq. 3): `log₁₀ X ~ N(μ, σ²)`.
//!   Note the **base-10** logarithm; the released `μ_s, σ_s` parameters are in
//!   decades, not nats.
//! - [`Exponential`] — the negative-exponential ranking law of Fig 4, and
//!   inter-arrival gaps within a minute.
//!
//! All densities/CDFs are implemented analytically; the normal CDF uses a
//! high-accuracy `erf` rational approximation and the normal quantile uses
//! Acklam's algorithm with one Halley refinement step.

use crate::kernels::gaussian_pdf_compat;
use crate::{MathError, Result};
use rand::Rng;

/// Natural log of 10; the Jacobian of the `log₁₀` change of variables.
pub const LN10: f64 = std::f64::consts::LN_10;

/// Common interface for one-dimensional continuous distributions.
pub trait Distribution1D {
    /// Probability density at `x`.
    fn pdf(&self, x: f64) -> f64;
    /// Cumulative distribution function at `x`.
    fn cdf(&self, x: f64) -> f64;
    /// Inverse CDF for `p ∈ (0, 1)`.
    fn quantile(&self, p: f64) -> f64;
    /// Distribution mean.
    fn mean(&self) -> f64;
    /// Distribution variance.
    fn variance(&self) -> f64;

    /// Draws one sample by inverse-transform sampling.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.quantile(open_unit(rng.gen::<f64>()))
    }
}

/// Moves a uniform draw from `[0, 1)` into the open interval every
/// [`Distribution1D::quantile`] accepts, away from 0 so the quantile
/// stays finite: the clamp [`Distribution1D::sample`] applies.
#[inline]
#[must_use]
pub fn open_unit(u: f64) -> f64 {
    u.clamp(1e-16, 1.0 - 1e-16)
}

/// Error function via the Abramowitz–Stegun 7.1.26-style rational
/// approximation refined to ~1.2e-7 absolute error — ample for binned PDFs.
#[must_use]
pub fn erf(x: f64) -> f64 {
    // Constants from W. J. Cody's rational Chebyshev approximation family.
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Standard normal CDF `Φ(z)`.
#[must_use]
pub fn std_normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

/// Standard normal density `φ(z)`.
#[must_use]
pub fn std_normal_pdf(z: f64) -> f64 {
    (-0.5 * z * z).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Standard normal quantile `Φ⁻¹(p)` (Acklam's algorithm + Halley step).
///
/// # Panics
/// Debug-asserts `p ∈ (0, 1)`; callers clamp.
#[must_use]
pub fn std_normal_quantile(p: f64) -> f64 {
    debug_assert!(p > 0.0 && p < 1.0, "quantile domain");
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.024_25;
    const P_HIGH: f64 = 1.0 - P_LOW;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= P_HIGH {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley refinement against the accurate erf-based CDF.
    let e = std_normal_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// Normal distribution `N(mean, std²)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gaussian {
    mean: f64,
    std: f64,
}

impl Gaussian {
    /// Creates a Gaussian; errors when `std <= 0`.
    pub fn new(mean: f64, std: f64) -> Result<Self> {
        if !(std > 0.0) || !std.is_finite() || !mean.is_finite() {
            return Err(MathError::InvalidParameter(
                "Gaussian requires finite mean, std > 0",
            ));
        }
        Ok(Gaussian { mean, std })
    }

    /// Standard deviation.
    #[must_use]
    pub fn std(&self) -> f64 {
        self.std
    }
}

impl Distribution1D for Gaussian {
    fn pdf(&self, x: f64) -> f64 {
        std_normal_pdf((x - self.mean) / self.std) / self.std
    }
    fn cdf(&self, x: f64) -> f64 {
        std_normal_cdf((x - self.mean) / self.std)
    }
    fn quantile(&self, p: f64) -> f64 {
        self.mean + self.std * std_normal_quantile(p)
    }
    fn mean(&self) -> f64 {
        self.mean
    }
    fn variance(&self) -> f64 {
        self.std * self.std
    }
}

/// Pareto distribution in the paper's §5.1 form:
/// `pdf(x) = b·s^b / x^{b+1}` for `x ≥ s`, shape `b`, scale `s`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    shape: f64,
    scale: f64,
}

impl Pareto {
    /// Creates a Pareto; errors unless `shape > 0` and `scale > 0`.
    pub fn new(shape: f64, scale: f64) -> Result<Self> {
        if !(shape > 0.0 && scale > 0.0) {
            return Err(MathError::InvalidParameter(
                "Pareto requires shape > 0, scale > 0",
            ));
        }
        Ok(Pareto { shape, scale })
    }

    /// Shape parameter `b`.
    #[must_use]
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// Scale parameter `s` (the distribution's lower support bound).
    #[must_use]
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

impl Distribution1D for Pareto {
    fn pdf(&self, x: f64) -> f64 {
        if x < self.scale {
            0.0
        } else {
            self.shape * self.scale.powf(self.shape) / x.powf(self.shape + 1.0)
        }
    }
    fn cdf(&self, x: f64) -> f64 {
        if x < self.scale {
            0.0
        } else {
            1.0 - (self.scale / x).powf(self.shape)
        }
    }
    fn quantile(&self, p: f64) -> f64 {
        self.scale * (1.0 - p).powf(-1.0 / self.shape)
    }
    fn mean(&self) -> f64 {
        if self.shape <= 1.0 {
            f64::INFINITY
        } else {
            self.shape * self.scale / (self.shape - 1.0)
        }
    }
    fn variance(&self) -> f64 {
        if self.shape <= 2.0 {
            f64::INFINITY
        } else {
            let b = self.shape;
            self.scale * self.scale * b / ((b - 1.0) * (b - 1.0) * (b - 2.0))
        }
    }
}

/// Base-10 log-normal (Eq. 3 of the paper): `log₁₀ X ~ N(μ, σ²)`.
///
/// # Examples
/// ```
/// use mtd_math::distributions::{Distribution1D, LogNormal10};
/// // Netflix-like full sessions: median 40 MB, spread half a decade.
/// let ln = LogNormal10::new(40f64.log10(), 0.5).unwrap();
/// assert!((ln.median() - 40.0).abs() < 1e-9);
/// assert!((ln.cdf(40.0) - 0.5).abs() < 1e-9);
/// ```
///
/// `μ` and `σ` are expressed in decades of the measured quantity (the
/// paper measures traffic volume in MB, so `μ = 1.6` means a median of
/// `10^1.6 ≈ 40 MB`). The density over `x` includes the `1/(x ln 10)`
/// change-of-variables Jacobian, so [`Distribution1D::pdf`] is a proper
/// density over linear `x`; [`LogNormal10::pdf_log10`] gives the density
/// over the `log₁₀ x` axis, which is what the paper plots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal10 {
    mu: f64,
    sigma: f64,
}

impl LogNormal10 {
    /// Creates a base-10 log-normal; errors when `sigma <= 0`.
    pub fn new(mu: f64, sigma: f64) -> Result<Self> {
        if !(sigma > 0.0) || !mu.is_finite() || !sigma.is_finite() {
            return Err(MathError::InvalidParameter(
                "LogNormal10 requires finite mu, sigma > 0",
            ));
        }
        Ok(LogNormal10 { mu, sigma })
    }

    /// Location in decades (`E[log₁₀ X]`).
    #[must_use]
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Spread in decades.
    #[must_use]
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Density over the `u = log₁₀ x` axis — the Gaussian of Eq. (3).
    #[must_use]
    pub fn pdf_log10(&self, u: f64) -> f64 {
        std_normal_pdf((u - self.mu) / self.sigma) / self.sigma
    }

    /// Bulk [`LogNormal10::pdf_log10`] over a slice of log-axis points,
    /// written into `out` (cleared and refilled). One call per mixture
    /// component evaluates a whole histogram grid through the
    /// [`crate::kernels::gaussian_pdf_compat`] lane; results match the
    /// scalar path within the lanes' pinned ULP bound.
    pub fn pdf_log10_batch(&self, us: &[f64], out: &mut Vec<f64>) {
        let inv_sqrt_tau = 1.0 / (2.0 * std::f64::consts::PI).sqrt();
        out.clear();
        out.extend(
            us.iter()
                .map(|&u| gaussian_pdf_compat(u, self.mu, self.sigma, inv_sqrt_tau)),
        );
    }

    /// Median `10^μ`.
    #[must_use]
    pub fn median(&self) -> f64 {
        10f64.powf(self.mu)
    }
}

impl Distribution1D for LogNormal10 {
    fn pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            self.pdf_log10(x.log10()) / (x * LN10)
        }
    }
    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            std_normal_cdf((x.log10() - self.mu) / self.sigma)
        }
    }
    fn quantile(&self, p: f64) -> f64 {
        10f64.powf(self.mu + self.sigma * std_normal_quantile(p))
    }
    fn mean(&self) -> f64 {
        // E[X] = 10^μ · exp((σ ln10)² / 2)
        10f64.powf(self.mu) * ((self.sigma * LN10).powi(2) / 2.0).exp()
    }
    fn variance(&self) -> f64 {
        let s2 = (self.sigma * LN10).powi(2);
        let m = self.mean();
        m * m * (s2.exp() - 1.0)
    }
}

/// Mills-ratio reciprocal `λ(α) = φ(α)/(1−Φ(α))`, the hazard rate of the
/// standard normal. Switches to the asymptotic continued-fraction
/// expansion where the rational-`erf` tail loses all precision.
fn std_normal_hazard(alpha: f64) -> f64 {
    if alpha > 5.0 {
        // λ(α) ~ α + 1/α − 2/α³ + 10/α⁵ (error < 1e-6 already at α = 5).
        alpha + 1.0 / alpha - 2.0 / alpha.powi(3) + 10.0 / alpha.powi(5)
    } else {
        std_normal_pdf(alpha) / (1.0 - std_normal_cdf(alpha))
    }
}

/// Gaussian truncated below at `lo`, sampled exactly by inverse transform.
///
/// This is the correct count-cannot-be-negative version of a rectified
/// Gaussian: clipping `N(μ, σ²)` draws at 0 piles the negative-tail mass
/// onto 0 and shifts the mean up by `σ·φ(−μ/σ)` terms; conditioning on
/// `X ≥ lo` keeps a proper distribution whose moments are in closed form,
/// so the location can be recalibrated ([`TruncatedGaussian::with_mean`])
/// to preserve a target mean exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruncatedGaussian {
    location: f64,
    std: f64,
    lo: f64,
    /// Cached `Φ((lo − location)/std)` — the truncated-away mass.
    p_lo: f64,
    /// Cached `1 − p_lo` — the surviving mass. Hoisting the erf-derived
    /// normalizers out of [`Distribution1D::quantile`] keeps the per-draw
    /// sampling path free of redundant arithmetic (the draw itself is one
    /// `std_normal_quantile` call); bit-identical to recomputing.
    mass: f64,
    /// Cached `std · (1 − p_lo)` — the pdf normalizer.
    pdf_norm: f64,
}

impl TruncatedGaussian {
    /// Creates a Gaussian with untruncated location/std, conditioned on
    /// `X ≥ lo`. Errors when the parameters are invalid or the truncation
    /// removes (numerically) all mass.
    pub fn new(location: f64, std: f64, lo: f64) -> Result<Self> {
        if !(std > 0.0) || !std.is_finite() || !location.is_finite() || !lo.is_finite() {
            return Err(MathError::InvalidParameter(
                "TruncatedGaussian requires finite location, lo, std > 0",
            ));
        }
        let p_lo = std_normal_cdf((lo - location) / std);
        if !(p_lo < 1.0) {
            return Err(MathError::InvalidParameter(
                "TruncatedGaussian: truncation removes all mass",
            ));
        }
        let mass = 1.0 - p_lo;
        Ok(TruncatedGaussian {
            location,
            std,
            lo,
            p_lo,
            mass,
            pdf_norm: std * mass,
        })
    }

    /// Finds by bisection the location whose lower-truncated mean equals
    /// `mean` (which must exceed `lo`; truncation always raises the mean,
    /// so the location lands at or below `mean`).
    pub fn with_mean(std: f64, lo: f64, mean: f64) -> Result<Self> {
        if !(std > 0.0) || !std.is_finite() || !lo.is_finite() || !mean.is_finite() {
            return Err(MathError::InvalidParameter(
                "TruncatedGaussian::with_mean requires finite lo, mean, std > 0",
            ));
        }
        if !(mean > lo) {
            return Err(MathError::InvalidParameter(
                "TruncatedGaussian::with_mean requires mean > lo",
            ));
        }
        let mean_at = |location: f64| {
            let alpha = (lo - location) / std;
            location + std * std_normal_hazard(alpha)
        };
        // The truncated mean is increasing in the location and always
        // exceeds it, so `mean` itself is an upper bound; walk the lower
        // bound out until it brackets.
        let mut hi = mean;
        let mut lo_b = mean - std;
        let mut step = std;
        for _ in 0..64 {
            if mean_at(lo_b) <= mean {
                break;
            }
            step *= 2.0;
            lo_b -= step;
        }
        if mean_at(lo_b) > mean {
            return Err(MathError::NoConvergence { iterations: 64 });
        }
        for _ in 0..100 {
            let mid = 0.5 * (lo_b + hi);
            if mean_at(mid) > mean {
                hi = mid;
            } else {
                lo_b = mid;
            }
        }
        Self::new(0.5 * (lo_b + hi), std, lo)
    }

    /// Untruncated location parameter.
    #[must_use]
    pub fn location(&self) -> f64 {
        self.location
    }
}

impl Distribution1D for TruncatedGaussian {
    fn pdf(&self, x: f64) -> f64 {
        if x < self.lo {
            0.0
        } else {
            std_normal_pdf((x - self.location) / self.std) / self.pdf_norm
        }
    }
    fn cdf(&self, x: f64) -> f64 {
        if x < self.lo {
            0.0
        } else {
            let raw = std_normal_cdf((x - self.location) / self.std);
            ((raw - self.p_lo) / self.mass).clamp(0.0, 1.0)
        }
    }
    fn quantile(&self, p: f64) -> f64 {
        let q = (self.p_lo + p * self.mass).clamp(1e-300, 1.0 - 1e-16);
        (self.location + self.std * std_normal_quantile(q)).max(self.lo)
    }
    fn mean(&self) -> f64 {
        let alpha = (self.lo - self.location) / self.std;
        self.location + self.std * std_normal_hazard(alpha)
    }
    fn variance(&self) -> f64 {
        let alpha = (self.lo - self.location) / self.std;
        let lambda = std_normal_hazard(alpha);
        self.std * self.std * (1.0 + alpha * lambda - lambda * lambda)
    }
}

/// Pareto truncated above at `cap`, sampled exactly by inverse transform.
///
/// With shape `b < 2` the tail carries real mean mass: clipping draws at
/// `cap` (`min(x, cap)`) loses `(s/cap)^{b−1}/b` of the mean, which for
/// the released arrival models is a ≈2.4% systematic deficit. The
/// conditional distribution on `[s, cap]` has closed-form moments, so the
/// scale can be recalibrated ([`TruncatedPareto::with_mean`]) to hit a
/// target mean exactly under the cap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruncatedPareto {
    shape: f64,
    scale: f64,
    cap: f64,
    /// Cached `1 − (scale/cap)^shape` — the retained mass.
    z: f64,
}

impl TruncatedPareto {
    /// Creates a Pareto conditioned on `X ≤ cap`; errors unless
    /// `0 < scale < cap` and `shape > 0`.
    pub fn new(shape: f64, scale: f64, cap: f64) -> Result<Self> {
        if !(shape > 0.0 && scale > 0.0 && cap > scale && cap.is_finite()) {
            return Err(MathError::InvalidParameter(
                "TruncatedPareto requires shape > 0, 0 < scale < cap < inf",
            ));
        }
        let z = 1.0 - (scale / cap).powf(shape);
        if !(z > 0.0) {
            return Err(MathError::InvalidParameter(
                "TruncatedPareto: truncation interval carries no mass",
            ));
        }
        Ok(TruncatedPareto {
            shape,
            scale,
            cap,
            z,
        })
    }

    /// Finds by bisection the scale whose upper-truncated mean equals
    /// `mean` (which must lie strictly inside `(0, cap)`). The truncated
    /// mean grows monotonically from 0 to `cap` as the scale sweeps
    /// `(0, cap)`, so a solution always exists.
    pub fn with_mean(shape: f64, cap: f64, mean: f64) -> Result<Self> {
        if !(shape > 0.0) || !cap.is_finite() || !(cap > 0.0) {
            return Err(MathError::InvalidParameter(
                "TruncatedPareto::with_mean requires shape > 0, finite cap > 0",
            ));
        }
        if !(mean > 0.0 && mean < cap) {
            return Err(MathError::InvalidParameter(
                "TruncatedPareto::with_mean requires 0 < mean < cap",
            ));
        }
        // Truncation lowers the mean at fixed scale, so the untruncated
        // inversion `mean·(b−1)/b` (when finite) is a valid lower bracket.
        let mut lo = if shape > 1.0 {
            (mean * (shape - 1.0) / shape).min(cap * 0.5)
        } else {
            cap * 1e-12
        };
        let mut hi = cap * (1.0 - 1e-12);
        let mean_at = |scale: f64| {
            Self::new(shape, scale, cap)
                .map(|d| d.mean())
                .unwrap_or(f64::NAN)
        };
        if !(mean_at(lo) <= mean) {
            lo = cap * 1e-300;
        }
        for _ in 0..100 {
            let mid = 0.5 * (lo + hi);
            if mean_at(mid) > mean {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Self::new(shape, 0.5 * (lo + hi), cap)
    }

    /// Shape parameter `b`.
    #[must_use]
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// Scale parameter `s` (the lower support bound).
    #[must_use]
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Upper truncation bound.
    #[must_use]
    pub fn cap(&self) -> f64 {
        self.cap
    }
}

impl Distribution1D for TruncatedPareto {
    fn pdf(&self, x: f64) -> f64 {
        if x < self.scale || x > self.cap {
            0.0
        } else {
            self.shape * self.scale.powf(self.shape) / (x.powf(self.shape + 1.0) * self.z)
        }
    }
    fn cdf(&self, x: f64) -> f64 {
        if x < self.scale {
            0.0
        } else if x >= self.cap {
            1.0
        } else {
            (1.0 - (self.scale / x).powf(self.shape)) / self.z
        }
    }
    fn quantile(&self, p: f64) -> f64 {
        (self.scale * (1.0 - p * self.z).powf(-1.0 / self.shape)).min(self.cap)
    }
    fn mean(&self) -> f64 {
        let (b, s, t) = (self.shape, self.scale, self.cap);
        if (b - 1.0).abs() < 1e-12 {
            s * (t / s).ln() / self.z
        } else {
            (b / (b - 1.0)) * s * (1.0 - (s / t).powf(b - 1.0)) / self.z
        }
    }
    fn variance(&self) -> f64 {
        let (b, s, t) = (self.shape, self.scale, self.cap);
        let second = if (b - 2.0).abs() < 1e-12 {
            2.0 * s * s * (t / s).ln() / self.z
        } else {
            (b / (2.0 - b)) * s * s * ((t / s).powf(2.0 - b) - 1.0) / self.z
        };
        let m = self.mean();
        second - m * m
    }
}

/// Exponential distribution with rate `λ` (`pdf = λ e^{-λx}`, `x ≥ 0`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates an exponential; errors unless `rate > 0`.
    pub fn new(rate: f64) -> Result<Self> {
        if !(rate > 0.0) {
            return Err(MathError::InvalidParameter("Exponential requires rate > 0"));
        }
        Ok(Exponential { rate })
    }

    /// Rate parameter `λ`.
    #[must_use]
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

impl Distribution1D for Exponential {
    fn pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.0
        } else {
            self.rate * (-self.rate * x).exp()
        }
    }
    fn cdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.0
        } else {
            1.0 - (-self.rate * x).exp()
        }
    }
    fn quantile(&self, p: f64) -> f64 {
        -(1.0 - p).ln() / self.rate
    }
    fn mean(&self) -> f64 {
        1.0 / self.rate
    }
    fn variance(&self) -> f64 {
        1.0 / (self.rate * self.rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn sample_mean<D: Distribution1D>(d: &D, n: usize, seed: u64) -> f64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn erf_known_values() {
        assert!(erf(0.0).abs() < 1e-7);
        assert!((erf(1.0) - 0.842_700_79).abs() < 1e-6);
        assert!((erf(-1.0) + 0.842_700_79).abs() < 1e-6);
        assert!((erf(3.0) - 0.999_977_91).abs() < 1e-6);
    }

    #[test]
    fn normal_quantile_inverts_cdf() {
        for &p in &[0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999] {
            let z = std_normal_quantile(p);
            assert!((std_normal_cdf(z) - p).abs() < 1e-6, "p={p}");
        }
    }

    #[test]
    fn gaussian_moments_and_cdf() {
        let g = Gaussian::new(5.0, 2.0).unwrap();
        assert_eq!(g.mean(), 5.0);
        assert_eq!(g.variance(), 4.0);
        assert!((g.cdf(5.0) - 0.5).abs() < 1e-9);
        // 68–95–99.7 rule.
        assert!((g.cdf(7.0) - g.cdf(3.0) - 0.6827).abs() < 1e-3);
    }

    #[test]
    fn gaussian_rejects_bad_params() {
        assert!(Gaussian::new(0.0, 0.0).is_err());
        assert!(Gaussian::new(f64::NAN, 1.0).is_err());
    }

    #[test]
    fn pareto_matches_paper_form() {
        // pdf = b s^b / x^(b+1)
        let p = Pareto::new(1.765, 2.0).unwrap();
        let x = 3.0f64;
        let expect = 1.765 * 2f64.powf(1.765) / x.powf(2.765);
        assert!((p.pdf(x) - expect).abs() < 1e-12);
        assert_eq!(p.pdf(1.9), 0.0);
        assert!((p.cdf(p.quantile(0.3)) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn pareto_heavy_tail_moments() {
        let p = Pareto::new(1.5, 1.0).unwrap();
        assert!(p.mean().is_finite());
        assert!(p.variance().is_infinite());
        let q = Pareto::new(0.9, 1.0).unwrap();
        assert!(q.mean().is_infinite());
    }

    #[test]
    fn lognormal10_median_and_cdf() {
        let ln = LogNormal10::new(1.6, 0.4).unwrap(); // median ≈ 40
        assert!((ln.median() - 10f64.powf(1.6)).abs() < 1e-9);
        assert!((ln.cdf(ln.median()) - 0.5).abs() < 1e-9);
        assert!((ln.cdf(ln.quantile(0.8)) - 0.8).abs() < 1e-6);
    }

    #[test]
    fn lognormal10_batch_pdf_matches_scalar_within_ulp_policy() {
        let ln = LogNormal10::new(1.6, 0.4).unwrap();
        let us: Vec<f64> = (-40..=60).map(|i| f64::from(i) * 0.1).collect();
        let mut out = vec![7.0; 4]; // stale contents must be discarded
        ln.pdf_log10_batch(&us, &mut out);
        assert_eq!(out.len(), us.len());
        // The batch lane uses exp_compat instead of libm exp; the kernels
        // module pins the deviation at ≤8 ULP (abs floor 1e-300).
        for (&u, &got) in us.iter().zip(&out) {
            let want = ln.pdf_log10(u);
            assert!(
                crate::kernels::ulp_within(got, want, 8, 1e-300),
                "pdf_log10({u}): {got:e} vs scalar {want:e} ({} ulp)",
                crate::kernels::ulp_distance(got, want)
            );
        }
    }

    #[test]
    fn lognormal10_pdf_integrates_to_one() {
        let ln = LogNormal10::new(0.5, 0.3).unwrap();
        // Trapezoid over a wide log range.
        let mut acc = 0.0;
        let n = 20_000;
        let (lo, hi) = (1e-3f64, 1e4f64);
        let step = (hi.ln() - lo.ln()) / n as f64;
        for i in 0..n {
            let x0 = (lo.ln() + i as f64 * step).exp();
            let x1 = (lo.ln() + (i + 1) as f64 * step).exp();
            acc += 0.5 * (ln.pdf(x0) + ln.pdf(x1)) * (x1 - x0);
        }
        assert!((acc - 1.0).abs() < 1e-3, "integral = {acc}");
    }

    #[test]
    fn lognormal10_mean_formula_matches_samples() {
        let ln = LogNormal10::new(1.0, 0.25).unwrap();
        let m = sample_mean(&ln, 200_000, 7);
        assert!(
            (m - ln.mean()).abs() / ln.mean() < 0.02,
            "sample {m} vs {}",
            ln.mean()
        );
    }

    #[test]
    fn truncated_gaussian_moments_and_cdf() {
        // Heavy truncation: location 0.5, σ 1, floor at 0 cuts ~31% of mass.
        let t = TruncatedGaussian::new(0.5, 1.0, 0.0).unwrap();
        assert_eq!(t.pdf(-0.1), 0.0);
        assert_eq!(t.cdf(-0.1), 0.0);
        assert!((t.cdf(t.quantile(0.3)) - 0.3).abs() < 1e-6);
        assert!(t.mean() > 0.5, "truncation raises the mean");
        // Sampled moments track the closed forms.
        let m = sample_mean(&t, 100_000, 17);
        assert!((m - t.mean()).abs() < 0.02, "sample {m} vs {}", t.mean());
        assert!(t.variance() < 1.0, "truncation shrinks the variance");
    }

    #[test]
    fn truncated_gaussian_with_mean_preserves_target() {
        for &target in &[0.2, 1.0, 5.0, 40.0] {
            let t = TruncatedGaussian::with_mean(1.0, 0.0, target).unwrap();
            assert!(
                (t.mean() - target).abs() < 1e-9,
                "target {target}: mean {}",
                t.mean()
            );
            assert!(t.location() <= target);
        }
        // Mild-truncation regime: the location barely moves.
        let t = TruncatedGaussian::with_mean(1.0, 0.0, 10.0).unwrap();
        assert!((t.location() - 10.0).abs() < 1e-9);
        assert!(TruncatedGaussian::with_mean(1.0, 0.0, -1.0).is_err());
        assert!(TruncatedGaussian::with_mean(0.0, 0.0, 1.0).is_err());
    }

    #[test]
    fn truncated_pareto_moments_and_cdf() {
        let t = TruncatedPareto::new(1.765, 1.0, 30.0).unwrap();
        assert_eq!(t.pdf(0.9), 0.0);
        assert_eq!(t.pdf(30.1), 0.0);
        assert_eq!(t.cdf(40.0), 1.0);
        assert!((t.cdf(t.quantile(0.7)) - 0.7).abs() < 1e-12);
        assert!(t.quantile(1.0 - 1e-16) <= 30.0);
        // The truncated mean sits below the untruncated b·s/(b−1).
        let full = Pareto::new(1.765, 1.0).unwrap();
        assert!(t.mean() < full.mean());
        assert!(t.variance().is_finite() && t.variance() > 0.0);
        let m = sample_mean(&t, 100_000, 19);
        assert!(
            (m - t.mean()).abs() / t.mean() < 0.02,
            "sample {m} vs {}",
            t.mean()
        );
    }

    #[test]
    fn truncated_pareto_with_mean_preserves_target() {
        for &target in &[0.05, 0.5, 2.0, 20.0] {
            let t = TruncatedPareto::with_mean(1.765, 30.0, target).unwrap();
            assert!(
                (t.mean() - target).abs() / target < 1e-9,
                "target {target}: mean {}",
                t.mean()
            );
            // Recalibration raises the scale above the untruncated inversion.
            assert!(t.scale() >= target * 0.765 / 1.765 * (1.0 - 1e-12));
        }
        // Infinite-mean shapes still admit a truncated solution.
        let t = TruncatedPareto::with_mean(0.9, 10.0, 1.0).unwrap();
        assert!((t.mean() - 1.0).abs() < 1e-9);
        assert!(TruncatedPareto::with_mean(1.765, 10.0, 10.0).is_err());
        assert!(TruncatedPareto::with_mean(1.765, 10.0, 0.0).is_err());
        assert!(TruncatedPareto::new(1.765, 2.0, 2.0).is_err());
    }

    #[test]
    fn exponential_quantile_roundtrip() {
        let e = Exponential::new(0.5).unwrap();
        assert!((e.cdf(e.quantile(0.9)) - 0.9).abs() < 1e-12);
        assert_eq!(e.mean(), 2.0);
    }

    #[test]
    fn sampling_tracks_distribution_mean() {
        let g = Gaussian::new(-3.0, 1.5).unwrap();
        assert!((sample_mean(&g, 100_000, 11) + 3.0).abs() < 0.02);
        let e = Exponential::new(2.0).unwrap();
        assert!((sample_mean(&e, 100_000, 13) - 0.5).abs() < 0.01);
    }
}

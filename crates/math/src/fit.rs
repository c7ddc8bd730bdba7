//! Model fitting for every distribution family the paper uses.
//!
//! - Gaussian moment fits (peak-hour arrivals, §5.1), including weighted
//!   variants that operate on binned data.
//! - Pareto maximum-likelihood fit with optionally *fixed shape* — §5.1
//!   fixes `b = 1.765` and fits only the scale across BS deciles.
//! - Base-10 log-normal moment fit from a [`BinnedPdf`] — step 1 of the
//!   §5.2 mixture algorithm.
//! - Negative-exponential ranking law (Fig 4), linearized on a log axis.
//! - Power law `v(d) = α·d^β` via Levenberg–Marquardt with a log–log OLS
//!   warm start (§5.3).

use crate::distributions::{Gaussian, LogNormal10, Pareto};
use crate::histogram::BinnedPdf;
use crate::regression::{ols_line, r_squared, weighted_r_squared};
use crate::{MathError, Result};

/// Fits a Gaussian to raw samples by the method of moments.
pub fn fit_gaussian(samples: &[f64]) -> Result<Gaussian> {
    if samples.len() < 2 {
        return Err(MathError::EmptyInput("fit_gaussian needs >= 2 samples"));
    }
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    Gaussian::new(mean, var.sqrt().max(1e-12))
}

/// Fits a Gaussian to binned/weighted data `(values, weights)`.
pub fn fit_gaussian_weighted(values: &[f64], weights: &[f64]) -> Result<Gaussian> {
    if values.len() != weights.len() {
        return Err(MathError::DimensionMismatch {
            expected: values.len(),
            got: weights.len(),
        });
    }
    let wsum: f64 = weights.iter().sum();
    if wsum <= 0.0 {
        return Err(MathError::InvalidParameter(
            "fit_gaussian_weighted: zero total weight",
        ));
    }
    let mean = values.iter().zip(weights).map(|(v, w)| v * w).sum::<f64>() / wsum;
    let var = values
        .iter()
        .zip(weights)
        .map(|(v, w)| w * (v - mean).powi(2))
        .sum::<f64>()
        / wsum;
    Gaussian::new(mean, var.sqrt().max(1e-12))
}

/// Fits a Pareto by maximum likelihood. `fixed_shape = Some(b)` pins the
/// shape (the paper's `b = 1.765`) and estimates only the scale; otherwise
/// the shape MLE `n / Σ ln(xᵢ/s)` is used. The scale MLE is `min xᵢ`.
pub fn fit_pareto(samples: &[f64], fixed_shape: Option<f64>) -> Result<Pareto> {
    if samples.is_empty() {
        return Err(MathError::EmptyInput("fit_pareto"));
    }
    let scale = samples.iter().copied().fold(f64::INFINITY, f64::min);
    if !(scale > 0.0) {
        return Err(MathError::InvalidParameter(
            "fit_pareto requires positive samples",
        ));
    }
    let shape = match fixed_shape {
        Some(b) => b,
        None => {
            let log_sum: f64 = samples.iter().map(|x| (x / scale).ln()).sum();
            if log_sum <= 0.0 {
                // All samples equal: degenerate; use a large shape.
                1e6
            } else {
                samples.len() as f64 / log_sum
            }
        }
    };
    Pareto::new(shape, scale)
}

/// Fits a base-10 log-normal to a binned volume PDF by matching the first
/// two moments on the `log₁₀` axis — the "main component" fit of §5.2.
pub fn fit_lognormal10_from_pdf(pdf: &BinnedPdf) -> Result<LogNormal10> {
    let mu = pdf.mean_log10();
    let sigma = pdf.var_log10().sqrt();
    LogNormal10::new(mu, sigma.max(1e-6))
}

/// Fits a base-10 log-normal to raw positive samples by log-moments.
pub fn fit_lognormal10(samples: &[f64]) -> Result<LogNormal10> {
    if samples.len() < 2 {
        return Err(MathError::EmptyInput("fit_lognormal10 needs >= 2 samples"));
    }
    if samples.iter().any(|x| *x <= 0.0) {
        return Err(MathError::InvalidParameter(
            "fit_lognormal10 requires positive samples",
        ));
    }
    let logs: Vec<f64> = samples.iter().map(|x| x.log10()).collect();
    let n = logs.len() as f64;
    let mu = logs.iter().sum::<f64>() / n;
    let var = logs.iter().map(|u| (u - mu).powi(2)).sum::<f64>() / n;
    LogNormal10::new(mu, var.sqrt().max(1e-9))
}

/// Result of the negative-exponential ranking-law fit of Fig 4:
/// `share(rank) ≈ amplitude · exp(−rate · rank)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExponentialLawFit {
    pub amplitude: f64,
    pub rate: f64,
    /// R² of the linearized (log-space) fit — the paper reports 0.97.
    pub r2_log: f64,
    /// R² in linear space, for reference.
    pub r2_linear: f64,
}

impl ExponentialLawFit {
    /// Predicted share at a (0-based) rank.
    #[must_use]
    pub fn predict(&self, rank: f64) -> f64 {
        self.amplitude * (-self.rate * rank).exp()
    }
}

/// Fits the exponential ranking law to positive, rank-ordered shares.
pub fn fit_exponential_law(shares: &[f64]) -> Result<ExponentialLawFit> {
    if shares.len() < 3 {
        return Err(MathError::EmptyInput(
            "fit_exponential_law needs >= 3 shares",
        ));
    }
    if shares.iter().any(|s| *s <= 0.0) {
        return Err(MathError::InvalidParameter(
            "fit_exponential_law requires positive shares",
        ));
    }
    let ranks: Vec<f64> = (0..shares.len()).map(|i| i as f64).collect();
    let logs: Vec<f64> = shares.iter().map(|s| s.ln()).collect();
    let line = ols_line(&ranks, &logs)?;
    let amplitude = line.intercept.exp();
    let rate = -line.slope;
    let yhat: Vec<f64> = ranks
        .iter()
        .map(|r| amplitude * (-rate * r).exp())
        .collect();
    let r2_linear = r_squared(shares, &yhat)?;
    Ok(ExponentialLawFit {
        amplitude,
        rate,
        r2_log: line.r2,
        r2_linear,
    })
}

/// Result of the §5.3 power-law fit `v(d) = α·d^β`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerLawFit {
    pub alpha: f64,
    pub beta: f64,
    /// Weighted R² of the fit in linear space (Fig 10 reports 0.5–0.9).
    pub r2: f64,
}

impl PowerLawFit {
    /// Predicted mean volume for duration `d`.
    #[must_use]
    pub fn predict(&self, d: f64) -> f64 {
        self.alpha * d.powf(self.beta)
    }

    /// Inverse map `v⁻¹`: the duration whose mean volume is `v` — used in
    /// §5.4 to derive a session duration from a sampled volume.
    #[must_use]
    pub fn invert(&self, v: f64) -> f64 {
        (v / self.alpha).powf(1.0 / self.beta)
    }
}

/// Fits the power law via Levenberg–Marquardt (log–log OLS warm start).
///
/// # Examples
/// ```
/// use mtd_math::fit::fit_power_law;
/// let ds: Vec<f64> = (1..50).map(f64::from).collect();
/// let vs: Vec<f64> = ds.iter().map(|d| 0.0027 * d.powf(1.5)).collect();
/// let fit = fit_power_law(&ds, &vs, None).unwrap();
/// assert!((fit.beta - 1.5).abs() < 1e-3);
/// assert!(fit.r2 > 0.999);
/// ```
///
/// `weights`, when given, weight the squared residuals (the paper weights
/// duration bins by their session counts, Eq. 1). Durations and volumes
/// must be positive.
pub fn fit_power_law(
    durations: &[f64],
    volumes: &[f64],
    weights: Option<&[f64]>,
) -> Result<PowerLawFit> {
    if durations.len() != volumes.len() {
        return Err(MathError::DimensionMismatch {
            expected: durations.len(),
            got: volumes.len(),
        });
    }
    if durations.len() < 2 {
        return Err(MathError::EmptyInput("fit_power_law needs >= 2 points"));
    }
    if durations.iter().chain(volumes).any(|x| *x <= 0.0) {
        return Err(MathError::InvalidParameter(
            "fit_power_law requires positive data",
        ));
    }

    // Warm start from log–log OLS: ln v = ln α + β ln d.
    let lx: Vec<f64> = durations.iter().map(|d| d.ln()).collect();
    let ly: Vec<f64> = volumes.iter().map(|v| v.ln()).collect();
    let line = ols_line(&lx, &ly)?;
    let x0 = [line.intercept.exp(), line.slope];

    // LM refinement in *relative* residual space so that huge-volume bins
    // do not completely dominate: residual = √w · (f(d)/v − 1). This
    // matches fitting in log space to first order while staying
    // differentiable at the LM level.
    struct RelativePowerLaw<'a> {
        durations: &'a [f64],
        volumes: &'a [f64],
        weights: Option<&'a [f64]>,
    }
    impl crate::levmar::LmProblem for RelativePowerLaw<'_> {
        fn residual_len(&self) -> usize {
            self.durations.len()
        }
        fn residuals(&self, p: &[f64], out: &mut [f64]) {
            for (i, out_i) in out.iter_mut().enumerate() {
                let w = self.weights.map_or(1.0, |w| w[i].max(0.0).sqrt());
                *out_i = w * (p[0] * self.durations[i].powf(p[1]) / self.volumes[i] - 1.0);
            }
        }
    }
    let problem = RelativePowerLaw {
        durations,
        volumes,
        weights,
    };
    if let Some(w) = weights {
        if w.len() != durations.len() {
            return Err(MathError::DimensionMismatch {
                expected: durations.len(),
                got: w.len(),
            });
        }
    }
    // One scratch per thread: fit_power_law runs once per service inside
    // pool workers, and the Jacobian/residual buffers dominate its
    // allocations. `lm_fit_with` is bit-identical to `lm_fit`.
    thread_local! {
        static LM_SCRATCH: std::cell::RefCell<crate::levmar::LmScratch> =
            std::cell::RefCell::new(crate::levmar::LmScratch::new());
    }
    let fit = LM_SCRATCH.with(|scratch| {
        crate::levmar::lm_fit_with(
            &problem,
            &x0,
            &crate::levmar::LmOptions::default(),
            &mut scratch.borrow_mut(),
        )
    })?;

    let alpha = fit.params[0];
    let beta = fit.params[1];
    let yhat: Vec<f64> = durations.iter().map(|d| alpha * d.powf(beta)).collect();
    let r2 = match weights {
        Some(w) => weighted_r_squared(volumes, &yhat, w)?,
        None => r_squared(volumes, &yhat)?,
    };
    Ok(PowerLawFit { alpha, beta, r2 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributions::Distribution1D;
    use crate::histogram::{LogGrid, LogHistogram};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn gaussian_fit_recovers_moments() {
        let truth = Gaussian::new(3.0, 1.5).unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        let samples: Vec<f64> = (0..50_000).map(|_| truth.sample(&mut rng)).collect();
        let fit = fit_gaussian(&samples).unwrap();
        assert!((fit.mean() - 3.0).abs() < 0.03);
        assert!((fit.std() - 1.5).abs() < 0.03);
    }

    #[test]
    fn gaussian_weighted_fit_on_binned_data() {
        // Two symmetric bins around 10.
        let fit = fit_gaussian_weighted(&[8.0, 12.0], &[1.0, 1.0]).unwrap();
        assert!((fit.mean() - 10.0).abs() < 1e-12);
        assert!((fit.std() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn pareto_mle_recovers_shape_and_scale() {
        let truth = Pareto::new(1.765, 2.5).unwrap();
        let mut rng = SmallRng::seed_from_u64(2);
        let samples: Vec<f64> = (0..100_000).map(|_| truth.sample(&mut rng)).collect();
        let fit = fit_pareto(&samples, None).unwrap();
        assert!((fit.shape() - 1.765).abs() < 0.03, "shape {}", fit.shape());
        assert!((fit.scale() - 2.5).abs() < 0.01, "scale {}", fit.scale());
    }

    #[test]
    fn pareto_fixed_shape_estimates_scale_only() {
        let truth = Pareto::new(1.765, 4.0).unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        let samples: Vec<f64> = (0..10_000).map(|_| truth.sample(&mut rng)).collect();
        let fit = fit_pareto(&samples, Some(1.765)).unwrap();
        assert_eq!(fit.shape(), 1.765);
        assert!((fit.scale() - 4.0).abs() < 0.01);
    }

    #[test]
    fn lognormal_fit_from_pdf_matches_truth() {
        let truth = LogNormal10::new(1.6, 0.45).unwrap();
        let mut h = LogHistogram::new(LogGrid::new(-3.0, 5.0, 800).unwrap());
        let mut rng = SmallRng::seed_from_u64(4);
        for _ in 0..100_000 {
            h.add(truth.sample(&mut rng));
        }
        let fit = fit_lognormal10_from_pdf(&h.to_pdf().unwrap()).unwrap();
        assert!((fit.mu() - 1.6).abs() < 0.02, "mu {}", fit.mu());
        assert!((fit.sigma() - 0.45).abs() < 0.02, "sigma {}", fit.sigma());
    }

    #[test]
    fn lognormal_fit_from_samples() {
        let truth = LogNormal10::new(-0.5, 0.3).unwrap();
        let mut rng = SmallRng::seed_from_u64(5);
        let samples: Vec<f64> = (0..50_000).map(|_| truth.sample(&mut rng)).collect();
        let fit = fit_lognormal10(&samples).unwrap();
        assert!((fit.mu() + 0.5).abs() < 0.01);
        assert!((fit.sigma() - 0.3).abs() < 0.01);
    }

    #[test]
    fn exponential_law_fit_exact() {
        let shares: Vec<f64> = (0..100).map(|r| 0.3 * (-0.15 * r as f64).exp()).collect();
        let fit = fit_exponential_law(&shares).unwrap();
        assert!((fit.amplitude - 0.3).abs() < 1e-9);
        assert!((fit.rate - 0.15).abs() < 1e-9);
        assert!((fit.r2_log - 1.0).abs() < 1e-9);
        assert!((fit.predict(10.0) - shares[10]).abs() < 1e-9);
    }

    #[test]
    fn exponential_law_rejects_nonpositive() {
        assert!(fit_exponential_law(&[0.5, 0.0, 0.1]).is_err());
    }

    #[test]
    fn power_law_fit_recovers_truth() {
        let ds: Vec<f64> = (1..200).map(f64::from).collect();
        let vs: Vec<f64> = ds.iter().map(|d| 0.8 * d.powf(1.4)).collect();
        let fit = fit_power_law(&ds, &vs, None).unwrap();
        assert!((fit.alpha - 0.8).abs() < 1e-3, "alpha {}", fit.alpha);
        assert!((fit.beta - 1.4).abs() < 1e-3, "beta {}", fit.beta);
        assert!(fit.r2 > 0.999);
    }

    #[test]
    fn power_law_inverse_roundtrips() {
        let fit = PowerLawFit {
            alpha: 2.0,
            beta: 1.5,
            r2: 1.0,
        };
        for d in [0.5, 1.0, 10.0, 500.0] {
            let v = fit.predict(d);
            assert!((fit.invert(v) - d).abs() / d < 1e-12);
        }
    }

    #[test]
    fn power_law_sublinear_fit() {
        let ds: Vec<f64> = (1..100).map(f64::from).collect();
        let vs: Vec<f64> = ds.iter().map(|d| 5.0 * d.powf(0.3)).collect();
        let fit = fit_power_law(&ds, &vs, None).unwrap();
        assert!((fit.beta - 0.3).abs() < 1e-3);
    }

    #[test]
    fn power_law_rejects_bad_input() {
        assert!(fit_power_law(&[1.0], &[1.0], None).is_err());
        assert!(fit_power_law(&[1.0, -2.0], &[1.0, 2.0], None).is_err());
        assert!(fit_power_law(&[1.0, 2.0], &[1.0], None).is_err());
    }
}

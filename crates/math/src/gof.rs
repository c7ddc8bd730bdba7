//! Goodness-of-fit statistics for sampler validation.
//!
//! The §5.4 model assessment compares fitted models against measured
//! PDFs; this module supplies the sample-vs-analytic half of that story:
//! one-sample Kolmogorov–Smirnov distances against an arbitrary CDF (with
//! the Kolmogorov survival function for their p-values) and an
//! earth-mover distance against an arbitrary quantile function. Both are
//! exact functions of the sorted sample, so seeded draws give bit-stable
//! statistics — the property the sampling-fidelity battery builds on.

use crate::{MathError, Result};

/// KS distance of an **ascending-sorted** sample against a CDF.
pub fn ks_statistic_sorted(sorted: &[f64], cdf: impl Fn(f64) -> f64) -> Result<f64> {
    if sorted.is_empty() {
        return Err(MathError::EmptyInput("ks_statistic_sorted"));
    }
    let n = sorted.len() as f64;
    let mut d = 0.0f64;
    for (i, &x) in sorted.iter().enumerate() {
        let f = cdf(x);
        if !f.is_finite() {
            return Err(MathError::InvalidParameter("ks: CDF returned non-finite"));
        }
        // ECDF steps from i/n to (i+1)/n at x; check both sides.
        let below = f - i as f64 / n;
        let above = (i + 1) as f64 / n - f;
        d = d.max(below).max(above);
    }
    Ok(d)
}

/// KS distance of an **ascending-sorted** sample against precomputed CDF
/// values at the sample points: `cdf[i] = F(x_i)` and `left[i] = F(x_i−)`,
/// the CDF's left limit there.
///
/// The two differ only where `F` has an atom, e.g. a censored sampler's
/// clamp point. The ECDF below a run of samples tied at an atom is then
/// compared with `F(x−)` and the ECDF at the run with `F(x)`; comparing
/// both with `F(x)` would report the atom's whole mass as distance. For a
/// continuous `F` pass the same values twice. Same validation and fold
/// order as [`ks_statistic_sorted`], so the two agree bit-for-bit on
/// identical CDF values; this variant lets callers evaluate the model CDF
/// through a SIMD batch kernel first.
pub fn ks_statistic_from_cdf(left: &[f64], cdf: &[f64]) -> Result<f64> {
    if cdf.is_empty() {
        return Err(MathError::EmptyInput("ks_statistic_from_cdf"));
    }
    if left.len() != cdf.len() {
        return Err(MathError::InvalidParameter(
            "ks: left limits and CDF lengths differ",
        ));
    }
    let n = cdf.len() as f64;
    let mut d = 0.0f64;
    for (i, (&l, &f)) in left.iter().zip(cdf).enumerate() {
        if !l.is_finite() || !f.is_finite() {
            return Err(MathError::InvalidParameter("ks: CDF returned non-finite"));
        }
        let below = l - i as f64 / n;
        let above = (i + 1) as f64 / n - f;
        d = d.max(below).max(above);
    }
    Ok(d)
}

/// Survival function of the Kolmogorov distribution:
/// `P(K > x) = 2 Σ_{k≥1} (−1)^{k−1} exp(−2k²x²)`.
#[must_use]
pub fn kolmogorov_sf(x: f64) -> f64 {
    if x <= 0.0 {
        return 1.0;
    }
    let mut acc = 0.0;
    let mut sign = 1.0;
    for k in 1..=100 {
        let term = (-2.0 * (k as f64 * x).powi(2)).exp();
        acc += sign * term;
        sign = -sign;
        if term < 1e-18 {
            break;
        }
    }
    (2.0 * acc).clamp(0.0, 1.0)
}

/// Asymptotic p-value of a KS distance `d` over `n` draws under the null
/// (sample drawn from the tested CDF). Stephens (1970): the Kolmogorov law
/// applied at `(√n + 0.12 + 0.11/√n)·d` is accurate down to `n ≈ 5`.
#[must_use]
pub fn ks_p_value(d: f64, n: usize) -> f64 {
    let sqrt_n = (n as f64).sqrt();
    kolmogorov_sf((sqrt_n + 0.12 + 0.11 / sqrt_n) * d)
}

/// Earth-mover (Wasserstein-1) distance between a sample and an analytic
/// distribution given by its quantile function, via the quantile-coupling
/// form `W₁ ≈ (1/n) Σ |x_(i) − Q((i−½)/n)|` on the sorted sample.
///
/// Heavy-tailed targets make the top order statistics noisy; callers
/// comparing against infinite-variance laws should truncate first.
pub fn emd_to_quantile(samples: &[f64], quantile: impl Fn(f64) -> f64) -> Result<f64> {
    if samples.is_empty() {
        return Err(MathError::EmptyInput("emd_to_quantile"));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len() as f64;
    let mut acc = 0.0;
    for (i, &x) in sorted.iter().enumerate() {
        let q = quantile((i as f64 + 0.5) / n);
        if !q.is_finite() {
            return Err(MathError::InvalidParameter(
                "emd: quantile returned non-finite",
            ));
        }
        acc += (x - q).abs();
    }
    Ok(acc / n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributions::{Distribution1D, Gaussian};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn gaussian_sample(n: usize, seed: u64) -> (Gaussian, Vec<f64>) {
        let g = Gaussian::new(2.0, 1.5).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        let xs = (0..n).map(|_| g.sample(&mut rng)).collect();
        (g, xs)
    }

    #[test]
    fn kolmogorov_sf_known_values() {
        // Classical critical values: sf(1.358) ≈ 0.05, sf(1.628) ≈ 0.01.
        assert!((kolmogorov_sf(1.358) - 0.05).abs() < 0.005);
        assert!((kolmogorov_sf(1.628) - 0.01).abs() < 0.002);
        assert_eq!(kolmogorov_sf(0.0), 1.0);
        assert!(kolmogorov_sf(3.0) < 1e-6);
    }

    #[test]
    fn ks_accepts_matching_distribution() {
        let (g, mut xs) = gaussian_sample(20_000, 1);
        xs.sort_by(f64::total_cmp);
        let d = ks_statistic_sorted(&xs, |x| g.cdf(x)).unwrap();
        assert!(d < 2.3 / (xs.len() as f64).sqrt(), "D = {d}");
        let p = ks_p_value(d, xs.len());
        assert!(p > 1e-4, "p = {p}");
    }

    #[test]
    fn ks_rejects_shifted_distribution() {
        let (_, mut xs) = gaussian_sample(20_000, 2);
        xs.sort_by(f64::total_cmp);
        let shifted = Gaussian::new(2.3, 1.5).unwrap();
        let d = ks_statistic_sorted(&xs, |x| shifted.cdf(x)).unwrap();
        let p = ks_p_value(d, xs.len());
        assert!(p < 1e-6, "p = {p}");
    }

    #[test]
    fn ks_exact_on_tiny_sample() {
        // Single point at the median: D = 1/2 on either side.
        let d = ks_statistic_sorted(&[0.0], |x| if x < 0.0 { 0.0 } else { 0.5 }).unwrap();
        assert!((d - 0.5).abs() < 1e-12);
    }

    #[test]
    fn emd_small_for_matching_distribution() {
        let (g, xs) = gaussian_sample(20_000, 3);
        let w = emd_to_quantile(&xs, |p| g.quantile(p)).unwrap();
        assert!(w < 0.05, "W1 = {w}");
    }

    #[test]
    fn emd_detects_location_shift() {
        let (g, xs) = gaussian_sample(20_000, 4);
        let shifted: Vec<f64> = xs.iter().map(|x| x + 0.5).collect();
        let w = emd_to_quantile(&shifted, |p| g.quantile(p)).unwrap();
        assert!((w - 0.5).abs() < 0.05, "W1 = {w}");
    }

    #[test]
    fn empty_inputs_error() {
        assert!(ks_statistic_sorted(&[], |_| 0.5).is_err());
        assert!(emd_to_quantile(&[], |_| 0.0).is_err());
        assert!(ks_statistic_from_cdf(&[], &[]).is_err());
        assert!(ks_statistic_from_cdf(&[0.5], &[0.5, 0.6]).is_err());
    }

    #[test]
    fn precomputed_value_variant_matches_closure_variant_bitwise() {
        let (g, mut sorted) = gaussian_sample(5_000, 7);
        sorted.sort_by(f64::total_cmp);
        let cdf_values: Vec<f64> = sorted.iter().map(|&x| g.cdf(x)).collect();
        let from_closure = ks_statistic_sorted(&sorted, |x| g.cdf(x)).unwrap();
        let from_values = ks_statistic_from_cdf(&cdf_values, &cdf_values).unwrap();
        assert_eq!(from_values.to_bits(), from_closure.to_bits());
    }

    #[test]
    fn non_finite_precomputed_values_error() {
        assert!(ks_statistic_from_cdf(&[0.5, 0.6], &[0.5, f64::NAN]).is_err());
    }

    #[test]
    fn censored_sample_is_measured_against_the_atom_not_through_it() {
        // U(0, 1) draws clamped to [0.1, 0.9]: atoms of mass 0.1 at both
        // clamp points. The censored CDF is 0 below 0.1, F(0.1) = 0.1,
        // x in between, F(0.9−) = 0.9 and F(0.9) = 1.
        let n = 20_000;
        let mut rng = SmallRng::seed_from_u64(11);
        let mut xs: Vec<f64> = (0..n).map(|_| rng.gen::<f64>().clamp(0.1, 0.9)).collect();
        xs.sort_by(f64::total_cmp);
        let cdf: Vec<f64> = xs.iter().map(|&x| if x >= 0.9 { 1.0 } else { x }).collect();
        let left: Vec<f64> = xs.iter().map(|&x| if x <= 0.1 { 0.0 } else { x }).collect();
        let d = ks_statistic_from_cdf(&left, &cdf).unwrap();
        assert!(d < 2.23 / (n as f64).sqrt(), "D = {d}");
        // Using F(x) on both sides of a tied run reports an atom's mass.
        let blind = ks_statistic_from_cdf(&cdf, &cdf).unwrap();
        assert!((blind - 0.1).abs() < 0.01, "D = {blind}");
    }
}

//! Earth mover (Wasserstein-1) distance between one-dimensional PDFs.
//!
//! The paper uses EMD to compare normalized volume PDFs `F_s(x)`
//! (similarity matrix of Fig 6a, day/region/city/RAT comparisons of Fig 8,
//! model quality in §5.4). In one dimension, EMD has a closed form:
//!
//! ```text
//! EMD(F, G) = ∫ |CDF_F(x) − CDF_G(x)| dx = ∫₀¹ |Q_F(p) − Q_G(p)| dp
//! ```
//!
//! Distances are computed **on the `log₁₀` axis** (decades), consistent
//! with how the paper treats volume PDFs; [`emd_centered`] first removes
//! each distribution's mean, which is the paper's "normalize to zero mean"
//! preprocessing (§4.3 step i).

use crate::histogram::BinnedPdf;
use crate::{MathError, Result};

/// EMD between two PDFs on the *same* grid, via the CDF-difference form.
///
/// # Examples
/// ```
/// use mtd_math::distributions::LogNormal10;
/// use mtd_math::emd::emd_same_grid;
/// use mtd_math::histogram::{BinnedPdf, LogGrid};
/// let grid = LogGrid::new(-2.0, 3.0, 100).unwrap();
/// let a = LogNormal10::new(0.0, 0.4).unwrap();
/// let b = LogNormal10::new(1.0, 0.4).unwrap();
/// let pa = BinnedPdf::from_fn(grid, |u| a.pdf_log10(u)).unwrap();
/// let pb = BinnedPdf::from_fn(grid, |u| b.pdf_log10(u)).unwrap();
/// // W1 between same-shape distributions one decade apart is ~1 decade.
/// let d = emd_same_grid(&pa, &pb).unwrap();
/// assert!((d - 1.0).abs() < 0.05);
/// ```
pub fn emd_same_grid(a: &BinnedPdf, b: &BinnedPdf) -> Result<f64> {
    if a.grid() != b.grid() {
        return Err(MathError::InvalidParameter(
            "emd_same_grid requires identical grids",
        ));
    }
    let w = a.grid().bin_width();
    let ca = a.cdf();
    let cb = b.cdf();
    Ok(ca.iter().zip(&cb).map(|(x, y)| (x - y).abs()).sum::<f64>() * w)
}

/// Number of quantile samples used by the quantile-form estimators.
const QUANTILE_POINTS: usize = 1024;

/// EMD via the quantile form; works for PDFs on different grids.
pub fn emd_quantile(a: &BinnedPdf, b: &BinnedPdf) -> Result<f64> {
    quantile_integral(a, b, 0.0, 0.0)
}

/// EMD between *mean-centered* PDFs: each distribution is shifted so its
/// `log₁₀`-mean is zero before comparison. This removes the sheer-volume
/// offset between services, leaving shape differences only — exactly the
/// preprocessing the paper applies before clustering (§4.3).
pub fn emd_centered(a: &BinnedPdf, b: &BinnedPdf) -> Result<f64> {
    quantile_integral(a, b, a.mean_log10(), b.mean_log10())
}

/// `∫₀¹ |(Q_a(p) − shift_a) − (Q_b(p) − shift_b)| dp` by the midpoint rule.
/// The midpoints increase, so each PDF's quantiles come from one
/// [`QuantileWalk`](crate::histogram::QuantileWalk) over its CDF: O(bins +
/// points) per distance instead of a rescan from bin 0 per point.
fn quantile_integral(a: &BinnedPdf, b: &BinnedPdf, shift_a: f64, shift_b: f64) -> Result<f64> {
    let n = QUANTILE_POINTS;
    let (mut qa, mut qb) = (a.quantile_walk(), b.quantile_walk());
    let mut acc = 0.0;
    for i in 0..n {
        let p = (i as f64 + 0.5) / n as f64;
        acc += ((qa.at(p) - shift_a) - (qb.at(p) - shift_b)).abs();
    }
    Ok(acc / n as f64)
}

/// Kolmogorov–Smirnov distance between two PDFs on the same grid:
/// `sup_x |CDF_F(x) − CDF_G(x)|`. A location-free companion to EMD —
/// sensitive to the worst local mismatch where EMD integrates it away.
pub fn ks_same_grid(a: &BinnedPdf, b: &BinnedPdf) -> Result<f64> {
    if a.grid() != b.grid() {
        return Err(MathError::InvalidParameter(
            "ks_same_grid requires identical grids",
        ));
    }
    let ca = a.cdf();
    let cb = b.cdf();
    Ok(ca
        .iter()
        .zip(&cb)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributions::LogNormal10;
    use crate::histogram::LogGrid;

    fn pdf(mu: f64, sigma: f64) -> BinnedPdf {
        let g = LogGrid::new(-4.0, 5.0, 900).unwrap();
        let ln = LogNormal10::new(mu, sigma).unwrap();
        BinnedPdf::from_fn(g, |u| ln.pdf_log10(u)).unwrap()
    }

    #[test]
    fn emd_identity_is_zero() {
        let a = pdf(1.0, 0.4);
        assert!(emd_same_grid(&a, &a).unwrap() < 1e-12);
        assert!(emd_quantile(&a, &a).unwrap() < 1e-9);
    }

    #[test]
    fn emd_of_shifted_gaussians_equals_shift() {
        // W1 between N(μ1,σ) and N(μ2,σ) is |μ1 − μ2|.
        let a = pdf(0.5, 0.3);
        let b = pdf(1.5, 0.3);
        let d = emd_same_grid(&a, &b).unwrap();
        assert!((d - 1.0).abs() < 0.01, "emd = {d}");
        let dq = emd_quantile(&a, &b).unwrap();
        assert!((dq - 1.0).abs() < 0.02, "quantile emd = {dq}");
    }

    #[test]
    fn emd_is_symmetric() {
        let a = pdf(0.0, 0.2);
        let b = pdf(2.0, 0.6);
        let d1 = emd_same_grid(&a, &b).unwrap();
        let d2 = emd_same_grid(&b, &a).unwrap();
        assert!((d1 - d2).abs() < 1e-12);
    }

    #[test]
    fn centered_emd_ignores_location() {
        // Same shape, different location: centered EMD ≈ 0.
        let a = pdf(0.0, 0.4);
        let b = pdf(2.0, 0.4);
        let d = emd_centered(&a, &b).unwrap();
        assert!(d < 0.02, "centered emd = {d}");
        // Different shapes remain distinguishable.
        let c = pdf(0.0, 1.0);
        assert!(emd_centered(&a, &c).unwrap() > 0.2);
    }

    #[test]
    fn ks_bounds_and_identity() {
        let a = pdf(0.5, 0.3);
        let b = pdf(2.0, 0.3);
        assert!(ks_same_grid(&a, &a).unwrap() < 1e-12);
        // Far-separated distributions: KS approaches 1.
        assert!(ks_same_grid(&a, &b).unwrap() > 0.95);
        // KS is bounded by 1 and symmetric.
        let d1 = ks_same_grid(&a, &b).unwrap();
        let d2 = ks_same_grid(&b, &a).unwrap();
        assert!(d1 <= 1.0 + 1e-12);
        assert!((d1 - d2).abs() < 1e-12);
    }

    #[test]
    fn triangle_inequality_on_grid() {
        let a = pdf(0.0, 0.3);
        let b = pdf(1.0, 0.5);
        let c = pdf(2.0, 0.4);
        let ab = emd_same_grid(&a, &b).unwrap();
        let bc = emd_same_grid(&b, &c).unwrap();
        let ac = emd_same_grid(&a, &c).unwrap();
        assert!(ac <= ab + bc + 1e-9);
    }
}

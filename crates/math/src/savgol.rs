//! Savitzky–Golay least-squares smoothing and differentiation.
//!
//! §5.2 of the paper computes "the first derivative of the residual, using a
//! first-order Savitzky–Golay filter that smooths the resulting curve".
//! This module implements the general SG filter: fit a degree-`p` polynomial
//! to each sliding window of `2m+1` points by least squares and evaluate the
//! polynomial (or its derivative) at the output position. Near the edges the
//! first/last full window is reused with the evaluation point shifted, which
//! avoids both truncation and padding artifacts.

use crate::linalg::Matrix;
use crate::{MathError, Result};

/// A Savitzky–Golay filter configuration.
#[derive(Debug, Clone)]
pub struct SavitzkyGolay {
    half_window: usize,
    /// Polynomial coefficient projector: row `k` gives the weights producing
    /// the degree-`k` polynomial coefficient from the window's samples.
    projector: Vec<Vec<f64>>,
    order: usize,
}

impl SavitzkyGolay {
    /// Creates a filter with window `2·half_window + 1` and polynomial
    /// degree `order`. Requires `order < window length`.
    pub fn new(half_window: usize, order: usize) -> Result<Self> {
        let w = 2 * half_window + 1;
        if order + 1 > w {
            return Err(MathError::InvalidParameter(
                "Savitzky-Golay order must be below the window length",
            ));
        }
        // Vandermonde A: rows j = -m..m, columns j^0..j^order.
        let m = half_window as i64;
        let rows: Vec<Vec<f64>> = (-m..=m)
            .map(|j| (0..=order).map(|k| (j as f64).powi(k as i32)).collect())
            .collect();
        let a = Matrix::from_rows(&rows)?;
        let at = a.transpose();
        let ata = at.matmul(&a)?;
        // projector = (AᵀA)⁻¹ Aᵀ, computed column by column.
        let mut projector = vec![vec![0.0; w]; order + 1];
        for col in 0..w {
            // Solve (AᵀA) x = Aᵀ e_col.
            let mut rhs = vec![0.0; order + 1];
            for k in 0..=order {
                rhs[k] = at[(k, col)];
            }
            let x = ata.clone().solve(&rhs)?;
            for k in 0..=order {
                projector[k][col] = x[k];
            }
        }
        Ok(SavitzkyGolay {
            half_window,
            projector,
            order,
        })
    }

    /// Window length `2m + 1`.
    #[must_use]
    pub fn window(&self) -> usize {
        2 * self.half_window + 1
    }

    /// Applies the filter, returning the smoothed signal.
    pub fn smooth(&self, ys: &[f64]) -> Result<Vec<f64>> {
        self.apply(ys, 0, 1.0)
    }

    /// Applies the filter, returning the first derivative with sample
    /// spacing `step` (derivative in units of y per x).
    pub fn first_derivative(&self, ys: &[f64], step: f64) -> Result<Vec<f64>> {
        if step <= 0.0 {
            return Err(MathError::InvalidParameter("step must be > 0"));
        }
        self.apply(ys, 1, step)
    }

    /// [`SavitzkyGolay::first_derivative`] into a caller-owned buffer.
    pub fn first_derivative_into(&self, ys: &[f64], step: f64, out: &mut Vec<f64>) -> Result<()> {
        if step <= 0.0 {
            return Err(MathError::InvalidParameter("step must be > 0"));
        }
        self.apply_into(ys, 1, step, out)
    }

    /// Shared evaluator: fits the window polynomial and evaluates its
    /// `deriv`-th derivative at the output offset.
    fn apply(&self, ys: &[f64], deriv: usize, step: f64) -> Result<Vec<f64>> {
        let mut out = Vec::new();
        self.apply_into(ys, deriv, step, &mut out)?;
        Ok(out)
    }

    /// [`SavitzkyGolay::apply`] writing into `out` (cleared and resized).
    ///
    /// Interior samples (evaluation offset 0) take a single-dot-product
    /// fast path: every e^{k-deriv} term with k > deriv vanishes, so only
    /// the `deriv`-th coefficient survives. The factorial ladder is
    /// hoisted out of the sample loop. Both changes leave every output
    /// bit unchanged relative to the naive loop (the fast path can at
    /// most normalize a -0.0 to +0.0).
    fn apply_into(&self, ys: &[f64], deriv: usize, step: f64, out: &mut Vec<f64>) -> Result<()> {
        let w = self.window();
        let n = ys.len();
        if n < w {
            return Err(MathError::EmptyInput("signal shorter than filter window"));
        }
        if deriv > self.order {
            return Err(MathError::InvalidParameter(
                "derivative order above polynomial order",
            ));
        }
        let m = self.half_window;
        // d^deriv/de^deriv of e^k = k!/(k-deriv)! e^{k-deriv}; the
        // k!/(k-deriv)! ladder depends only on (k, deriv).
        let mut facs = vec![1.0; self.order + 1];
        for (k, slot) in facs.iter_mut().enumerate().skip(deriv) {
            let mut fac = 1.0;
            for f in (k - deriv + 1)..=k {
                fac *= f as f64;
            }
            *slot = fac;
        }
        let scale = step.powi(deriv as i32);
        out.clear();
        out.resize(n, 0.0);
        // Edge samples (evaluation offset e ≠ 0) reuse the first/last full
        // window with the evaluation point shifted.
        #[allow(clippy::needless_range_loop)] // k indexes two parallel tables
        for i in (0..m).chain(n - m..n) {
            let anchor = i.clamp(m, n - 1 - m);
            let window = &ys[anchor - m..=anchor + m];
            let e = i as f64 - anchor as f64;
            let mut value = 0.0;
            for k in deriv..=self.order {
                let coef: f64 = self.projector[k]
                    .iter()
                    .zip(window)
                    .map(|(c, y)| c * y)
                    .sum();
                value += coef * facs[k] * e.powi((k - deriv) as i32);
            }
            out[i] = value / scale;
        }
        // Interior samples collapse to one sliding dot product, summed in
        // ascending k.
        let coeffs = &self.projector[deriv];
        for (o, window) in out[m..n - m].iter_mut().zip(ys.windows(coeffs.len())) {
            let mut acc = 0.0;
            for (c, y) in coeffs.iter().zip(window) {
                acc += c * y;
            }
            *o = acc * facs[deriv] / scale;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_order_too_high_for_window() {
        assert!(SavitzkyGolay::new(1, 3).is_err()); // window 3, order 3
        assert!(SavitzkyGolay::new(1, 2).is_ok());
    }

    #[test]
    fn smoothing_preserves_polynomial_signals() {
        // Degree-2 filter reproduces any quadratic exactly.
        let sg = SavitzkyGolay::new(3, 2).unwrap();
        let ys: Vec<f64> = (0..30)
            .map(|i| {
                let x = f64::from(i);
                1.5 * x * x - 2.0 * x + 7.0
            })
            .collect();
        let sm = sg.smooth(&ys).unwrap();
        for (a, b) in ys.iter().zip(&sm) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
    }

    #[test]
    fn derivative_of_line_is_slope() {
        let sg = SavitzkyGolay::new(2, 1).unwrap();
        let step = 0.5;
        let ys: Vec<f64> = (0..20).map(|i| 3.0 * (f64::from(i) * step) + 1.0).collect();
        let d = sg.first_derivative(&ys, step).unwrap();
        for v in d {
            assert!((v - 3.0).abs() < 1e-8, "{v}");
        }
    }

    #[test]
    fn derivative_of_quadratic_at_edges() {
        // y = x², dy/dx = 2x; order-2 filter recovers it everywhere
        // including the shifted edge windows.
        let sg = SavitzkyGolay::new(3, 2).unwrap();
        let step = 1.0;
        let ys: Vec<f64> = (0..25).map(|i| (f64::from(i)).powi(2)).collect();
        let d = sg.first_derivative(&ys, step).unwrap();
        for (i, v) in d.iter().enumerate() {
            let expect = 2.0 * i as f64;
            assert!((v - expect).abs() < 1e-6, "i={i}: {v} vs {expect}");
        }
    }

    #[test]
    fn smoothing_attenuates_noise() {
        // Deterministic high-frequency noise on a slow ramp.
        let ys: Vec<f64> = (0..200)
            .map(|i| f64::from(i) * 0.01 + if i % 2 == 0 { 0.5 } else { -0.5 })
            .collect();
        let sg = SavitzkyGolay::new(5, 1).unwrap();
        let sm = sg.smooth(&ys).unwrap();
        // Residual variance should drop by a large factor in the interior.
        let noise_before: f64 = ys[20..180]
            .iter()
            .enumerate()
            .map(|(k, y)| (y - (k + 20) as f64 * 0.01).powi(2))
            .sum();
        let noise_after: f64 = sm[20..180]
            .iter()
            .enumerate()
            .map(|(k, y)| (y - (k + 20) as f64 * 0.01).powi(2))
            .sum();
        assert!(
            noise_after < noise_before / 10.0,
            "{noise_after} vs {noise_before}"
        );
    }

    #[test]
    fn short_signal_errors() {
        let sg = SavitzkyGolay::new(3, 1).unwrap();
        assert!(sg.smooth(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn bad_step_errors() {
        let sg = SavitzkyGolay::new(2, 1).unwrap();
        let ys = vec![0.0; 10];
        assert!(sg.first_derivative(&ys, 0.0).is_err());
        let mut out = Vec::new();
        assert!(sg.first_derivative_into(&ys, 0.0, &mut out).is_err());
    }

    #[test]
    fn into_variant_matches_allocating_variant_exactly() {
        let sg = SavitzkyGolay::new(4, 2).unwrap();
        let ys: Vec<f64> = (0..60)
            .map(|i| (f64::from(i) * 0.31).sin() * 2.0 + f64::from(i % 7))
            .collect();
        // One scratch buffer reused across calls of different lengths.
        let mut out = vec![99.0; 3];
        sg.first_derivative_into(&ys, 0.25, &mut out).unwrap();
        assert_eq!(out, sg.first_derivative(&ys, 0.25).unwrap());
        sg.first_derivative_into(&ys[..40], 0.25, &mut out).unwrap();
        assert_eq!(out, sg.first_derivative(&ys[..40], 0.25).unwrap());
    }
}

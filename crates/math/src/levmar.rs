//! Levenberg–Marquardt nonlinear least squares.
//!
//! §5.3 fits the power-law model `v_s(d) = α_s · d^{β_s}` "via the
//! Levenberg–Marquardt non-linear least squares method". This is a generic
//! implementation: the caller supplies a residual function `r(θ)`; the
//! Jacobian is computed by forward differences; the damped normal equations
//! `(JᵀJ + λ·diag(JᵀJ)) δ = −Jᵀr` are solved with the LU solver from
//! [`crate::linalg`]. Marquardt's diagonal scaling makes the step
//! parameter-scale invariant.

use crate::linalg::Matrix;
use crate::{MathError, Result};

/// Options controlling the LM iteration.
#[derive(Debug, Clone, Copy)]
pub struct LmOptions {
    /// Maximum number of accepted-or-rejected iterations.
    pub max_iterations: usize,
    /// Initial damping factor λ.
    pub initial_lambda: f64,
    /// Stop when the relative cost improvement falls below this.
    pub cost_tolerance: f64,
    /// Stop when the step infinity-norm falls below this.
    pub step_tolerance: f64,
    /// Relative perturbation for the forward-difference Jacobian.
    pub fd_epsilon: f64,
}

impl Default for LmOptions {
    fn default() -> Self {
        LmOptions {
            max_iterations: 200,
            initial_lambda: 1e-3,
            cost_tolerance: 1e-12,
            step_tolerance: 1e-12,
            fd_epsilon: 1e-7,
        }
    }
}

/// Outcome of a converged LM run.
#[derive(Debug, Clone)]
pub struct LmResult {
    /// Fitted parameter vector.
    pub params: Vec<f64>,
    /// Final cost `½‖r‖²`.
    pub cost: f64,
    /// Iterations consumed.
    pub iterations: usize,
}

/// A nonlinear least-squares problem with a known residual count.
pub trait LmProblem {
    /// Number of residuals.
    fn residual_len(&self) -> usize;
    /// Fills `out` (length [`LmProblem::residual_len`]) with residuals at `θ`.
    fn residuals(&self, params: &[f64], out: &mut [f64]);
}

/// Reusable allocations for [`lm_fit_with`]: the Jacobian matrix and the
/// two residual buffers, by far the largest per-fit allocations. A single
/// scratch serves fits of any problem size — buffers are resized (keeping
/// capacity) on each call, so a thread-local scratch amortizes every LM
/// allocation in a tight fitting loop.
#[derive(Debug, Default)]
pub struct LmScratch {
    jac: Option<Matrix>,
    r: Vec<f64>,
    r_pert: Vec<f64>,
}

impl LmScratch {
    /// An empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> LmScratch {
        LmScratch::default()
    }
}

/// Minimizes `½‖r(θ)‖²` for an [`LmProblem`] starting from `x0`.
pub fn lm_fit<P: LmProblem>(problem: &P, x0: &[f64], opts: &LmOptions) -> Result<LmResult> {
    lm_fit_with(problem, x0, opts, &mut LmScratch::new())
}

/// [`lm_fit`] reusing caller-owned scratch buffers. The iteration (and
/// therefore the result) is bit-identical to a fresh-allocation run: every
/// buffer is fully overwritten before it is read.
pub fn lm_fit_with<P: LmProblem>(
    problem: &P,
    x0: &[f64],
    opts: &LmOptions,
    scratch: &mut LmScratch,
) -> Result<LmResult> {
    let _span = mtd_telemetry::span!("lm.fit");
    if x0.is_empty() {
        return Err(MathError::EmptyInput("lm_fit parameters"));
    }
    let nr = problem.residual_len();
    if nr == 0 {
        return Err(MathError::EmptyInput("lm_fit residuals"));
    }
    let np = x0.len();
    let mut params = x0.to_vec();
    scratch.r.clear();
    scratch.r.resize(nr, 0.0);
    scratch.r_pert.clear();
    scratch.r_pert.resize(nr, 0.0);
    let mut r = &mut scratch.r;
    let mut r_pert = &mut scratch.r_pert;
    problem.residuals(&params, r);
    let mut cost = 0.5 * r.iter().map(|v| v * v).sum::<f64>();

    let mut lambda = opts.initial_lambda;
    let jac = match &mut scratch.jac {
        Some(j) if j.rows() == nr && j.cols() == np => j,
        slot => slot.insert(Matrix::zeros(nr, np)),
    };

    for iter in 1..=opts.max_iterations {
        // Forward-difference Jacobian; params[j] is perturbed in place and
        // restored — same values reach `residuals` as with a cloned vector.
        for j in 0..np {
            let saved = params[j];
            let h = opts.fd_epsilon * saved.abs().max(1e-8);
            params[j] = saved + h;
            problem.residuals(&params, r_pert);
            params[j] = saved;
            for (i, (a, b)) in r_pert.iter().zip(r.iter()).enumerate() {
                jac[(i, j)] = (a - b) / h;
            }
        }

        // Normal equations pieces.
        let mut jtj = Matrix::zeros(np, np);
        let mut jtr = vec![0.0; np];
        for i in 0..nr {
            for a in 0..np {
                jtr[a] += jac[(i, a)] * r[i];
                for b in a..np {
                    jtj[(a, b)] += jac[(i, a)] * jac[(i, b)];
                }
            }
        }
        for a in 0..np {
            for b in 0..a {
                jtj[(a, b)] = jtj[(b, a)];
            }
        }

        // Inner loop: increase damping until a step is accepted.
        let mut accepted = false;
        for _ in 0..32 {
            let mut damped = jtj.clone();
            // Marquardt scaling: λ · diag(JᵀJ), floored for flat directions.
            for a in 0..np {
                let d = jtj[(a, a)].max(1e-12);
                damped[(a, a)] += lambda * d;
            }
            let neg_g: Vec<f64> = jtr.iter().map(|g| -g).collect();
            let step = match damped.solve(&neg_g) {
                Ok(s) => s,
                Err(_) => {
                    lambda *= 10.0;
                    continue;
                }
            };
            let candidate: Vec<f64> = params.iter().zip(&step).map(|(p, s)| p + s).collect();
            problem.residuals(&candidate, r_pert);
            let new_cost = 0.5 * r_pert.iter().map(|v| v * v).sum::<f64>();
            if new_cost.is_finite() && new_cost < cost {
                let step_norm = step.iter().fold(0.0f64, |acc, s| acc.max(s.abs()));
                let rel_improvement = (cost - new_cost) / cost.max(1e-300);
                params = candidate;
                std::mem::swap(&mut r, &mut r_pert);
                cost = new_cost;
                lambda = (lambda * 0.3).max(1e-12);
                accepted = true;
                if rel_improvement < opts.cost_tolerance || step_norm < opts.step_tolerance {
                    return Ok(LmResult {
                        params,
                        cost,
                        iterations: iter,
                    });
                }
                break;
            }
            lambda *= 10.0;
            if lambda > 1e12 {
                break;
            }
        }
        if !accepted {
            // Damping exhausted: we are at a (possibly flat) minimum.
            return Ok(LmResult {
                params,
                cost,
                iterations: iter,
            });
        }
    }
    Ok(LmResult {
        params,
        cost,
        iterations: opts.max_iterations,
    })
}

/// Convenience: fits `y ≈ f(x, θ)` with optional per-point weights.
pub struct CurveProblem<'a, F>
where
    F: Fn(f64, &[f64]) -> f64,
{
    xs: &'a [f64],
    ys: &'a [f64],
    weights: Option<&'a [f64]>,
    f: F,
}

impl<'a, F> CurveProblem<'a, F>
where
    F: Fn(f64, &[f64]) -> f64,
{
    /// Creates a curve-fitting problem; weights (if given) multiply the
    /// residuals by `√w`, i.e. weighted least squares.
    pub fn new(xs: &'a [f64], ys: &'a [f64], weights: Option<&'a [f64]>, f: F) -> Result<Self> {
        if xs.is_empty() {
            return Err(MathError::EmptyInput("CurveProblem"));
        }
        if xs.len() != ys.len() {
            return Err(MathError::DimensionMismatch {
                expected: xs.len(),
                got: ys.len(),
            });
        }
        if let Some(w) = weights {
            if w.len() != xs.len() {
                return Err(MathError::DimensionMismatch {
                    expected: xs.len(),
                    got: w.len(),
                });
            }
        }
        Ok(CurveProblem { xs, ys, weights, f })
    }
}

impl<F> LmProblem for CurveProblem<'_, F>
where
    F: Fn(f64, &[f64]) -> f64,
{
    fn residual_len(&self) -> usize {
        self.xs.len()
    }
    fn residuals(&self, params: &[f64], out: &mut [f64]) {
        for (i, (&x, &y)) in self.xs.iter().zip(self.ys).enumerate() {
            let w = self.weights.map_or(1.0, |w| w[i].max(0.0).sqrt());
            out[i] = w * ((self.f)(x, params) - y);
        }
    }
}

/// One-call curve fit: minimizes `Σ wᵢ (f(xᵢ, θ) − yᵢ)²`.
pub fn lm_fit_curve<F>(
    xs: &[f64],
    ys: &[f64],
    weights: Option<&[f64]>,
    x0: &[f64],
    f: F,
) -> Result<LmResult>
where
    F: Fn(f64, &[f64]) -> f64,
{
    let problem = CurveProblem::new(xs, ys, weights, f)?;
    lm_fit(&problem, x0, &LmOptions::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_exact_power_law() {
        let xs: Vec<f64> = (1..50).map(f64::from).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.5 * x.powf(1.3)).collect();
        let fit = lm_fit_curve(&xs, &ys, None, &[1.0, 1.0], |x, p| p[0] * x.powf(p[1])).unwrap();
        assert!(
            (fit.params[0] - 2.5).abs() < 1e-5,
            "alpha {}",
            fit.params[0]
        );
        assert!((fit.params[1] - 1.3).abs() < 1e-5, "beta {}", fit.params[1]);
        assert!(fit.cost < 1e-8);
    }

    #[test]
    fn fits_noisy_exponential_decay() {
        let xs: Vec<f64> = (0..100).map(|i| f64::from(i) * 0.1).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| 4.0 * (-0.7 * x).exp() + if i % 2 == 0 { 0.01 } else { -0.01 })
            .collect();
        let fit =
            lm_fit_curve(&xs, &ys, None, &[1.0, 0.1], |x, p| p[0] * (-p[1] * x).exp()).unwrap();
        assert!((fit.params[0] - 4.0).abs() < 0.02);
        assert!((fit.params[1] - 0.7).abs() < 0.02);
    }

    #[test]
    fn weighted_fit_prioritizes_heavy_points() {
        // Two clusters of points from two lines; weights pick the first.
        let xs = [1.0, 2.0, 3.0, 10.0, 20.0];
        let ys = [2.0, 4.0, 6.0, 1000.0, 2000.0];
        let ws = [1e6, 1e6, 1e6, 1e-6, 1e-6];
        let fit =
            lm_fit_curve(&xs, &ys, Some(&ws), &[1.0, 1.0], |x, p| p[0] * x.powf(p[1])).unwrap();
        assert!(
            (fit.params[0] - 2.0).abs() < 0.05,
            "alpha {}",
            fit.params[0]
        );
        assert!((fit.params[1] - 1.0).abs() < 0.05, "beta {}", fit.params[1]);
    }

    #[test]
    fn gaussian_peak_fit() {
        // Fit amplitude/center/width of a Gaussian bump.
        let xs: Vec<f64> = (0..200).map(|i| f64::from(i) * 0.05).collect();
        let truth = |x: f64| 3.0 * (-(x - 5.0).powi(2) / (2.0 * 0.8 * 0.8)).exp();
        let ys: Vec<f64> = xs.iter().map(|x| truth(*x)).collect();
        let fit = lm_fit_curve(&xs, &ys, None, &[1.0, 4.0, 1.0], |x, p| {
            p[0] * (-(x - p[1]).powi(2) / (2.0 * p[2] * p[2])).exp()
        })
        .unwrap();
        assert!((fit.params[0] - 3.0).abs() < 1e-4);
        assert!((fit.params[1] - 5.0).abs() < 1e-4);
        assert!((fit.params[2].abs() - 0.8).abs() < 1e-4);
    }

    #[test]
    fn scratch_reuse_is_bit_identical_across_problem_sizes() {
        let mut scratch = LmScratch::new();
        for n in [12usize, 50, 7] {
            let xs: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let ys: Vec<f64> = xs.iter().map(|x| 1.7 * x.powf(0.9)).collect();
            let problem =
                CurveProblem::new(&xs, &ys, None, |x, p: &[f64]| p[0] * x.powf(p[1])).unwrap();
            let fresh = lm_fit(&problem, &[1.0, 1.0], &LmOptions::default()).unwrap();
            let reused =
                lm_fit_with(&problem, &[1.0, 1.0], &LmOptions::default(), &mut scratch).unwrap();
            assert_eq!(reused.params, fresh.params, "n={n}");
            assert_eq!(reused.cost, fresh.cost);
            assert_eq!(reused.iterations, fresh.iterations);
        }
    }

    #[test]
    fn dimension_errors() {
        assert!(lm_fit_curve(&[], &[], None, &[1.0], |_, _| 0.0).is_err());
        assert!(lm_fit_curve(&[1.0], &[1.0, 2.0], None, &[1.0], |_, _| 0.0).is_err());
        assert!(lm_fit_curve(&[1.0], &[1.0], Some(&[1.0, 1.0]), &[1.0], |_, _| 0.0).is_err());
    }
}

//! Deterministic sampling-fidelity battery — the `validate --sampling`
//! path.
//!
//! [`super::validate`] checks that *fitted models* describe *measured
//! data*; this battery closes the other gap: whether the samplers that
//! realize those models actually reproduce them. Every sampler is tested
//! against its own closed-form moments and analytic CDF — KS and EMD for
//! the distribution primitives and the Eq. (5) volume mixture, moment
//! matching for the §5.1 arrival counts (generated peak mean vs fitted
//! `μ`, generated off-peak mean vs fitted `b·s/(b−1)`), share recovery
//! for the Table 1 breakdown, and tuple consistency for §5.4 session
//! sampling.
//!
//! Each check draws from its own seed stream (derived from the check
//! name), so checks are independent of each other's draw counts and the
//! whole report is byte-identical for a given seed and sample budget.
//! Thresholds are sized for the default budget and widen as `1/√n` below
//! it, so a fast smoke run stays meaningful.

use crate::registry::ModelRegistry;
use mtd_math::distributions::{
    Distribution1D, Gaussian, LogNormal10, Pareto, TruncatedGaussian, TruncatedPareto,
};
use mtd_math::emd::emd_same_grid;
use mtd_math::gof::{emd_to_quantile, ks_p_value, ks_statistic_from_cdf, ks_statistic_sorted};
use mtd_math::histogram::{LogGrid, LogHistogram};
use mtd_math::rng::{stream_id, stream_rng};
use mtd_math::stats::percentile_sorted;
use mtd_math::{MathError, Result};
use mtd_telemetry::json::quote;
use rand::Rng;
use std::fmt::Write as _;

/// Battery configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplingConfig {
    /// Master seed; every check derives its own decorrelated stream.
    pub seed: u64,
    /// Draws per moment check (distribution and service checks use
    /// proportional sub-budgets).
    pub samples: usize,
}

impl Default for SamplingConfig {
    fn default() -> Self {
        SamplingConfig {
            seed: 0x60FB_A77E,
            samples: DESIGN_SAMPLES,
        }
    }
}

/// The sample budget the fixed tolerances are sized for.
const DESIGN_SAMPLES: usize = 200_000;

/// Relative tolerance on moment checks at the design budget. The pre-fix
/// off-peak clamp bias is ≈2.4% on the released registry, ≈9 Monte-Carlo
/// standard errors above this line, while the exact sampler sits ≈0.3%
/// below it — so the battery separates the two deterministically.
const MEAN_TOL: f64 = 0.015;

/// Standard errors a moment check always allows (two-sided p ≈ 6e-5).
/// Below [`MEAN_TOL`] wherever the draws are dense — the decile-9
/// off-peak mean has a relative standard error ≈ 0.27% at the design
/// budget — so it widens only the checks whose flat tolerance is within
/// a few standard errors, such as decile 0's off-peak mean (≈ 1.8).
const MEAN_SE_Z: f64 = 4.0;

/// One check's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplingCheck {
    /// Stable identifier, e.g. `arrival/decile3/offpeak_mean`.
    pub name: String,
    /// Measured statistic (relative error, KS distance, EMD, ...).
    pub statistic: f64,
    /// The statistic must stay at or below this to pass.
    pub threshold: f64,
    /// Whether the check passed.
    pub passed: bool,
    /// Human-readable context (expected vs generated values).
    pub detail: String,
}

fn check(name: String, statistic: f64, threshold: f64, detail: String) -> SamplingCheck {
    SamplingCheck {
        passed: statistic.is_finite() && statistic <= threshold,
        name,
        statistic,
        threshold,
        detail,
    }
}

/// Full battery report.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplingReport {
    pub seed: u64,
    pub samples: usize,
    pub checks: Vec<SamplingCheck>,
}

impl SamplingReport {
    /// Whether every check passed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// The failing checks.
    pub fn failures(&self) -> impl Iterator<Item = &SamplingCheck> {
        self.checks.iter().filter(|c| !c.passed)
    }

    /// Serializes the report as JSON. Hand-rolled with fixed field order
    /// and fixed-precision floats, so equal reports are equal bytes.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"seed\": {},\n  \"samples\": {},\n  \"passed\": {},\n  \"checks\": [",
            self.seed,
            self.samples,
            self.passed()
        );
        for (i, c) in self.checks.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    {{\"name\": {}, \"statistic\": {}, \"threshold\": {}, \"passed\": {}, \"detail\": {}}}",
                if i == 0 { "" } else { "," },
                quote(&c.name),
                json_num(c.statistic),
                json_num(c.threshold),
                c.passed,
                quote(&c.detail)
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

pub(crate) fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6e}")
    } else {
        "null".to_string()
    }
}

/// Widens a design-point tolerance for smaller sample budgets (Monte
/// Carlo noise grows as `1/√n`); never tightens it above the design.
fn noise_scale(design: usize, n: usize) -> f64 {
    (design as f64 / n as f64).sqrt().max(1.0)
}

/// KS acceptance line: the asymptotic critical value at p ≈ 1e-4.
fn ks_threshold(n: usize) -> f64 {
    2.23 / (n as f64).sqrt()
}

/// Moment check: relative error of the sample mean of `draw` against a
/// closed-form expectation. Takes the sampler as a closure so tests can
/// probe hypothetical (e.g. deliberately re-biased) sampler variants.
///
/// The tolerance is `tolerance` or [`MEAN_SE_Z`] measured standard errors
/// of the mean, whichever is wider: a low-rate decile's counts are mostly
/// zeros, and its sample mean is too noisy for a flat tolerance.
fn mean_check<R: Rng + ?Sized>(
    name: &str,
    expected: f64,
    tolerance: f64,
    n: usize,
    rng: &mut R,
    mut draw: impl FnMut(&mut R) -> f64,
) -> SamplingCheck {
    let (sum, sum_sq) = (0..n).fold((0.0, 0.0), |(s, s2), _| {
        let x = draw(rng);
        (s + x, s2 + x * x)
    });
    let mean = sum / n as f64;
    let variance = (sum_sq - sum * mean).max(0.0) / (n as f64 - 1.0).max(1.0);
    let scale = expected.abs().max(1e-300);
    let rel_se = (variance / n as f64).sqrt() / scale;
    let rel = (mean - expected).abs() / scale;
    check(
        name.to_string(),
        rel,
        tolerance.max(MEAN_SE_Z * rel_se),
        format!(
            "generated mean {mean:.6} vs expected {expected:.6} over {n} draws \
             (relative standard error {rel_se:.6})"
        ),
    )
}

/// KS check of an ascending-sorted sample against an analytic CDF.
fn ks_check(name: &str, sorted: &[f64], slack: f64, cdf: impl Fn(f64) -> f64) -> SamplingCheck {
    let n = sorted.len();
    match ks_statistic_sorted(sorted, cdf) {
        Ok(d) => ks_check_from_statistic(name, d, n, slack),
        Err(e) => check(name.to_string(), f64::NAN, 0.0, format!("error: {e}")),
    }
}

/// KS check from CDF values (and their left limits) precomputed at the
/// sorted sample points — the SIMD-batched twin of [`ks_check`].
fn ks_check_values(name: &str, left: &[f64], cdf: &[f64], slack: f64) -> SamplingCheck {
    let n = cdf.len();
    match ks_statistic_from_cdf(left, cdf) {
        Ok(d) => ks_check_from_statistic(name, d, n, slack),
        Err(e) => check(name.to_string(), f64::NAN, 0.0, format!("error: {e}")),
    }
}

fn ks_check_from_statistic(name: &str, d: f64, n: usize, slack: f64) -> SamplingCheck {
    let p = ks_p_value(d, n);
    check(
        name.to_string(),
        d,
        ks_threshold(n) + slack,
        format!("KS D = {d:.6} over {n} draws (p = {p:.3e})"),
    )
}

/// Runs the full battery against a registry's samplers.
pub fn run_battery(registry: &ModelRegistry, config: &SamplingConfig) -> Result<SamplingReport> {
    let _span = mtd_telemetry::span!("validate.sampling");
    if registry.services.is_empty() {
        return Err(MathError::EmptyInput("sampling battery: no services"));
    }
    if registry.arrivals.is_empty() {
        return Err(MathError::EmptyInput("sampling battery: no arrival models"));
    }
    let n = config.samples.max(1_000);
    let seed = config.seed;
    let mut checks = Vec::new();

    distribution_checks(seed, n, &mut checks);
    arrival_checks(registry, seed, n, &mut checks);
    breakdown_checks(registry, seed, n, &mut checks)?;
    service_checks(registry, seed, n, &mut checks)?;
    session_checks(registry, seed, n, &mut checks);

    let failures = checks.iter().filter(|c| !c.passed).count() as u64;
    mtd_telemetry::count("validate.sampling.checks", checks.len() as u64);
    mtd_telemetry::count("validate.sampling.failures", failures);
    Ok(SamplingReport {
        seed,
        samples: n,
        checks,
    })
}

/// Draws `n` samples on the check's own stream and returns them sorted.
fn sorted_draws<D: Distribution1D>(d: &D, name: &str, seed: u64, n: usize) -> Vec<f64> {
    let mut rng = stream_rng(seed, stream_id(name));
    let mut xs: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
    xs.sort_by(f64::total_cmp);
    xs
}

/// The distribution primitives, each against its own CDF/moments.
fn distribution_checks(seed: u64, n: usize, checks: &mut Vec<SamplingCheck>) {
    let _span = mtd_telemetry::span!("distributions");
    let tol = MEAN_TOL * noise_scale(DESIGN_SAMPLES, n);

    let g = Gaussian::new(3.0, 1.0).expect("reference gaussian");
    let xs = sorted_draws(&g, "dist/gaussian", seed, n);
    checks.push(ks_check("dist/gaussian/ks", &xs, 0.0, |x| g.cdf(x)));
    checks.push(emd_check("dist/gaussian/emd", &xs, g.std(), n, |p| {
        g.quantile(p)
    }));
    checks.push(mean_of_samples("dist/gaussian/mean", &xs, g.mean(), tol));

    // Untruncated Pareto at the released shape: infinite variance makes
    // the sample mean (and tail-sensitive EMD) useless, so KS + median.
    let p = Pareto::new(crate::arrival::PARETO_SHAPE, 0.5).expect("reference pareto");
    let xs = sorted_draws(&p, "dist/pareto", seed, n);
    checks.push(ks_check("dist/pareto/ks", &xs, 0.0, |x| p.cdf(x)));
    let median = percentile_sorted(&xs, 0.5).expect("non-empty draws");
    let expect = p.quantile(0.5);
    checks.push(check(
        "dist/pareto/median".into(),
        (median - expect).abs() / expect,
        tol,
        format!("generated median {median:.6} vs expected {expect:.6} over {n} draws"),
    ));

    let ln = LogNormal10::new(1.6, 0.5).expect("reference lognormal");
    let xs = sorted_draws(&ln, "dist/lognormal10", seed, n);
    checks.push(ks_check("dist/lognormal10/ks", &xs, 0.0, |x| ln.cdf(x)));
    checks.push(mean_of_samples(
        "dist/lognormal10/mean",
        &xs,
        ln.mean(),
        2.0 * tol, // linear mean of a half-decade spread is tail-noisy
    ));

    // Heavy-truncation regime (mean only 1σ above the floor) — the case
    // the rectified-Gaussian arrival sampler used to get wrong.
    let tg = TruncatedGaussian::with_mean(1.0, 0.0, 1.0).expect("reference trunc gaussian");
    let xs = sorted_draws(&tg, "dist/truncated_gaussian", seed, n);
    checks.push(ks_check("dist/truncated_gaussian/ks", &xs, 0.0, |x| {
        tg.cdf(x)
    }));
    checks.push(mean_of_samples(
        "dist/truncated_gaussian/mean",
        &xs,
        tg.mean(),
        tol,
    ));

    // Cap-truncated Pareto — the fixed off-peak arrival law.
    let tp = TruncatedPareto::with_mean(crate::arrival::PARETO_SHAPE, 10.0, 1.0)
        .expect("reference trunc pareto");
    let xs = sorted_draws(&tp, "dist/truncated_pareto", seed, n);
    checks.push(ks_check("dist/truncated_pareto/ks", &xs, 0.0, |x| {
        tp.cdf(x)
    }));
    checks.push(mean_of_samples(
        "dist/truncated_pareto/mean",
        &xs,
        tp.mean(),
        tol,
    ));
}

fn mean_of_samples(name: &str, xs: &[f64], expected: f64, tolerance: f64) -> SamplingCheck {
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let rel = (mean - expected).abs() / expected.abs().max(1e-300);
    check(
        name.to_string(),
        rel,
        tolerance,
        format!(
            "generated mean {mean:.6} vs expected {expected:.6} over {} draws",
            xs.len()
        ),
    )
}

fn emd_check(
    name: &str,
    sorted: &[f64],
    spread: f64,
    n: usize,
    quantile: impl Fn(f64) -> f64,
) -> SamplingCheck {
    match emd_to_quantile(sorted, quantile) {
        Ok(w) => check(
            name.to_string(),
            w,
            10.0 * spread / (n as f64).sqrt(),
            format!("W1 = {w:.6} over {n} draws (spread {spread:.3})"),
        ),
        Err(e) => check(name.to_string(), f64::NAN, 0.0, format!("error: {e}")),
    }
}

/// Per-decile §5.1 arrival moment matching through the *count* sampler
/// (continuous draw + probabilistic rounding), i.e. the exact path
/// [`crate::ServingPlan`] consumes.
fn arrival_checks(registry: &ModelRegistry, seed: u64, n: usize, checks: &mut Vec<SamplingCheck>) {
    let _span = mtd_telemetry::span!("arrivals");
    let tol = MEAN_TOL * noise_scale(DESIGN_SAMPLES, n);
    for (i, m) in registry.arrivals.per_decile.iter().enumerate() {
        let sampler = m.sampler();
        let name = format!("arrival/decile{i}/peak_mean");
        let mut rng = stream_rng(seed, stream_id(&name));
        checks.push(mean_check(&name, m.peak_mu, tol, n, &mut rng, |r| {
            f64::from(sampler.sample_count(true, r))
        }));

        let fitted = m.offpeak_mean();
        let name = format!("arrival/decile{i}/offpeak_mean");
        if fitted.is_finite() && fitted < m.offpeak_cap() {
            let mut rng = stream_rng(seed, stream_id(&name));
            checks.push(mean_check(&name, fitted, tol, n, &mut rng, |r| {
                f64::from(sampler.sample_count(false, r))
            }));
        }
    }
}

/// Table 1 share recovery through [`ModelRegistry::breakdown`].
fn breakdown_checks(
    registry: &ModelRegistry,
    seed: u64,
    n: usize,
    checks: &mut Vec<SamplingCheck>,
) -> Result<()> {
    let _span = mtd_telemetry::span!("breakdown");
    let breakdown = registry.breakdown()?;
    let name = "breakdown/share_recovery";
    let mut rng = stream_rng(seed, stream_id(name));
    let mut counts = vec![0u64; registry.services.len()];
    for _ in 0..n {
        counts[usize::from(breakdown.sample(&mut rng))] += 1;
    }
    let mut worst = 0.0f64;
    let mut worst_svc = "";
    for (idx, svc) in registry.services.iter().enumerate() {
        let observed = counts[idx] as f64 / n as f64;
        let drift = (observed - breakdown.share_of(idx as u16)).abs();
        if drift > worst {
            worst = drift;
            worst_svc = &svc.name;
        }
    }
    checks.push(check(
        name.to_string(),
        worst,
        0.005 * noise_scale(DESIGN_SAMPLES, n),
        format!("worst absolute share drift over {n} draws is at {worst_svc}"),
    ));
    Ok(())
}

/// Per-service Eq. (5) volume sampling against the censored mixture CDF
/// (KS in the `log₁₀` domain) and the binned model PDF (EMD in decades).
fn service_checks(
    registry: &ModelRegistry,
    seed: u64,
    n: usize,
    checks: &mut Vec<SamplingCheck>,
) -> Result<()> {
    let _span = mtd_telemetry::span!("services");
    let n_svc = (n / 10).max(2_000);
    for model in &registry.services {
        let name = format!("service/{}/volume_ks", model.name);
        let mut rng = stream_rng(seed, stream_id(&name));
        let mut vs: Vec<f64> = (0..n_svc).map(|_| model.sample_volume(&mut rng)).collect();
        vs.sort_by(f64::total_cmp);
        let mut us = vec![0.0; vs.len()];
        mtd_math::simd::log10_into(&vs, &mut us);

        // The sampler censors at the support: mass beyond either bound
        // collapses onto the clamp value, so the reference CDF carries an
        // atom at each. Atoms are recognised by the clamped volume itself
        // (`log10` of a clamp value can round below the support bound),
        // and a run tied at one is measured against the CDF's left limit
        // below it and its value at it. The mixture CDF is evaluated
        // through the SIMD batch kernel; the slack covers rougher fits.
        let (lo, hi) = model.effective_support_log10();
        let (v_lo, v_hi) = model.volume_bounds();
        let (at_lo, below_hi) = (model.cdf_log10(lo), model.cdf_log10(hi));
        let mut cdf = Vec::new();
        model.cdf_log10_batch(&us, &mut cdf);
        let mut left = cdf.clone();
        for ((l, f), &v) in left.iter_mut().zip(&mut cdf).zip(&vs) {
            if v <= v_lo {
                (*l, *f) = (0.0, at_lo);
            } else if v >= v_hi {
                (*l, *f) = (below_hi, 1.0);
            }
        }
        checks.push(ks_check_values(&name, &left, &cdf, 0.005));

        let name = format!("service/{}/volume_emd", model.name);
        let grid = LogGrid::new(lo - 0.25, hi + 0.25, 120)?;
        let mut hist = LogHistogram::new(grid);
        for &v in &vs {
            hist.add(v);
        }
        match (hist.to_pdf(), model.to_binned_pdf(grid)) {
            (Ok(sampled), Ok(modeled)) => {
                let w = emd_same_grid(&sampled, &modeled)?;
                checks.push(check(
                    name,
                    w,
                    0.05 * noise_scale(DESIGN_SAMPLES / 10, n_svc),
                    format!("EMD {w:.6} decades over {n_svc} draws"),
                ));
            }
            (Err(e), _) | (_, Err(e)) => {
                checks.push(check(name, f64::NAN, 0.0, format!("error: {e}")));
            }
        }
    }
    Ok(())
}

/// §5.4 session-tuple consistency: throughput is exactly `v·8/d`, the
/// tuple stays in the modeled ranges, and (for deterministic-duration
/// services) the duration is exactly the inverse power law.
fn session_checks(registry: &ModelRegistry, seed: u64, n: usize, checks: &mut Vec<SamplingCheck>) {
    let _span = mtd_telemetry::span!("sessions");
    let n_sess = (n / 100).max(500);
    let mut rng = stream_rng(seed, stream_id("service/session_consistency"));
    let mut worst_identity = 0.0f64;
    let mut worst_duration = 0.0f64;
    let mut deterministic = 0usize;
    let mut out_of_range = 0usize;
    for model in &registry.services {
        for _ in 0..n_sess {
            let (v, d, t) = model.sample_session(&mut rng);
            if !(v > 0.0) || !(1.0..=14_400.0).contains(&d) || !t.is_finite() {
                out_of_range += 1;
            }
            worst_identity = worst_identity.max((t - v * 8.0 / d).abs() / t.abs().max(1e-300));
            if model.duration_sigma == 0.0 {
                deterministic += 1;
                worst_duration = worst_duration.max((d - model.duration_for(v)).abs());
            }
        }
    }
    let total = n_sess * registry.services.len();
    checks.push(check(
        "service/session_identity".to_string(),
        worst_identity,
        1e-9,
        format!("worst relative |t - v*8/d| over {total} tuples"),
    ));
    checks.push(check(
        "service/session_range".to_string(),
        out_of_range as f64,
        0.0,
        format!("tuples outside v > 0, 1 <= d <= 14400, finite t (of {total})"),
    ));
    checks.push(check(
        "service/duration_map".to_string(),
        worst_duration,
        1e-9,
        format!("worst |d - v^-1(v)| over {deterministic} deterministic-duration tuples"),
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::{ArrivalModel, ArrivalModelSet, PARETO_SHAPE};
    use crate::model::{ModelQuality, PeakComponent, ServiceModel};

    /// A hand-built registry spanning the battery's interesting regimes:
    /// a messaging-like service, a bimodal streaming-like one, a
    /// duration-scattered one, and ten arrival deciles.
    fn synthetic() -> ModelRegistry {
        let svc = |name: &str, mu: f64, peaks: Vec<PeakComponent>, share, dsig| ServiceModel {
            name: name.into(),
            mu,
            sigma: 0.5,
            peaks,
            alpha: 0.02,
            beta: 1.2,
            session_share: share,
            duration_sigma: dsig,
            support_log10: (-2.5, 3.5),
            quality: ModelQuality::default(),
        };
        ModelRegistry {
            services: vec![
                svc("Messaging", -0.2, vec![], 0.7, 0.0),
                svc(
                    "Streaming",
                    1.4,
                    vec![PeakComponent {
                        k: 0.2,
                        mu: 2.2,
                        sigma: 0.1,
                    }],
                    0.2,
                    0.0,
                ),
                svc("Cloud", 0.8, vec![], 0.1, 0.25),
            ],
            arrivals: ArrivalModelSet {
                per_decile: (0..10)
                    .map(|d| {
                        let mu = 0.6 + f64::from(d) * 2.5;
                        ArrivalModel {
                            peak_mu: mu,
                            peak_sigma: mu / 10.0,
                            pareto_shape: PARETO_SHAPE,
                            pareto_scale: mu / 20.0,
                        }
                    })
                    .collect(),
            },
        }
    }

    #[test]
    fn battery_passes_on_synthetic_registry() {
        let config = SamplingConfig {
            seed: 5,
            samples: 20_000,
        };
        let report = run_battery(&synthetic(), &config).unwrap();
        let failures: Vec<&SamplingCheck> = report.failures().collect();
        assert!(report.passed(), "failures: {failures:#?}");
        // Coverage: the primitives, every decile's two moments, every
        // service's two GoF checks, breakdown and session sections.
        assert!(report.checks.len() > 35, "checks: {}", report.checks.len());
    }

    #[test]
    fn battery_passes_on_released_registry() {
        let registry = ModelRegistry::released();
        let config = SamplingConfig {
            seed: 7,
            samples: 20_000,
        };
        let report = run_battery(&registry, &config).unwrap();
        let failures: Vec<&SamplingCheck> = report.failures().collect();
        assert!(report.passed(), "failures: {failures:#?}");
        // Coverage: every decile's two moments, every service's two GoF
        // checks, the primitives, breakdown and session sections.
        assert!(report.checks.len() > 80, "checks: {}", report.checks.len());
    }

    #[test]
    fn battery_is_deterministic_per_seed() {
        let registry = synthetic();
        let config = SamplingConfig {
            seed: 11,
            samples: 10_000,
        };
        let a = run_battery(&registry, &config).unwrap();
        let b = run_battery(&registry, &config).unwrap();
        assert_eq!(a.to_json(), b.to_json());
        let c = run_battery(
            &registry,
            &SamplingConfig {
                seed: 12,
                samples: 10_000,
            },
        )
        .unwrap();
        assert_ne!(a.to_json(), c.to_json());
    }

    #[test]
    fn report_json_is_wellformed() {
        let report = SamplingReport {
            seed: 3,
            samples: 1000,
            checks: vec![check("a/\"quoted\"".into(), 0.5, 1.0, "line\nbreak".into())],
        };
        let json = report.to_json();
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("line\\nbreak"));
        assert!(json.contains("\"passed\": true"));
        assert!(json.contains("5.000000e-1"));
    }

    #[test]
    fn volume_ks_measures_censoring_atoms_instead_of_reporting_them() {
        // Messaging's support clips 10% of its log-normal mass onto each
        // clamp point. Before atoms were measured against the CDF's left
        // limit, the KS distance came out as an atom's mass, D ≈ 0.1.
        let mut registry = synthetic();
        let m = &mut registry.services[0];
        m.support_log10 = (m.mu - 1.2816 * m.sigma, m.mu + 1.2816 * m.sigma);
        let mut checks = Vec::new();
        service_checks(&registry, 5, 20_000, &mut checks).unwrap();
        let ks = &checks[0];
        assert_eq!(ks.name, "service/Messaging/volume_ks");
        assert!(ks.passed && ks.statistic < 0.03, "{ks:?}");
    }

    #[test]
    fn battery_rejects_empty_registry() {
        let mut r = synthetic();
        r.arrivals.per_decile.clear();
        assert!(run_battery(&r, &SamplingConfig::default()).is_err());
        let mut r = synthetic();
        r.services.clear();
        assert!(run_battery(&r, &SamplingConfig::default()).is_err());
    }

    /// Mutation check for the acceptance criterion: re-introducing the
    /// pre-fix `min(x, peak_mu * 3)` tail clamp on the raw Pareto draw
    /// must trip the off-peak moment check that the fixed sampler passes.
    #[test]
    fn offpeak_moment_check_catches_reintroduced_tail_clamp() {
        // Released decile-9 arrival parameters.
        let m = ArrivalModel {
            peak_mu: 23.394,
            peak_sigma: 2.3394,
            pareto_shape: PARETO_SHAPE,
            pareto_scale: 1.1458,
        };
        let fitted = m.offpeak_mean();
        let n = 200_000;

        let sampler = m.sampler();
        let mut rng = stream_rng(1, stream_id("mutation/fixed"));
        let fixed = mean_check("offpeak", fitted, MEAN_TOL, n, &mut rng, |r| {
            f64::from(sampler.sample_count(false, r))
        });
        assert!(fixed.passed, "exact sampler must pass: {fixed:?}");

        // The clamp eats (s/cap)^{b−1}/b ≈ 2.4% of the fitted mean.
        let pareto = Pareto::new(m.pareto_shape, m.pareto_scale).unwrap();
        let cap = m.offpeak_cap();
        let mut rng = stream_rng(1, stream_id("mutation/clamped"));
        let clamped = mean_check("offpeak", fitted, MEAN_TOL, n, &mut rng, |r| {
            pareto.sample(r).min(cap)
        });
        assert!(
            !clamped.passed,
            "clamp bias must trip the check: {clamped:?}"
        );
    }

    #[test]
    fn offpeak_mean_matches_fitted_within_two_percent_per_released_decile() {
        // The PR's acceptance criterion, checked directly: every decile
        // of the released registry generates an off-peak mean within 2%
        // of the fitted b·s/(b−1).
        let registry = ModelRegistry::released();
        for (i, m) in registry.arrivals.per_decile.iter().enumerate() {
            let sampler = m.sampler();
            let mut rng = stream_rng(21, stream_id(&format!("acceptance/decile{i}")));
            let n = 150_000;
            let mean = (0..n)
                .map(|_| f64::from(sampler.sample_count(false, &mut rng)))
                .sum::<f64>()
                / f64::from(n);
            let fitted = m.offpeak_mean();
            assert!(
                (mean - fitted).abs() / fitted < 0.02,
                "decile {i}: generated {mean} vs fitted {fitted}"
            );
        }
    }
}

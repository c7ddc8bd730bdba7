//! The §5.1 session-arrival model.
//!
//! Peak daylight arrivals at a BS are Gaussian with decile-dependent mean
//! `μ` and the `σ = μ/10` regularity the paper observes across all BS
//! classes; off-peak nighttime arrivals are Pareto with fixed shape
//! `b = 1.765` and a per-decile scale. Arrivals are broken down per
//! service with the constant Table 1 session shares ("the share of
//! sessions induced by each service is relatively constant across
//! different BSs and over time", CV ≈ 1%).

use mtd_math::distributions::{
    Distribution1D, Gaussian, Pareto, TruncatedGaussian, TruncatedPareto,
};
use mtd_math::fit::fit_gaussian;
use mtd_math::{MathError, Result};
use rand::Rng;

/// The fixed off-peak Pareto shape released with the models (§5.1).
pub const PARETO_SHAPE: f64 = 1.765;

/// Draws a standard normal variate (shared helper for model sampling).
///
/// Inverse-transform draw straight through `std_normal_quantile`, skipping
/// the per-call `Gaussian::new(0.0, 1.0)` construction/validation the old
/// path paid on every variate. Bit-identical: the unit Gaussian quantile is
/// `0.0 + 1.0·Φ⁻¹(u)`, and both those ops are exact for every reachable
/// `Φ⁻¹(u)` (Acklam's refined central branch cannot return `−0.0`).
pub fn sample_std_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Same u clamping as `Distribution1D::sample`.
    let u: f64 = rng.gen::<f64>().max(1e-16);
    mtd_math::distributions::std_normal_quantile(u.min(1.0 - 1e-16))
}

/// Fitted bimodal arrival model of one BS load class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalModel {
    /// Peak-hour Gaussian mean `μ` (sessions/minute).
    pub peak_mu: f64,
    /// Peak-hour Gaussian spread; the released models use `μ/10`.
    pub peak_sigma: f64,
    /// Off-peak Pareto shape (`b = 1.765` in the released models).
    pub pareto_shape: f64,
    /// Off-peak Pareto scale `s`.
    pub pareto_scale: f64,
}

impl ArrivalModel {
    /// Fits the model from measured per-minute counts.
    ///
    /// The Gaussian is fitted by moments on the peak-window counts, then
    /// regularized to the paper's `σ = μ/10` rule. The Pareto keeps the
    /// fixed shape and matches the scale to the mean of *all* off-peak
    /// counts (`E[X] = b·s/(b−1)`): integer counting makes low-rate
    /// minutes read as zero, but their contribution to the mean is
    /// unbiased, whereas the minimum-order statistic the raw MLE would
    /// use degenerates to 1 and conditioning on positivity would inflate
    /// night rates at lightly-loaded BSs.
    pub fn fit(peak_counts: &[u32], offpeak_counts: &[u32]) -> Result<ArrivalModel> {
        if peak_counts.len() < 2 {
            return Err(MathError::EmptyInput("ArrivalModel::fit peak counts"));
        }
        let peak_f: Vec<f64> = peak_counts.iter().map(|c| f64::from(*c)).collect();
        let gaussian = fit_gaussian(&peak_f)?;
        let peak_mu = gaussian.mean().max(1e-6);

        let off_mean = if offpeak_counts.is_empty() {
            peak_mu / 20.0
        } else {
            offpeak_counts.iter().map(|c| f64::from(*c)).sum::<f64>() / offpeak_counts.len() as f64
        };
        let pareto_scale = (off_mean * (PARETO_SHAPE - 1.0) / PARETO_SHAPE).max(1e-6);

        Ok(ArrivalModel {
            peak_mu,
            peak_sigma: peak_mu / 10.0,
            pareto_shape: PARETO_SHAPE,
            pareto_scale,
        })
    }

    /// Density of the peak-mode count distribution at `x`.
    #[must_use]
    pub fn peak_pdf(&self, x: f64) -> f64 {
        Gaussian::new(self.peak_mu, self.peak_sigma.max(1e-9))
            .map(|g| g.pdf(x))
            .unwrap_or(0.0)
    }

    /// Density of the off-peak mode at `x`.
    #[must_use]
    pub fn offpeak_pdf(&self, x: f64) -> f64 {
        Pareto::new(self.pareto_shape, self.pareto_scale)
            .map(|p| p.pdf(x))
            .unwrap_or(0.0)
    }

    /// The fitted off-peak mean `E[X] = b·s/(b−1)` the Pareto scale was
    /// inverted from (infinite when `b ≤ 1`).
    #[must_use]
    pub fn offpeak_mean(&self) -> f64 {
        if self.pareto_shape <= 1.0 {
            f64::INFINITY
        } else {
            self.pareto_shape * self.pareto_scale / (self.pareto_shape - 1.0)
        }
    }

    /// Safety cap on a single off-peak minute (3× the peak mean): the
    /// fitted integer counts the scale came from cannot out-draw the
    /// daytime regime by much, so neither should the sampler.
    #[must_use]
    pub fn offpeak_cap(&self) -> f64 {
        self.peak_mu * 3.0
    }

    /// Builds the calibrated continuous count samplers once: the
    /// truncated-distribution calibration solves a bisection, so hoist
    /// one sampler out of any loop that draws many counts.
    #[must_use]
    pub fn sampler(&self) -> ArrivalSampler {
        // Counts cannot be negative, so the peak draw conditions the
        // Gaussian on X ≥ 0 with the location recalibrated to keep the
        // fitted mean μ. Rectifying (`max(0.0)`) instead piles the
        // negative tail onto 0 and inflates the mean when μ/σ is small.
        let peak = match TruncatedGaussian::with_mean(self.peak_sigma.max(1e-9), 0.0, self.peak_mu)
        {
            Ok(d) => PeakDraw::Truncated(d),
            Err(_) => PeakDraw::Rectified(
                Gaussian::new(self.peak_mu.max(1e-9), self.peak_sigma.max(1e-9))
                    .expect("positive mean and sigma"),
            ),
        };
        // The off-peak draw samples the cap-truncated Pareto exactly,
        // with the scale recalibrated so the truncated mean equals the
        // fitted b·s/(b−1). Clamping raw draws at the cap (`min`) loses
        // the (s/cap)^{b−1}/b share of the mean — ≈2.4% per decile in the
        // released registry.
        let offpeak = match TruncatedPareto::with_mean(
            self.pareto_shape,
            self.offpeak_cap(),
            self.offpeak_mean(),
        ) {
            Ok(d) => OffpeakDraw::Truncated(d),
            Err(_) => OffpeakDraw::Capped(
                Pareto::new(self.pareto_shape.max(1e-9), self.pareto_scale.max(1e-9))
                    .expect("positive shape and scale"),
                self.offpeak_cap(),
            ),
        };
        ArrivalSampler { peak, offpeak }
    }
}

#[derive(Debug, Clone, Copy)]
enum PeakDraw {
    Truncated(TruncatedGaussian),
    /// Fallback when no truncated calibration exists (`μ ≤ 0`, or μ so
    /// far below 0 relative to σ that the conditioned mass underflows).
    Rectified(Gaussian),
}

#[derive(Debug, Clone, Copy)]
enum OffpeakDraw {
    Truncated(TruncatedPareto),
    /// Fallback when the fitted mean is not attainable under the cap
    /// (`b ≤ 1`, or a pathological scale ≥ cap).
    Capped(Pareto, f64),
}

/// Calibrated continuous samplers of one [`ArrivalModel`]: the truncated
/// distributions are solved once and reused across draws.
#[derive(Debug, Clone, Copy)]
pub struct ArrivalSampler {
    peak: PeakDraw,
    offpeak: OffpeakDraw,
}

impl ArrivalSampler {
    /// Draws a per-minute arrival count; probabilistic rounding of the
    /// continuous draw preserves the regime mean exactly.
    pub fn sample_count<R: Rng + ?Sized>(&self, peak: bool, rng: &mut R) -> u32 {
        let x = if peak {
            match &self.peak {
                PeakDraw::Truncated(d) => d.sample(rng),
                PeakDraw::Rectified(d) => d.sample(rng).max(0.0),
            }
        } else {
            match &self.offpeak {
                OffpeakDraw::Truncated(d) => d.sample(rng),
                OffpeakDraw::Capped(d, cap) => d.sample(rng).min(*cap),
            }
        };
        let base = x.floor();
        base as u32 + u32::from(rng.gen::<f64>() < (x - base))
    }
}

/// One fitted arrival model per BS-load decile — the full released set.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalModelSet {
    pub per_decile: Vec<ArrivalModel>,
}

impl ArrivalModelSet {
    /// The model of a decile (0 = lightest, 9 = busiest); out-of-range
    /// deciles clamp to the busiest class.
    ///
    /// # Panics
    /// Panics when the set is empty — tolerant store loads can produce
    /// one; use [`ArrivalModelSet::try_decile`] to handle that case.
    #[must_use]
    pub fn decile(&self, d: u8) -> &ArrivalModel {
        self.try_decile(d)
            .expect("ArrivalModelSet::decile called on an empty set")
    }

    /// [`ArrivalModelSet::decile`] without the panic: `None` when the set
    /// is empty.
    #[must_use]
    pub fn try_decile(&self, d: u8) -> Option<&ArrivalModel> {
        let last = self.per_decile.len().checked_sub(1)?;
        self.per_decile.get(usize::from(d).min(last))
    }

    /// Number of decile classes (10 in the paper).
    #[must_use]
    pub fn len(&self) -> usize {
        self.per_decile.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.per_decile.is_empty()
    }
}

/// Per-service breakdown of arrivals (§5.1, Table 1): "we use the session
/// shares … as probabilities to assign to a specific service a newly
/// established session".
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceBreakdown {
    /// `(service index, cumulative share)`, shares normalized to 1.
    cumulative: Vec<(u16, f64)>,
}

impl ServiceBreakdown {
    /// Builds from per-service shares (any positive weights).
    pub fn new(shares: &[(u16, f64)]) -> Result<ServiceBreakdown> {
        if shares.is_empty() {
            return Err(MathError::EmptyInput("ServiceBreakdown"));
        }
        let total: f64 = shares.iter().map(|(_, s)| s).sum();
        if !(total > 0.0) {
            return Err(MathError::InvalidParameter("shares must sum to > 0"));
        }
        let mut cumulative = Vec::with_capacity(shares.len());
        let mut acc = 0.0;
        for (id, s) in shares {
            if *s < 0.0 {
                return Err(MathError::InvalidParameter("negative share"));
            }
            acc += s / total;
            cumulative.push((*id, acc));
        }
        if let Some(last) = cumulative.last_mut() {
            last.1 = 1.0;
        }
        Ok(ServiceBreakdown { cumulative })
    }

    /// Assigns a newly established session to a service.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u16 {
        let u: f64 = rng.gen();
        let idx = self.cumulative.partition_point(|(_, c)| *c < u);
        self.cumulative[idx.min(self.cumulative.len() - 1)].0
    }

    /// The normalized share of a service.
    #[must_use]
    pub fn share_of(&self, service: u16) -> f64 {
        let mut prev = 0.0;
        for (id, c) in &self.cumulative {
            if *id == service {
                return c - prev;
            }
            prev = *c;
        }
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn synthetic_counts(mu: f64, scale: f64, seed: u64) -> (Vec<u32>, Vec<u32>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = Gaussian::new(mu, mu / 10.0).unwrap();
        let p = Pareto::new(PARETO_SHAPE, scale).unwrap();
        let peak: Vec<u32> = (0..20_000)
            .map(|_| g.sample(&mut rng).max(0.0).round() as u32)
            .collect();
        let off: Vec<u32> = (0..20_000)
            .map(|_| p.sample(&mut rng).min(mu * 3.0).round() as u32)
            .collect();
        (peak, off)
    }

    #[test]
    fn fit_recovers_ground_truth() {
        let (peak, off) = synthetic_counts(30.0, 1.5, 1);
        let m = ArrivalModel::fit(&peak, &off).unwrap();
        assert!((m.peak_mu - 30.0).abs() < 0.5, "mu {}", m.peak_mu);
        assert!((m.peak_sigma - 3.0).abs() < 0.1);
        assert_eq!(m.pareto_shape, PARETO_SHAPE);
        // Scale recovery is rougher (integer rounding + tail cap), but
        // must land in the right ballpark.
        assert!(
            (m.pareto_scale - 1.5).abs() < 0.6,
            "scale {}",
            m.pareto_scale
        );
    }

    #[test]
    fn sampling_matches_fitted_means() {
        let m = ArrivalModel {
            peak_mu: 12.0,
            peak_sigma: 1.2,
            pareto_shape: PARETO_SHAPE,
            pareto_scale: 0.6,
        };
        let sampler = m.sampler();
        let mut rng = SmallRng::seed_from_u64(2);
        let n = 50_000;
        let peak_mean: f64 = (0..n)
            .map(|_| f64::from(sampler.sample_count(true, &mut rng)))
            .sum::<f64>()
            / n as f64;
        assert!((peak_mean - 12.0).abs() < 0.1, "peak mean {peak_mean}");
        let off_mean: f64 = (0..n)
            .map(|_| f64::from(sampler.sample_count(false, &mut rng)))
            .sum::<f64>()
            / n as f64;
        assert!(off_mean < peak_mean / 4.0, "off mean {off_mean}");
        // The cap-truncated sampler is recalibrated to the *fitted* mean
        // b·s/(b−1), not the ≈2.4%-low clamped mean.
        let fitted = m.offpeak_mean();
        assert!(
            (off_mean - fitted).abs() / fitted < 0.03,
            "off mean {off_mean} vs fitted {fitted}"
        );
    }

    #[test]
    fn light_load_peak_mean_not_inflated_by_rectification() {
        // μ/σ = 0.8: rectifying at 0 would inflate the mean by ~20%;
        // the truncated sampler must stay on the fitted μ.
        let m = ArrivalModel {
            peak_mu: 0.4,
            peak_sigma: 0.5,
            pareto_shape: PARETO_SHAPE,
            pareto_scale: 0.02,
        };
        let sampler = m.sampler();
        let mut rng = SmallRng::seed_from_u64(6);
        let n = 100_000;
        let mean: f64 = (0..n)
            .map(|_| f64::from(sampler.sample_count(true, &mut rng)))
            .sum::<f64>()
            / f64::from(n);
        assert!((mean - 0.4).abs() < 0.01, "peak mean {mean}");
    }

    #[test]
    fn fit_rejects_empty() {
        assert!(ArrivalModel::fit(&[], &[]).is_err());
        assert!(ArrivalModel::fit(&[1], &[]).is_err());
    }

    #[test]
    fn fit_handles_all_zero_nights() {
        let (peak, _) = synthetic_counts(5.0, 0.3, 3);
        let m = ArrivalModel::fit(&peak, &[0, 0, 0, 0]).unwrap();
        assert!(m.pareto_scale > 0.0);
    }

    #[test]
    fn breakdown_samples_to_shares() {
        let b = ServiceBreakdown::new(&[(0, 70.0), (1, 20.0), (2, 10.0)]).unwrap();
        let mut rng = SmallRng::seed_from_u64(4);
        let n = 100_000;
        let mut counts = [0usize; 3];
        for _ in 0..n {
            counts[b.sample(&mut rng) as usize] += 1;
        }
        assert!((counts[0] as f64 / n as f64 - 0.7).abs() < 0.01);
        assert!((counts[1] as f64 / n as f64 - 0.2).abs() < 0.01);
        assert!((b.share_of(2) - 0.1).abs() < 1e-12);
        assert_eq!(b.share_of(99), 0.0);
    }

    #[test]
    fn breakdown_rejects_bad_input() {
        assert!(ServiceBreakdown::new(&[]).is_err());
        assert!(ServiceBreakdown::new(&[(0, 0.0)]).is_err());
        assert!(ServiceBreakdown::new(&[(0, 1.0), (1, -0.5)]).is_err());
    }

    #[test]
    fn decile_lookup_clamps() {
        let set = ArrivalModelSet {
            per_decile: vec![
                ArrivalModel {
                    peak_mu: 1.0,
                    peak_sigma: 0.1,
                    pareto_shape: PARETO_SHAPE,
                    pareto_scale: 0.05,
                };
                10
            ],
        };
        assert_eq!(set.len(), 10);
        let _ = set.decile(9);
        let _ = set.decile(200); // clamps, no panic
    }

    #[test]
    fn empty_decile_set_is_guarded() {
        let set = ArrivalModelSet { per_decile: vec![] };
        assert!(set.is_empty());
        assert!(set.try_decile(0).is_none());
        assert!(set.try_decile(200).is_none());
        let populated = ArrivalModelSet {
            per_decile: vec![ArrivalModel {
                peak_mu: 1.0,
                peak_sigma: 0.1,
                pareto_shape: PARETO_SHAPE,
                pareto_scale: 0.05,
            }],
        };
        assert!(populated.try_decile(9).is_some());
    }

    #[test]
    #[should_panic(expected = "empty set")]
    fn empty_decile_set_panics_with_message() {
        let set = ArrivalModelSet { per_decile: vec![] };
        let _ = set.decile(0);
    }
}

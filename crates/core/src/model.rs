//! The released per-service model: the §5.4 parameter tuple
//! `[μ_s, σ_s, {k_{s,n}, μ_{s,n}, σ_{s,n}}_n, α_s, β_s]`.

use mtd_math::distributions::{Distribution1D, LogNormal10};
use mtd_math::fit::PowerLawFit;
use mtd_math::histogram::{BinnedPdf, LogGrid};
use mtd_math::Result;
use rand::Rng;

/// One residual peak component `k · LogN(μ, σ²)` of Eq. (4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeakComponent {
    /// Residual probability mass (the interval's integral, §5.2 step 3).
    pub k: f64,
    /// Peak location, `log₁₀` MB.
    pub mu: f64,
    /// Peak spread in decades (`0.997·ℓ/3` for interval span ℓ).
    pub sigma: f64,
}

/// Fit-quality metrics reported in §5.4.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ModelQuality {
    /// EMD between the modeled and measured `F_s(x)` (order 1e-5 — one
    /// order below the Fig 8a inter-slice distances — in the paper).
    pub volume_emd: f64,
    /// R² of the power-law duration fit (0.7–0.9 typical, ≥ 0.5 noted).
    pub pair_r2: f64,
}

/// The complete session-level model of one mobile service.
///
/// # Examples
/// ```
/// use mtd_core::registry::ModelRegistry;
/// use rand::SeedableRng;
/// let registry = ModelRegistry::released();
/// let netflix = registry.by_name("Netflix").unwrap();
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
/// let (volume_mb, duration_s, throughput_mbps) = netflix.sample_session(&mut rng);
/// assert!(volume_mb > 0.0 && duration_s >= 1.0);
/// assert!((throughput_mbps - volume_mb * 8.0 / duration_s).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceModel {
    pub name: String,
    /// Main log-normal location `μ_s` (log₁₀ MB), Eq. (3).
    pub mu: f64,
    /// Main log-normal spread `σ_s` (decades).
    pub sigma: f64,
    /// Residual peaks (≤ 3 by construction, §5.2).
    pub peaks: Vec<PeakComponent>,
    /// Power-law prefactor `α_s` of `v(d) = α·d^β` (MB at 1 s).
    pub alpha: f64,
    /// Power-law exponent `β_s`.
    pub beta: f64,
    /// Session share used by the §5.1 per-service arrival breakdown.
    pub session_share: f64,
    /// Log₁₀ dispersion of the duration around the deterministic inverse
    /// `v⁻¹` (decades). The paper's released tuple stops at the mean
    /// relation; this one extra fitted value (from the within-bin
    /// dispersion the aggregation pipeline can expose) restores the
    /// *scatter* of per-session throughput, which §6-style capacity
    /// studies are sensitive to. Zero reproduces the paper's exact
    /// deterministic behavior; a registry file without the field loads
    /// with zero.
    pub duration_sigma: f64,
    /// Measured support of the volume PDF, `log₁₀` MB: samples are
    /// truncated to `[10^lo, 10^hi]`. An analytic log-normal has unbounded
    /// tails, but measured session volumes do not (link capacity, DPI
    /// range); without truncation, the model's *linear* traffic mean — to
    /// which the §6 capacity studies are sensitive — badly overshoots.
    /// Fitted as the measured 0.05% / 99.95% quantiles; a registry file
    /// without the field loads with `(-3.0, 4.0)`.
    pub support_log10: (f64, f64),
    /// Fit quality against the measurement data.
    pub quality: ModelQuality,
}

impl ServiceModel {
    /// The Eq. (5) mixture density over the `log₁₀ x` axis:
    /// `(f_s + Σ f_{s,n}) / (1 + Σ k_n)`.
    #[must_use]
    pub fn pdf_log10(&self, u: f64) -> f64 {
        let main = LogNormal10::new(self.mu, self.sigma.max(1e-9))
            .map(|d| d.pdf_log10(u))
            .unwrap_or(0.0);
        let peaks: f64 = self
            .peaks
            .iter()
            .map(|p| {
                LogNormal10::new(p.mu, p.sigma.max(1e-9))
                    .map(|d| p.k * d.pdf_log10(u))
                    .unwrap_or(0.0)
            })
            .sum();
        let total_k: f64 = self.peaks.iter().map(|p| p.k).sum();
        (main + peaks) / (1.0 + total_k)
    }

    /// The Eq. (5) mixture CDF over the `log₁₀ x` axis — the analytic
    /// companion of [`ServiceModel::pdf_log10`], used by the sampling
    /// fidelity battery's KS test. Ignores the support clamp; see
    /// [`ServiceModel::sample_volume`] for the censoring the sampler adds.
    #[must_use]
    pub fn cdf_log10(&self, u: f64) -> f64 {
        use mtd_math::distributions::std_normal_cdf;
        let main = std_normal_cdf((u - self.mu) / self.sigma.max(1e-9));
        let peaks: f64 = self
            .peaks
            .iter()
            .map(|p| p.k * std_normal_cdf((u - p.mu) / p.sigma.max(1e-9)))
            .sum();
        let total_k: f64 = self.peaks.iter().map(|p| p.k).sum();
        (main + peaks) / (1.0 + total_k)
    }

    /// Bulk [`ServiceModel::cdf_log10`] through the SIMD Gaussian-CDF
    /// kernel, one pass per mixture component. Component contributions are
    /// accumulated in the scalar summation order, so results differ from
    /// the scalar path only by the simd module's pinned ULP bound (and are
    /// bit-identical across tiers and thread counts).
    pub fn cdf_log10_batch(&self, us: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.resize(us.len(), 0.0);
        mtd_math::simd::gaussian_cdf_into(us, self.mu, self.sigma.max(1e-9), out);
        if !self.peaks.is_empty() {
            let mut tmp = vec![0.0; us.len()];
            let mut peaks = vec![0.0; us.len()];
            for p in &self.peaks {
                mtd_math::simd::gaussian_cdf_into(us, p.mu, p.sigma.max(1e-9), &mut tmp);
                for (acc, &c) in peaks.iter_mut().zip(&tmp) {
                    *acc += p.k * c;
                }
            }
            for (o, &pk) in out.iter_mut().zip(&peaks) {
                *o += pk;
            }
        }
        let total_k: f64 = self.peaks.iter().map(|p| p.k).sum();
        let denom = 1.0 + total_k;
        for o in out.iter_mut() {
            *o /= denom;
        }
    }

    /// The effective `log₁₀` support of [`ServiceModel::sample_volume`]:
    /// the fitted support intersected with the absolute 1 KB .. 10 GB
    /// guard the sampler clamps to.
    #[must_use]
    pub fn effective_support_log10(&self) -> (f64, f64) {
        (
            self.support_log10.0.max(-3.0),
            self.support_log10.1.min(4.0),
        )
    }

    /// Discretizes the Eq. (5) model onto a grid (for EMD comparisons and
    /// plotting against measured PDFs).
    pub fn to_binned_pdf(&self, grid: LogGrid) -> Result<BinnedPdf> {
        BinnedPdf::from_fn(grid, |u| self.pdf_log10(u))
    }

    /// The §5.4 inverse map `v⁻¹`: duration whose mean volume is `v`,
    /// clamped to the measured duration support (1 s .. 4 h; §4.2 reports
    /// per-BS sessions lasting "from seconds to hours").
    #[must_use]
    pub fn duration_for(&self, volume_mb: f64) -> f64 {
        PowerLawFit {
            alpha: self.alpha,
            beta: self.beta,
            r2: self.quality.pair_r2,
        }
        .invert(volume_mb)
        .clamp(1.0, 14_400.0)
    }

    /// Samples a session volume (MB) from the Eq. (5) mixture: choose the
    /// main component with probability `1/(1+Σk)`, else peak `n` with
    /// probability `k_n/(1+Σk)`.
    pub fn sample_volume<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let total_k: f64 = self.peaks.iter().map(|p| p.k).sum();
        let mut pick: f64 = rng.gen::<f64>() * (1.0 + total_k);
        let (mu, sigma) = if pick < 1.0 {
            (self.mu, self.sigma)
        } else {
            pick -= 1.0;
            let mut chosen = (self.mu, self.sigma);
            for p in &self.peaks {
                if pick < p.k {
                    chosen = (p.mu, p.sigma);
                    break;
                }
                pick -= p.k;
            }
            chosen
        };
        let (lo, hi) = self.volume_bounds();
        LogNormal10::new(mu, sigma.max(1e-9))
            .expect("valid component")
            .sample(rng)
            .clamp(lo, hi)
    }

    /// The volumes (MB) [`ServiceModel::sample_volume`] clamps to: the
    /// fitted support within the absolute 1 KB .. 10 GB guard. Draws
    /// beyond either bound land exactly on it, an atom of the sampled
    /// distribution.
    #[must_use]
    pub fn volume_bounds(&self) -> (f64, f64) {
        let (lo, hi) = self.support_log10;
        (10f64.powf(lo).max(1e-3), 10f64.powf(hi).min(1e4))
    }

    /// The model's mean volume (MB) when samples are clamped to the
    /// current support, computed in closed form from the mixture's
    /// log-normal partial expectations. Used to calibrate the support so
    /// the model's *linear* mean matches the measurement.
    #[must_use]
    pub fn clamped_mean(&self) -> f64 {
        use mtd_math::distributions::{std_normal_cdf, LN10};
        let (lo, hi) = self.support_log10;
        let total_k: f64 = self.peaks.iter().map(|p| p.k).sum();
        let mut components: Vec<(f64, f64, f64)> =
            vec![(1.0 / (1.0 + total_k), self.mu, self.sigma.max(1e-9))];
        for p in &self.peaks {
            components.push((p.k / (1.0 + total_k), p.mu, p.sigma.max(1e-9)));
        }
        let floor = 10f64.powf(lo);
        let cap = 10f64.powf(hi);
        let mut mean = 0.0;
        for (w, mu, sigma) in components {
            let m_full = 10f64.powf(mu) * ((sigma * LN10).powi(2) / 2.0).exp();
            let z_hi = (hi - mu) / sigma;
            let z_lo = (lo - mu) / sigma;
            // E[X · 1{lo < u ≤ hi}] for u = log10 X.
            let middle = m_full
                * (std_normal_cdf(z_hi - sigma * LN10) - std_normal_cdf(z_lo - sigma * LN10));
            let below = floor * std_normal_cdf(z_lo);
            let above = cap * (1.0 - std_normal_cdf(z_hi));
            mean += w * (middle + below + above);
        }
        mean
    }

    /// Calibrates the support's upper bound (by bisection on the
    /// closed-form [`ServiceModel::clamped_mean`]) so the model's linear
    /// mean matches `target_mean_mb`. If even the uncalibrated support
    /// undershoots the target, the support is left unchanged.
    pub fn calibrate_support(&mut self, target_mean_mb: f64) {
        if self.clamped_mean() <= target_mean_mb {
            return;
        }
        let (lo, hi0) = self.support_log10;
        let mut lo_t = lo + 1e-3;
        let mut hi_t = hi0;
        for _ in 0..60 {
            let mid = 0.5 * (lo_t + hi_t);
            self.support_log10 = (lo, mid);
            if self.clamped_mean() > target_mean_mb {
                hi_t = mid;
            } else {
                lo_t = mid;
            }
        }
        self.support_log10 = (lo, 0.5 * (lo_t + hi_t));
    }

    /// Samples a full session tuple per §5.4: volume from `F̂_s`, duration
    /// via `v⁻¹` (plus the fitted log-normal scatter when
    /// `duration_sigma > 0`), mean throughput as the ratio. Returns
    /// `(volume_mb, duration_s, throughput_mbps)`.
    pub fn sample_session<R: Rng + ?Sized>(&self, rng: &mut R) -> (f64, f64, f64) {
        let v = self.sample_volume(rng);
        let mut d = self.duration_for(v);
        if self.duration_sigma > 0.0 {
            let z: f64 = crate::arrival::sample_std_normal(rng);
            d = (d * 10f64.powf(z * self.duration_sigma)).clamp(1.0, 14_400.0);
        }
        (v, d, v * 8.0 / d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn netflix_like() -> ServiceModel {
        ServiceModel {
            name: "Netflix".into(),
            mu: 0.6,
            sigma: 0.8,
            peaks: vec![
                PeakComponent {
                    k: 0.20,
                    mu: 1.60,
                    sigma: 0.10,
                },
                PeakComponent {
                    k: 0.10,
                    mu: 2.18,
                    sigma: 0.08,
                },
            ],
            alpha: 0.00272,
            beta: 1.5,
            session_share: 0.024,
            duration_sigma: 0.0,
            support_log10: (-3.0, 4.0),
            quality: ModelQuality {
                volume_emd: 1e-5,
                pair_r2: 0.85,
            },
        }
    }

    #[test]
    fn eq5_density_integrates_to_one() {
        let m = netflix_like();
        // Riemann sum over a wide log range.
        let n = 50_000;
        let (lo, hi) = (-6.0, 7.0);
        let step = (hi - lo) / n as f64;
        let mass: f64 = (0..n)
            .map(|i| m.pdf_log10(lo + (i as f64 + 0.5) * step) * step)
            .sum();
        assert!((mass - 1.0).abs() < 1e-6, "mass {mass}");
    }

    #[test]
    fn cdf_log10_integrates_pdf() {
        let m = netflix_like();
        assert!(m.cdf_log10(-8.0) < 1e-9);
        assert!((m.cdf_log10(8.0) - 1.0).abs() < 1e-9);
        // CDF at u equals the integral of the mixture density up to u.
        for &u in &[0.0, 1.0, 1.6, 2.5] {
            let n = 20_000;
            let lo = -8.0;
            let step = (u - lo) / n as f64;
            let integral: f64 = (0..n)
                .map(|i| m.pdf_log10(lo + (i as f64 + 0.5) * step) * step)
                .sum();
            assert!(
                (m.cdf_log10(u) - integral).abs() < 1e-4,
                "u={u}: cdf {} vs integral {integral}",
                m.cdf_log10(u)
            );
        }
    }

    #[test]
    fn peaks_raise_density_locally() {
        let m = netflix_like();
        let mut no_peaks = m.clone();
        no_peaks.peaks.clear();
        // At the 40 MB peak the mixture density exceeds the plain main fit.
        assert!(m.pdf_log10(1.60) > no_peaks.pdf_log10(1.60));
    }

    #[test]
    fn duration_inverse_roundtrips() {
        let m = netflix_like();
        let v = m.alpha * 600f64.powf(m.beta);
        assert!((m.duration_for(v) - 600.0).abs() < 1e-6);
    }

    #[test]
    fn duration_clamped() {
        let m = netflix_like();
        assert!(m.duration_for(1e-9) >= 1.0);
        assert!(m.duration_for(1e12) <= 86_400.0);
    }

    #[test]
    fn sampled_volumes_reflect_peaks() {
        let m = netflix_like();
        let mut rng = SmallRng::seed_from_u64(3);
        let n = 50_000;
        let near_peak = (0..n)
            .map(|_| m.sample_volume(&mut rng).log10())
            .filter(|u| (u - 1.60).abs() < 0.25)
            .count();
        // Peak mass k / (1+Σk) ≈ 0.154 plus the main's own density there.
        let frac = near_peak as f64 / n as f64;
        assert!(frac > 0.15, "fraction near 40 MB peak: {frac}");
    }

    #[test]
    fn sample_session_consistency() {
        let m = netflix_like();
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..100 {
            let (v, d, t) = m.sample_session(&mut rng);
            assert!(v > 0.0 && d >= 1.0);
            assert!((t - v * 8.0 / d).abs() < 1e-12);
        }
    }
}

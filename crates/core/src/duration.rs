//! The §5.3 power-law model of duration–volume pairs.
//!
//! `v_s(d) = α_s · d^{β_s}`, fitted with Levenberg–Marquardt on the
//! weighted duration–volume pairs of a service. The exponent `β_s` is the
//! interpretable quantity: `β = 1` means duration-independent mean
//! throughput; `β > 1` (video streaming) means throughput *grows* with
//! session length; `β < 1` (interactive services) means it decays.

use mtd_dataset::PairPoint;
use mtd_math::fit::{fit_power_law, PowerLawFit};
use mtd_math::{MathError, Result};

/// Minimum total weight a pair point needs to participate in the fit;
/// single-session bins are measurement noise (the paper attributes its
/// occasional R² ≈ 0.5 to exactly such outliers).
const MIN_BIN_WEIGHT: f64 = 3.0;

/// Fits the §5.3 power law to duration–volume pairs.
///
/// Errors when fewer than two sufficiently-populated bins exist.
pub fn fit_duration_power_law(pairs: &[PairPoint]) -> Result<PowerLawFit> {
    let filtered: Vec<&PairPoint> = pairs
        .iter()
        .filter(|p| p.weight >= MIN_BIN_WEIGHT && p.mean_volume_mb > 0.0 && p.duration_s > 0.0)
        .collect();
    if filtered.len() < 2 {
        return Err(MathError::EmptyInput(
            "fit_duration_power_law: too few populated bins",
        ));
    }
    let ds: Vec<f64> = filtered.iter().map(|p| p.duration_s).collect();
    let vs: Vec<f64> = filtered.iter().map(|p| p.mean_volume_mb).collect();
    let ws: Vec<f64> = filtered.iter().map(|p| p.weight).collect();
    fit_power_law(&ds, &vs, Some(&ws))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs_from_law(alpha: f64, beta: f64, noise: f64) -> Vec<PairPoint> {
        (0..40)
            .map(|i| {
                let d = 2f64.powf(f64::from(i) * 0.35); // 1 s .. ~3 h
                let bump = if i % 2 == 0 { 1.0 + noise } else { 1.0 - noise };
                PairPoint {
                    duration_s: d,
                    mean_volume_mb: alpha * d.powf(beta) * bump,
                    weight: 50.0,
                }
            })
            .collect()
    }

    #[test]
    fn recovers_exact_power_law() {
        let fit = fit_duration_power_law(&pairs_from_law(0.0027, 1.5, 0.0)).unwrap();
        assert!((fit.alpha - 0.0027).abs() / 0.0027 < 1e-3);
        assert!((fit.beta - 1.5).abs() < 1e-3);
        assert!(fit.r2 > 0.999);
    }

    #[test]
    fn noisy_pairs_give_sub_unity_r2() {
        let fit = fit_duration_power_law(&pairs_from_law(0.1, 0.6, 0.4)).unwrap();
        assert!((fit.beta - 0.6).abs() < 0.05, "beta {}", fit.beta);
        assert!(fit.r2 < 1.0);
        assert!(fit.r2 > 0.5, "r2 {}", fit.r2);
    }

    #[test]
    fn light_bins_are_ignored() {
        let mut pairs = pairs_from_law(1.0, 1.0, 0.0);
        // A wild single-session outlier must not perturb the fit.
        pairs.push(PairPoint {
            duration_s: 10.0,
            mean_volume_mb: 1e6,
            weight: 1.0,
        });
        let fit = fit_duration_power_law(&pairs).unwrap();
        assert!((fit.beta - 1.0).abs() < 1e-3, "beta {}", fit.beta);
    }

    #[test]
    fn too_few_bins_error() {
        let pairs = vec![PairPoint {
            duration_s: 10.0,
            mean_volume_mb: 5.0,
            weight: 100.0,
        }];
        assert!(fit_duration_power_law(&pairs).is_err());
        assert!(fit_duration_power_law(&[]).is_err());
    }
}

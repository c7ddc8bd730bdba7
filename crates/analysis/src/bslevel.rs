//! BS-level consistency — the extension analysis.
//!
//! The paper positions session-level models between packet-level and
//! BS-level ones (Fig 1) and argues they "complement existing tools that
//! mimic … aggregated spatiotemporal traffic demands". This module closes
//! that loop quantitatively: traffic *generated from the fitted
//! session-level models* is aggregated to the BS level and compared with
//! the measured BS-level series on three aggregate signatures —
//!
//! - the **circadian daily profile** (Pearson correlation of mean volume
//!   by minute of day),
//! - the **peak-to-mean ratio** of per-minute volume,
//! - the **heavy-tail index** of per-minute volumes (Hill estimator),
//!
//! i.e. a session-level model good enough to *induce* the right BS-level
//! statistics, which is exactly the complementarity claim.

use mtd_core::registry::ModelRegistry;
use mtd_core::ServingPlan;
use mtd_dataset::Dataset;
use mtd_math::rng::{stream_id, stream_rng};
use mtd_math::stats::pearson;
use mtd_math::tail::hill_estimator_auto;
use mtd_math::{MathError, Result};
use mtd_netsim::time::MINUTES_PER_DAY;

/// BS-level signatures of one per-minute volume series.
#[derive(Debug, Clone)]
pub struct BsLevelSignature {
    /// Mean volume by minute of day (1440 values, MB/min).
    pub daily_profile: Vec<f64>,
    /// Burstiness: 99th-percentile over mean of per-minute volume (a
    /// robust peak-to-mean; the absolute maximum is a single-sample
    /// statistic and far too noisy to compare).
    pub peak_to_mean: f64,
    /// Hill tail index of per-minute volumes (NaN when inestimable).
    pub tail_index: f64,
}

/// Comparison of measured vs model-generated BS-level aggregates.
#[derive(Debug, Clone)]
pub struct BsLevelComparison {
    pub decile: u8,
    pub measured: BsLevelSignature,
    pub model: BsLevelSignature,
    /// Pearson correlation of the two daily profiles.
    pub profile_correlation: f64,
}

/// Signature of a per-minute volume series spanning whole days.
fn signature(series: &[f64]) -> Result<BsLevelSignature> {
    let mpd = MINUTES_PER_DAY as usize;
    if series.len() < mpd {
        return Err(MathError::EmptyInput(
            "bs-level series shorter than one day",
        ));
    }
    let days = series.len() / mpd;
    let mut daily_profile = vec![0.0; mpd];
    for d in 0..days {
        for m in 0..mpd {
            daily_profile[m] += series[d * mpd + m];
        }
    }
    for v in &mut daily_profile {
        *v /= days as f64;
    }
    let mean: f64 = series.iter().sum::<f64>() / series.len() as f64;
    let peak = mtd_math::stats::percentile(series, 0.99)?;
    if mean <= 0.0 {
        return Err(MathError::InvalidParameter("empty BS-level series"));
    }
    let tail_index = hill_estimator_auto(series).unwrap_or(f64::NAN);
    Ok(BsLevelSignature {
        daily_profile,
        peak_to_mean: peak / mean,
        tail_index,
    })
}

/// Smooths a daily profile with a centered moving average (window in
/// minutes) so the correlation measures the circadian shape rather than
/// minute noise.
fn smooth(profile: &[f64], window: usize) -> Vec<f64> {
    let n = profile.len();
    let half = window / 2;
    (0..n)
        .map(|i| {
            let lo = i.saturating_sub(half);
            let hi = (i + half + 1).min(n);
            profile[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
        })
        .collect()
}

/// Compares the measured BS-level aggregate of one load decile with the
/// aggregate induced by the fitted session-level models.
pub fn bs_level_comparison(
    dataset: &Dataset,
    registry: &ModelRegistry,
    decile: u8,
    seed: u64,
) -> Result<BsLevelComparison> {
    // Measured: pool all BSs of the decile (mean across them per minute).
    let members: Vec<usize> = (0..dataset.n_bs())
        .filter(|bs| dataset.decile_of_bs(*bs) == decile)
        .collect();
    if members.is_empty() {
        return Err(MathError::EmptyInput("no BS in decile"));
    }
    let horizon = dataset.bs_minute_volumes(members[0]).len();
    let mut measured_series = vec![0.0f64; horizon];
    for bs in &members {
        for (i, v) in dataset.bs_minute_volumes(*bs).iter().enumerate() {
            measured_series[i] += f64::from(*v);
        }
    }
    for v in &mut measured_series {
        *v /= members.len() as f64;
    }

    // Model-generated: same number of days, volume attributed to the
    // session's start minute (same convention as the dataset).
    let days = horizon / MINUTES_PER_DAY as usize;
    let plan = ServingPlan::compile(registry.clone())?;
    let mut rng = stream_rng(seed, stream_id("bslevel"));
    let mut model_series = vec![0.0f64; horizon];
    for d in 0..days {
        for s in plan.generate_day(decile, &mut rng) {
            let minute = d * MINUTES_PER_DAY as usize + (s.start_s / 60.0) as usize;
            if minute < horizon {
                model_series[minute] += s.volume_mb;
            }
        }
    }

    let measured = signature(&measured_series)?;
    let model = signature(&model_series)?;
    let profile_correlation = pearson(
        &smooth(&measured.daily_profile, 30),
        &smooth(&model.daily_profile, 30),
    )?;
    Ok(BsLevelComparison {
        decile,
        measured,
        model,
        profile_correlation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtd_core::pipeline::fit_registry;
    use mtd_netsim::geo::Topology;
    use mtd_netsim::services::ServiceCatalog;
    use mtd_netsim::ScenarioConfig;

    fn run(decile: u8) -> BsLevelComparison {
        let config = ScenarioConfig::small_test();
        let topology = Topology::generate(config.n_bs, config.seed);
        let catalog = ServiceCatalog::paper();
        let dataset = Dataset::build(&config, &topology, &catalog);
        let registry = fit_registry(&dataset).unwrap();
        bs_level_comparison(&dataset, &registry, decile, 5).unwrap()
    }

    #[test]
    fn model_reproduces_circadian_profile() {
        let c = run(9);
        assert!(
            c.profile_correlation > 0.8,
            "profile correlation {}",
            c.profile_correlation
        );
    }

    #[test]
    fn peak_to_mean_in_same_ballpark() {
        let c = run(9);
        let ratio = c.model.peak_to_mean / c.measured.peak_to_mean;
        assert!((0.3..3.0).contains(&ratio), "peak/mean ratio {ratio}");
    }

    #[test]
    fn signatures_have_daily_shape() {
        let c = run(8);
        assert_eq!(c.measured.daily_profile.len(), 1440);
        // Midday volume well above 4 AM volume in both.
        let night: f64 = c.measured.daily_profile[3 * 60..5 * 60].iter().sum();
        let day: f64 = c.measured.daily_profile[12 * 60..14 * 60].iter().sum();
        assert!(day > 3.0 * night, "measured day {day} night {night}");
        let night_m: f64 = c.model.daily_profile[3 * 60..5 * 60].iter().sum();
        let day_m: f64 = c.model.daily_profile[12 * 60..14 * 60].iter().sum();
        assert!(day_m > 3.0 * night_m, "model day {day_m} night {night_m}");
    }

    #[test]
    fn missing_decile_errors() {
        // A 12-BS scenario has at most 10 deciles but all are populated;
        // decile 200 does not exist.
        let config = ScenarioConfig::small_test();
        let topology = Topology::generate(config.n_bs, config.seed);
        let catalog = ServiceCatalog::paper();
        let dataset = Dataset::build(&config, &topology, &catalog);
        let registry = fit_registry(&dataset).unwrap();
        assert!(bs_level_comparison(&dataset, &registry, 200, 5).is_err());
    }
}

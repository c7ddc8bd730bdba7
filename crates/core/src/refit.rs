//! Windowed re-fitting over stored campaigns.
//!
//! The longitudinal-drift stress scenario shifts the per-service volume
//! law over multi-day windows; a whole-horizon fit averages over the
//! drift while per-window fits track it. This module slices a stored
//! campaign along the day axis through [`mtd_dataset::read_window`] and
//! fits one registry per window — the operational answer to drift, and
//! the path `mtd-campaign --refit-window` and the drift breakage
//! battery exercise.
//!
//! Windows tile `[0, n_days)` as `[0, w), [w, 2w), ...`; a final
//! partial window keeps the remaining days rather than dropping them.
//! A window equal to the horizon degenerates to the whole-horizon fit
//! bit-identically (same assembler, same fit).

use crate::pipeline::{fit_registry_with, StreamFitError};
use crate::registry::ModelRegistry;
use crate::volume::VolumeFitConfig;
use mtd_dataset::{
    read_window, read_window_from_reader, Dataset, DatasetStream, StoreError, StoreReport,
};
use mtd_math::MathError;
use std::io::{Cursor, Read};
use std::path::Path;

/// One window's fit in a windowed re-fitting sweep.
#[derive(Debug, Clone)]
pub struct WindowFit {
    /// First day of the window (inclusive).
    pub day0: u32,
    /// Last day of the window (exclusive).
    pub day1: u32,
    /// The registry fitted on this window alone.
    pub registry: ModelRegistry,
    /// Integrity report from the window's streamed read.
    pub report: StoreReport,
}

/// The `[day0, day1)` tiling of `n_days` by `window_days`.
pub fn window_spans(n_days: u32, window_days: u32) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    let mut day0 = 0;
    while day0 < n_days {
        spans.push((day0, (day0 + window_days).min(n_days)));
        day0 += window_days;
    }
    spans
}

/// Fits one registry per `window_days`-day window of the stored dataset
/// at `path`.
pub fn fit_registry_windowed(
    path: &Path,
    window_days: u32,
    volume_config: &VolumeFitConfig,
) -> Result<Vec<WindowFit>, StreamFitError> {
    let _span = mtd_telemetry::span!("fit.registry_windowed");
    fit_windows(
        window_days,
        volume_config,
        || DatasetStream::open(path),
        |day0, day1| read_window(path, day0, day1),
    )
}

/// [`fit_registry_windowed`] over an in-memory store image — the form
/// the stress battery uses (no temp files, byte-deterministic).
pub fn fit_registry_windowed_bytes(
    bytes: &[u8],
    window_days: u32,
    volume_config: &VolumeFitConfig,
) -> Result<Vec<WindowFit>, StreamFitError> {
    fit_windows(
        window_days,
        volume_config,
        || DatasetStream::from_reader(Cursor::new(bytes)),
        |day0, day1| read_window_from_reader(Cursor::new(bytes), day0, day1),
    )
}

/// Refuses a zero-day window, takes the store's day count from the
/// stream `open` returns, and fits one registry per window `read` slices.
fn fit_windows<R: Read>(
    window_days: u32,
    volume_config: &VolumeFitConfig,
    open: impl FnOnce() -> Result<DatasetStream<R>, StoreError>,
    read: impl Fn(u32, u32) -> Result<(Dataset, StoreReport), StoreError>,
) -> Result<Vec<WindowFit>, StreamFitError> {
    if window_days == 0 {
        return Err(StreamFitError::Math(MathError::EmptyInput(
            "fit_registry_windowed: window must be at least one day",
        )));
    }
    let n_days = open()?.meta().n_days;
    let mut fits = Vec::new();
    for (day0, day1) in window_spans(n_days, window_days) {
        let (dataset, report) = read(day0, day1)?;
        let registry = fit_registry_with(&dataset, volume_config)?;
        fits.push(WindowFit {
            day0,
            day1,
            registry,
            report,
        });
    }
    Ok(fits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::fit_registry;
    use mtd_dataset::Dataset;
    use mtd_netsim::geo::Topology;
    use mtd_netsim::services::ServiceCatalog;
    use mtd_netsim::{ScenarioConfig, StressConfig};

    fn build(days: u32, stress: StressConfig) -> Dataset {
        // Scale sized so even the rarest service keeps enough sessions
        // per one-day window for a stable μ (the zero-drift regression
        // pins per-service agreement, which is sample-noise bound).
        let config = ScenarioConfig {
            n_bs: 8,
            days,
            arrival_scale: 0.2,
            stress,
            ..ScenarioConfig::small_test()
        };
        let topology = Topology::generate(config.n_bs, config.seed);
        Dataset::build(&config, &topology, &ServiceCatalog::paper())
    }

    #[test]
    fn window_spans_tile_the_horizon() {
        assert_eq!(window_spans(6, 2), vec![(0, 2), (2, 4), (4, 6)]);
        assert_eq!(window_spans(7, 3), vec![(0, 3), (3, 6), (6, 7)]);
        assert_eq!(window_spans(3, 5), vec![(0, 3)]);
        assert_eq!(window_spans(0, 2), vec![]);
    }

    #[test]
    fn whole_horizon_window_reproduces_the_plain_fit_bit_exactly() {
        // Zero-drift regression, exact half: with the window equal to
        // the horizon, the windowed path must reproduce the whole-
        // horizon fit bit-identically.
        let ds = build(2, StressConfig::default());
        let bytes = mtd_dataset::store::encode_binary(&ds, 1);
        let whole = fit_registry(&ds).unwrap();
        let fits = fit_registry_windowed_bytes(&bytes, 2, &VolumeFitConfig::default()).unwrap();
        assert_eq!(fits.len(), 1);
        assert_eq!(fits[0].day0, 0);
        assert_eq!(fits[0].day1, 2);
        assert!(fits[0].report.is_clean());
        assert_eq!(fits[0].registry, whole);
    }

    #[test]
    fn zero_drift_windowed_fits_stay_near_the_whole_fit() {
        // Zero-drift regression, tolerance half: without drift, every
        // one-day window sees the same stationary law, so each window
        // fit must agree with the whole-horizon fit within a pinned
        // per-service tolerance.
        let ds = build(2, StressConfig::default());
        let bytes = mtd_dataset::store::encode_binary(&ds, 1);
        let whole = fit_registry(&ds).unwrap();
        let fits = fit_registry_windowed_bytes(&bytes, 1, &VolumeFitConfig::default()).unwrap();
        assert_eq!(fits.len(), 2);
        for fit in &fits {
            // Sliver-share services see a handful of sessions per
            // one-day window, so their window μ is pure sample noise;
            // the regression pins every service with ≥ 1% share (and
            // checks that covers most of the catalog). 0.25 decades
            // covers the remaining sample noise while staying below
            // the 0.35/day drift signal the drift regression detects.
            let mut pinned = 0;
            for model in &fit.registry.services {
                let full = whole.by_name(&model.name).unwrap();
                if full.session_share < 0.01 {
                    continue;
                }
                pinned += 1;
                assert!(
                    (model.mu - full.mu).abs() < 0.25,
                    "window [{}, {}) {}: mu {} vs {}",
                    fit.day0,
                    fit.day1,
                    model.name,
                    model.mu,
                    full.mu
                );
            }
            // The Table 1 catalog is long-tailed — only a dozen or so
            // services clear 1% share — but those carry nearly all
            // sessions, so pinning them pins the fit that matters.
            assert!(
                pinned >= 10,
                "only {pinned} of {} services were well-sampled",
                fit.registry.services.len()
            );
        }
    }

    #[test]
    fn pinned_drift_is_tracked_by_windows_and_missed_by_the_whole_fit() {
        // One μ-shift per day: the last window's fit must sit close to
        // the drifted truth while the whole-horizon fit lags it, and
        // the recovery error must be monotone in window size.
        let drift = StressConfig {
            drift_mu_per_window: 0.35,
            drift_window_days: 1,
            ..StressConfig::default()
        };
        let days = 4;
        let ds = build(days, drift);
        let bytes = mtd_dataset::store::encode_binary(&ds, 1);
        let whole = fit_registry(&ds).unwrap();

        // Mean fitted μ across services is a robust drift tracker.
        let mean_mu = |r: &ModelRegistry| {
            r.services.iter().map(|m| m.mu).sum::<f64>() / r.services.len() as f64
        };

        let mut last_window_error = Vec::new();
        for window in [days, 2, 1] {
            let fits =
                fit_registry_windowed_bytes(&bytes, window, &VolumeFitConfig::default()).unwrap();
            let last = fits.last().unwrap();
            // The final day's truth is the base law shifted by (days-1)
            // windows; compare against the final one-day window's fit.
            last_window_error.push((window, mean_mu(&last.registry)));
        }
        let truth = last_window_error
            .iter()
            .find(|(w, _)| *w == 1)
            .map(|(_, mu)| *mu)
            .unwrap();
        // Recovery error: |fitted μ − final-day μ| for each window size.
        let errors: Vec<(u32, f64)> = last_window_error
            .iter()
            .map(|(w, mu)| (*w, (mu - truth).abs()))
            .collect();
        assert!(
            errors.windows(2).all(|p| p[0].1 >= p[1].1 - 1e-9),
            "recovery error not monotone in window size: {errors:?}"
        );
        // And the whole-horizon fit genuinely lags the drifted truth.
        let whole_err = (mean_mu(&whole) - truth).abs();
        assert!(
            whole_err > 0.3,
            "whole-horizon fit should lag a 0.35/day drift: err {whole_err}"
        );
    }

    #[test]
    fn windowed_fit_is_deterministic() {
        let ds = build(2, StressConfig::default());
        let bytes = mtd_dataset::store::encode_binary(&ds, 1);
        let a = fit_registry_windowed_bytes(&bytes, 1, &VolumeFitConfig::default()).unwrap();
        let b = fit_registry_windowed_bytes(&bytes, 1, &VolumeFitConfig::default()).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.registry, y.registry);
        }
    }

    #[test]
    fn zero_window_is_rejected() {
        let ds = build(1, StressConfig::default());
        let bytes = mtd_dataset::store::encode_binary(&ds, 1);
        assert!(fit_registry_windowed_bytes(&bytes, 0, &VolumeFitConfig::default()).is_err());
    }
}

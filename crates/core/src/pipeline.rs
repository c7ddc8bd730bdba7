//! The end-to-end fitting pipeline: measurement dataset → model registry.
//!
//! For every service: fit the §5.2 log-normal mixture to its Eq. (2)
//! all-BS/all-day volume PDF, and the §5.3 power law to its Eq. (1)
//! duration–volume pairs. For every BS-load decile: fit the §5.1 bimodal
//! arrival model. The result is the released [`ModelRegistry`].

use crate::arrival::{ArrivalModel, ArrivalModelSet};
use crate::duration::fit_duration_power_law;
use crate::model::{ModelQuality, ServiceModel};
use crate::registry::ModelRegistry;
use crate::volume::{fit_volume_mixture, VolumeFitConfig};
use mtd_dataset::{Dataset, DatasetAssembler, DatasetStream, SliceFilter, StoreError, StoreReport};
use mtd_math::{MathError, Result};
use std::path::Path;

/// Fits the complete model registry from a measurement dataset.
///
/// Services with no measured sessions are skipped (they cannot be
/// modeled); an error is returned only when *nothing* can be fitted.
pub fn fit_registry(dataset: &Dataset) -> Result<ModelRegistry> {
    fit_registry_with(dataset, &VolumeFitConfig::default())
}

/// [`fit_registry`] with explicit volume-fit tunables, fanned out on the
/// process-wide [`mtd_par::pool`].
pub fn fit_registry_with(
    dataset: &Dataset,
    volume_config: &VolumeFitConfig,
) -> Result<ModelRegistry> {
    fit_registry_pooled(dataset, volume_config, &mtd_par::pool())
}

/// [`fit_registry_with`] on an explicit pool. Per-service volume+duration
/// fits and per-decile arrival fits are independent, so they fan out as
/// parallel jobs; results return in input order, which makes the output
/// **bit-identical** for every thread count (and keeps the "first error
/// in service order" semantics of the sequential walk).
pub fn fit_registry_pooled(
    dataset: &Dataset,
    volume_config: &VolumeFitConfig,
    pool: &mtd_par::Pool,
) -> Result<ModelRegistry> {
    let _span = mtd_telemetry::span!("fit.registry");
    let all = SliceFilter::all();
    let total_sessions: f64 = (0..dataset.n_services())
        .map(|s| dataset.sessions(s as u16, &all))
        .sum();
    if total_sessions <= 0.0 {
        return Err(MathError::EmptyInput("fit_registry: empty dataset"));
    }

    let mut candidates: Vec<(u16, f64)> = Vec::with_capacity(dataset.n_services());
    for s in 0..dataset.n_services() as u16 {
        let sessions = dataset.sessions(s, &all);
        if sessions <= 0.0 {
            mtd_telemetry::count("fit.service.skipped_empty", 1);
        } else {
            candidates.push((s, sessions));
        }
    }

    if mtd_telemetry::enabled() {
        // Heartbeat progress: one unit per service fit plus one per
        // arrival decile fit below.
        mtd_telemetry::gauge_set("progress.total_units", (candidates.len() + 10) as f64);
    }
    // Contiguous grains amortize job scheduling and keep each worker's
    // thread-local FitArena warm across consecutive services.
    let fitted = pool.par_map_chunked(candidates.len(), pool.auto_grain(candidates.len()), |i| {
        let (s, sessions) = candidates[i];
        let model = fit_service(dataset, s, sessions, total_sessions, volume_config);
        if mtd_telemetry::enabled() {
            mtd_telemetry::count("progress.done_units", 1);
            mtd_telemetry::flush_thread();
        }
        model
    });
    let mut services = Vec::with_capacity(fitted.len());
    for model in fitted {
        services.push(model?);
    }
    if services.is_empty() {
        return Err(MathError::EmptyInput("fit_registry: no service fitted"));
    }

    let _arrivals_span = mtd_telemetry::span!("arrivals");
    // The "reuse previous decile" fallback is a sequential dependency, so
    // only the fits themselves fan out; gaps are filled in order after.
    let decile_fits = pool.par_map_indexed(10, |d| {
        let d = d as u8;
        let peak = dataset.arrival_counts_windowed(d, true);
        let off = dataset.arrival_counts_windowed(d, false);
        let fit = if peak.len() < 2 {
            None
        } else {
            Some(ArrivalModel::fit(&peak, &off))
        };
        if mtd_telemetry::enabled() {
            mtd_telemetry::count("progress.done_units", 1);
            mtd_telemetry::flush_thread();
        }
        fit
    });
    let mut per_decile: Vec<ArrivalModel> = Vec::with_capacity(10);
    for fit in decile_fits {
        match fit {
            Some(result) => per_decile.push(result?),
            None => {
                // Tiny scenarios may not populate every decile; reuse the
                // previous decile's model rather than leaving a hole.
                mtd_telemetry::count("fit.arrival.decile_reused", 1);
                let prev = per_decile.last().copied().ok_or(MathError::EmptyInput(
                    "fit_registry: no arrival data in the first decile",
                ))?;
                per_decile.push(prev);
            }
        }
    }
    drop(_arrivals_span);

    Ok(ModelRegistry {
        services,
        arrivals: ArrivalModelSet { per_decile },
    })
}

/// One service's complete fit — the unit of parallel work in
/// [`fit_registry_pooled`].
fn fit_service(
    dataset: &Dataset,
    s: u16,
    sessions: f64,
    total_sessions: f64,
    volume_config: &VolumeFitConfig,
) -> Result<ServiceModel> {
    let all = SliceFilter::all();
    let _span = mtd_telemetry::span!("service");
    let pdf = dataset.volume_pdf(s, &all)?;
    let vfit = {
        let _span = mtd_telemetry::span!("volume_mixture");
        fit_volume_mixture(&pdf, volume_config)?
    };
    mtd_telemetry::observe_labeled("fit.volume.emd", dataset.service_name(s), vfit.emd);

    let pairs = dataset.duration_pairs(s, &all);
    // Rare services may populate too few duration bins for the power
    // law; fall back to a neutral β = 1 anchored at the mean volume
    // (flagged by r2 = 0 so consumers can tell).
    let _pl_span = mtd_telemetry::span!("power_law");
    let (alpha, beta, r2) = match fit_duration_power_law(&pairs) {
        Ok(f) => (f.alpha, f.beta, f.r2),
        Err(_) => {
            mtd_telemetry::count("fit.powerlaw.fallback", 1);
            (pdf.mean_linear().max(1e-6) / 60.0, 1.0, 0.0)
        }
    };
    drop(_pl_span);

    // Duration scatter: within-duration-bin volume dispersion maps to
    // duration dispersion through the power law (σ_d ≈ σ_{v|d} / β).
    let duration_sigma = if beta > 0.05 {
        (dataset.pair_dispersion(s, &all) / beta).clamp(0.0, 0.5)
    } else {
        0.0
    };

    let mut model = ServiceModel {
        name: dataset.service_name(s).to_string(),
        mu: vfit.mu,
        sigma: vfit.sigma,
        peaks: vfit.peaks,
        alpha,
        beta,
        session_share: sessions / total_sessions,
        duration_sigma,
        support_log10: (pdf.quantile_log10(0.0005), pdf.quantile_log10(0.9995)),
        quality: ModelQuality {
            volume_emd: vfit.emd,
            pair_r2: r2,
        },
    };
    // Anchor the model's linear mean to the measurement (see
    // `ServiceModel::support_log10`): the log-domain EMD is blind to
    // the upper tail, but capacity studies are not.
    model.calibrate_support(pdf.mean_linear());
    Ok(model)
}

/// Error of the streamed fit: reading the file failed, or fitting did.
#[derive(Debug)]
pub enum StreamFitError {
    /// The dataset file could not be read or decoded.
    Store(StoreError),
    /// The fit itself failed (e.g. the recovered dataset was empty).
    Math(MathError),
}

impl std::fmt::Display for StreamFitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamFitError::Store(e) => write!(f, "streamed fit: {e}"),
            StreamFitError::Math(e) => write!(f, "streamed fit: {e}"),
        }
    }
}

impl std::error::Error for StreamFitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamFitError::Store(e) => Some(e),
            StreamFitError::Math(e) => Some(e),
        }
    }
}

impl From<StoreError> for StreamFitError {
    fn from(e: StoreError) -> Self {
        StreamFitError::Store(e)
    }
}

impl From<MathError> for StreamFitError {
    fn from(e: MathError) -> Self {
        StreamFitError::Math(e)
    }
}

/// Fits the registry straight from a binary dataset file, streaming
/// chunk-by-chunk so peak extra memory is one chunk rather than the whole
/// file image. Produces a registry bit-identical to
/// `fit_registry(&load_binary(path)?)` on an intact file.
///
/// Damaged skippable chunks are dropped (their sessions are simply absent
/// from the fit) and tallied in the returned [`StoreReport`] — callers
/// must check [`StoreReport::is_clean`] before trusting the models for
/// anything load-bearing.
pub fn fit_registry_streamed(
    path: &Path,
) -> std::result::Result<(ModelRegistry, StoreReport), StreamFitError> {
    fit_registry_from_stream(DatasetStream::open(path)?, &VolumeFitConfig::default())
}

/// Fits the registry from an already-opened [`DatasetStream`] over any
/// reader — a campaign store still on disk, a store piped over a socket,
/// or an in-memory image under test. The path-based entry point
/// delegates here; the equivalence is what lets the campaign runner's
/// output feed the fit without a [`Dataset`] ever materializing from a
/// file path.
pub fn fit_registry_from_stream<R: std::io::Read>(
    mut stream: DatasetStream<R>,
    volume_config: &VolumeFitConfig,
) -> std::result::Result<(ModelRegistry, StoreReport), StreamFitError> {
    let _span = mtd_telemetry::span!("fit.registry_streamed");
    // Tolerant assembly: the stream already skips damaged chunks, and the
    // point of recovery is to fit whatever survived.
    let mut assembler = DatasetAssembler::new(stream.meta().clone(), false);
    while let Some(chunk) = stream.next_chunk() {
        assembler.apply(chunk?)?;
    }
    let dataset = assembler.finish()?;
    let registry = fit_registry_with(&dataset, volume_config)?;
    Ok((registry, stream.report().clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtd_netsim::geo::Topology;
    use mtd_netsim::services::ServiceCatalog;
    use mtd_netsim::ScenarioConfig;

    fn fitted() -> (ModelRegistry, ServiceCatalog, Dataset) {
        let config = ScenarioConfig::small_test();
        let topology = Topology::generate(config.n_bs, config.seed);
        let catalog = ServiceCatalog::paper();
        let dataset = Dataset::build(&config, &topology, &catalog);
        let registry = fit_registry(&dataset).unwrap();
        (registry, catalog, dataset)
    }

    #[test]
    fn fits_every_service() {
        let (registry, catalog, _) = fitted();
        assert_eq!(registry.len(), catalog.len());
        assert!(registry.by_name("Netflix").is_some());
    }

    #[test]
    fn recovered_betas_track_ground_truth() {
        let (registry, catalog, _) = fitted();
        // Compare fitted β to ground truth for the heavyweight services
        // (plenty of sessions → tight fits). Transient fragments blur the
        // relation, so a generous tolerance is appropriate.
        for name in ["Facebook", "Instagram", "SnapChat"] {
            let truth = catalog.by_name(name).unwrap().beta;
            let fit = registry.by_name(name).unwrap().beta;
            assert!(
                (fit - truth).abs() < 0.25,
                "{name}: fitted beta {fit} vs truth {truth}"
            );
        }
    }

    #[test]
    fn streaming_vs_messaging_dichotomy_recovered() {
        let (registry, _, _) = fitted();
        let nf = registry.by_name("Netflix").unwrap().beta;
        let fb = registry.by_name("Facebook").unwrap().beta;
        assert!(nf > 1.0, "netflix beta {nf}");
        assert!(fb < 1.0, "facebook beta {fb}");
    }

    #[test]
    fn arrival_models_monotone_across_deciles() {
        let (registry, _, _) = fitted();
        assert_eq!(registry.arrivals.len(), 10);
        let first = registry.arrivals.decile(0).peak_mu;
        let last = registry.arrivals.decile(9).peak_mu;
        assert!(last > 2.0 * first, "decile means {first} .. {last}");
    }

    #[test]
    fn session_shares_sum_to_one() {
        let (registry, _, _) = fitted();
        let total: f64 = registry.services.iter().map(|s| s.session_share).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn streamed_fit_matches_in_memory_fit_exactly() {
        let config = ScenarioConfig::small_test();
        let topology = Topology::generate(config.n_bs, config.seed);
        let catalog = ServiceCatalog::paper();
        let dataset = Dataset::build(&config, &topology, &catalog);

        let dir = std::env::temp_dir().join("mtd_pipeline_stream_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ds.bin");
        mtd_dataset::store::save_binary(&dataset, &path).unwrap();

        let in_memory = fit_registry(&dataset).unwrap();
        let (streamed, report) = fit_registry_streamed(&path).unwrap();
        std::fs::remove_file(&path).ok();

        assert!(report.is_clean(), "{}", report.to_json());
        // Bit-identical: the streamed path assembles the same dataset, and
        // the fit is deterministic.
        assert_eq!(streamed, in_memory);
    }

    #[test]
    fn reader_based_fit_matches_path_based_fit() {
        let config = ScenarioConfig::small_test();
        let topology = Topology::generate(config.n_bs, config.seed);
        let catalog = ServiceCatalog::paper();
        let dataset = Dataset::build(&config, &topology, &catalog);
        let bytes = mtd_dataset::store::encode_binary(&dataset, 1);

        let stream = mtd_dataset::DatasetStream::from_reader(std::io::Cursor::new(&bytes)).unwrap();
        let (from_reader, report) =
            fit_registry_from_stream(stream, &VolumeFitConfig::default()).unwrap();
        assert!(report.is_clean(), "{}", report.to_json());
        assert_eq!(from_reader, fit_registry(&dataset).unwrap());
    }

    #[test]
    fn streamed_fit_survives_damaged_chunk() {
        let config = ScenarioConfig::small_test();
        let topology = Topology::generate(config.n_bs, config.seed);
        let catalog = ServiceCatalog::paper();
        let dataset = Dataset::build(&config, &topology, &catalog);

        let mut bytes = mtd_dataset::store::encode_binary(&dataset, 1);
        // Flip one byte near the end of the file body: the last Minutes
        // chunk's payload (well before the 21-byte footer frame).
        let idx = bytes.len() - 60;
        bytes[idx] ^= 0xFF;
        let dir = std::env::temp_dir().join("mtd_pipeline_stream_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ds_damaged.bin");
        std::fs::write(&path, &bytes).unwrap();

        let (registry, report) = fit_registry_streamed(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(!report.is_clean());
        assert_eq!(report.corrupt_chunks, 1);
        assert!(!registry.services.is_empty());
    }

    #[test]
    fn model_emd_is_small() {
        // §5.4: model-vs-measurement EMD should be far below inter-service
        // distances (which are O(0.1..1) on the log axis).
        let (registry, _, dataset) = fitted();
        let fb_id = dataset.service_by_name("Facebook").unwrap();
        let measured = dataset.volume_pdf(fb_id, &SliceFilter::all()).unwrap();
        let model = registry.by_name("Facebook").unwrap();
        let reconstructed = model.to_binned_pdf(*measured.grid()).unwrap();
        let emd = mtd_math::emd::emd_same_grid(&reconstructed, &measured).unwrap();
        assert!(emd < 0.08, "facebook model emd {emd}");
        assert!((model.quality.volume_emd - emd).abs() < 1e-9);
    }
}

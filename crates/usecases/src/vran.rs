//! §6.2 — energy consumption in CU–DU orchestration (Fig 13).
//!
//! A Telco Cloud Site hosts Centralized Units on identical physical
//! servers (PS); each Far Edge Site's DU forwards the traffic of its
//! Radio Units. Every one-second time slot, a bin-packing heuristic
//! (first-fit decreasing) consolidates DU loads onto the fewest PSs;
//! the PS energy model is linear: 60 W idle to 200 W at its 100 Mbit/s
//! capacity (\[36\]).
//!
//! Strategies generate the session traffic feeding the orchestrator:
//! ground-truth measurement, our fitted models, and the literature
//! category baselines — bm a (as published), bm b (global throughput
//! normalized to the measurement), bm c (per-category normalization).
//! Fidelity is the absolute percentage error of per-TS active-PS counts
//! and power draw against the measurement-driven run.

use crate::litmodels::LiteratureModel;
use crate::traffic::{
    throughput_series, ArrivalSkeleton, CategorySource, DrawnSession, EmpiricalSource, ModelSource,
    SessionSource,
};
use mtd_core::registry::ModelRegistry;
use mtd_math::rng::{stream_id, stream_rng};
use mtd_math::stats::{absolute_percentage_error, BoxStats};
use mtd_netsim::services::{LitCategory, ServiceCatalog};

/// Scenario parameters.
#[derive(Debug, Clone)]
pub struct VranConfig {
    /// Number of Far Edge Sites (each one DU).
    pub n_es: usize,
    /// Radio Units per ES.
    pub rus_per_es: usize,
    /// Emulated horizon in hours (TS = 1 s).
    pub hours: u32,
    /// Global arrival-rate scale.
    pub arrival_scale: f64,
    /// PS throughput capacity, Mbit/s.
    pub ps_capacity_mbps: f64,
    /// PS idle power, W.
    pub ps_idle_w: f64,
    /// PS full-load power, W.
    pub ps_max_w: f64,
    pub seed: u64,
}

impl Default for VranConfig {
    fn default() -> Self {
        VranConfig {
            n_es: 20,
            rus_per_es: 20,
            hours: 24,
            arrival_scale: 0.08,
            ps_capacity_mbps: 100.0,
            ps_idle_w: 60.0,
            ps_max_w: 200.0,
            seed: 0x0E5,
        }
    }
}

/// Orchestration outcome of one strategy.
#[derive(Debug, Clone)]
pub struct VranOutcome {
    pub label: &'static str,
    /// Active PS count per TS.
    pub active_ps: Vec<u32>,
    /// Power draw per TS, W.
    pub power_w: Vec<f64>,
}

impl VranOutcome {
    /// Mean power over the horizon, W.
    #[must_use]
    pub fn mean_power(&self) -> f64 {
        self.power_w.iter().sum::<f64>() / self.power_w.len().max(1) as f64
    }
}

/// APE distributions of one strategy against the measurement run.
#[derive(Debug, Clone)]
pub struct ApeStats {
    pub label: &'static str,
    pub active_ps_ape: BoxStats,
    pub power_ape: BoxStats,
}

/// Full §6.2 report.
#[derive(Debug, Clone)]
pub struct VranReport {
    pub measurement: VranOutcome,
    pub strategies: Vec<VranOutcome>,
    pub ape: Vec<ApeStats>,
}

/// Bin-packing heuristic: first-fit decreasing of DU loads onto PSs of
/// `capacity`; a DU exceeding one PS takes dedicated full PSs for the
/// overflow. Fills `ps` with the per-PS loads, using `sorted` as scratch
/// for the sorted DU loads; both are cleared first, so a caller packing
/// every time slot reuses them.
pub fn first_fit_decreasing(
    du_loads: &[f64],
    capacity: f64,
    sorted: &mut Vec<f64>,
    ps: &mut Vec<f64>,
) {
    sorted.clear();
    sorted.extend(du_loads.iter().copied().filter(|l| *l > 0.0));
    sorted.sort_by(|a, b| b.total_cmp(a));
    ps.clear();
    for &load in sorted.iter() {
        let mut l = load;
        // Oversized DUs: dedicate fully-loaded PSs to the overflow.
        while l > capacity {
            ps.push(capacity);
            l -= capacity;
        }
        match ps.iter_mut().find(|p| **p + l <= capacity) {
            Some(p) => *p += l,
            None => ps.push(l),
        }
    }
}

/// Runs the orchestrator over per-ES throughput series.
fn orchestrate(label: &'static str, es_series: &[Vec<f64>], config: &VranConfig) -> VranOutcome {
    let horizon = es_series.first().map_or(0, Vec::len);
    let mut active_ps = Vec::with_capacity(horizon);
    let mut power_w = Vec::with_capacity(horizon);
    let mut du_loads = vec![0.0f64; es_series.len()];
    let (mut sorted, mut ps) = (Vec::new(), Vec::new());
    for t in 0..horizon {
        for (e, series) in es_series.iter().enumerate() {
            du_loads[e] = series[t];
        }
        first_fit_decreasing(&du_loads, config.ps_capacity_mbps, &mut sorted, &mut ps);
        active_ps.push(ps.len() as u32);
        power_w.push(
            ps.iter()
                .map(|l| {
                    config.ps_idle_w
                        + (config.ps_max_w - config.ps_idle_w) * l / config.ps_capacity_mbps
                })
                .sum(),
        );
    }
    VranOutcome {
        label,
        active_ps,
        power_w,
    }
}

/// Generates per-ES throughput series for a strategy, plus per-category
/// volume totals (needed for the bm b / bm c normalizations).
fn es_series_for(
    source: &dyn SessionSource,
    skeleton: &ArrivalSkeleton,
    catalog: &ServiceCatalog,
    config: &VranConfig,
) -> (Vec<Vec<f64>>, [f64; 3], f64) {
    let horizon = (config.hours * 3600) as usize;
    let mut rng = stream_rng(config.seed ^ stream_id(source.label()), 1);
    let mut series = Vec::with_capacity(config.n_es);
    let mut cat_volume = [0.0f64; 3];
    let mut total_volume = 0.0;
    for es in 0..config.n_es {
        let mut sessions: Vec<DrawnSession> = Vec::new();
        for ru in 0..config.rus_per_es {
            let unit = &skeleton.units[es * config.rus_per_es + ru];
            for a in &unit.arrivals {
                let s = source.draw(a, &mut rng);
                let cat = catalog
                    .service(mtd_netsim::ServiceId(s.service))
                    .lit_category();
                cat_volume[match cat {
                    LitCategory::InteractiveWeb => 0,
                    LitCategory::CasualStreaming => 1,
                    LitCategory::MovieStreaming => 2,
                }] += s.volume_mb;
                total_volume += s.volume_mb;
                sessions.push(s);
            }
        }
        series.push(throughput_series(&sessions, horizon));
    }
    (series, cat_volume, total_volume)
}

/// Runs the full §6.2 comparison.
pub fn run_vran(
    config: &VranConfig,
    registry: &ModelRegistry,
    catalog: &ServiceCatalog,
    dataset: &mtd_dataset::Dataset,
) -> VranReport {
    // Frozen arrival realization shared by every strategy: RU deciles
    // cycle through the load classes.
    let deciles: Vec<u8> = (0..config.n_es * config.rus_per_es)
        .map(|i| (i % 10) as u8)
        .collect();
    let days = config.hours.div_ceil(24);
    let skeleton =
        ArrivalSkeleton::generate(&deciles, days, config.arrival_scale, catalog, config.seed);

    // Measurement ground truth: §6.2 strategy (i), sampled from the
    // measured F_s and v_s.
    let measurement_source = EmpiricalSource::new(dataset);
    let (meas_series, meas_cat, meas_total) =
        es_series_for(&measurement_source, &skeleton, catalog, config);
    let measurement = orchestrate("measurement", &meas_series, config);

    // Our models.
    let model_source = ModelSource { registry };
    let (model_series, _, _) = es_series_for(&model_source, &skeleton, catalog, config);

    // bm a: literature model as published.
    let bma_source = CategorySource {
        lit: LiteratureModel::standard(),
        catalog,
        global_scale: 1.0,
        category_scale: (1.0, 1.0, 1.0),
        label: "bm a",
    };
    let (bma_series, bma_cat, bma_total) = es_series_for(&bma_source, &skeleton, catalog, config);

    // bm b: global throughput normalized to the measurement total.
    let global_scale = if bma_total > 0.0 {
        meas_total / bma_total
    } else {
        1.0
    };
    let bmb_source = CategorySource {
        lit: LiteratureModel::standard(),
        catalog,
        global_scale,
        category_scale: (1.0, 1.0, 1.0),
        label: "bm b",
    };
    let (bmb_series, _, _) = es_series_for(&bmb_source, &skeleton, catalog, config);

    // bm c: per-category normalization.
    let cat_scale = (
        if bma_cat[0] > 0.0 {
            meas_cat[0] / bma_cat[0]
        } else {
            1.0
        },
        if bma_cat[1] > 0.0 {
            meas_cat[1] / bma_cat[1]
        } else {
            1.0
        },
        if bma_cat[2] > 0.0 {
            meas_cat[2] / bma_cat[2]
        } else {
            1.0
        },
    );
    let bmc_source = CategorySource {
        lit: LiteratureModel::standard(),
        catalog,
        global_scale: 1.0,
        category_scale: cat_scale,
        label: "bm c",
    };
    let (bmc_series, _, _) = es_series_for(&bmc_source, &skeleton, catalog, config);

    let strategies = vec![
        orchestrate("model", &model_series, config),
        orchestrate("bm a", &bma_series, config),
        orchestrate("bm b", &bmb_series, config),
        orchestrate("bm c", &bmc_series, config),
    ];

    let ape = strategies
        .iter()
        .map(|s| ape_stats(s, &measurement))
        .collect();

    VranReport {
        measurement,
        strategies,
        ape,
    }
}

/// APE distributions of a strategy vs the measurement run, over TSs where
/// the measurement is active.
fn ape_stats(strategy: &VranOutcome, measurement: &VranOutcome) -> ApeStats {
    let mut active_apes = Vec::new();
    let mut power_apes = Vec::new();
    for t in 0..measurement.active_ps.len().min(strategy.active_ps.len()) {
        if measurement.active_ps[t] == 0 {
            continue;
        }
        active_apes.push(
            absolute_percentage_error(
                f64::from(strategy.active_ps[t]),
                f64::from(measurement.active_ps[t]),
            )
            .expect("nonzero truth"),
        );
        power_apes.push(
            absolute_percentage_error(strategy.power_w[t], measurement.power_w[t])
                .expect("nonzero power"),
        );
    }
    ApeStats {
        label: strategy.label,
        active_ps_ape: BoxStats::from_samples(&active_apes).expect("nonempty APE samples"),
        power_ape: BoxStats::from_samples(&power_apes).expect("nonempty APE samples"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtd_core::pipeline::fit_registry;
    use mtd_dataset::Dataset;
    use mtd_netsim::geo::Topology;
    use mtd_netsim::ScenarioConfig;

    fn ffd(du_loads: &[f64], capacity: f64) -> Vec<f64> {
        let mut ps = Vec::new();
        first_fit_decreasing(du_loads, capacity, &mut Vec::new(), &mut ps);
        ps
    }

    #[test]
    fn ffd_packs_tightly() {
        // Loads 60+40 and 50+50 fit into exactly two 100-capacity PSs.
        let ps = ffd(&[60.0, 40.0, 50.0, 50.0], 100.0);
        assert_eq!(ps.len(), 2);
        let total: f64 = ps.iter().sum();
        assert!((total - 200.0).abs() < 1e-9);
    }

    #[test]
    fn ffd_handles_oversized_and_zero_loads() {
        let ps = ffd(&[250.0, 0.0, 30.0], 100.0);
        // 250 → two full PSs + 50 remainder; 30 joins the remainder.
        assert_eq!(ps.len(), 3);
        let total: f64 = ps.iter().sum();
        assert!((total - 280.0).abs() < 1e-9);
        assert!(ffd(&[], 100.0).is_empty());
        assert!(ffd(&[0.0, 0.0], 100.0).is_empty());
    }

    #[test]
    fn ffd_never_exceeds_capacity() {
        let loads = [10.0, 95.0, 20.0, 33.0, 47.0, 99.0, 5.0, 60.0];
        for p in ffd(&loads, 100.0) {
            assert!(p <= 100.0 + 1e-9);
        }
    }

    fn small_report() -> VranReport {
        let sim_config = ScenarioConfig::small_test();
        let topology = Topology::generate(sim_config.n_bs, sim_config.seed);
        let catalog = ServiceCatalog::paper();
        let dataset = Dataset::build(&sim_config, &topology, &catalog);
        let registry = fit_registry(&dataset).unwrap();
        let config = VranConfig {
            n_es: 4,
            rus_per_es: 4,
            hours: 4,
            arrival_scale: 0.15,
            ..VranConfig::default()
        };
        run_vran(&config, &registry, &catalog, &dataset)
    }

    #[test]
    fn model_tracks_measurement_better_than_benchmarks() {
        let report = small_report();
        let ape = |l: &str| {
            report
                .ape
                .iter()
                .find(|a| a.label == l)
                .unwrap()
                .power_ape
                .median
        };
        let model = ape("model");
        // Fig 13b: the fitted models track the measurement closely; the
        // unnormalized literature baseline is far off.
        assert!(model < 15.0, "model power APE median {model}");
        assert!(
            ape("bm a") > 2.0 * model,
            "bm a {} vs model {model}",
            ape("bm a")
        );
    }

    #[test]
    fn power_model_bounds() {
        let report = small_report();
        for (t, p) in report.measurement.power_w.iter().enumerate() {
            let n = f64::from(report.measurement.active_ps[t]);
            assert!(*p >= 60.0 * n - 1e-9, "power below idle floor at {t}");
            assert!(*p <= 200.0 * n + 1e-9, "power above max at {t}");
        }
    }

    #[test]
    fn outcome_lengths_match_horizon() {
        let report = small_report();
        let horizon = 4 * 3600;
        assert_eq!(report.measurement.active_ps.len(), horizon);
        assert_eq!(report.measurement.power_w.len(), horizon);
        for s in &report.strategies {
            assert_eq!(s.power_w.len(), horizon);
        }
        assert!(report.measurement.mean_power() > 0.0);
    }
}

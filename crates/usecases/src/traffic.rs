//! Shared traffic machinery for the §6 use cases.
//!
//! Both use cases compare several traffic *sources* under the **same
//! realization of session arrivals** ("we employ the same realization of
//! class-level session arrivals in all tests to avoid biases", §6.2.3).
//! An [`ArrivalSkeleton`] freezes when sessions arrive at each unit (RU /
//! antenna) and which ground-truth service each belongs to; a
//! [`SessionSource`] then fills in the per-session attributes — volume,
//! duration, throughput — according to its own model of the world.

use mtd_core::registry::ModelRegistry;
use mtd_math::rng::{stream_id, stream_rng};
use mtd_netsim::arrivals::ArrivalProcess;
use mtd_netsim::services::{LitCategory, ServiceCatalog};
use mtd_netsim::time::MINUTES_PER_DAY;
use rand::rngs::SmallRng;
use rand::Rng;

/// One frozen arrival: when, and which ground-truth service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Absolute start second from the skeleton's time origin.
    pub start_s: f64,
    /// Ground-truth service index (catalog order).
    pub service: u16,
}

/// The frozen arrival realization of one unit (antenna / RU).
#[derive(Debug, Clone)]
pub struct UnitSkeleton {
    /// Load decile of the unit (0..10).
    pub decile: u8,
    /// Arrivals sorted by start time, spanning `days` days.
    pub arrivals: Vec<Arrival>,
}

/// Frozen arrivals for a set of units over several days.
#[derive(Debug, Clone)]
pub struct ArrivalSkeleton {
    pub units: Vec<UnitSkeleton>,
    pub days: u32,
}

impl ArrivalSkeleton {
    /// Generates the skeleton: per-unit §5.1-style ground-truth bimodal
    /// arrivals (scaled by `arrival_scale`), services assigned from the
    /// catalog's Table 1 shares. Deterministic in `seed`.
    #[must_use]
    pub fn generate(
        unit_deciles: &[u8],
        days: u32,
        arrival_scale: f64,
        catalog: &ServiceCatalog,
        seed: u64,
    ) -> ArrivalSkeleton {
        let units = unit_deciles
            .iter()
            .enumerate()
            .map(|(u, decile)| {
                let mut rng = stream_rng(seed ^ stream_id("skeleton"), u as u64);
                let q = (f64::from(*decile) + 0.5) / 10.0;
                let process = ArrivalProcess::for_load_quantile(q, arrival_scale);
                let mut arrivals = Vec::new();
                for day in 0..days {
                    for minute in 0..MINUTES_PER_DAY {
                        let n = process.sample_count(minute, &mut rng);
                        let base = f64::from(day) * 86_400.0 + f64::from(minute) * 60.0;
                        for _ in 0..n {
                            arrivals.push(Arrival {
                                start_s: base + rng.gen::<f64>() * 60.0,
                                service: catalog.sample_service(&mut rng).0,
                            });
                        }
                    }
                }
                UnitSkeleton {
                    decile: *decile,
                    arrivals,
                }
            })
            .collect();
        ArrivalSkeleton { units, days }
    }

    /// Total arrivals across all units.
    #[must_use]
    pub fn total_arrivals(&self) -> usize {
        self.units.iter().map(|u| u.arrivals.len()).sum()
    }
}

/// A fully-attributed session produced by a source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DrawnSession {
    pub start_s: f64,
    /// Ground-truth service of the underlying arrival (for per-service
    /// accounting, regardless of the source's own granularity).
    pub service: u16,
    pub volume_mb: f64,
    pub duration_s: f64,
    pub throughput_mbps: f64,
}

/// A strategy's model of session attributes.
pub trait SessionSource {
    /// Attributes the session of one arrival.
    fn draw(&self, arrival: &Arrival, rng: &mut SmallRng) -> DrawnSession;
    /// Short label for reports.
    fn label(&self) -> &'static str;
}

/// Ground truth: the measurement data itself (§6.2 strategy i) — sessions
/// drawn from the per-service generative profiles of the catalog. Note
/// this produces *complete* sessions; prefer [`EmpiricalSource`] when a
/// measurement [`mtd_dataset::Dataset`] is available, which is what the
/// paper's strategy (i) actually samples ("sampling `F_s(d)` and matching
/// the traffic volume values to `v_s(d)`").
pub struct MeasurementSource<'a> {
    pub catalog: &'a ServiceCatalog,
}

impl SessionSource for MeasurementSource<'_> {
    fn draw(&self, arrival: &Arrival, rng: &mut SmallRng) -> DrawnSession {
        let profile = self.catalog.service(mtd_netsim::ServiceId(arrival.service));
        let v = profile.sample_volume(rng);
        let d = profile.duration_for_volume(v, rng);
        DrawnSession {
            start_s: arrival.start_s,
            service: arrival.service,
            volume_mb: v,
            duration_s: d,
            throughput_mbps: v * 8.0 / d,
        }
    }
    fn label(&self) -> &'static str {
        "measurement"
    }
}

/// Per-service empirical sampler built from the measured dataset: volume
/// by inverse-CDF from the measured `F_s(x)`, duration by inverting the
/// measured `v_s(d)` pairs (monotonized, log–log interpolated) with the
/// measured within-bin dispersion — §6.2's strategy (i) verbatim.
pub struct EmpiricalSource {
    /// Per service: inverse CDF of the measured volume PDF.
    pdfs: Vec<Option<mtd_math::histogram::InverseCdf>>,
    /// Per service: monotone `(log₁₀ v, log₁₀ d)` curve from the pairs.
    curves: Vec<Vec<(f64, f64)>>,
    /// Per service: log₁₀ duration jitter derived from pair dispersion.
    jitter: Vec<f64>,
}

impl EmpiricalSource {
    /// Precomputes the samplers from a dataset.
    #[must_use]
    pub fn new(dataset: &mtd_dataset::Dataset) -> EmpiricalSource {
        let all = mtd_dataset::SliceFilter::all();
        let n = dataset.n_services();
        let mut pdfs = Vec::with_capacity(n);
        let mut curves = Vec::with_capacity(n);
        let mut jitter = Vec::with_capacity(n);
        for s in 0..n as u16 {
            pdfs.push(
                dataset
                    .volume_pdf(s, &all)
                    .ok()
                    .map(mtd_math::histogram::InverseCdf::new),
            );
            let pairs = dataset.duration_pairs(s, &all);
            // Build a monotone log–log curve v -> d: sort by duration and
            // enforce nondecreasing volume with a running max, so the
            // inverse is well defined even through noisy bins.
            let mut pts: Vec<(f64, f64)> = Vec::new();
            let mut vmax = f64::NEG_INFINITY;
            for p in pairs.iter().filter(|p| p.weight >= 3.0) {
                let lv = p.mean_volume_mb.max(1e-12).log10();
                if lv > vmax {
                    vmax = lv;
                    pts.push((lv, p.duration_s.log10()));
                }
            }
            curves.push(pts);
            // Volume dispersion within a duration bin, translated to the
            // duration axis via the local (roughly unit-order) slope.
            jitter.push(dataset.pair_dispersion(s, &all).clamp(0.0, 0.5));
        }
        EmpiricalSource {
            pdfs,
            curves,
            jitter,
        }
    }

    /// Interpolated `log₁₀ d` for a `log₁₀ v`, from the monotone curve.
    fn log_duration_for(&self, service: usize, log_v: f64) -> f64 {
        let curve = &self.curves[service];
        match curve.len() {
            0 => 60f64.log10(),
            1 => curve[0].1,
            _ => {
                if log_v <= curve[0].0 {
                    return curve[0].1;
                }
                if log_v >= curve[curve.len() - 1].0 {
                    return curve[curve.len() - 1].1;
                }
                let idx = curve.partition_point(|(lv, _)| *lv < log_v);
                let (v0, d0) = curve[idx - 1];
                let (v1, d1) = curve[idx];
                let t = if v1 > v0 {
                    (log_v - v0) / (v1 - v0)
                } else {
                    0.5
                };
                d0 + t * (d1 - d0)
            }
        }
    }
}

impl SessionSource for EmpiricalSource {
    fn draw(&self, arrival: &Arrival, rng: &mut SmallRng) -> DrawnSession {
        let s = arrival.service as usize;
        let v = match &self.pdfs[s] {
            Some(pdf) => pdf.sample(rng),
            None => 1.0,
        };
        let mut log_d = self.log_duration_for(s, v.log10());
        let sigma = self.jitter[s];
        if sigma > 0.0 {
            log_d += mtd_core::arrival::sample_std_normal(rng) * sigma;
        }
        let d = 10f64.powf(log_d).clamp(1.0, 14_400.0);
        DrawnSession {
            start_s: arrival.start_s,
            service: arrival.service,
            volume_mb: v,
            duration_s: d,
            throughput_mbps: v * 8.0 / d,
        }
    }
    fn label(&self) -> &'static str {
        "measurement"
    }
}

/// Our fitted session-level models (§6.2 strategy ii / the §6.1 proposed
/// allocation): volume from `F̂_s`, duration via `v⁻¹` (§5.4).
pub struct ModelSource<'a> {
    pub registry: &'a ModelRegistry,
}

impl SessionSource for ModelSource<'_> {
    fn draw(&self, arrival: &Arrival, rng: &mut SmallRng) -> DrawnSession {
        let model = &self.registry.services[arrival.service as usize];
        let (v, d, t) = model.sample_session(rng);
        DrawnSession {
            start_s: arrival.start_s,
            service: arrival.service,
            volume_mb: v,
            duration_s: d,
            throughput_mbps: t,
        }
    }
    fn label(&self) -> &'static str {
        "model"
    }
}

/// Literature category baseline with optional normalization (§6.2's
/// bm a / bm b / bm c).
pub struct CategorySource<'a> {
    pub lit: crate::litmodels::LiteratureModel,
    pub catalog: &'a ServiceCatalog,
    /// Global throughput scale (bm b): 1.0 = none.
    pub global_scale: f64,
    /// Per-category throughput scales (bm c): (IW, CS, MS), 1.0 = none.
    pub category_scale: (f64, f64, f64),
    pub label: &'static str,
}

impl SessionSource for CategorySource<'_> {
    fn draw(&self, arrival: &Arrival, rng: &mut SmallRng) -> DrawnSession {
        let category = self
            .catalog
            .service(mtd_netsim::ServiceId(arrival.service))
            .lit_category();
        let (v, d, t) = self.lit.category(category).draw(rng);
        let scale = self.global_scale
            * match category {
                LitCategory::InteractiveWeb => self.category_scale.0,
                LitCategory::CasualStreaming => self.category_scale.1,
                LitCategory::MovieStreaming => self.category_scale.2,
            };
        DrawnSession {
            start_s: arrival.start_s,
            service: arrival.service,
            volume_mb: v * scale,
            duration_s: d,
            throughput_mbps: t * scale,
        }
    }
    fn label(&self) -> &'static str {
        self.label
    }
}

/// Accumulates a per-second throughput (Mbit/s) time series for a unit
/// from drawn sessions, assuming the §3.2-consistent stationary
/// intra-session rate.
#[must_use]
pub fn throughput_series(sessions: &[DrawnSession], horizon_s: usize) -> Vec<f64> {
    // Difference array + prefix sum.
    let mut diff = vec![0.0f64; horizon_s + 1];
    for s in sessions {
        let a = (s.start_s.max(0.0) as usize).min(horizon_s);
        let b = ((s.start_s + s.duration_s) as usize + 1).min(horizon_s);
        if b > a {
            diff[a] += s.throughput_mbps;
            diff[b] -= s.throughput_mbps;
        }
    }
    let mut out = vec![0.0; horizon_s];
    let mut acc = 0.0;
    for t in 0..horizon_s {
        acc += diff[t];
        out[t] = acc.max(0.0);
    }
    out
}

/// Per-minute traffic volume (MB) per service over a horizon, from drawn
/// sessions (volume spread uniformly over the session lifetime).
#[must_use]
pub fn per_minute_service_volume(
    sessions: &[DrawnSession],
    n_services: usize,
    horizon_min: usize,
) -> Vec<Vec<f64>> {
    let mut out = vec![vec![0.0f64; horizon_min]; n_services];
    #[allow(clippy::needless_range_loop)] // the minute index drives interval math
    for s in sessions {
        let rate_mb_per_s = s.volume_mb / s.duration_s.max(1e-9);
        let start = s.start_s.max(0.0);
        let end = s.start_s + s.duration_s;
        let first = (start / 60.0) as usize;
        let last = ((end / 60.0) as usize).min(horizon_min.saturating_sub(1));
        for m in first..=last.min(horizon_min.saturating_sub(1)) {
            if m >= horizon_min {
                break;
            }
            let lo = (m as f64) * 60.0;
            let hi = lo + 60.0;
            let overlap = (end.min(hi) - start.max(lo)).max(0.0);
            out[s.service as usize][m] += rate_mb_per_s * overlap;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn catalog() -> ServiceCatalog {
        ServiceCatalog::paper()
    }

    #[test]
    fn skeleton_is_deterministic_and_scaled() {
        let c = catalog();
        let a = ArrivalSkeleton::generate(&[2, 9], 1, 0.2, &c, 11);
        let b = ArrivalSkeleton::generate(&[2, 9], 1, 0.2, &c, 11);
        assert_eq!(a.total_arrivals(), b.total_arrivals());
        assert_eq!(a.units[0].arrivals.len(), b.units[0].arrivals.len());
        // Busy decile sees far more arrivals.
        assert!(a.units[1].arrivals.len() > 3 * a.units[0].arrivals.len());
    }

    #[test]
    fn sources_share_the_skeleton() {
        let c = catalog();
        let skeleton = ArrivalSkeleton::generate(&[5], 1, 0.1, &c, 3);
        let m = MeasurementSource { catalog: &c };
        let mut rng = SmallRng::seed_from_u64(1);
        for a in skeleton.units[0].arrivals.iter().take(50) {
            let s = m.draw(a, &mut rng);
            assert_eq!(s.start_s, a.start_s);
            assert_eq!(s.service, a.service);
            assert!((s.throughput_mbps - s.volume_mb * 8.0 / s.duration_s).abs() < 1e-9);
        }
    }

    #[test]
    fn throughput_series_conserves_volume() {
        let sessions = vec![
            DrawnSession {
                start_s: 10.0,
                service: 0,
                volume_mb: 10.0,
                duration_s: 100.0,
                throughput_mbps: 0.8,
            },
            DrawnSession {
                start_s: 50.0,
                service: 1,
                volume_mb: 5.0,
                duration_s: 50.0,
                throughput_mbps: 0.8,
            },
        ];
        let series = throughput_series(&sessions, 200);
        // During [50, 110): both sessions active → 1.6 Mbps.
        assert!((series[60] - 1.6).abs() < 1e-9);
        assert!((series[20] - 0.8).abs() < 1e-9);
        assert_eq!(series[150], 0.0);
    }

    #[test]
    fn per_minute_volume_is_conserved() {
        let sessions = vec![DrawnSession {
            start_s: 30.0,
            service: 2,
            volume_mb: 12.0,
            duration_s: 180.0, // spans minutes 0..3
            throughput_mbps: 12.0 * 8.0 / 180.0,
        }];
        let vols = per_minute_service_volume(&sessions, 4, 10);
        let total: f64 = vols[2].iter().sum();
        assert!((total - 12.0).abs() < 1e-9, "total {total}");
        // First minute holds only 30 s of the session.
        assert!((vols[2][0] - 12.0 * 30.0 / 180.0).abs() < 1e-9);
    }

    #[test]
    fn category_source_scales() {
        let c = catalog();
        let base = CategorySource {
            lit: crate::litmodels::LiteratureModel::standard(),
            catalog: &c,
            global_scale: 1.0,
            category_scale: (1.0, 1.0, 1.0),
            label: "bm",
        };
        let scaled = CategorySource {
            global_scale: 2.0,
            ..base
        };
        let arrival = Arrival {
            start_s: 0.0,
            service: 0,
        };
        let mut r1 = SmallRng::seed_from_u64(9);
        let mut r2 = SmallRng::seed_from_u64(9);
        let scaled_ref = CategorySource {
            lit: crate::litmodels::LiteratureModel::standard(),
            catalog: &c,
            global_scale: 1.0,
            category_scale: (1.0, 1.0, 1.0),
            label: "bm",
        };
        let a = scaled_ref.draw(&arrival, &mut r1);
        let b = scaled.draw(&arrival, &mut r2);
        assert!((b.throughput_mbps - 2.0 * a.throughput_mbps).abs() < 1e-9);
        assert_eq!(a.duration_s, b.duration_s);
    }
}

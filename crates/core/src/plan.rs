//! Registry → serving-plan compilation.
//!
//! A [`ServingPlan`] is a fitted [`ModelRegistry`] compiled into the
//! immutable, shareable form a server samples from: the service
//! breakdown is normalized once, and the per-decile arrival truncation
//! bisections are solved once — not once per request. The plan owns its
//! registry, so it can be compiled at daemon startup and shared by
//! reference across request-handling workers for the life of the
//! process ([`ServingPlan`] is `Sync`: sampling takes `&self` and the
//! caller's RNG).
//!
//! Determinism contract: `generate_minute`/`generate_day` draw from the
//! caller's RNG in a fixed order, so (plan, seed) fully determines the
//! sampled stream — the property the serve protocol's seeded replays
//! and the campaign's shard re-simulation both build on.

use crate::arrival::{ArrivalSampler, ServiceBreakdown};
use crate::registry::ModelRegistry;
use mtd_math::{MathError, Result};
use rand::Rng;

/// One generated session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneratedSession {
    /// Start second within the day (0 .. 86400).
    pub start_s: f64,
    /// Service index into the registry.
    pub service: u16,
    /// Total session volume, MB.
    pub volume_mb: f64,
    /// Session duration, seconds.
    pub duration_s: f64,
    /// Mean throughput, Mbit/s.
    pub throughput_mbps: f64,
}

/// A compiled, immutable sampling plan over a fitted registry.
pub struct ServingPlan {
    registry: ModelRegistry,
    breakdown: ServiceBreakdown,
    /// Per-decile calibrated count samplers (truncation bisections are
    /// solved once here, not once per minute).
    samplers: Vec<ArrivalSampler>,
}

impl ServingPlan {
    /// Compiles a registry into a serving plan. Errors when the registry
    /// carries no arrival models (tolerant store loads can produce such
    /// registries) or no usable service shares.
    pub fn compile(registry: ModelRegistry) -> Result<ServingPlan> {
        if registry.arrivals.is_empty() {
            return Err(MathError::EmptyInput(
                "ServingPlan requires at least one arrival model",
            ));
        }
        let breakdown = registry.breakdown()?;
        let samplers = registry
            .arrivals
            .per_decile
            .iter()
            .map(|m| m.sampler())
            .collect();
        Ok(ServingPlan {
            registry,
            breakdown,
            samplers,
        })
    }

    /// The registry this plan was compiled from.
    #[must_use]
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    /// Number of load deciles the plan can sample (requests with a
    /// larger decile clamp to the last one).
    #[must_use]
    pub fn n_deciles(&self) -> usize {
        self.samplers.len()
    }

    /// Generates the sessions arriving in one minute at a BS of the
    /// given load decile. `minute_of_day` selects the §5.1 regime (peak
    /// vs off-peak).
    pub fn generate_minute<R: Rng + ?Sized>(
        &self,
        decile: u8,
        minute_of_day: u32,
        rng: &mut R,
    ) -> Vec<GeneratedSession> {
        let peak = mtd_netsim::time::is_peak_minute(minute_of_day);
        let sampler = &self.samplers[usize::from(decile).min(self.samplers.len() - 1)];
        let n = sampler.sample_count(peak, rng);
        let base_s = f64::from(minute_of_day) * 60.0;
        (0..n)
            .map(|_| {
                let service = self.breakdown.sample(rng);
                let model = &self.registry.services[service as usize];
                let (volume_mb, duration_s, throughput_mbps) = model.sample_session(rng);
                GeneratedSession {
                    start_s: base_s + rng.gen::<f64>() * 60.0,
                    service,
                    volume_mb,
                    duration_s,
                    throughput_mbps,
                }
            })
            .collect()
    }

    /// Generates one full day of sessions at a BS of the given decile,
    /// ordered by start time.
    pub fn generate_day<R: Rng + ?Sized>(&self, decile: u8, rng: &mut R) -> Vec<GeneratedSession> {
        let mut out = Vec::new();
        for minute in 0..mtd_netsim::time::MINUTES_PER_DAY {
            out.extend(self.generate_minute(decile, minute, rng));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::{ArrivalModel, ArrivalModelSet, PARETO_SHAPE};
    use crate::model::{ModelQuality, PeakComponent, ServiceModel};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// A small two-service, ten-decile registry.
    fn registry() -> ModelRegistry {
        ModelRegistry {
            services: vec![
                ServiceModel {
                    name: "Messaging".into(),
                    mu: -0.2,
                    sigma: 0.6,
                    peaks: vec![],
                    alpha: 0.1,
                    beta: 0.6,
                    session_share: 0.8,
                    duration_sigma: 0.0,
                    support_log10: (-3.0, 4.0),
                    quality: ModelQuality::default(),
                },
                ServiceModel {
                    name: "Streaming".into(),
                    mu: 1.5,
                    sigma: 0.5,
                    peaks: vec![PeakComponent {
                        k: 0.15,
                        mu: 2.2,
                        sigma: 0.08,
                    }],
                    alpha: 0.003,
                    beta: 1.5,
                    session_share: 0.2,
                    duration_sigma: 0.0,
                    support_log10: (-3.0, 4.0),
                    quality: ModelQuality::default(),
                },
            ],
            arrivals: ArrivalModelSet {
                per_decile: (0..10)
                    .map(|d| {
                        let mu = 2.0 + f64::from(d) * 3.0;
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

    fn plan() -> ServingPlan {
        ServingPlan::compile(registry()).unwrap()
    }

    #[test]
    fn generates_bimodal_day() {
        let mut rng = SmallRng::seed_from_u64(1);
        let day = plan().generate_day(5, &mut rng);
        assert!(day.len() > 5_000, "day sessions {}", day.len());
        let peak = day
            .iter()
            .filter(|s| mtd_netsim::time::is_peak_minute((s.start_s / 60.0) as u32))
            .count();
        let off = day.len() - peak;
        // 14 h of ~17/min vs 10 h of ~2/min.
        assert!(peak > 4 * off, "peak {peak} off {off}");
    }

    #[test]
    fn service_mix_follows_breakdown() {
        let mut rng = SmallRng::seed_from_u64(2);
        let day = plan().generate_day(9, &mut rng);
        let streaming = day.iter().filter(|s| s.service == 1).count() as f64 / day.len() as f64;
        assert!(
            (streaming - 0.2).abs() < 0.02,
            "streaming share {streaming}"
        );
    }

    #[test]
    fn generated_sessions_are_consistent() {
        let mut rng = SmallRng::seed_from_u64(3);
        for s in plan().generate_minute(3, 12 * 60, &mut rng) {
            assert!(s.volume_mb > 0.0);
            assert!(s.duration_s >= 1.0);
            assert!((s.throughput_mbps - s.volume_mb * 8.0 / s.duration_s).abs() < 1e-9);
            assert!(s.start_s >= 12.0 * 3600.0 && s.start_s < 12.0 * 3600.0 + 60.0);
        }
    }

    #[test]
    fn last_minute_sessions_start_within_day_and_spill_past_midnight() {
        // Sessions generated in minute 1439 start before midnight; their
        // durations may run past 86400 s. The plan keeps the start
        // inside the day — attributing the spill is the consumer's job
        // (pinned by the netsim fragmentation and dataset tests).
        let plan = plan();
        let mut rng = SmallRng::seed_from_u64(7);
        let mut saw_spill = false;
        for _ in 0..50 {
            for s in plan.generate_minute(9, 1439, &mut rng) {
                assert!(s.start_s >= 1439.0 * 60.0 && s.start_s < 86_400.0);
                if s.start_s + s.duration_s > 86_400.0 {
                    saw_spill = true;
                }
            }
        }
        assert!(saw_spill, "expected sessions spilling past midnight");
    }

    #[test]
    fn higher_deciles_generate_more_sessions() {
        let plan = plan();
        let mut rng = SmallRng::seed_from_u64(4);
        let lo = plan.generate_day(0, &mut rng).len();
        let hi = plan.generate_day(9, &mut rng).len();
        assert!(hi > 3 * lo, "lo {lo} hi {hi}");
    }

    #[test]
    fn streaming_sessions_carry_more_volume() {
        let mut rng = SmallRng::seed_from_u64(5);
        let day = plan().generate_day(9, &mut rng);
        let mean = |svc: u16| {
            let v: Vec<f64> = day
                .iter()
                .filter(|s| s.service == svc)
                .map(|s| s.volume_mb)
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        assert!(mean(1) > 10.0 * mean(0));
    }

    #[test]
    fn plan_is_deterministic_per_seed() {
        let plan = plan();
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        assert_eq!(
            plan.generate_minute(9, 600, &mut a),
            plan.generate_minute(9, 600, &mut b)
        );
        let mut c = SmallRng::seed_from_u64(8);
        // A different seed virtually always differs (count or draws).
        assert_ne!(
            plan.generate_minute(9, 600, &mut a),
            plan.generate_minute(9, 600, &mut c)
        );
    }

    #[test]
    fn empty_arrivals_are_rejected_at_compile_time() {
        let mut registry = registry();
        registry.arrivals.per_decile.clear();
        assert!(ServingPlan::compile(registry).is_err());
    }

    #[test]
    fn deciles_clamp_to_the_last_sampler() {
        let plan = plan();
        assert_eq!(plan.n_deciles(), 10);
        let mut a = SmallRng::seed_from_u64(11);
        let mut b = SmallRng::seed_from_u64(11);
        assert_eq!(
            plan.generate_minute(9, 700, &mut a),
            plan.generate_minute(200, 700, &mut b)
        );
    }
}

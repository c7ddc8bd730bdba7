//! Stress-regime scenario families (ROADMAP item 4).
//!
//! Every scenario the reproduction had seen before this module was
//! generated *from* the fitted log-normal/Pareto model family, so the
//! fitted mixtures had never been stressed by traffic outside it. The
//! three families here close that gap, each anchored in the related
//! work (see PAPERS.md):
//!
//! - [`bursts`] — heavy-tail burst regimes: Fréchet-tailed session
//!   volumes with tunable extremal rate/volume dependence, after
//!   López-Oliveros & Resnick's session-burstiness analysis.
//! - [`drift`] — longitudinal drift: per-service volume μ/σ drifting
//!   over multi-week windows, after Alasmar & Clegg's 18-year
//!   log-normal drift study; exercises windowed re-fitting.
//! - [`control_plane`] — control-plane coupling: the signaling-event
//!   load (attach / handover / paging per BS-minute) implied by session
//!   arrivals and mobility, after Meng et al.'s mobile-core model,
//!   collected as a second per-BS traffic plane.
//!
//! [`stress_session`] is the single hook the engine calls per session;
//! with a quiescent [`StressConfig`] it consumes **zero** RNG draws and
//! returns its inputs untouched, preserving the engine's byte-exact RNG
//! sequence compatibility.
//!
//! [`by_name`] exposes the pinned presets behind
//! `mtd-traffic validate --scenario <name>` — the model-breakage
//! battery in `mtd-core::validation::stress` builds its datasets from
//! these, so their fields are part of the pinned-threshold contract:
//! changing a preset invalidates the golden bands.

pub mod bursts;
pub mod control_plane;
pub mod drift;

use crate::config::{ScenarioConfig, StressConfig};
use crate::services::ServiceProfile;
use rand::Rng;

/// Names of the pinned stress scenarios, in battery order.
pub const SCENARIO_NAMES: &[&str] = &["bursts", "drift", "control-plane"];

/// Resolves a pinned stress-scenario preset by name.
///
/// The presets are sized for the CI breakage battery: small enough to
/// build in seconds, large enough that the per-scenario GoF statistics
/// sit well clear of Monte-Carlo noise at their pinned bands.
#[must_use]
pub fn by_name(name: &str) -> Option<ScenarioConfig> {
    match name {
        "bursts" => Some(bursts::preset()),
        "drift" => Some(drift::preset()),
        "control-plane" => Some(control_plane::preset()),
        _ => None,
    }
}

/// Applies the active stress transforms to one session's sampled
/// `(volume, duration)`, immediately after the base profile draws.
///
/// Draw discipline (load-bearing for byte determinism): drift is
/// RNG-free; bursts draw exactly two extra values (`gate`, `tail`) per
/// session and only when `burst_prob > 0`. A quiescent config therefore
/// reproduces the pre-stress engine RNG sequence exactly.
pub fn stress_session<R: Rng + ?Sized>(
    stress: &StressConfig,
    profile: &ServiceProfile,
    day: u32,
    volume_mb: f64,
    duration_s: f64,
    rng: &mut R,
) -> (f64, f64) {
    let mut volume = volume_mb;
    let mut duration = duration_s;
    if stress.drift_enabled() {
        volume = drift::drifted_volume(stress, day, profile.mean_log10_volume(), volume);
    }
    if stress.bursts_enabled() {
        let gate: f64 = rng.gen();
        let tail: f64 = rng.gen();
        if gate < stress.burst_prob {
            let scale_mb = 10f64.powf(profile.mean_log10_volume());
            let burst = bursts::frechet_volume(scale_mb, stress.burst_tail_index, tail);
            duration = bursts::coupled_duration(duration, volume, burst, stress.burst_coupling);
            volume = burst;
        }
    }
    (volume, duration)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::OriginSink;
    use crate::engine::{CollectSink, Engine};
    use crate::geo::Topology;
    use crate::services::ServiceCatalog;
    use mtd_math::rng::{stream_id, stream_rng};

    #[test]
    fn presets_resolve_and_validate() {
        for name in SCENARIO_NAMES {
            let config = by_name(name).unwrap_or_else(|| panic!("preset {name}"));
            assert!(config.validate().is_ok(), "{name} preset invalid");
            assert!(config.stress.any_enabled(), "{name} preset is quiescent");
        }
        assert!(by_name("no-such-scenario").is_none());
    }

    #[test]
    fn quiescent_stress_consumes_no_rng_and_is_identity() {
        let catalog = ServiceCatalog::paper();
        let profile = catalog.service(crate::ids::ServiceId(0));
        let stress = StressConfig::default();
        let mut rng = stream_rng(1, stream_id("quiescent"));
        let before: u64 = rng.gen();
        let mut rng = stream_rng(1, stream_id("quiescent"));
        let (v, d) = stress_session(&stress, profile, 3, 2.5, 40.0, &mut rng);
        assert_eq!(v, 2.5);
        assert_eq!(d, 40.0);
        // No draw was consumed: the next value matches a fresh stream.
        assert_eq!(rng.gen::<u64>(), before);
    }

    #[test]
    fn burst_transform_is_gated_and_heavy_tailed() {
        let catalog = ServiceCatalog::paper();
        let profile = catalog.service(crate::ids::ServiceId(0));
        let stress = StressConfig {
            burst_prob: 1.0,
            burst_tail_index: 1.1,
            burst_coupling: 0.5,
            ..StressConfig::default()
        };
        let mut rng = stream_rng(2, stream_id("bursts"));
        let n = 20_000;
        let mut burst_mean = 0.0;
        let mut max = 0.0f64;
        for _ in 0..n {
            let (v, d) = stress_session(&stress, profile, 0, 1.0, 60.0, &mut rng);
            assert!((1e-3..=1e4).contains(&v));
            assert!((1.0..=14_400.0).contains(&d));
            burst_mean += v / n as f64;
            max = max.max(v);
        }
        // α = 1.1 Fréchet: the clamp-censored sample mean far exceeds the
        // anchor scale and individual draws reach the clamp ceiling.
        let scale = 10f64.powf(profile.mean_log10_volume());
        assert!(burst_mean > 3.0 * scale, "mean {burst_mean} scale {scale}");
        assert!(max > 1e3, "max burst {max}");
    }

    #[test]
    fn stressed_engine_parallel_matches_sequential() {
        // The stress hook must preserve the engine's thread invariance.
        let config = ScenarioConfig {
            n_bs: 6,
            days: 2,
            arrival_scale: 0.04,
            stress: StressConfig {
                burst_prob: 0.2,
                burst_tail_index: 1.2,
                drift_mu_per_window: 0.2,
                drift_sigma_per_window: 0.1,
                drift_window_days: 1,
                control_plane: true,
                ..StressConfig::default()
            },
            ..ScenarioConfig::small_test()
        };
        let topology = Topology::generate(config.n_bs, config.seed);
        let catalog = ServiceCatalog::paper();
        let engine = Engine::new(&config, &topology, &catalog);
        let mut seq = OriginSink::default();
        let seq_stats = engine.run(&mut seq);
        for threads in [2, 4, 8] {
            let mut par = OriginSink::default();
            let par_stats = engine.run_parallel(&mut par, threads);
            assert_eq!(
                par.merged,
                threads.min(config.n_bs) - 1,
                "threads {threads}"
            );
            assert_eq!(seq_stats, par_stats, "threads {threads}");
            assert!(seq.by_origin == par.by_origin, "threads {threads}");
        }
    }

    #[test]
    fn disabled_stress_reproduces_prestress_engine_stream() {
        // RNG-sequence compatibility: a config whose stress block is the
        // default must generate the same sessions as one that never
        // mentions stress (they are the same struct value — this pins
        // the *engine path*, not just the struct equality).
        let base = ScenarioConfig {
            n_bs: 4,
            days: 1,
            arrival_scale: 0.05,
            ..ScenarioConfig::small_test()
        };
        let topology = Topology::generate(base.n_bs, base.seed);
        let catalog = ServiceCatalog::paper();
        let mut a = CollectSink::default();
        Engine::new(&base, &topology, &catalog).run(&mut a);
        let explicit = ScenarioConfig {
            stress: StressConfig::default(),
            ..base.clone()
        };
        let mut b = CollectSink::default();
        Engine::new(&explicit, &topology, &catalog).run(&mut b);
        assert_eq!(a.observations, b.observations);
        assert_eq!(a.sessions, b.sessions);
    }
}

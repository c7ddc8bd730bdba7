//! # mobile-traffic-dists
//!
//! A production-quality Rust reproduction of **"Characterizing and
//! Modeling Session-Level Mobile Traffic Demands from Large-Scale
//! Measurements"** (Zanella, Bazco-Nogueras, Ziemlicki, Fiore — ACM IMC
//! 2023): session-level mobile traffic models — bimodal arrivals per
//! BS-load decile, log-normal-mixture volume PDFs, power-law
//! duration–volume coupling — plus the full measurement substrate the
//! paper's closed dataset required us to simulate.
//!
//! ## Crate map
//!
//! - [`math`] — from-scratch numerics: distributions, EMD, clustering,
//!   Savitzky–Golay, Levenberg–Marquardt, histograms.
//! - [`netsim`] — the synthetic operational 4G/5G network: topology,
//!   31-service ground-truth catalog, mobility/handover machinery, the
//!   RAN/gateway probe pipeline.
//! - [`dataset`] — the operator's privacy-preserving aggregation
//!   (per-minute counts, binned PDFs, duration–volume pairs) with the
//!   paper's Eq. (1)/(2) estimators.
//! - [`models`] — **the paper's contribution**: fitting and sampling of
//!   the released per-service models (`mtd-core`).
//! - [`analysis`] — the §4 characterization pipeline (ranking,
//!   similarity, clustering, invariance).
//! - [`usecases`] — §6 applications: network-slicing capacity allocation
//!   and vRAN CU–DU energy orchestration.
//!
//! ## Quickstart
//!
//! ```
//! use mobile_traffic_dists::prelude::*;
//!
//! // 1. Simulate a small measurement campaign and aggregate it.
//! let config = ScenarioConfig { n_bs: 6, days: 2, arrival_scale: 0.05,
//!     ..ScenarioConfig::small_test() };
//! let topology = Topology::generate(config.n_bs, config.seed);
//! let catalog = ServiceCatalog::paper();
//! let dataset = Dataset::build(&config, &topology, &catalog);
//!
//! // 2. Fit the paper's session-level models.
//! let registry = fit_registry(&dataset).expect("fit");
//! assert!(registry.by_name("Netflix").is_some());
//!
//! // 3. Generate synthetic session-level traffic from the models.
//! use rand::SeedableRng;
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
//! let plan = ServingPlan::compile(registry).expect("plan");
//! let day = plan.generate_day(9, &mut rng);
//! assert!(!day.is_empty());
//! ```

pub mod chaos;
pub mod digest;

pub use mtd_analysis as analysis;
pub use mtd_core as models;
pub use mtd_dataset as dataset;
pub use mtd_fault as fault;
pub use mtd_math as math;
pub use mtd_netsim as netsim;
pub use mtd_usecases as usecases;

/// The most commonly used items in one import.
pub mod prelude {
    pub use mtd_core::pipeline::{fit_registry, fit_registry_with};
    pub use mtd_core::{GeneratedSession, ModelRegistry, ServiceModel, ServingPlan};
    pub use mtd_dataset::{Dataset, SliceFilter};
    pub use mtd_netsim::geo::Topology;
    pub use mtd_netsim::services::{ServiceCatalog, ServiceClass};
    pub use mtd_netsim::ScenarioConfig;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_types_are_usable() {
        let config = ScenarioConfig::small_test();
        assert!(config.validate().is_ok());
        let catalog = ServiceCatalog::paper();
        assert_eq!(catalog.len(), 31);
    }
}

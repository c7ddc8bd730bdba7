//! Pinned engine totals at a busy and a light load.
//!
//! The spill pins of the campaign crate run at one light load, where a
//! minute with two or more arrivals is rare. Here `Engine::run`'s
//! [`RunStats`] is pinned for a busy scenario (scale 1.0, dozens of
//! sessions per peak minute) and a light one (scale 0.01, mostly empty
//! minutes): a change that moves one arrival count, one session or one
//! volume bit at either load fails here, naming the scenario.

use mtd_netsim::engine::{Engine, EngineSink, RunStats};
use mtd_netsim::geo::Topology;
use mtd_netsim::services::ServiceCatalog;
use mtd_netsim::ScenarioConfig;

/// Keeps nothing; the run's totals come back in its `RunStats`.
struct CountingSink;

impl EngineSink for CountingSink {}

fn run(n_bs: usize, days: u32, arrival_scale: f64) -> RunStats {
    let config = ScenarioConfig {
        n_bs,
        days,
        arrival_scale,
        ..ScenarioConfig::small_test()
    };
    let topology = Topology::generate(config.n_bs, config.seed);
    let catalog = ServiceCatalog::paper();
    Engine::new(&config, &topology, &catalog).run(&mut CountingSink)
}

fn check(name: &str, stats: &RunStats, pinned: (u64, u64, u64, u64)) {
    let got = (
        stats.sessions,
        stats.observations,
        stats.transient_observations,
        stats.total_volume_mb.to_bits(),
    );
    assert_eq!(
        got, pinned,
        "{name}: (sessions, observations, transient, volume bits) = ({}, {}, {}, {:#018x})",
        got.0, got.1, got.2, got.3
    );
}

#[test]
fn busy_run_stats_are_pinned() {
    check(
        "busy 20 BS x 2 days at scale 1.0",
        &run(20, 2, 1.0),
        (788_342, 921_948, 190_428, 0x415d_0133_5f27_8d95),
    );
}

#[test]
fn light_run_stats_are_pinned() {
    check(
        "light 60 BS x 3 days at scale 0.01",
        &run(60, 3, 0.01),
        (34_635, 40_399, 8_269, 0x4112_5d5b_db17_4dc9),
    );
}

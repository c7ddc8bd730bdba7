//! Heartbeat progress of one `Dataset::build`: every BS-minute and every
//! session counts once. This file holds exactly one test: the telemetry
//! registry is process-wide, so no other test may share the binary.

use mtd_dataset::Dataset;
use mtd_netsim::engine::{Engine, EngineSink};
use mtd_netsim::geo::Topology;
use mtd_netsim::services::ServiceCatalog;
use mtd_netsim::ScenarioConfig;

/// Keeps nothing: the run's own stats carry its session count.
struct Discard;

impl EngineSink for Discard {}

#[test]
fn a_build_counts_each_bs_minute_and_session_once() {
    let config = ScenarioConfig {
        n_bs: 6,
        days: 2,
        arrival_scale: 0.05,
        ..ScenarioConfig::small_test()
    };
    let topology = Topology::generate(config.n_bs, config.seed);
    let catalog = ServiceCatalog::paper();
    // The run's session count, taken while telemetry is still off.
    let sessions = Engine::new(&config, &topology, &catalog)
        .run(&mut Discard)
        .sessions;

    mtd_telemetry::reset();
    mtd_telemetry::set_enabled(true);
    let _ = Dataset::build(&config, &topology, &catalog);
    let snap = mtd_telemetry::snapshot();
    mtd_telemetry::set_enabled(false);

    let units = config.n_bs as u64 * u64::from(config.days) * 1440;
    assert_eq!(snap.gauge("progress.total_units"), Some(units as f64));
    assert_eq!(snap.counter("progress.done_units"), Some(units));
    assert_eq!(snap.counter("progress.bs_minutes"), Some(units));
    assert_eq!(snap.counter("progress.sessions"), Some(sessions));
}

//! Fitted and sampled bytes pinned across commits: the length and
//! FNV-1a 64 of a registry fitted from a fresh campaign and of the
//! sampling battery's report on the released registry. Every fit kernel
//! (the §5.2 mixture, the §5.3 power law, the lanes under them) and
//! every sampler the battery checks feeds one of the two, so a change
//! that moves one bit of either fails here, even though reruns within
//! one build still agree.

use mtd_core::pipeline::fit_registry;
use mtd_core::validation::sampling::{run_battery, SamplingConfig};
use mtd_core::ModelRegistry;
use mtd_dataset::Dataset;
use mtd_netsim::geo::Topology;
use mtd_netsim::services::ServiceCatalog;
use mtd_netsim::ScenarioConfig;
use mtd_telemetry::fnv64;

fn assert_pinned(what: &str, bytes: &[u8], len: usize, digest: u64) {
    let got = (bytes.len(), fnv64(bytes));
    assert!(
        got == (len, digest),
        "{what} moved: got ({}, {:#018x}), pinned ({len}, {digest:#018x})",
        got.0,
        got.1
    );
}

/// `mtd-traffic fit --n-bs 8 --days 2 --scale 0.05` (seed `0xCAFE`)
/// prints this JSON and a newline.
#[test]
fn fitted_registry_is_pinned_byte_for_byte() {
    let config = ScenarioConfig {
        n_bs: 8,
        days: 2,
        seed: 0xCAFE,
        arrival_scale: 0.05,
        ..ScenarioConfig::default()
    };
    let topology = Topology::generate(config.n_bs, config.seed);
    let dataset = Dataset::build(&config, &topology, &ServiceCatalog::paper());
    let json = fit_registry(&dataset).expect("fit").to_json();
    assert_pinned(
        "fitted registry",
        json.as_bytes(),
        27_081,
        0x08b0_176a_b7ff_2a26,
    );
}

#[test]
fn sampling_report_is_pinned_byte_for_byte() {
    let config = SamplingConfig {
        samples: 20_000,
        ..SamplingConfig::default()
    };
    let report = run_battery(&ModelRegistry::released(), &config).expect("battery");
    assert_pinned(
        "sampling report",
        report.to_json().as_bytes(),
        17_566,
        0x428d_f97e_75ec_3c3e,
    );
}

//! Records the persistence numbers behind `BENCH_store.json`: builds the
//! default scenario dataset, saves it in both formats, and times
//! file-backed loads (what the `fit --from` and `dataset import` paths
//! actually pay).
//!
//! Usage: `cargo run --release -p mtd-bench --bin store_bench [out.json]`

use mtd_bench::{time_median, BenchReport};
use mtd_dataset::store::{load_binary, load_json, save_binary, save_json, verify};
use mtd_dataset::Dataset;
use mtd_netsim::geo::Topology;
use mtd_netsim::services::ServiceCatalog;
use mtd_netsim::ScenarioConfig;

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_store.json".to_string());

    let config = ScenarioConfig::default();
    eprintln!(
        "building default scenario dataset ({} BS x {} days)...",
        config.n_bs, config.days
    );
    let topology = Topology::generate(config.n_bs, config.seed);
    let ds = Dataset::build(&config, &topology, &ServiceCatalog::paper());

    let dir = std::env::temp_dir().join("mtd_store_bench");
    std::fs::create_dir_all(&dir).unwrap();
    let bin_path = dir.join("default.bin");
    let json_path = dir.join("default.json");

    let save_binary_s = time_median(|| save_binary(&ds, &bin_path).unwrap());
    let save_json_s = time_median(|| save_json(&ds, &json_path).unwrap());
    let bin_size = std::fs::metadata(&bin_path).unwrap().len();
    let json_size = std::fs::metadata(&json_path).unwrap().len();

    let load_binary_s = time_median(|| check(load_binary(&bin_path), &ds));
    let load_json_s = time_median(|| check(load_json(&json_path), &ds));
    let verify_s = time_median(|| assert!(verify(&bin_path).unwrap().is_clean()));

    std::fs::remove_file(&bin_path).ok();
    std::fs::remove_file(&json_path).ok();

    let mut report = BenchReport::new("store: binary chunked format vs JSON fallback");
    report.field_raw(
        "scenario",
        &format!(
            "{{\"preset\": \"default\", \"n_bs\": {}, \"days\": {}}}",
            config.n_bs, config.days
        ),
    );
    report.field_raw(
        "file_bytes",
        &format!("{{\"binary\": {bin_size}, \"json\": {json_size}}}"),
    );
    report.field_raw(
        "save_seconds",
        &format!("{{\"binary\": {save_binary_s:.6}, \"json\": {save_json_s:.6}}}"),
    );
    report.field_raw(
        "load_seconds",
        &format!("{{\"binary\": {load_binary_s:.6}, \"json\": {load_json_s:.6}}}"),
    );
    report.field_seconds("verify_seconds", verify_s);
    report.field_raw(
        "speedup_load_binary_over_json",
        &format!("{:.2}", load_json_s / load_binary_s),
    );
    report.write(&out_path);
}

/// Every timed load is also checked against the in-memory dataset so the
/// benchmark cannot quietly time a wrong or partial decode.
fn check<E: std::fmt::Debug>(loaded: Result<Dataset, E>, expected: &Dataset) -> Dataset {
    let loaded = loaded.unwrap();
    assert!(loaded == *expected, "loaded dataset differs from original");
    loaded
}

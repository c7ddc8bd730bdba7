//! Store-shim fault injection: every injected write/read fault must
//! surface as a structured [`StoreError`] (never a panic) and must never
//! leave a torn destination or a leaked temp file — except under the
//! explicit `store.write.skip_atomic` mutation site, whose whole purpose
//! is to tear files so the chaos harness can prove it notices.

use mtd_dataset::store::{self, StoreError};
use mtd_dataset::Dataset;
use mtd_fault::FaultPlan;
use mtd_netsim::geo::Topology;
use mtd_netsim::services::ServiceCatalog;
use mtd_netsim::ScenarioConfig;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// The fault runtime is process-global; every test serializes on this.
fn fault_lock() -> MutexGuard<'static, ()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    GATE.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn small_dataset() -> &'static Dataset {
    static DS: OnceLock<Dataset> = OnceLock::new();
    DS.get_or_init(|| {
        let config = ScenarioConfig {
            n_bs: 4,
            days: 1,
            arrival_scale: 0.05,
            ..ScenarioConfig::small_test()
        };
        let topology = Topology::generate(config.n_bs, config.seed);
        let catalog = ServiceCatalog::paper();
        Dataset::build(&config, &topology, &catalog)
    })
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("mtd_dataset_fault_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(path.with_extension("tmp-partial")).ok();
    path
}

fn no_tmp_leak(path: &Path) {
    assert!(
        !path.with_extension("tmp-partial").exists(),
        "temp file leaked for {}",
        path.display()
    );
}

#[test]
fn write_failures_leave_no_destination_and_no_temp_file() {
    let _g = fault_lock();
    assert!(mtd_fault::compiled_in());
    let ds = small_dataset();
    for spec in [
        "store.write.short=1",
        "store.write.enospc=1",
        "store.write.rename=1",
    ] {
        let path = temp_path(&format!("wf-{}.mtd", spec.split('.').nth(2).unwrap()));
        mtd_fault::install(FaultPlan::parse(spec, 0xABCD).unwrap());
        let result = store::save_binary(ds, &path);
        mtd_fault::clear();
        assert!(
            matches!(result, Err(StoreError::Io { .. })),
            "{spec}: want structured Io error, got {result:?}"
        );
        assert!(!path.exists(), "{spec}: failed write must not create dest");
        no_tmp_leak(&path);
    }
}

#[test]
fn write_failure_preserves_previous_destination_content() {
    let _g = fault_lock();
    let ds = small_dataset();
    let path = temp_path("wf-preserve.mtd");
    store::save_binary(ds, &path).unwrap();
    let before = std::fs::read(&path).unwrap();

    mtd_fault::install(FaultPlan::parse("store.write.short=1", 7).unwrap());
    let result = store::save_binary(ds, &path);
    mtd_fault::clear();
    assert!(result.is_err());
    assert_eq!(
        std::fs::read(&path).unwrap(),
        before,
        "failed rewrite must leave the old bytes intact"
    );
    no_tmp_leak(&path);
    std::fs::remove_file(&path).ok();
}

#[test]
fn write_bitflip_is_always_caught_by_the_reader() {
    let _g = fault_lock();
    let ds = small_dataset();
    // p=1 flips one seeded bit per write; different seeds hit different
    // offsets (header, payload, CRC, footer) — every one must be caught.
    for seed in 0..16u64 {
        let path = temp_path(&format!("wf-flip-{seed}.mtd"));
        mtd_fault::install(FaultPlan::parse("store.write.bitflip=1", seed).unwrap());
        let saved = store::save_binary(ds, &path);
        mtd_fault::clear();
        saved.unwrap_or_else(|e| panic!("seed {seed}: flip write itself succeeds: {e}"));
        let strict = store::load_binary(&path);
        match strict {
            Err(_) => {}
            Ok(loaded) => {
                panic!(
                    "seed {seed}: corrupt file loaded silently (equal={})",
                    loaded == *ds
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn skip_atomic_mutation_site_really_tears_the_destination() {
    let _g = fault_lock();
    let ds = small_dataset();
    let path = temp_path("wf-torn.mtd");
    mtd_fault::install(
        FaultPlan::parse("store.write.skip_atomic=1,store.write.short=1", 3).unwrap(),
    );
    let result = store::save_binary(ds, &path);
    mtd_fault::clear();
    assert!(result.is_err(), "short write still reports failure");
    // The invariant the atomic protocol normally guarantees is broken:
    // the destination exists and holds a torn prefix.
    assert!(path.exists(), "mutation must leave a torn destination");
    let torn = std::fs::read(&path).unwrap();
    let full = store::load_binary(&path);
    assert!(
        full.is_err(),
        "torn file ({} bytes) must not load strictly",
        torn.len()
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn read_corruption_surfaces_structured_errors_not_panics() {
    let _g = fault_lock();
    let ds = small_dataset();
    let path = temp_path("rf.mtd");
    store::save_binary(ds, &path).unwrap();
    for (spec, seeds) in [
        ("store.read.truncate=1", 0..12u64),
        ("store.read.bitflip=1", 0..12u64),
    ] {
        for seed in seeds {
            mtd_fault::install(FaultPlan::parse(spec, seed).unwrap());
            let strict = store::load_binary(&path);
            mtd_fault::clear();
            if let Ok(loaded) = strict {
                // A fault that truncated nothing (offset landed at EOF is
                // impossible: truncate < len) must never load different data.
                assert_eq!(loaded, *ds, "{spec} seed {seed}: silent divergence");
            }
        }
    }
    // The file on disk is untouched by read-side faults.
    assert_eq!(store::load_binary(&path).unwrap(), *ds);
    std::fs::remove_file(&path).ok();
}

#[test]
fn json_parse_fuzz_yields_malformed_json_errors() {
    let _g = fault_lock();
    let ds = small_dataset();
    let path = temp_path("fuzz.json");
    store::save_json(ds, &path).unwrap();
    let mut detected = 0;
    for seed in 0..12u64 {
        mtd_fault::install(FaultPlan::parse("json.parse.corrupt=1", seed).unwrap());
        let result = store::load_json(&path);
        mtd_fault::clear();
        match result {
            Err(StoreError::MalformedJson { detail, .. }) => {
                assert!(!detail.is_empty(), "seed {seed}: positioned message");
                detected += 1;
            }
            Err(other) => panic!("seed {seed}: unexpected error class {other:?}"),
            // A corruption the parser cannot distinguish from valid input
            // (e.g. truncation at byte 0 of a trailing pad) must still
            // round-trip identically or fail — never diverge.
            Ok(loaded) => assert_eq!(loaded, *ds, "seed {seed}: silent divergence"),
        }
    }
    assert!(
        detected >= 10,
        "p=1 corruption should be detected nearly always, got {detected}/12"
    );
    std::fs::remove_file(&path).ok();
}

//! Resume-equivalence battery.
//!
//! Kill the campaign after every checkpoint (all `K` of them), resume,
//! and demand the final store and manifest are byte-identical to an
//! uninterrupted run — which is itself byte-identical to the monolithic
//! pipeline. Also drives the failure edges: a manifest torn mid-write by
//! injected store faults must be *detected* (structured error, never
//! half-trusted), and corrupt or missing spill files must be refused
//! with their shard named.

use mtd_campaign::{resume, run, CampaignConfig, CampaignError, Manifest};
use mtd_dataset::Dataset;
use mtd_fault::{self as fault, FaultPlan};
use mtd_netsim::geo::Topology;
use mtd_netsim::services::ServiceCatalog;
use mtd_netsim::ScenarioConfig;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// The fault runtime is process-global; every test serializes on this.
fn fault_lock() -> MutexGuard<'static, ()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    GATE.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

const SHARDS: u32 = 3;

fn scenario() -> ScenarioConfig {
    ScenarioConfig {
        n_bs: 10,
        days: 1,
        arrival_scale: 0.08,
        ..ScenarioConfig::small_test()
    }
}

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("mtd_campaign_resume").join(name);
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn campaign_config(name: &str) -> CampaignConfig {
    let dir = workdir(name);
    CampaignConfig {
        scenario: scenario(),
        shards: SHARDS,
        threads: 1,
        out: dir.join("store.mtdstore"),
        dir,
        kill_after: None,
        refit_window: None,
    }
}

/// Monolithic golden bytes, computed at runtime.
fn golden() -> &'static Vec<u8> {
    static GOLDEN: OnceLock<Vec<u8>> = OnceLock::new();
    GOLDEN.get_or_init(|| {
        let config = scenario();
        let topology = Topology::generate(config.n_bs, config.seed);
        let catalog = ServiceCatalog::paper();
        let ds = Dataset::build(&config, &topology, &catalog);
        mtd_dataset::store::encode_binary(&ds, 1)
    })
}

/// Manifest of an uninterrupted campaign run, for field-exact comparison
/// with every kill/resume history.
fn golden_manifest() -> &'static Manifest {
    static GOLDEN: OnceLock<Manifest> = OnceLock::new();
    GOLDEN.get_or_init(|| {
        let config = campaign_config("golden");
        run(&config).expect("uninterrupted run");
        let bytes = std::fs::read(&config.out).unwrap();
        assert_eq!(
            bytes,
            *golden(),
            "uninterrupted campaign matches monolithic"
        );
        Manifest::load(&config.manifest_path()).unwrap()
    })
}

#[test]
fn kill_at_every_checkpoint_then_resume_reproduces_the_golden_bytes() {
    let _g = fault_lock();
    assert!(fault::compiled_in(), "battery needs mtd-fault/fault-inject");
    let expected_manifest = golden_manifest().clone();

    // p=1 kill: every checkpoint fires, so each run/resume call advances
    // exactly one shard before dying — the walk visits every one of the
    // K kill points in a single history.
    let plan = FaultPlan::parse("campaign.shard.kill=1", 0xC4A0_5EED).expect("spec parses");
    fault::install(plan);
    let config = campaign_config("kill-walk");
    let total = u64::from(SHARDS);

    let first = run(&config);
    assert!(
        matches!(first, Err(CampaignError::Killed { checkpoint: 0 })),
        "{first:?}"
    );
    for expect in 1..total {
        let r = resume(&config);
        match r {
            Err(CampaignError::Killed { checkpoint }) => {
                assert_eq!(checkpoint, expect, "kill walk out of order")
            }
            other => panic!("expected Killed at {expect}, got {other:?}"),
        }
    }
    // All K checkpoints are durable; the final resume only assembles.
    let report = resume(&config).expect("final resume completes");
    fault::clear();

    let bytes = std::fs::read(&config.out).unwrap();
    assert_eq!(bytes, *golden(), "bytes after K kills + resumes");
    assert_eq!(report.store_digest, mtd_campaign::fnv64(golden()));
    let manifest = Manifest::load(&config.manifest_path()).unwrap();
    assert_eq!(manifest, expected_manifest, "manifest after kill walk");
    std::fs::remove_dir_all(&config.dir).ok();
}

#[test]
fn single_kill_at_each_checkpoint_via_kill_after_matches_golden() {
    let _g = fault_lock();
    let expected_manifest = golden_manifest().clone();

    // The deterministic CLI/CI kill switch: one kill at checkpoint c,
    // one resume to the end, for every c.
    for c in 0..u64::from(SHARDS) {
        let mut config = campaign_config(&format!("kill-after-{c}"));
        config.kill_after = Some(c);
        let killed = run(&config);
        assert!(
            matches!(killed, Err(CampaignError::Killed { checkpoint }) if checkpoint == c),
            "c={c}: {killed:?}"
        );

        config.kill_after = None;
        resume(&config).unwrap_or_else(|e| panic!("resume after kill {c}: {e}"));
        let bytes = std::fs::read(&config.out).unwrap();
        assert_eq!(bytes, *golden(), "kill point {c}");
        let manifest = Manifest::load(&config.manifest_path()).unwrap();
        assert_eq!(manifest, expected_manifest, "manifest, kill point {c}");
        std::fs::remove_dir_all(&config.dir).ok();
    }
}

#[test]
fn manifest_torn_mid_write_is_detected_not_half_trusted() {
    let _g = fault_lock();
    // `skip_atomic` disables the temp-file + rename protocol and `short`
    // tears the write — composing them leaves a truncated manifest at
    // the real path, exactly what a crash mid-write would leave without
    // atomicity.
    let plan = FaultPlan::parse("store.write.skip_atomic=1,store.write.short=1", 0xBAD_F11E)
        .expect("spec parses");
    fault::install(plan);
    let config = campaign_config("torn-manifest");
    let r = run(&config);
    fault::clear();

    // The save itself reports the injected I/O failure...
    assert!(matches!(r, Err(CampaignError::Store(_))), "{r:?}");
    // ...and the bytes it left behind fail the CRC wholesale: a torn
    // manifest is a structured error from load and resume alike, never a
    // partially-parsed checkpoint.
    let loaded = Manifest::load(&config.manifest_path());
    assert!(
        matches!(loaded, Err(CampaignError::TornManifest(_))),
        "{loaded:?}"
    );
    let resumed = resume(&config);
    assert!(
        matches!(resumed, Err(CampaignError::TornManifest(_))),
        "{resumed:?}"
    );
    std::fs::remove_dir_all(&config.dir).ok();
}

#[test]
fn corrupt_or_missing_spills_are_refused_with_shard_attribution() {
    let _g = fault_lock();
    let mut config = campaign_config("spill-damage");
    // Stop right after shard 0's spill is durable.
    config.kill_after = Some(0);
    let killed = run(&config);
    assert!(
        matches!(killed, Err(CampaignError::Killed { .. })),
        "{killed:?}"
    );
    config.kill_after = None;

    let spill = config.spill_path(0);
    let pristine = std::fs::read(&spill).unwrap();

    // Corrupt one byte: resume names the shard.
    let mut bad = pristine.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 0x04;
    std::fs::write(&spill, &bad).unwrap();
    let r = resume(&config);
    assert!(
        matches!(r, Err(CampaignError::SpillCorrupt { shard: 0, .. })),
        "{r:?}"
    );

    // Missing spill: also structured.
    std::fs::remove_file(&spill).unwrap();
    let r = resume(&config);
    assert!(
        matches!(r, Err(CampaignError::SpillMissing { shard: 0, .. })),
        "{r:?}"
    );

    // Restoring the pristine bytes lets the resume finish — and the
    // result still matches the golden.
    std::fs::write(&spill, &pristine).unwrap();
    resume(&config).expect("resume after restore");
    let bytes = std::fs::read(&config.out).unwrap();
    assert_eq!(bytes, *golden());
    std::fs::remove_dir_all(&config.dir).ok();
}

#[test]
fn zero_length_spill_is_treated_as_incomplete_not_assembled_empty() {
    let _g = fault_lock();
    let expected_manifest = golden_manifest().clone();
    let mut config = campaign_config("zero-length-spill");
    // Stop right after shard 1's spill is durable: spills 0 and 1
    // exist, the manifest says shards_done = 2.
    config.kill_after = Some(1);
    let killed = run(&config);
    assert!(
        matches!(killed, Err(CampaignError::Killed { .. })),
        "{killed:?}"
    );
    config.kill_after = None;

    // A kill between creating and writing the spill leaves a zero-length
    // file — truncate shard 1 to reproduce that window.
    std::fs::write(config.spill_path(1), b"").unwrap();

    // Resume must treat the shard as not-done and re-simulate it, not
    // refuse forever (SpillCorrupt) or assemble an empty shard.
    resume(&config).expect("resume past the zero-length spill");
    let bytes = std::fs::read(&config.out).unwrap();
    assert_eq!(bytes, *golden(), "bytes after zero-length spill recovery");
    let manifest = Manifest::load(&config.manifest_path()).unwrap();
    assert_eq!(manifest, expected_manifest, "manifest after recovery");
    std::fs::remove_dir_all(&config.dir).ok();
}

#[test]
fn resume_refuses_a_drifted_configuration() {
    let _g = fault_lock();
    let mut config = campaign_config("config-drift");
    config.kill_after = Some(0);
    assert!(matches!(run(&config), Err(CampaignError::Killed { .. })));
    config.kill_after = None;

    let mut drifted = config.clone();
    drifted.scenario.seed ^= 1;
    assert!(matches!(
        resume(&drifted),
        Err(CampaignError::ConfigMismatch { .. })
    ));

    let mut resharded = config.clone();
    resharded.shards = SHARDS + 1;
    assert!(matches!(
        resume(&resharded),
        Err(CampaignError::ConfigMismatch { .. })
    ));

    // The unmodified configuration still resumes to the golden bytes.
    resume(&config).unwrap();
    assert_eq!(std::fs::read(&config.out).unwrap(), *golden());
    std::fs::remove_dir_all(&config.dir).ok();
}

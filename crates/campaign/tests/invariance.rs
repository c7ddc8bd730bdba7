//! Shard/thread invariance battery.
//!
//! The campaign runner's core promise: for ANY shard count and ANY
//! thread count, the assembled store is **byte-identical** to the
//! monolithic pipeline's `encode_binary(Dataset::build(..), 1)`. The
//! golden bytes are computed at runtime from the same scenario — never
//! pinned constants — so the battery keeps proving the equivalence as
//! the pipeline evolves.

use mtd_campaign::{run, status, CampaignConfig, CampaignError};
use mtd_dataset::Dataset;
use mtd_netsim::geo::Topology;
use mtd_netsim::services::ServiceCatalog;
use mtd_netsim::ScenarioConfig;
use std::path::PathBuf;
use std::sync::OnceLock;

fn scenario() -> ScenarioConfig {
    ScenarioConfig {
        n_bs: 14,
        days: 2,
        arrival_scale: 0.05,
        ..ScenarioConfig::small_test()
    }
}

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("mtd_campaign_invariance")
        .join(name);
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Golden store bytes from the monolithic pipeline, computed at runtime.
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

fn campaign_config(name: &str, shards: u32, threads: usize) -> CampaignConfig {
    let dir = workdir(name);
    CampaignConfig {
        scenario: scenario(),
        shards,
        threads,
        out: dir.join("store.mtdstore"),
        dir,
        kill_after: None,
        refit_window: None,
    }
}

#[test]
fn campaign_store_is_byte_identical_for_any_shard_and_thread_count() {
    let golden = golden();
    // Shard counts spanning 1 (degenerate), coprime-with-n_bs, and more
    // shards than stations (clamped); thread counts 1 and 4.
    for (shards, threads) in [
        (1u32, 1usize),
        (2, 1),
        (7, 1),
        (32, 1),
        (2, 4),
        (7, 4),
        (32, 4),
    ] {
        let name = format!("k{shards}-t{threads}");
        let config = campaign_config(&name, shards, threads);
        let report = run(&config).unwrap_or_else(|e| panic!("{name}: {e}"));
        let bytes = std::fs::read(&config.out).unwrap();
        assert_eq!(
            bytes, *golden,
            "store bytes diverged from the monolithic golden at {name}"
        );
        assert_eq!(report.store_bytes, bytes.len() as u64, "{name}");
        assert_eq!(report.store_digest, mtd_campaign::fnv64(&bytes), "{name}");

        // The assembled store is a valid MTDSTORE, not just matching bytes.
        let back = mtd_dataset::store::decode_binary(&bytes, 1)
            .unwrap_or_else(|e| panic!("{name}: decode: {e}"));
        assert_eq!(
            mtd_dataset::store::encode_binary(&back, 1),
            *golden,
            "{name}: re-encode"
        );
        std::fs::remove_dir_all(&config.dir).ok();
    }
}

#[test]
fn digest_invariance_holds_across_seeds() {
    // A small seed sweep: every seed gets its own runtime golden; the
    // campaign must match each one. Guards against an invariance that
    // accidentally only holds for one RNG stream.
    for seed in [7u64, 1234, 0xDEAD] {
        let mut config = campaign_config(&format!("seed-{seed}"), 3, 1);
        config.scenario.seed = seed;
        config.scenario.n_bs = 9;
        config.scenario.days = 1;

        let topology = Topology::generate(config.scenario.n_bs, seed);
        let catalog = ServiceCatalog::paper();
        let ds = Dataset::build(&config.scenario, &topology, &catalog);
        let golden = mtd_dataset::store::encode_binary(&ds, 1);

        run(&config).unwrap();
        let bytes = std::fs::read(&config.out).unwrap();
        assert_eq!(bytes, golden, "seed {seed}");
        std::fs::remove_dir_all(&config.dir).ok();
    }
}

#[test]
fn status_tracks_progress_and_run_refuses_to_clobber() {
    let config = campaign_config("status", 2, 1);
    let report = run(&config).unwrap();
    assert_eq!(report.shards, 2);

    let s = status(&config.dir).unwrap();
    assert_eq!(s.shards_done, 2);
    assert!(s.assembled);
    assert_eq!(s.n_bs, config.scenario.n_bs);

    // A directory with a manifest refuses a fresh `run`.
    assert!(matches!(
        run(&config),
        Err(CampaignError::AlreadyStarted(_))
    ));

    // Status on an empty directory is a structured NotStarted.
    let empty = workdir("status-empty");
    std::fs::create_dir_all(&empty).unwrap();
    assert!(matches!(status(&empty), Err(CampaignError::NotStarted(_))));
    std::fs::remove_dir_all(&config.dir).ok();
    std::fs::remove_dir_all(&empty).ok();
}

//! Peak-memory regression gate for control-plane campaigns.
//!
//! A control-plane campaign keeps a second per-BS row plane (attach,
//! handover and paging counts per minute) beside the minute rows. Runs a
//! 120 BS × 45 day campaign in 12 shards with that plane on, under the
//! counting global allocator, and pins an upper bound on peak live heap
//! bytes: if a shard's signaling rows go back to a dense row for every
//! station they touch, fringe included, this fails.
//!
//! This file holds exactly one test: the allocator peak is a
//! process-global high-water mark, so no other allocations may share
//! the binary.

use mtd_campaign::{run, CampaignConfig};
use mtd_netsim::{ScenarioConfig, StressConfig};

#[global_allocator]
static ALLOC: mtd_telemetry::alloc::CountingAlloc = mtd_telemetry::alloc::CountingAlloc::new();

/// Pinned gate: peak live heap for the campaign below. Measured 50.9 MB
/// (50,906,494 bytes) with every row of either plane starting sparse and
/// turning dense by its own size. A dense signaling row for every station
/// a shard touched read 84.2 MB (84,200,036 bytes), and the same campaign
/// without the control plane reads 46.3 MB. The gate sits between the
/// first two, with 1.3× headroom over the measured peak.
const PEAK_LIVE_BYTES_GATE: i64 = 64 * 1024 * 1024;

#[test]
fn control_plane_campaign_peak_heap_stays_under_the_pinned_gate() {
    let scenario = ScenarioConfig {
        n_bs: 120,
        days: 45,
        arrival_scale: 0.01,
        stress: StressConfig {
            control_plane: true,
            ..StressConfig::default()
        },
        ..ScenarioConfig::small_test()
    };
    let dir = std::env::temp_dir().join("mtd_campaign_memory_control_plane");
    std::fs::remove_dir_all(&dir).ok();
    let config = CampaignConfig {
        scenario,
        shards: 12,
        threads: 1,
        out: dir.join("store.mtdstore"),
        dir,
        kill_after: None,
        refit_window: None,
    };
    let report = run(&config).expect("campaign completes");
    assert!(report.store_bytes > 0);

    let stats = mtd_telemetry::alloc::stats();
    assert!(stats.installed, "counting allocator must be active");
    eprintln!(
        "control-plane campaign peak live heap: {} bytes (gate {})",
        stats.peak_live_bytes, PEAK_LIVE_BYTES_GATE
    );
    assert!(
        stats.peak_live_bytes < PEAK_LIVE_BYTES_GATE,
        "control-plane campaign peak heap {} exceeds the pinned gate {} — \
         a shard is holding dense rows for stations it barely touched",
        stats.peak_live_bytes,
        PEAK_LIVE_BYTES_GATE
    );
    std::fs::remove_dir_all(&config.dir).ok();
}

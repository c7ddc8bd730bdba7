//! Peak-memory regression gate for the out-of-core campaign path.
//!
//! Runs a campaign at 10× the invariance battery's toy scale under the
//! counting global allocator and pins an upper bound on peak live heap
//! bytes. The bound is echoed as `test_battery_gate_bytes` in
//! `BENCH_scale.json`; if a change makes assembly or the shard sinks
//! materialize whole-campaign state again, this fails long before the
//! paper-scale bench would.
//!
//! This file holds exactly one test: the allocator peak is a
//! process-global high-water mark, so no other allocations may share
//! the binary.

use mtd_campaign::{run, CampaignConfig};
use mtd_netsim::ScenarioConfig;

#[global_allocator]
static ALLOC: mtd_telemetry::alloc::CountingAlloc = mtd_telemetry::alloc::CountingAlloc::new();

/// Pinned gate: peak live heap for the 120-BS × 3-day campaign below.
/// Measured 6.0 MB: assembly holds one service's group cells at a time.
/// Holding every (service, group, day) cell at once read 22.1 MB, so the
/// gate trips on that map coming back while leaving ~2.7× headroom for
/// allocator and platform noise.
const PEAK_LIVE_BYTES_GATE: i64 = 16 * 1024 * 1024;

#[test]
fn campaign_peak_heap_stays_under_the_pinned_gate() {
    let scenario = ScenarioConfig {
        n_bs: 120,
        days: 3,
        arrival_scale: 0.05,
        ..ScenarioConfig::small_test()
    };
    let dir = std::env::temp_dir().join("mtd_campaign_memory");
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
        "campaign peak live heap: {} bytes (gate {})",
        stats.peak_live_bytes, PEAK_LIVE_BYTES_GATE
    );
    assert!(
        stats.peak_live_bytes < PEAK_LIVE_BYTES_GATE,
        "campaign peak heap {} exceeds the pinned gate {} — the \
         out-of-core path is materializing too much at once",
        stats.peak_live_bytes,
        PEAK_LIVE_BYTES_GATE
    );
    std::fs::remove_dir_all(&config.dir).ok();
}

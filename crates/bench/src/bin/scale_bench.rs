//! Records the campaign scaling numbers behind `BENCH_scale.json`: runs
//! the sharded out-of-core campaign runner (DESIGN.md §13) at two sizes a
//! decade apart **with the same stations per shard**, and pins that peak
//! live heap barely grows with the campaign.
//!
//! The comparison holds stations per shard fixed because that is what
//! a shard's memory follows: its accumulator holds the per-BS cells and
//! dense minute rows of its own stations and its fringe, and its spill
//! image encodes them. At a fixed shard count the big campaign's shards
//! each hold ten times the stations, so that ratio measures the shard
//! size, not whether anything holds the whole campaign. With shards of
//! equal size, only per-station arrays (totals, deciles, a shard's
//! direct index), one spill cursor per shard and the assembler's one
//! service of group cells (realized groups × days) grow with the
//! campaign, and a structure that holds the whole campaign at once
//! shows up as the ratio: the assembler's map of every (service, group,
//! day) cell read 2.80× here.
//!
//! The small campaign runs FIRST: the counting allocator's peak is a
//! process-global monotonic high-water mark, so only the
//! small-before-big order yields a valid per-size reading.
//!
//! Usage: `cargo run --release -p mtd-bench --bin scale_bench [out.json]`
//! `MTD_FAST=1` shrinks both campaigns for CI smoke runs (same decade
//! ratio and stations per shard rule, seconds instead of minutes).

use mtd_bench::BenchReport;
use mtd_campaign::{run, CampaignConfig};
use mtd_netsim::ScenarioConfig;
use std::time::Instant;

#[global_allocator]
static ALLOC: mtd_telemetry::alloc::CountingAlloc = mtd_telemetry::alloc::CountingAlloc::new();

/// Peak live heap gate for the BIG campaign (1000 BS × 45 days in 40
/// shards), full mode. Measured 125 MiB; holding every group cell at
/// once read 598 MiB, and a monolithic build would hold ~780 MB of dense
/// minute rows alone.
const ALLOC_GATE_FULL: i64 = 256 * 1024 * 1024;
/// Fast-mode twin (240 BS × 3 days in 20 shards): measured 4.3 MiB,
/// against 26.6 MiB with every group cell held at once.
const ALLOC_GATE_FAST: i64 = 16 * 1024 * 1024;

/// Bound on big-over-small peak live heap in both modes, for a 10×
/// campaign at equal stations per shard.
const PEAK_RATIO_BOUND: f64 = 2.0;

/// The invariance battery's pinned gate (crates/campaign/tests/memory.rs),
/// echoed here so the bench artifact documents both bounds.
const TEST_BATTERY_GATE: i64 = 16 * 1024 * 1024;

struct CampaignRun {
    label: &'static str,
    /// Base stations, days and shards.
    size: (usize, u32, u32),
    seconds: f64,
    bs_minutes: u64,
    store_bytes: u64,
    peak_live_bytes: i64,
}

fn run_campaign(label: &'static str, size: (usize, u32, u32)) -> CampaignRun {
    let (n_bs, days, shards) = size;
    let dir = std::env::temp_dir().join("mtd_scale_bench").join(label);
    std::fs::remove_dir_all(&dir).ok();
    let config = CampaignConfig {
        scenario: ScenarioConfig {
            n_bs,
            days,
            seed: 0x5CA1E,
            // Light per-BS load: the bench measures the out-of-core
            // machinery's scaling, not raw session throughput.
            arrival_scale: 0.01,
            ..ScenarioConfig::default()
        },
        shards,
        threads: 1,
        out: dir.join("store.mtdstore"),
        dir,
        kill_after: None,
        refit_window: None,
    };
    eprintln!("campaign {label}: {n_bs} BS x {days} days in {shards} shards ...");
    let start = Instant::now();
    let report = run(&config).unwrap_or_else(|e| panic!("{label}: {e}"));
    let seconds = start.elapsed().as_secs_f64();
    std::fs::remove_dir_all(&config.dir).ok();
    let peak = mtd_telemetry::alloc::stats().peak_live_bytes;
    eprintln!(
        "campaign {label}: {seconds:.1}s, {} bytes, peak live heap {peak} bytes",
        report.store_bytes
    );
    CampaignRun {
        label,
        size,
        seconds,
        bs_minutes: report.bs_minutes(),
        store_bytes: report.store_bytes,
        peak_live_bytes: peak,
    }
}

fn json_for(r: &CampaignRun) -> String {
    format!(
        "{{\"label\": \"{}\", \"n_bs\": {}, \"days\": {}, \"shards\": {}, \
         \"bs_minutes\": {}, \"store_bytes\": {}, \
         \"seconds\": {:.3}, \"bs_minutes_per_second\": {:.0}, \
         \"peak_live_heap_bytes\": {}}}",
        r.label,
        r.size.0,
        r.size.1,
        r.size.2,
        r.bs_minutes,
        r.store_bytes,
        r.seconds,
        r.bs_minutes as f64 / r.seconds,
        r.peak_live_bytes
    )
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_scale.json".to_string());
    let fast = std::env::var_os("MTD_FAST").is_some();

    // (base stations, days, shards), one decade apart in base stations
    // and shards at identical days, so the size ratio is exactly 10x at
    // equal stations per shard.
    let (small, big, gate) = if fast {
        ((24, 3, 2), (240, 3, 20), ALLOC_GATE_FAST)
    } else {
        ((100, 45, 4), (1000, 45, 40), ALLOC_GATE_FULL)
    };

    // Small FIRST: the allocator peak is monotonic (see module docs).
    let small_run = run_campaign("small", small);
    let big_run = run_campaign("big", big);

    let size_ratio = big_run.bs_minutes as f64 / small_run.bs_minutes as f64;
    let peak_ratio = big_run.peak_live_bytes as f64 / small_run.peak_live_bytes.max(1) as f64;
    let peak_rss = mtd_telemetry::alloc::peak_rss_bytes();

    let mut report = BenchReport::new(if fast {
        "scale: sharded out-of-core campaign runner (MTD_FAST smoke sizes)"
    } else {
        "scale: sharded out-of-core campaign runner at paper-like size"
    });
    report.field_raw("campaign_small", &json_for(&small_run));
    report.field_raw("campaign_big", &json_for(&big_run));
    report.field_raw("size_ratio", &format!("{size_ratio:.1}"));
    report.field_raw("peak_heap_ratio", &format!("{peak_ratio:.2}"));
    report.field_raw("peak_heap_ratio_bound", &format!("{PEAK_RATIO_BOUND:.1}"));
    report.field_raw("alloc_gate_bytes", &gate.to_string());
    report.field_raw("test_battery_gate_bytes", &TEST_BATTERY_GATE.to_string());
    if let Some(rss) = peak_rss {
        report.field_raw("peak_rss_bytes", &rss.to_string());
    }
    report.write(&out_path);

    assert!(big_run.store_bytes > 0);
    assert!(
        big_run.peak_live_bytes < gate,
        "peak live heap {} exceeds the pinned gate {gate} — the campaign \
         runner is no longer out-of-core",
        big_run.peak_live_bytes
    );
    // At equal stations per shard, a 10x campaign must cost well under
    // 2x the peak live heap: whatever holds the whole campaign at once
    // grows with it, and reads as the ratio.
    assert!(
        peak_ratio < PEAK_RATIO_BOUND,
        "peak heap ratio {peak_ratio:.2} of a {size_ratio:.1}x campaign at equal stations \
         per shard exceeds {PEAK_RATIO_BOUND:.1}: something holds the whole campaign"
    );
    eprintln!(
        "PASS: {size_ratio:.0}x campaign cost {peak_ratio:.2}x peak heap \
         (bound {PEAK_RATIO_BOUND:.1}, gate {gate} bytes)"
    );
}

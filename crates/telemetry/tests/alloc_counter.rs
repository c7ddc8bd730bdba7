//! The counting allocator's live and peak byte counters.
//!
//! This file holds exactly one test: the counters are process-global, so
//! any other test sharing the binary — the profiler tests, their `/proc`
//! reads — allocates and frees on its own threads between this test's
//! reads and breaks its arithmetic.

#[global_allocator]
static ALLOC: mtd_telemetry::alloc::CountingAlloc = mtd_telemetry::alloc::CountingAlloc::new();

#[test]
fn counting_allocator_tracks_live_and_peak() {
    // Installed via #[global_allocator] above: the very first heap use
    // flips `installed`.
    let stats = mtd_telemetry::alloc::stats();
    assert!(stats.installed, "counting allocator not installed");
    let before = mtd_telemetry::alloc::stats().live_bytes;
    let buf = vec![0u8; 1 << 20];
    let during = mtd_telemetry::alloc::stats();
    assert!(
        during.live_bytes >= before + (1 << 20),
        "live {} before {}",
        during.live_bytes,
        before
    );
    assert!(during.peak_live_bytes >= during.live_bytes - before);
    drop(buf);
    let after = mtd_telemetry::alloc::stats();
    assert!(after.live_bytes < during.live_bytes);
    assert!(after.allocs > 0 && after.deallocs > 0);
}
